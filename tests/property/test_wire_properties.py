"""Fuzzing the fleet's wire trust boundary (hypothesis).

Every byte a client sends crosses :func:`~repro.fleet.protocol.decode_frame`
and every job spec crosses :func:`~repro.fleet.protocol.job_from_spec`
before the service trusts it.  The service answers a
:class:`~repro.errors.ProtocolError` with an ``error`` event and keeps
the connection; any other exception escapes its per-frame handling and
drops the connection without a word.  So for *any* input each function
must return its documented value or raise ``ProtocolError``.
"""

import json
from dataclasses import fields

from hypothesis import given
from hypothesis import strategies as st

from repro.core.config import BBConfig
from repro.errors import ProtocolError
from repro.faults.presets import PRESETS
from repro.fleet.protocol import (WORKLOAD_FACTORIES, decode_frame,
                                  job_from_spec)
from repro.runner.jobs import SimJob

_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda children: (st.lists(children, max_size=4)
                      | st.dictionaries(st.text(), children, max_size=4)),
    max_leaves=12)

# Well-formed values per spec key, so the fuzzer reaches every check
# behind the first one instead of bouncing off an unknown workload.
_PLAUSIBLE = {
    "kind": st.sampled_from(["boot", "recover"]),
    "workload": st.sampled_from(sorted(WORKLOAD_FACTORIES)),
    "bb": st.sampled_from(["full", "none"]) | st.lists(
        st.sampled_from([field.name for field in fields(BBConfig)]),
        max_size=3),
    "cores": st.integers(min_value=1, max_value=8),
    "fault": st.fixed_dictionaries(
        {"preset": st.sampled_from(sorted(PRESETS)) | _JSON},
        optional={"seed": st.integers() | _JSON}),
    "repeat": st.integers(min_value=1, max_value=5),
    "label": st.text(),
}

_SPECS = st.fixed_dictionaries(
    {}, optional={key: plausible | _JSON
                  for key, plausible in _PLAUSIBLE.items()})

_DEEP = st.builds(lambda opener, depth: opener * depth,
                  st.sampled_from([b"[", b'{"jobs":', b'[{"a":']),
                  st.integers(min_value=1, max_value=200_000))


@given(spec=_SPECS | _JSON)
def test_job_from_spec_returns_a_job_or_raises_protocol_error(spec):
    try:
        job, repeat = job_from_spec(spec)
    except ProtocolError:
        return
    assert isinstance(job, SimJob)
    assert type(repeat) is int and repeat >= 1
    assert job.cores is None or type(job.cores) is int
    assert isinstance(job.label, str)
    assert job.fingerprint()


@given(line=st.binary(max_size=256)
       | _JSON.map(lambda value: json.dumps(value).encode())
       | _DEEP)
def test_decode_frame_returns_a_dict_or_raises_protocol_error(line):
    try:
        message = decode_frame(line)
    except ProtocolError:
        return
    assert isinstance(message, dict)
