"""Hypothesis-driven differential oracle tests.

Each test draws random simulation inputs and checks the run against the
closed-form model in :mod:`repro.verify.oracles`.  Counts are kept small
(an example is a whole simulation); the ``repro verify`` harness runs the
same oracles at fuzzing scale.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hw.storage import AccessPattern
from repro.verify import oracles
from repro.workloads.generator import GeneratorParams, generate_workload

boot_scale = settings(max_examples=8)


@given(nbytes=st.integers(0, 32 * 1024 * 1024),
       seq_bps=st.integers(1_000_000, 1_000_000_000),
       rand_bps=st.integers(500_000, 500_000_000),
       latency_ns=st.integers(0, 1_000_000),
       write=st.booleans(),
       pattern=st.sampled_from(AccessPattern))
def test_storage_io_matches_closed_form(nbytes, seq_bps, rand_bps,
                                        latency_ns, write, pattern):
    assert oracles.check_storage_io(nbytes, seq_bps, rand_bps, latency_ns,
                                    write, pattern) == []


@given(tasks=st.integers(1, 16), work_ns=st.integers(1, 40) .map(lambda k: k * 250_000),
       cores=st.integers(1, 8))
def test_parallel_speedup_matches_closed_form(tasks, work_ns, cores):
    assert oracles.check_parallel_speedup(tasks, work_ns, cores) == []


@given(demands=st.lists(st.integers(1, 8_000_000), min_size=1, max_size=10),
       cores_low=st.integers(1, 4), extra=st.integers(1, 4))
def test_uncontended_cores_are_monotone(demands, cores_low, extra):
    assert oracles.check_engine_core_monotonicity(
        demands, cores_low, cores_low + extra) == []


params_strategy = st.builds(
    GeneratorParams,
    seed=st.integers(0, 10_000),
    services=st.integers(5, 16),
    chain_length=st.integers(2, 4),
    want_density=st.floats(0.0, 0.6),
    order_density=st.floats(0.0, 0.4),
)


@boot_scale
@given(params_strategy)
def test_bb_is_never_slower_on_generated_workloads(params):
    factory = lambda: generate_workload(params)
    assert oracles.check_bb_not_slower(factory) == []


@boot_scale
@given(params_strategy, st.integers(1, 3), st.integers(1, 3))
def test_boot_cores_are_monotone_within_tolerance(params, low, extra):
    factory = lambda: generate_workload(params)
    assert oracles.check_boot_core_monotonicity(factory, low, low + extra) == []


def test_expected_transfer_handles_zero_bytes():
    assert oracles.expected_transfer_ns(0, 10**9, 55) == 55


def test_oracle_detects_a_slowed_device():
    """MUTANT: the oracle must actually be able to fail.  A device whose
    fault hook stalls every request no longer matches the closed form."""
    from repro.hw.storage import StorageDevice
    from repro.sim.engine import Simulator

    sim = Simulator(cores=1)
    device = StorageDevice("mutant", seq_read_bps=10_000_000,
                           rand_read_bps=5_000_000,
                           request_latency_ns=0).attach(sim)
    device.fault_hook = lambda nbytes, is_write: 123_456

    def transfer():
        yield from device.read(1024 * 1024)

    sim.spawn(transfer(), name="io")
    sim.run()
    assert sim.now != oracles.expected_transfer_ns(1024 * 1024,
                                                   10_000_000, 0)


def test_prediction_oracle_reports_a_one_ns_completion_drift(monkeypatch):
    """The predictor is exact, so the oracle allows no band: a completion
    time planted 1 ns late, with every unit time intact, is reported."""
    from dataclasses import replace
    from importlib import import_module

    from repro.core.config import BBConfig
    from repro.workloads import opensource_tv_workload

    predict_module = import_module("repro.analysis.predict")
    predict = predict_module.predict

    def one_ns_late(*args, **kwargs):
        prediction = predict(*args, **kwargs)
        return replace(prediction,
                       boot_complete_ns=prediction.boot_complete_ns + 1)

    monkeypatch.setattr(predict_module, "predict", one_ns_late)
    violations = oracles.check_prediction_matches_des(
        opensource_tv_workload, bb=BBConfig.full(), cores=4)
    assert len(violations) == 1, violations
    assert "(delta 1 ns)" in violations[0]
