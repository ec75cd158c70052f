"""One boot description, resolved in one place.

A *boot spec* is the declarative, JSON-able description of one simulated
run.  The fleet wire protocol receives specs, the CLI builds one from its
flags and a :class:`~repro.generations.Generation` renders itself as one;
:func:`resolve_spec` is the only code that turns the names in a spec into
objects, so a typo gets the same one-line error wherever it enters::

    {"kind": "boot"|"recover", "workload": <name>,
     "bb": "full"|"none"|[feature...], "cores": <int|null>,
     "fault": {"preset": <name>, "seed": <int>}|null,
     "repeat": <int>, "label": <str>}

Every key is optional: ``{}`` is one full-BB boot of ``tv``.  The module
imports no runner or fleet code, so ``repro boot`` stays cheap to start.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Callable

from repro.core import BBConfig, BootSimulation
from repro.errors import ConfigurationError
from repro.faults.plan import FaultPlan
from repro.faults.presets import PRESETS, build_preset
from repro.workloads import WORKLOAD_FACTORIES
from repro.workloads.base import Workload

#: Spec keys the resolver accepts; anything else is a typo worth rejecting.
SPEC_KEYS = frozenset({"kind", "workload", "bb", "cores", "fault",
                       "repeat", "label"})

_FEATURES = frozenset(field.name for field in fields(BBConfig))


@dataclass(frozen=True, slots=True)
class ResolvedSpec:
    """A boot spec with every name resolved (``repeat`` identical
    tickets of one ``kind`` job; ``cores``/``fault_plan`` may be None)."""

    kind: str
    factory: Callable[[], Workload]
    bb: BBConfig
    cores: int | None
    fault_plan: FaultPlan | None
    repeat: int
    label: str

    def simulation(self) -> BootSimulation:
        """A fresh, not yet run simulation of this boot."""
        return BootSimulation(self.factory(), self.bb, cores=self.cores,
                              fault_plan=self.fault_plan)


def _resolve_bb(value: Any) -> BBConfig:
    if value is None or value == "full":
        return BBConfig.full()
    if value == "none":
        return BBConfig.none()
    if isinstance(value, list) and all(isinstance(f, str) for f in value):
        for feature in value:
            if feature not in _FEATURES:
                raise ConfigurationError(f"unknown BB feature {feature!r}")
        return BBConfig(**dict.fromkeys(value, True))
    raise ConfigurationError(f"bad 'bb' value {value!r}: expected 'full', "
                             f"'none', or a list of feature names")


def _resolve_fault(value: Any) -> FaultPlan | None:
    if value is None:
        return None
    if not isinstance(value, dict) or "preset" not in value:
        raise ConfigurationError(f"bad 'fault' value {value!r}: expected "
                                 f"{{'preset': name, 'seed': int}}")
    preset, seed = value["preset"], value.get("seed", 1)
    if type(seed) is not int:  # bool is an int subclass
        raise ConfigurationError(f"fault seed must be an int, got {seed!r}")
    if not isinstance(preset, str) or preset not in PRESETS:
        raise ConfigurationError(f"unknown fault preset {preset!r}; choose "
                                 f"from {', '.join(PRESETS)}")
    return build_preset(preset, seed=seed)


def resolve_spec(spec: Any) -> ResolvedSpec:
    """Resolve one boot spec.

    Raises:
        ConfigurationError: On any unknown key, kind, workload, feature
            or preset, or an ill-typed value — one line naming it.
    """
    if not isinstance(spec, dict):
        raise ConfigurationError(f"job spec must be an object, got {spec!r}")
    unknown = set(spec) - SPEC_KEYS
    if unknown:
        raise ConfigurationError(f"unknown job spec keys: {sorted(unknown)}")
    kind = spec.get("kind", "boot")
    if kind not in ("boot", "recover"):
        raise ConfigurationError(f"unknown job kind {kind!r}; "
                                 f"expected 'boot' or 'recover'")
    name = spec.get("workload", "tv")
    factory = WORKLOAD_FACTORIES.get(name) if isinstance(name, str) else None
    if factory is None:
        raise ConfigurationError(
            f"unknown workload {name!r}; choose from "
            f"{', '.join(sorted(WORKLOAD_FACTORIES))}")
    # ``type(x) is int``, not isinstance: JSON true/false decode to bool,
    # and ``{"cores": true}`` would fingerprint apart from ``{"cores": 1}``.
    repeat, cores = spec.get("repeat", 1), spec.get("cores")
    if type(repeat) is not int or repeat < 1:
        raise ConfigurationError(
            f"'repeat' must be an int >= 1, got {repeat!r}")
    if cores is not None and (type(cores) is not int or cores < 1):
        raise ConfigurationError(
            f"'cores' must be an int >= 1, got {cores!r}")
    if kind == "recover" and cores is not None:
        raise ConfigurationError("'cores' is not supported on recover jobs")
    label = spec.get("label", "")
    if not isinstance(label, str):
        raise ConfigurationError(f"'label' must be a string, got {label!r}")
    return ResolvedSpec(kind, factory, _resolve_bb(spec.get("bb")), cores,
                        _resolve_fault(spec.get("fault")), repeat, label)
