"""FaultPlan value semantics: validation, pickling, fingerprints."""

import pickle

import pytest

from repro.core import BBConfig
from repro.errors import ConfigurationError
from repro.faults import (DeferredFault, FaultPlan, ModuleFault, PathFault,
                          ServiceFault, SettleFault, StorageFault,
                          build_preset)
from repro.faults.presets import PRESETS
from repro.runner import SimJob
from repro.runner.jobs import canonical_repr
from repro.workloads import opensource_tv_workload


class TestValidation:
    def test_rates_must_be_probabilities(self):
        with pytest.raises(ConfigurationError):
            StorageFault(spike_rate=1.5)
        with pytest.raises(ConfigurationError):
            ServiceFault(unit="x.service", fail_rate=-0.1)
        with pytest.raises(ConfigurationError):
            ModuleFault(module="drv", fail_rate=2.0)

    def test_durations_cannot_be_negative(self):
        with pytest.raises(ConfigurationError):
            StorageFault(spike_ns=-1)
        with pytest.raises(ConfigurationError):
            PathFault(path="/dev/x", delay_ns=-5)
        with pytest.raises(ConfigurationError):
            ServiceFault(unit="x.service", hang_ns=-1)

    def test_patterns_cannot_be_empty(self):
        with pytest.raises(ConfigurationError):
            ServiceFault(unit="")
        with pytest.raises(ConfigurationError):
            ModuleFault(module="")
        with pytest.raises(ConfigurationError):
            PathFault(path="")

    def test_plan_rejects_wrong_spec_types(self):
        with pytest.raises(ConfigurationError):
            FaultPlan(services=(StorageFault(),))
        with pytest.raises(ConfigurationError):
            FaultPlan(storage=[StorageFault()])  # list, not tuple

    def test_negative_multiplier_rejected(self):
        with pytest.raises(ConfigurationError):
            SettleFault(multiplier=-1.0)


class TestValueSemantics:
    def test_empty_and_spec_count(self):
        assert FaultPlan().empty
        plan = FaultPlan(services=(ServiceFault(unit="a.service"),),
                         deferred=(DeferredFault(),))
        assert not plan.empty

    def test_plans_pickle_roundtrip(self):
        for name in PRESETS:
            plan = build_preset(name, seed=7)
            clone = pickle.loads(pickle.dumps(plan))
            assert clone == plan

    def test_unknown_preset_raises(self):
        with pytest.raises(ConfigurationError):
            build_preset("nope", seed=1)

    def test_describe_mentions_label_seed_and_specs(self):
        text = build_preset("broken-tuner", seed=3).describe()
        assert "broken-tuner" in text
        assert "seed=3" in text
        assert "services" in text

    def test_canonical_repr_is_stable_across_equal_plans(self):
        a = build_preset("flaky-services", seed=5)
        b = build_preset("flaky-services", seed=5)
        assert canonical_repr(a) == canonical_repr(b)
        assert canonical_repr(a) != canonical_repr(
            build_preset("flaky-services", seed=6))


class TestFingerprint:
    def test_fault_plan_participates_in_fingerprint(self):
        healthy = SimJob.boot(opensource_tv_workload, bb=BBConfig.full())
        faulted = SimJob.boot(opensource_tv_workload, bb=BBConfig.full(),
                              fault_plan=build_preset("broken-tuner", 1))
        reseeded = SimJob.boot(opensource_tv_workload, bb=BBConfig.full(),
                               fault_plan=build_preset("broken-tuner", 2))
        assert healthy.fingerprint() != faulted.fingerprint()
        assert faulted.fingerprint() != reseeded.fingerprint()

    def test_equal_plans_yield_equal_fingerprints(self):
        a = SimJob.boot(opensource_tv_workload, bb=BBConfig.full(),
                        fault_plan=build_preset("late-devices", 4))
        b = SimJob.boot(opensource_tv_workload, bb=BBConfig.full(),
                        fault_plan=build_preset("late-devices", 4))
        assert a.fingerprint() == b.fingerprint()
