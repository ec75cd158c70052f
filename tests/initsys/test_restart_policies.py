"""Restart-policy semantics: always/on-watchdog, backoff, start limits,
watchdog hygiene, and OnFailure= activation."""

import pytest

from repro.hw.presets import emmc_ue48h6200
from repro.initsys.executor import JobExecutor, PathRegistry
from repro.initsys.registry import UnitRegistry
from repro.initsys.transaction import JobState, Transaction
from repro.initsys.units import (RestartPolicy, ServiceType, SimCost, Unit,
                                 DEFAULT_START_LIMIT_BURST)
from repro.kernel.rcu import RCUSubsystem
from repro.quantities import msec
from repro.sim import Simulator


def run_units(units, goal="goal.target", restart_seed=0, restart_jitter=0.0):
    sim = Simulator(cores=4)
    storage = emmc_ue48h6200().attach(sim)
    registry = UnitRegistry(units)
    txn = Transaction(registry, [goal])
    executor = JobExecutor(sim, txn, storage, RCUSubsystem(sim),
                           PathRegistry(sim), restart_seed=restart_seed,
                           restart_jitter=restart_jitter)
    executor.start_all()
    sim.run()
    return sim, txn, executor


def flaky(name="flaky.service", *, fails=0, policy=RestartPolicy.ON_FAILURE,
          delay_ms=10, **kwargs):
    return Unit(name=name, service_type=ServiceType.ONESHOT,
                failures_before_success=fails, restart_policy=policy,
                restart_delay_ns=msec(delay_ms),
                cost=SimCost(init_cpu_ns=msec(1), exec_bytes=0), **kwargs)


def hanging(name="hung.service", *, policy, timeout_ms=20, **kwargs):
    return Unit(name=name, service_type=ServiceType.ONESHOT,
                restart_policy=policy, start_timeout_ns=msec(timeout_ms),
                restart_delay_ns=msec(5),
                cost=SimCost(init_cpu_ns=msec(500), exec_bytes=0), **kwargs)


# ------------------------------------------------------------------ always

def test_always_restarts_past_max_restarts():
    """Restart=always ignores max_restarts; only the start-rate limit
    (the systemd 5-per-10s default) stops it."""
    sim, txn, _ = run_units([
        Unit(name="goal.target", wants=["flaky.service"]),
        flaky(fails=20, policy=RestartPolicy.ALWAYS, max_restarts=1),
    ])
    job = txn.job("flaky.service")
    assert job.state is JobState.FAILED
    assert job.attempts == DEFAULT_START_LIMIT_BURST
    assert "start-limit-hit" in job.failure_reason


def test_always_recovers_within_start_limit():
    sim, txn, _ = run_units([
        Unit(name="goal.target", requires=["flaky.service"]),
        flaky(fails=3, policy=RestartPolicy.ALWAYS, max_restarts=0),
    ])
    job = txn.job("flaky.service")
    assert job.ready_at_ns is not None
    assert job.attempts == 4


def test_always_declared_burst_overrides_default():
    sim, txn, _ = run_units([
        Unit(name="goal.target", wants=["flaky.service"]),
        flaky(fails=20, policy=RestartPolicy.ALWAYS, start_limit_burst=3),
    ])
    assert txn.job("flaky.service").attempts == 3


# -------------------------------------------------------------- on-watchdog

def test_on_watchdog_restarts_after_timeout_only():
    sim, txn, _ = run_units([
        Unit(name="goal.target", wants=["hung.service"]),
        hanging(policy=RestartPolicy.ON_WATCHDOG, max_restarts=2),
    ])
    job = txn.job("hung.service")
    assert job.state is JobState.FAILED
    assert job.attempts == 3  # initial + max_restarts watchdog retries
    assert len(job.restart_delays_ns) == 2


def test_on_watchdog_does_not_restart_after_crash():
    sim, txn, _ = run_units([
        Unit(name="goal.target", wants=["flaky.service"]),
        flaky(fails=1, policy=RestartPolicy.ON_WATCHDOG),
    ])
    job = txn.job("flaky.service")
    assert job.state is JobState.FAILED
    assert job.attempts == 1
    assert job.restart_delays_ns == []


def test_on_failure_restarts_after_both_crash_and_timeout():
    sim, txn, _ = run_units([
        Unit(name="goal.target", wants=["hung.service"]),
        hanging(policy=RestartPolicy.ON_FAILURE, max_restarts=1),
    ])
    assert txn.job("hung.service").attempts == 2


# --------------------------------------------------------- watchdog hygiene

def test_watchdog_cancelled_on_successful_attempt():
    """A successful start must cancel its JobTimeout: the run goes
    quiescent immediately, with no stray event left to fire at the
    timeout horizon."""
    timeout_ms = 10_000
    sim, txn, _ = run_units([
        Unit(name="goal.target", requires=["fine.service"]),
        Unit(name="fine.service", service_type=ServiceType.ONESHOT,
             start_timeout_ns=msec(timeout_ms),
             cost=SimCost(init_cpu_ns=msec(2), exec_bytes=0)),
    ])
    assert txn.job("fine.service").ready_at_ns is not None
    assert sim.now < msec(timeout_ms)  # nothing waited for the watchdog
    assert len(sim.events) == 0  # no live events at quiescence


def test_watchdog_cancelled_on_each_restart_attempt():
    sim, txn, _ = run_units([
        Unit(name="goal.target", requires=["flaky.service"]),
        flaky(fails=2, start_timeout_ns=msec(60_000)),
    ])
    job = txn.job("flaky.service")
    assert job.attempts == 3
    assert job.ready_at_ns is not None
    assert sim.now < msec(60_000)
    assert len(sim.events) == 0


# ------------------------------------------------------- backoff and jitter

def test_exponential_backoff_delays():
    sim, txn, _ = run_units([
        Unit(name="goal.target", requires=["flaky.service"]),
        flaky(fails=3, delay_ms=10, restart_backoff_factor=2.0),
    ])
    assert txn.job("flaky.service").restart_delays_ns == [
        msec(10), msec(20), msec(40)]


def test_constant_delay_without_backoff_factor():
    sim, txn, _ = run_units([
        Unit(name="goal.target", requires=["flaky.service"]),
        flaky(fails=2, delay_ms=10),
    ])
    assert txn.job("flaky.service").restart_delays_ns == [msec(10), msec(10)]


def units_for_jitter():
    return [Unit(name="goal.target", requires=["flaky.service"]),
            flaky(fails=3, delay_ms=10, restart_backoff_factor=2.0)]


def test_jitter_is_seed_deterministic():
    _, txn_a, _ = run_units(units_for_jitter(), restart_seed=7,
                            restart_jitter=0.5)
    _, txn_b, _ = run_units(units_for_jitter(), restart_seed=7,
                            restart_jitter=0.5)
    delays_a = txn_a.job("flaky.service").restart_delays_ns
    delays_b = txn_b.job("flaky.service").restart_delays_ns
    assert delays_a == delays_b
    assert delays_a != [msec(10), msec(20), msec(40)]  # jitter moved them
    # Every delay stays within +/- 50% of the backoff schedule.
    for delay, base in zip(delays_a, (msec(10), msec(20), msec(40))):
        assert 0.5 * base <= delay <= 1.5 * base


def test_jitter_varies_with_seed():
    _, txn_a, _ = run_units(units_for_jitter(), restart_seed=1,
                            restart_jitter=0.5)
    _, txn_b, _ = run_units(units_for_jitter(), restart_seed=2,
                            restart_jitter=0.5)
    assert (txn_a.job("flaky.service").restart_delays_ns
            != txn_b.job("flaky.service").restart_delays_ns)


# -------------------------------------------------------------- start limit

def test_start_limit_caps_on_failure_restarts():
    sim, txn, _ = run_units([
        Unit(name="goal.target", wants=["flaky.service"]),
        flaky(fails=10, max_restarts=9, start_limit_burst=2),
    ])
    job = txn.job("flaky.service")
    assert job.state is JobState.FAILED
    assert job.attempts == 2
    assert "start-limit-hit" in job.failure_reason


def test_start_limit_window_forgets_old_starts():
    """Starts older than the interval fall out of the window, so slow
    restart cadences are not rate-limited."""
    sim, txn, _ = run_units([
        Unit(name="goal.target", requires=["flaky.service"]),
        flaky(fails=4, max_restarts=10, delay_ms=50, start_limit_burst=2,
              start_limit_interval_ns=msec(40)),
    ])
    job = txn.job("flaky.service")
    assert job.ready_at_ns is not None
    assert job.attempts == 5


# ---------------------------------------------------------------- OnFailure

def test_on_failure_unit_activated_when_job_fails():
    sim, txn, executor = run_units([
        Unit(name="goal.target", wants=["flaky.service"]),
        flaky(fails=10, max_restarts=0, on_failure=["cleanup.service"]),
        Unit(name="cleanup.service", service_type=ServiceType.ONESHOT,
             cost=SimCost(init_cpu_ns=msec(1), exec_bytes=0)),
    ])
    assert executor.on_failure_activated == [
        ("flaky.service", "cleanup.service")]
    handler = txn.job("cleanup.service")
    assert handler.ready_at_ns is not None
    assert any(record.name == "cleanup.service.on-failure-activated"
               for record in sim.tracer.instants)


def test_on_failure_handler_not_pulled_by_goal():
    """The handler enters the transaction only when its trigger fails."""
    sim, txn, executor = run_units([
        Unit(name="goal.target", requires=["fine.service"]),
        Unit(name="fine.service", service_type=ServiceType.ONESHOT,
             on_failure=["cleanup.service"],
             cost=SimCost(init_cpu_ns=msec(1), exec_bytes=0)),
        Unit(name="cleanup.service", service_type=ServiceType.ONESHOT,
             cost=SimCost(init_cpu_ns=msec(1), exec_bytes=0)),
    ])
    assert executor.on_failure_activated == []
    assert "cleanup.service" not in txn.jobs


def test_missing_on_failure_handler_is_tolerated():
    sim, txn, executor = run_units([
        Unit(name="goal.target", wants=["flaky.service"]),
        flaky(fails=10, max_restarts=0, on_failure=["ghost.service"]),
    ])
    assert txn.job("flaky.service").state is JobState.FAILED
    assert executor.on_failure_activated == []
    assert any(record.name == "ghost.service.on-failure-missing"
               for record in sim.tracer.instants)
