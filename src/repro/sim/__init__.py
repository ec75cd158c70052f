"""Deterministic discrete-event simulation engine.

This package is the substrate on which the whole boot stack is modeled.
It provides:

* :class:`~repro.sim.engine.Simulator` — the event loop with an
  integer-nanosecond clock,
* :class:`~repro.sim.process.Process` — generator-coroutine processes that
  ``yield`` request objects (:class:`~repro.sim.process.Timeout`,
  :class:`~repro.sim.process.Compute`, ...),
* :class:`~repro.sim.cpu.CPU` — a multicore processor model with priority
  run queues; ``Compute`` requests occupy a core, so parallelism is bounded
  by the core count exactly as on the paper's quad-core Cortex-A9,
* synchronization primitives in :mod:`repro.sim.sync` whose blocking
  behaviour differs in the way that matters for the paper: a
  :class:`~repro.sim.sync.SpinLock` burns a core while waiting, while a
  :class:`~repro.sim.sync.Mutex` sleeps and releases the core,
* :class:`~repro.sim.tracing.Tracer` — span/instant trace recording used by
  the bootchart renderer,
* :class:`~repro.sim.checkpoint.InjectorSlot` — the checkpoint/fork
  seam: a swappable fault-injector stand-in that offers every query the
  boot makes to an observer, so a shared prefix can be branched per fault
  plan at the plan's first perturbed query
  (:func:`~repro.sim.checkpoint.first_divergence`).

The engine is deterministic: ties are broken by scheduling order, time is
integer nanoseconds, and no wall-clock or OS randomness is consulted.
"""

from repro.sim.checkpoint import InjectorSlot, first_divergence
from repro.sim.clock import SimClock
from repro.sim.cpu import CPU, CpuStats
from repro.sim.engine import Simulator
from repro.sim.process import Compute, Interrupted, Process, Timeout, Wait
from repro.sim.sync import Completion, Mutex, SpinLock
from repro.sim.tracing import Span, TraceInstant, Tracer

__all__ = [
    "CPU",
    "Completion",
    "Compute",
    "CpuStats",
    "InjectorSlot",
    "Interrupted",
    "Mutex",
    "Process",
    "SimClock",
    "Simulator",
    "Span",
    "SpinLock",
    "Timeout",
    "TraceInstant",
    "Tracer",
    "Wait",
    "first_divergence",
]
