"""The simulated clock.

Simulated time is a single non-decreasing integer nanosecond counter.  The
clock object exists (rather than a bare int on the engine) so that hardware
and kernel models can hold a reference to it without depending on the whole
engine, and so tests can drive time directly.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.quantities import format_ns


class SimClock:
    """Monotonic integer-nanosecond simulation clock.

    The engine is the only writer: its run loop sets ``_now`` inline after
    the same backwards check :meth:`advance_to` makes.  Models read
    :attr:`now` freely.
    """

    __slots__ = ("_now",)

    def __init__(self, start_ns: int = 0):
        if start_ns < 0:
            raise SimulationError(f"clock cannot start negative: {start_ns}")
        self._now = start_ns

    @property
    def now(self) -> int:
        """Current simulation time in nanoseconds."""
        return self._now

    def advance_to(self, t_ns: int) -> None:
        """Move the clock forward to ``t_ns``.

        Raises:
            SimulationError: If ``t_ns`` is in the past — a scheduling bug.
        """
        if t_ns < self._now:
            raise SimulationError(
                f"attempt to move clock backwards: {t_ns} < {self._now}"
            )
        self._now = t_ns

    def __repr__(self) -> str:
        return f"SimClock(now={format_ns(self._now)})"
