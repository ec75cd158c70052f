"""The time-ordered event queue.

Events are kept in a binary heap of plain ``(time_ns, seq, event)``
tuples.  The monotonically increasing sequence number makes ordering of
same-time events deterministic (FIFO in scheduling order), which is what
makes whole simulations bit-for-bit reproducible — and, because ``seq`` is
unique, tuple comparison never falls through to the event object itself,
so every heap comparison is a C-level ``(int, int)`` compare instead of a
generated dataclass ``__lt__``.  Callbacks carry their arguments in the
event (``push(t, fn, *args)``), so hot paths schedule bound methods
directly instead of allocating a closure per event.

The engine's run loop calls into the queue once per event: it guards on
``_live`` (the count :meth:`EventQueue.__len__` returns) and calls
:meth:`EventQueue.pop`, consulting :meth:`EventQueue.peek_time` only when
it runs to a time limit.  Subclasses that count, digest or perturb events
therefore override ``pop`` or ``push`` and keep ``_live`` exact.
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Callable

from repro.errors import SimulationError


class ScheduledEvent:
    """A callback scheduled at an absolute simulation time.

    The heap orders ``(time_ns, seq)`` tuples, so events pop in time order
    with FIFO tie-breaking.  ``cancelled`` events stay in the heap and are
    skipped when popped (lazy deletion).  Run one with :meth:`fire` (or
    ``event.callback(*event.args)``).
    """

    __slots__ = ("time_ns", "seq", "callback", "args", "cancelled", "executed")

    def __init__(self, time_ns: int, seq: int,
                 callback: Callable[..., None], args: tuple[Any, ...] = ()):
        self.time_ns = time_ns
        self.seq = seq
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.executed = False

    def fire(self) -> None:
        """Invoke the callback with its stored arguments."""
        self.callback(*self.args)

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else (
            "executed" if self.executed else "pending")
        return (f"ScheduledEvent(time_ns={self.time_ns}, seq={self.seq}, "
                f"{state})")


#: Allocates a :class:`ScheduledEvent` without running its ``__init__``.
_new_event = object.__new__


class EventQueue:
    """Deterministic min-heap of :class:`ScheduledEvent` objects."""

    def __init__(self) -> None:
        self._heap: list[tuple[int, int, ScheduledEvent]] = []
        self._seq = 0
        self._live = 0

    def __len__(self) -> int:
        """Number of non-cancelled events still queued."""
        return self._live

    def push(self, time_ns: int, callback: Callable[..., None],
             *args: Any) -> ScheduledEvent:
        """Schedule ``callback(*args)`` at absolute time ``time_ns``.

        The event's slots are filled here rather than by
        ``ScheduledEvent.__init__``: one frame per push instead of two.
        """
        if time_ns < 0:
            raise SimulationError(f"cannot schedule event at negative time {time_ns}")
        seq = self._seq
        self._seq = seq + 1
        self._live += 1
        event = _new_event(ScheduledEvent)
        event.time_ns = time_ns
        event.seq = seq
        event.callback = callback
        event.args = args
        event.cancelled = False
        event.executed = False
        heappush(self._heap, (time_ns, seq, event))
        return event

    def pop(self) -> ScheduledEvent:
        """Remove and return the earliest non-cancelled event.

        Raises:
            SimulationError: If the queue holds no live events.
        """
        heap = self._heap
        while heap:
            event = heappop(heap)[2]
            if event.cancelled:
                continue
            self._live -= 1
            event.executed = True
            return event
        raise SimulationError("pop from empty event queue")

    def peek_time(self) -> int | None:
        """Time of the earliest live event, or ``None`` if the queue is empty."""
        heap = self._heap
        while heap and heap[0][2].cancelled:
            heappop(heap)
        if not heap:
            return None
        return heap[0][0]

    def cancel(self, event: ScheduledEvent) -> None:
        """Cancel a scheduled event (lazy deletion; idempotent; cancelling
        an event that already ran is a harmless no-op)."""
        if not event.cancelled and not event.executed:
            event.cancelled = True
            self._live -= 1
