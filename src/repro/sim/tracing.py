"""Span and instant-event tracing for simulations.

The tracer is the simulation's equivalent of ``systemd-bootchart``'s data
collector: models open a :class:`Span` when an activity begins (a kernel
phase, a service start job) and close it when the activity completes.  The
bootchart renderer and the experiment reports are built on these records.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import SimulationError

if TYPE_CHECKING:
    from repro.sim.clock import SimClock


@dataclass(slots=True)
class Span:
    """A named activity with a start and (eventually) an end time.

    Attributes:
        name: Activity name, e.g. ``"dbus.service"`` or ``"kernel.meminit"``.
        category: Grouping key, e.g. ``"service"``, ``"kernel"``, ``"job"``.
        start_ns: Simulation time the span was opened.
        end_ns: Simulation time the span was closed, or ``None`` while open.
        attrs: Free-form attributes (unit type, deferred flag, ...).
    """

    name: str
    category: str
    start_ns: int
    end_ns: int | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def duration_ns(self) -> int:
        """Span length; raises if the span is still open."""
        if self.end_ns is None:
            raise SimulationError(f"span {self.name!r} still open")
        return self.end_ns - self.start_ns

    @property
    def closed(self) -> bool:
        """True once the span has been ended."""
        return self.end_ns is not None


@dataclass(frozen=True, slots=True)
class TraceInstant:
    """A point event, e.g. ``"boot.complete"``."""

    name: str
    category: str
    time_ns: int


class Tracer:
    """Collects :class:`Span` and :class:`TraceInstant` records in order."""

    def __init__(self, clock: "SimClock"):
        self._clock = clock
        self.spans: list[Span] = []
        self.instants: list[TraceInstant] = []

    def begin(self, name: str, category: str, **attrs: Any) -> Span:
        """Open and register a span starting now."""
        span = Span(name=name, category=category, start_ns=self._clock.now,
                    attrs=dict(attrs))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close ``span`` now and return it.

        Raises:
            SimulationError: If the span was already closed.
        """
        if span.end_ns is not None:
            raise SimulationError(f"span {span.name!r} ended twice")
        span.end_ns = self._clock.now
        return span

    def instant(self, name: str, category: str = "event") -> TraceInstant:
        """Record a point event happening now."""
        record = TraceInstant(name=name, category=category, time_ns=self._clock.now)
        self.instants.append(record)
        return record

    def spans_in(self, category: str) -> list[Span]:
        """All spans with the given category, in open order."""
        return [s for s in self.spans if s.category == category]

    def find(self, name: str, category: str | None = None) -> Span:
        """First span with the given name (and category if provided).

        Raises:
            KeyError: If no such span exists.
        """
        for span in self.spans:
            if span.name == name and (category is None or span.category == category):
                return span
        raise KeyError(f"no span named {name!r}" +
                       (f" in category {category!r}" if category else ""))

    def iter_closed(self) -> Iterator[Span]:
        """All closed spans, in open order."""
        return (s for s in self.spans if s.closed)
