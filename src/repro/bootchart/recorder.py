"""Bootchart data from a boot report."""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import AnalysisError


@dataclass(frozen=True, slots=True)
class ChartBar:
    """One service's row on the chart.

    Attributes:
        name: Unit name.
        start_ns: When its start job began running.
        ready_ns: When it became active (bar body end), or ``None``.
        end_ns: When its start job fully finished.
    """

    name: str
    start_ns: int
    ready_ns: int | None
    end_ns: int


class BootChart:
    """Per-service launch timeline of one boot."""

    def __init__(self, bars: list[ChartBar], boot_complete_ns: int | None = None):
        if not bars:
            raise AnalysisError("bootchart needs at least one bar")
        self.bars = sorted(bars, key=lambda b: (b.start_ns, b.name))
        self.boot_complete_ns = boot_complete_ns

    @classmethod
    def from_report(cls, report) -> "BootChart":
        """Build a chart from a :class:`~repro.analysis.metrics.BootReport`."""
        bars = []
        for name, started in report.unit_started_ns.items():
            ready = report.unit_ready_ns.get(name)
            bars.append(ChartBar(name=name, start_ns=started, ready_ns=ready,
                                 end_ns=ready if ready is not None else started))
        return cls(bars, boot_complete_ns=report.boot_complete_ns)

    @property
    def span_ns(self) -> int:
        """Chart time extent."""
        last = max(b.end_ns for b in self.bars)
        if self.boot_complete_ns is not None:
            last = max(last, self.boot_complete_ns)
        return last

    def bar(self, name: str) -> ChartBar:
        """Row for one unit.

        Raises:
            AnalysisError: If the unit is not on the chart.
        """
        for bar in self.bars:
            if bar.name == name:
                return bar
        raise AnalysisError(f"no chart bar for {name!r}")

    def launched_before(self, t_ns: int) -> int:
        """Number of services launched by time ``t_ns`` (the Fig. 5(a)
        'more tasks are quickly launched in parallel' metric)."""
        return sum(1 for bar in self.bars if bar.start_ns <= t_ns)

    def ready_before(self, t_ns: int) -> int:
        """Number of services fully up by time ``t_ns``."""
        return sum(1 for bar in self.bars
                   if bar.ready_ns is not None and bar.ready_ns <= t_ns)
