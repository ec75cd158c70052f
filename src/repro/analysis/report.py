"""Plain-text table formatting for the experiment harness.

The benches print tables shaped like the paper's figures: rows of named
measurements with a "No BB" column, a "BB" column, and the saving.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.quantities import to_msec


def format_table(headers: Sequence[str], rows: Sequence[Sequence[object]]) -> str:
    """Render an aligned plain-text table."""
    table = [list(map(str, headers))] + [list(map(str, row)) for row in rows]
    widths = [max(len(row[col]) for row in table) for col in range(len(headers))]

    def render_row(row: list[str]) -> str:
        return "  ".join(cell.ljust(width) for cell, width in zip(row, widths)).rstrip()

    lines = [render_row(table[0]),
             "  ".join("-" * width for width in widths)]
    lines.extend(render_row(row) for row in table[1:])
    return "\n".join(lines)


@dataclass(slots=True)
class ComparisonTable:
    """A Fig. 6-style two-configuration comparison.

    Rows are added as nanosecond pairs and rendered in milliseconds with
    the absolute saving, e.g.::

        measurement          No BB      BB       saved
        -------------------  ---------  -------  -------
        kernel init          698.0 ms   403.0 ms 295.0 ms
    """

    title: str
    baseline_label: str = "No BB"
    improved_label: str = "BB"
    rows: list[tuple[str, int, int]] = field(default_factory=list)

    def add(self, name: str, baseline_ns: int, improved_ns: int) -> None:
        """Add one measurement pair."""
        self.rows.append((name, baseline_ns, improved_ns))

    def render(self) -> str:
        """The full table as text."""
        body = [(name,
                 f"{to_msec(baseline):.1f} ms",
                 f"{to_msec(improved):.1f} ms",
                 f"{to_msec(baseline - improved):+.1f} ms"[1:]
                 if baseline >= improved else
                 f"-{to_msec(improved - baseline):.1f} ms")
                for name, baseline, improved in self.rows]
        table = format_table(
            ["measurement", self.baseline_label, self.improved_label, "saved"],
            body)
        return f"{self.title}\n{table}"
