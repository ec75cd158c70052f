"""FIG5A — bootcharts showing the RCU Booster effect (Fig. 5(a)).

Figure 5(a) compares systemd-bootchart graphs with and without the RCU
Booster: "the boosted case shows earlier launching of a greater number of
tasks; i.e., services in the bottom start earlier".  This driver runs the
two boots (identical except for the RCU Booster), builds both charts, and
quantifies the claim as the number of services launched by a set of
checkpoints.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.analysis.report import format_table
from repro.bootchart import BootChart, render_ascii
from repro.core import BBConfig, BootSimulation
from repro.quantities import sec, to_msec
from repro.workloads import opensource_tv_workload
from repro.workloads.base import Workload

#: Timeline checkpoints at which launched-service counts are compared.
CHECKPOINTS_NS = (sec(2), sec(3), sec(4), sec(5), sec(6))


@dataclass(frozen=True, slots=True)
class Fig5Result:
    """Both charts plus the launched-by-checkpoint comparison."""

    conventional: BootChart
    boosted: BootChart

    def launched_at_checkpoints(self) -> list[tuple[float, int, int]]:
        """(checkpoint ms, conventional count, boosted count) rows."""
        return [(to_msec(t), self.conventional.launched_before(t),
                 self.boosted.launched_before(t)) for t in CHECKPOINTS_NS]

    def ready_at_checkpoints(self) -> list[tuple[float, int, int]]:
        """(checkpoint ms, conventional count, boosted count) of services
        fully up — the visible effect of the figure: bars end earlier."""
        return [(to_msec(t), self.conventional.ready_before(t),
                 self.boosted.ready_before(t)) for t in CHECKPOINTS_NS]

    @property
    def boosted_ready_earlier(self) -> bool:
        """Services come fully up earlier at every checkpoint."""
        return all(boosted >= conventional for _, conventional, boosted
                   in self.ready_at_checkpoints())


def run(workload: Workload | None = None) -> Fig5Result:
    """Boot twice: RCU Booster off vs on (everything else identical)."""
    workload_factory = workload or opensource_tv_workload()
    conventional = BootSimulation(workload_factory, BBConfig.none()).run()
    boosted = BootSimulation(
        opensource_tv_workload() if workload is None else workload,
        BBConfig.none().with_feature("rcu_booster", True)).run()
    return Fig5Result(conventional=BootChart.from_report(conventional),
                      boosted=BootChart.from_report(boosted))


def render(result: Fig5Result, with_charts: bool = False) -> str:
    """Checkpoint table, optionally with the two ASCII bootcharts."""
    launched = {ms: (c, b) for ms, c, b in result.launched_at_checkpoints()}
    ready = {ms: (c, b) for ms, c, b in result.ready_at_checkpoints()}
    rows = [(f"{ms:.0f} ms", launched[ms][0], launched[ms][1],
             ready[ms][0], ready[ms][1]) for ms in launched]
    text = ("Figure 5(a) — services launched/up by checkpoint "
            "(conventional vs RCU Booster)\n"
            + format_table(["by time", "launched (conv)", "launched (boost)",
                            "up (conv)", "up (boost)"], rows))
    if with_charts:
        text += ("\n\n--- conventional ---\n"
                 + render_ascii(result.conventional, max_rows=25)
                 + "\n\n--- boosted ---\n"
                 + render_ascii(result.boosted, max_rows=25))
    return text
