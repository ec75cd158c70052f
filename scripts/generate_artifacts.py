#!/usr/bin/env python3
"""Generate every visual/machine-readable artifact into a directory.

Produces, under ``--out`` (default ``artifacts/``):

* ``bootchart_no_bb.svg`` / ``bootchart_bb.svg`` — the Fig. 5(a)-style
  charts for the TV boot,
* ``fig7_conventional.svg`` / ``fig7_isolated.svg`` — the Fig. 7 pair,
* ``dependency_graph.dot`` — the Fig. 2 graph (render with Graphviz),
* ``report_no_bb.json`` / ``report_bb.json`` — full boot reports,
* ``experiments.txt`` — every experiment's rendered table.

Usage::

    python scripts/generate_artifacts.py [--out DIR] [--skip-slow]
"""

from __future__ import annotations

import argparse
from pathlib import Path


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="artifacts", help="output directory")
    parser.add_argument("--skip-slow", action="store_true",
                        help="skip the multi-boot experiments (ablations, "
                             "variance, scaling, fig6)")
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    from repro.analysis.export import report_to_json
    from repro.bootchart import BootChart, render_svg
    from repro.core import BBConfig, BootSimulation
    from repro.experiments import fig7_bbgroup_dbus
    from repro.graph.visualize import to_dot
    from repro.workloads import opensource_tv_workload
    from repro.workloads.tizen_tv import PAPER_BB_GROUP

    print("booting the TV (no BB / BB)...")
    no_bb = BootSimulation(opensource_tv_workload(), BBConfig.none()).run()
    bb = BootSimulation(opensource_tv_workload(), BBConfig.full()).run()

    (out / "bootchart_no_bb.svg").write_text(
        render_svg(BootChart.from_report(no_bb)))
    (out / "bootchart_bb.svg").write_text(
        render_svg(BootChart.from_report(bb)))
    (out / "report_no_bb.json").write_text(report_to_json(no_bb))
    (out / "report_bb.json").write_text(report_to_json(bb))
    (out / "dependency_graph.dot").write_text(
        to_dot(opensource_tv_workload().fresh_registry(),
               title="tizen-tv-opensource", highlight=set(PAPER_BB_GROUP)))

    print("running the Fig. 7 experiment...")
    fig7 = fig7_bbgroup_dbus.run()
    (out / "fig7_conventional.svg").write_text(
        render_svg(fig7.conventional_chart))
    (out / "fig7_isolated.svg").write_text(render_svg(fig7.boosted_chart))

    from repro.experiments import EXPERIMENTS, run_and_render

    skip = {"ablations", "variance", "scaling", "fig6"} if args.skip_slow else set()
    chunks = []
    for exp_id in EXPERIMENTS:
        if exp_id in skip:
            continue
        print(f"running experiment {exp_id}...")
        chunks.append(f"===== {exp_id} =====\n{run_and_render(exp_id)}\n")
    (out / "experiments.txt").write_text("\n".join(chunks))
    print(f"artifacts written to {out}/")


if __name__ == "__main__":
    main()
