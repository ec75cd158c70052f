"""Experiment drivers: one module per table/figure of the paper.

Each module exposes ``run(...)`` returning a structured result and
``render(result)`` producing the text the paper's artifact shows.  The
benchmark harness under ``benchmarks/`` and the examples both build on
these drivers, so every number in EXPERIMENTS.md is regenerable from one
function call.  :data:`EXPERIMENTS` names them for ``repro experiment``,
``repro bench`` and ``scripts/generate_artifacts.py``, and
:func:`run_and_render` runs one by name; a driver module is imported on
first use, so loading one experiment loads no other.

| module | paper artifact |
|---|---|
| :mod:`repro.experiments.fig1_boot_sequence` | Fig. 1 overall boot sequence |
| :mod:`repro.experiments.fig2_dependency_graph` | Fig. 2 dependency graph |
| :mod:`repro.experiments.fig3_complexity` | Fig. 3 group fragmentation |
| :mod:`repro.experiments.fig5_rcu_bootchart` | Fig. 5(a) RCU Booster chart |
| :mod:`repro.experiments.fig6_breakdown` | Fig. 6 full breakdown |
| :mod:`repro.experiments.fig7_bbgroup_dbus` | Fig. 7 var.mount isolation |
| :mod:`repro.experiments.tradeoff` | §4.3 performance trade-off |
| :mod:`repro.experiments.kernel_opt` | §2.4 kernel optimization |
| :mod:`repro.experiments.background` | §2.1-2.3 background models |
| :mod:`repro.experiments.ablations` | design-choice ablations |
"""

import inspect
from importlib import import_module
from typing import Any

#: Experiment id -> driver module, in ``experiment all`` order.
EXPERIMENTS: dict[str, str] = {
    "portability": "portability", "scaling": "scaling",
    "boot-modes": "boot_modes", "sockets": "socket_activation",
    "fig1": "fig1_boot_sequence", "fig2": "fig2_dependency_graph",
    "fig3": "fig3_complexity", "fig5": "fig5_rcu_bootchart",
    "fig6": "fig6_breakdown", "fig7": "fig7_bbgroup_dbus",
    "tradeoff": "tradeoff", "kernel-opt": "kernel_opt",
    "background": "background", "variance": "variance",
    "prestart": "prestart", "ablations": "ablations",
    "fault-matrix": "fault_matrix", "recovery-matrix": "recovery_matrix",
    "design-space": "design_space",
    "generation-rollout": "generation_rollout",
}


def run_and_render(exp_id: str, runner: Any = None,
                   smoke: bool = False) -> str:
    """Run experiment ``exp_id`` and return its rendered artifact.

    ``runner`` (a shared :class:`~repro.runner.sweep.SweepRunner`) and
    ``smoke`` reach the driver only if its ``run`` takes them.
    """
    module = import_module(f"{__name__}.{EXPERIMENTS[exp_id]}")
    params = inspect.signature(module.run).parameters
    kwargs: dict[str, Any] = {}
    if runner is not None and "runner" in params:
        kwargs["runner"] = runner
    if smoke and "smoke" in params:
        kwargs["smoke"] = True
    return module.render(module.run(**kwargs))
