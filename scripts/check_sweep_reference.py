#!/usr/bin/env python3
"""Run the whole ``design-sweep`` pool and compare it with its reference.

perfbench's ``design-sweep`` workload checks the seven sweeps one seed
draws.  Its stored reference (``perfbench/reference/design-sweep.json``)
covers every sweep any seed can draw: the five design-space presets, the
perturbed TV instances and the generated graphs, 37 sweeps of 128 cells.
This script runs each of them through ``SweepRunner.run_prefiltered`` with
the benchmark's ``top_k`` and compares the frontier it picks, the
predictions of those cells and their DES statistics with the reference, so
a change to the predictor or the DES that moves a frontier on any seed
fails here.  It only reads perfbench's harness and reference.

Usage (from the repository root)::

    python3 scripts/check_sweep_reference.py

Exits 1 and names every mismatching sweep and field on any difference.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.dont_write_bytecode = True  # leave perfbench/ exactly as checked out
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from harness.common import Reference
    from harness.design_sweep import (NAME, frontier_record, pool_keys,
                                      sweep, sweep_inputs)

    reference = Reference(NAME)
    inputs = sweep_inputs(pool_keys())
    start = time.perf_counter()
    problems = [problem for problem in
                (reference.compare(key, frontier_record(sweep(jobs)))
                 for key, jobs in inputs)
                if problem is not None]
    elapsed = time.perf_counter() - start
    for problem in problems:
        print(f"MISMATCH {problem}")
    print(f"sweep-reference: {len(problems)} of {len(inputs)} sweeps differ "
          f"from {reference.path.relative_to(ROOT)} ({elapsed:.1f} s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
