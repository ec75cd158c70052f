#!/usr/bin/env python3
"""Boot the whole ``boot-cold`` pool and compare it with the stored reference.

perfbench's ``boot-cold`` workload checks the 50 boots one seed draws.  Its
stored reference (``perfbench/reference/boot-cold.json``) covers every case
any seed can draw: the six presets under no-BB and full-BB on 1, 2 and 4
cores, the perturbed and commercial TV instances, the generated graphs and
the TV under every fault preset.  This script boots each of those cases cold
and compares its simulated statistics with the reference, so a change to the
DES that moves any result on any seed fails here.  It only reads perfbench's
harness and reference.

Usage (from the repository root)::

    python3 scripts/check_boot_reference.py

Exits 1 and names every mismatching case and statistic on any difference.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    sys.dont_write_bytecode = True  # leave perfbench/ exactly as checked out
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
    from harness.boot_cold import NAME, boot, pool_cases, prepare
    from harness.common import Reference, outcome_stats

    reference = Reference(NAME)
    cases = pool_cases()
    start = time.perf_counter()
    problems = [problem for problem in
                (reference.compare(case.key,
                                   outcome_stats(boot(prepare(case))))
                 for case in cases)
                if problem is not None]
    elapsed = time.perf_counter() - start
    for problem in problems:
        print(f"MISMATCH {problem}")
    print(f"boot-reference: {len(problems)} of {len(cases)} boots differ "
          f"from {reference.path.relative_to(ROOT)} ({elapsed:.1f} s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
