#!/usr/bin/env python3
"""Run ``repro experiment all --jobs 1`` and compare it with the stored output.

Every experiment is a pure function of its inputs, so the whole report of
``experiment all`` must come out byte for byte the same on every run, job
count and Python version.  This script runs the command as a user does
(``python -m repro experiment all --jobs 1`` with ``PYTHONPATH=src``) and
compares its standard output with ``scripts/reference/experiment-all.txt``,
so a change that moves any printed number of any experiment fails here.

Usage (from the repository root)::

    python3 scripts/check_experiment_reference.py          # compare
    python3 scripts/check_experiment_reference.py --write  # regenerate

Exits 1 and names the first differing line on any difference.  Regenerate
the reference only for a change that is meant to alter the output.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFERENCE = ROOT / "scripts" / "reference" / "experiment-all.txt"
COMMAND = ("-m", "repro", "experiment", "all", "--jobs", "1")


def run_experiments() -> bytes:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    completed = subprocess.run([sys.executable, *COMMAND], cwd=ROOT, env=env,
                               stdout=subprocess.PIPE, check=True)
    return completed.stdout


def first_difference(expected: bytes, actual: bytes) -> str:
    """The first line where the two outputs part, with both versions."""
    expected_lines = expected.decode().splitlines()
    actual_lines = actual.decode().splitlines()
    for number, (want, got) in enumerate(zip(expected_lines, actual_lines),
                                         start=1):
        if want != got:
            return (f"line {number} differs\n  reference: {want!r}\n"
                    f"  output:    {got!r}")
    number = min(len(expected_lines), len(actual_lines)) + 1
    if len(expected_lines) != len(actual_lines):
        return (f"line {number}: the reference has {len(expected_lines)} "
                f"lines, the output {len(actual_lines)}")
    return "the line endings differ"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--write", action="store_true",
                        help="regenerate the reference from this tree")
    args = parser.parse_args(argv)
    start = time.perf_counter()
    output = run_experiments()
    elapsed = time.perf_counter() - start
    name = REFERENCE.relative_to(ROOT)
    if args.write:
        sys.path.insert(0, str(ROOT / "src"))
        from repro.atomic import atomic_write_bytes

        atomic_write_bytes(REFERENCE, output)
        print(f"experiment-reference: wrote {name} ({len(output)} bytes, "
              f"{elapsed:.1f} s)")
        return 0
    expected = REFERENCE.read_bytes()
    if output == expected:
        print(f"experiment-reference: output identical to {name} "
              f"({len(output)} bytes, {elapsed:.1f} s)")
        return 0
    print(f"MISMATCH {first_difference(expected, output)}")
    print(f"experiment-reference: output ({len(output)} bytes) differs from "
          f"{name} ({len(expected)} bytes, {elapsed:.1f} s)")
    return 1


if __name__ == "__main__":
    sys.exit(main())
