#!/usr/bin/env python3
"""Compare ``experiment all``, serial and branched, with the stored output.

Every experiment is a pure function of its inputs, so the whole report of
``experiment all`` must come out byte for byte the same on every run, job
count, branch setting and Python version.  This script runs two commands
as a user does (``python -m repro experiment all --jobs 1`` and ``...
--jobs 2 --branch``, with ``PYTHONPATH=src``) and compares the standard
output of each with ``scripts/reference/experiment-all.txt``, so a change
that moves any printed number of any experiment, or makes the worker pool
or the branch engine change one, fails here.

Usage (from the repository root)::

    python3 scripts/check_experiment_reference.py          # compare
    python3 scripts/check_experiment_reference.py --write  # regenerate

Exits 1 and names the command and its first differing line on any
difference.  ``--write`` regenerates the reference from the serial
command; do that only for a change that is meant to alter the output.
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
#: The commands checked; the first, serial one writes the reference.
COMMANDS = (("experiment", "all", "--jobs", "1"),
            ("experiment", "all", "--jobs", "2", "--branch"))


def run_experiments(command: tuple[str, ...]) -> tuple[bytes, float]:
    """The command's standard output and its wall time in seconds."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = time.perf_counter()
    completed = subprocess.run([sys.executable, "-m", "repro", *command],
                               cwd=ROOT, env=env, stdout=subprocess.PIPE,
                               check=True)
    return completed.stdout, time.perf_counter() - start


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
    name = REFERENCE.relative_to(ROOT)
    if args.write:
        sys.path.insert(0, str(ROOT / "src"))
        from repro.atomic import atomic_write_bytes

        output, elapsed = run_experiments(COMMANDS[0])
        atomic_write_bytes(REFERENCE, output)
        print(f"experiment-reference: wrote {name} ({len(output)} bytes, "
              f"{elapsed:.1f} s)")
        return 0
    expected = REFERENCE.read_bytes()
    status = 0
    for command in COMMANDS:
        label = "repro " + " ".join(command)
        output, elapsed = run_experiments(command)
        if output == expected:
            print(f"experiment-reference: `{label}` output identical to "
                  f"{name} ({len(output)} bytes, {elapsed:.1f} s)")
            continue
        print(f"MISMATCH in `{label}`: {first_difference(expected, output)}")
        print(f"experiment-reference: `{label}` output ({len(output)} bytes) "
              f"differs from {name} ({len(expected)} bytes, {elapsed:.1f} s)")
        status = 1
    return status

if __name__ == "__main__":
    sys.exit(main())
