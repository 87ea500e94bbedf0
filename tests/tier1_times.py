"""Tier-1 wall time of two source checkouts, run alternately.

    python tests/tier1_times.py PARENT CHANGE             # 3 pairs
    python tests/tier1_times.py PARENT CHANGE --pairs 5

PARENT and CHANGE are source trees with src/, tests/ and pyproject.toml,
for example `git archive` extracts of two commits.  Give them directory
names of equal length: tracebacks and paths in the suite's output then
cost the same on both.  Each pair runs the Tier-1 suite (`python -m pytest
-q -p no:cacheprovider` with PYTHONPATH=src and no bytecode written) once
in each tree, the parent first in even pairs and the change first in odd
ones, counting from 0, so a drift in the host's speed falls on both sides.
Every run prints its wall time and the suite's closing line; the last line
of standard output is one JSON object with every run's time, the medians
and the number of pairs in which the change was faster.

pytest does not collect this file: its name does not start with test_.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path


def run_suite(tree: Path) -> tuple[float, str, int]:
    """(wall seconds, the suite's closing line, exit status) of one Tier-1 run."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                           "--continue-on-collection-errors"],
                          cwd=tree, env=env, capture_output=True, text=True)
    seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    return seconds, (lines[-1] if lines else proc.stderr.strip()[-200:]), proc.returncode


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--pairs", type=int, default=3)
    args = ap.parse_args(argv)
    for tree in (args.parent, args.change):
        if not (tree / "src" / "mucone" / "__init__.py").is_file():
            print(f"no mucone sources under {tree / 'src'}", file=sys.stderr)
            return 2
    times: dict[str, list[float]] = {"parent": [], "change": []}
    failed = False
    for pair in range(args.pairs):
        order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
        for side in order:
            seconds, summary, status = run_suite(getattr(args, side))
            failed |= status != 0
            times[side].append(round(seconds, 1))
            print(f"pair {pair} {side}: {seconds:.1f} s  {summary}", flush=True)
    lower = sum(c < p for p, c in zip(times["parent"], times["change"]))
    print(json.dumps({"parent_s": times["parent"], "change_s": times["change"],
                      "parent_median": statistics.median(times["parent"]),
                      "change_median": statistics.median(times["change"]),
                      "change_lower_in": f"{lower} of {args.pairs} pairs",
                      "all_green": not failed}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
