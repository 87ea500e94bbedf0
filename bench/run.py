"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload verify-corpus --seed 1 --seconds 20 --trace 0

With --trace 0, passes are timed, each from a fresh import (set-up, then
the pass over every operation), until --seconds have passed and the
workload's minimum number of passes is made;
the last line of standard output is one JSON object with the median pass
time `run_s`, the median set-up time `setup_s` and the process' peak
resident memory through its first pass, `peak_rss_mb`.  With --trace 1, one untraced pass is
followed by one traced pass, and the per-layer metrics of the traced pass
(set-up included) are printed instead; its spans go to bench/out/.

Run from the root of a source checkout: `mucone` is imported from ./src.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from tracing import PER_LAYER, Tracer  # noqa: E402

MIN_SETUPS = 2


def calibration_s() -> float:
    """Time of a fixed pure-Python loop, printed to compare hosts."""
    start = time.perf_counter()
    x = 0
    for i in range(1_000_000):
        x = (x + i * i) % 1_000_003
    return time.perf_counter() - start


def timed_setup(workload, seeds, tracer=None):
    """(mucone namespace, operations, seconds) from a fresh import."""
    gc.collect()
    start = time.perf_counter()
    m = workloads.load_mucone(SRC)
    if tracer is not None:
        tracer.install(m)
    ops = workload.setup(m, seeds)
    return m, ops, time.perf_counter() - start


class Tally:
    """Operations attempted and failed, and every wrong output, over a run."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []
        self.wrong: list[str] = []

    def timed_pass(self, workload, m, ops) -> float:
        start = time.perf_counter()
        outputs, errors = workloads.run_pass(m, workload, ops)
        elapsed = time.perf_counter() - start
        self.attempted += len(ops)
        self.errors.extend(errors)
        self.wrong.extend(workload.check_pass(ops, outputs))
        return elapsed

    def result(self, metrics) -> dict:
        """The closing JSON object; `correct` speaks of the operations that did not fail."""
        for msg in self.errors:
            print(f"failed: {msg}", file=sys.stderr)
        for msg in self.wrong:
            print(f"wrong: {msg}", file=sys.stderr)
        return {"correct": not self.wrong and len(self.errors) < self.attempted,
                "attempted": self.attempted, "failed": len(self.errors),
                "metrics": metrics}


def untraced(workload, seeds, seconds, tally):
    begin = time.perf_counter()
    setups, passes = [], []
    while True:
        m, ops, setup = timed_setup(workload, seeds)
        setups.append(setup)
        passes.append(tally.timed_pass(workload, m, ops))
        del m, ops
        if len(passes) == 1:
            # later passes only add allocator fragmentation to the peak
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if len(passes) >= workload.min_passes and time.perf_counter() - begin >= seconds:
            break
    while len(setups) < MIN_SETUPS:
        setups.append(timed_setup(workload, seeds)[2])
    print(f"passes: {len(passes)} run_s: {[round(p, 3) for p in passes]} "
          f"setup_s: {[round(s, 3) for s in setups]}", file=sys.stderr)
    return {
        "run_s": {"value": statistics.median(passes), "unit": "s"},
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "peak_rss_mb": {"value": peak_kb / 1024, "unit": "MB"},
    }


def traced(workload, seeds, seed, tally):
    m, ops, _ = timed_setup(workload, seeds)
    plain = tally.timed_pass(workload, m, ops)
    del m, ops
    tracer = Tracer()
    m, ops, _ = timed_setup(workload, seeds, tracer)
    with_trace = tally.timed_pass(workload, m, ops)
    del m, ops
    out = HERE / "out" / f"trace-{workload.name}-seed{seed}.csv"
    tracer.write(out)
    print(f"spans: {len(tracer.spans)} written to {out.relative_to(ROOT)}", file=sys.stderr)
    values = tracer.metrics(with_trace - plain)
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "mucone" / "__init__.py").is_file():
        print(f"no mucone sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    seeds = workloads.Seeds(args.seed)
    print(f"calibration_s: {calibration_s():.4f} (reference, not a metric)")
    tally = Tally()
    if args.trace:
        metrics = traced(workload, seeds, args.seed, tally)
    else:
        metrics = untraced(workload, seeds, args.seconds, tally)
    print(json.dumps(tally.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
