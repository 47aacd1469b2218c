"""The repository benchmark: ``python3 perfbench/run.py --workload NAME ...``.

Runs one workload of ``BENCHMARK.json`` against the ``repro`` package in
``src/`` of the checkout this file sits in, checks every output, and
prints a human-readable summary followed, as the last line of standard
output, by one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` is the separate traced run that attributes host time to
the program's layers and prints the per-layer metrics.  The seed picks
the synthesised traces; the program sees only those traces.  All
scratch files live under ``.perfbench/`` in the checkout and are removed
when the run ends, except the traced run's span dump.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: workload name -> trace the replay workloads replay (None: the sweep)
WORKLOADS = {"sweep": None, "replay-mix8": "mix8", "replay-bwaves": "bwaves"}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sizing", choices=("full", "tiny"), default="full",
                        help="work per run; 'tiny' is for the benchmark's own tests")
    return parser.parse_args(argv)


def execute(args: argparse.Namespace, workdir: Path, pins=None):
    """Run one workload; returns its :class:`~harness.common.Outcome`."""
    from harness import replay, sweep
    from harness.common import SIZINGS, load_pins

    sizing = SIZINGS[args.sizing]
    pins = load_pins() if pins is None else pins
    out_dir = ROOT / ".perfbench" if args.trace else None
    trace_name = WORKLOADS[args.workload]
    if trace_name is None:
        if args.trace:
            return sweep.traced(args.seed, sizing, SRC, workdir, pins, out_dir)
        return sweep.run(args.seed, args.seconds, sizing, SRC, workdir, pins)
    if args.trace:
        return replay.traced(args.workload, trace_name, args.seed, sizing, SRC,
                             workdir, pins, out_dir)
    return replay.run(args.workload, trace_name, args.seed, args.seconds, sizing,
                      SRC, workdir, pins)


def result_line(outcome) -> dict:
    metrics = {
        name: {"value": value, "unit": unit}
        for name, (value, unit) in outcome.metrics.items()
    }
    finite = all(math.isfinite(m["value"]) for m in metrics.values())
    return {
        "correct": outcome.failed == 0 and outcome.attempted > 0 and finite,
        "attempted": max(1, outcome.attempted),
        "failed": outcome.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    workdir = ROOT / ".perfbench" / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    # Keep every cache the program would write inside the checkout.
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "results")
    os.environ["REPRO_TRACE_DIR"] = str(workdir / "traces")
    try:
        outcome = execute(args, workdir)
        if not args.trace:
            passed = outcome.attempted - outcome.failed
            outcome.put("cell_pass_rate", passed / max(1, outcome.attempted), "ratio")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    from harness.common import report

    for line in report(outcome, args):
        print(line)
    print(json.dumps(result_line(outcome)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
