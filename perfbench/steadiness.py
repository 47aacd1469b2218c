"""Run the benchmark repeatedly and report how steady each metric is.

    python3 perfbench/steadiness.py --workloads sweep,replay-mix8 \\
        --seeds 1-10 --out perfbench/evidence/set-a.json
    python3 perfbench/steadiness.py --compare set-a.json set-b.json

The first form runs ``run.py`` once per (workload, seed), one after the
other, and records every end-to-end value.  For each metric and workload
it reports the median and the spread: the distance between the first
and third quartile (``statistics.quantiles(values, n=4)``) as a share of
the median, beside the metric's bound from ``BENCHMARK.json``.  The
second form compares two such files: for every metric and workload, how
much worse the second median is than the first, as a share of the first.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seeds(text: str):
    """``1-10`` or ``1,5,9``."""
    if "-" in text:
        low, high = text.split("-")
        return list(range(int(low), int(high) + 1))
    return [int(part) for part in text.split(",")]


def spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = spec()["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", "0",
    ]
    start = time.perf_counter()
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    wall = time.perf_counter() - start
    if done.returncode:
        raise SystemExit(f"{workload} seed {seed} exited {done.returncode}:\n{done.stderr}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    speed = re.search(r"host speed factor ([0-9.]+)", done.stdout)
    result["host_speed"] = float(speed.group(1)) if speed else None
    return result


def spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median, median


def summarize(runs: dict) -> dict:
    bounds = {m["name"]: m for m in spec()["end_to_end"]}
    summary = {}
    for workload, results in runs.items():
        rows = {}
        for name, metric in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            share, median = spread(values) if len(values) > 1 else (0.0, values[0])
            rows[name] = {
                "median": median, "spread": share, "bound": metric["bound"],
                "n": len(values), "values": values,
            }
        summary[workload] = {
            "metrics": rows,
            "all_correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "max_wall_s": max(r["wall_s"] for r in results),
            "host_speed": [r["host_speed"] for r in results],
        }
    return summary


def print_summary(summary: dict) -> None:
    for workload, block in summary.items():
        print(f"{workload}: correct={block['all_correct']} failed={block['failed']}/"
              f"{block['attempted']} slowest run {block['max_wall_s']:.1f}s; host speed "
              f"factors {block['host_speed']}")
        for name, row in block["metrics"].items():
            flag = "" if name == "setup_s" or row["spread"] <= row["bound"] / 3 else "  <-- over bound/3"
            print(f"  {name:<28} median {row['median']:>14.6g}  spread "
                  f"{row['spread']:7.2%}  bound {row['bound']:.0%}{flag}")


def compare(first: dict, second: dict) -> None:
    better = {m["name"]: m["better"] for m in spec()["end_to_end"]}
    for workload, block in first["summary"].items():
        other = second["summary"].get(workload)
        if other is None:
            continue
        print(workload)
        for name, row in block["metrics"].items():
            a, b = row["median"], other["metrics"][name]["median"]
            worse = (b - a) / a if better[name] == "lower" else (a - b) / a
            flag = "  <-- worse than bound" if worse > row["bound"] else ""
            print(f"  {name:<28} {a:>14.6g} -> {b:>14.6g}  worse by {worse:7.2%}"
                  f"  bound {row['bound']:.0%}{flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--out", default=None)
    parser.add_argument("--compare", nargs=2, metavar="FILE", default=None)
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(Path(p).read_text()) for p in args.compare)
        compare(first, second)
        return 0
    workloads = args.workloads.split(",") if args.workloads else [
        w["name"] for w in spec()["workloads"]
    ]
    seconds = args.seconds or spec()["run_seconds"]
    runs = {}
    for workload in workloads:
        runs[workload] = []
        for seed in seeds(args.seeds):
            runs[workload].append(run_once(workload, seed, seconds))
            print(f"{workload} seed {seed}: {runs[workload][-1]['wall_s']:.1f}s",
                  file=sys.stderr, flush=True)
    summary = summarize(runs)
    print_summary(summary)
    if args.out:
        Path(args.out).write_text(json.dumps(
            {"seeds": seeds(args.seeds), "seconds": seconds, "summary": summary},
            indent=1,
        ) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
