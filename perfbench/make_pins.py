"""Record the expected output digests the benchmark checks against.

    python3 perfbench/make_pins.py --seeds 0-40

For every seed and the full sizing it computes, with the *reference*
replay loop (the semantic definition the fast kernels are held to), the
digest of each replay mechanism's ``SimulationResult`` on mix8 and
bwaves, and the digest of the ``repro sweep`` stdout produced with
``--kernel reference``.  Digests land in ``pins.json`` beside this file;
``run.py`` checks every timed run against them, and falls back to an
in-run reference computation for seeds without pins.  Re-run this only
when the program's simulated results are meant to change.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-40", help="e.g. 0-40 or 1,2,3")
    args = parser.parse_args(argv)
    if "-" in args.seeds:
        low, high = args.seeds.split("-")
        seeds = range(int(low), int(high) + 1)
    else:
        seeds = [int(s) for s in args.seeds.split(",")]

    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    workdir = ROOT / ".perfbench" / f"pins-{os.getpid()}"
    os.environ["REPRO_TRACE_DIR"] = str(workdir / "traces")
    os.environ["REPRO_CACHE_DIR"] = str(workdir / "results")
    from harness import replay, sweep
    from harness.common import FULL, PINS_FILE, load_pins, replay_config
    from repro.experiments.common import trace_for

    pins = load_pins()
    try:
        for seed in seeds:
            config = replay_config(FULL, seed)
            for workload, trace_name in (("replay-mix8", "mix8"), ("replay-bwaves", "bwaves")):
                trace = trace_for(config, trace_name)
                digests = replay.reference_digests(trace, config)
                pins.setdefault(workload, {}).setdefault(FULL.key, {})[str(seed)] = digests
            stdout = sweep.reference_stdout_digest(
                sweep.sweep_config(FULL, seed), sweep.jobs_for(), workdir
            )
            pins.setdefault("sweep", {}).setdefault(FULL.key, {})[str(seed)] = {
                "stdout": stdout
            }
            PINS_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
            print(f"pinned seed {seed}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
