"""Tiny-sizing runs of every workload, traced and untraced.

Each run must print every metric ``BENCHMARK.json`` names, with its
unit, pass all of its own output checks (dispatch reasons, result
digests, boundary rules), and a perturbed expected digest or a forced
reference kernel must turn into failed cells.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import run
from harness import common, layers, replay

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(workload, trace, extra_env=None, cwd=ROOT):
    env = dict(os.environ, **(extra_env or {}))
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--sizing", "tiny"],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=170,
    )
    return done


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    done = bench(workload, trace)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, done.stdout
    assert result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for metric in wanted:
        printed = result["metrics"][metric["name"]]
        assert printed["unit"] == metric["unit"]
        assert isinstance(printed["value"], (int, float))
    if not trace:
        for metric in SPEC["end_to_end"]:
            assert result["metrics"][metric["name"]]["value"] > 0, metric["name"]


def test_benchmark_json_matches_the_harness():
    assert [m["name"] for m in SPEC["per_layer"]] == [
        name for name, _, _ in layers.per_layer_metrics()
    ]
    assert SPEC["paths"] == ["perfbench"]
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


def test_forced_reference_kernel_fails_every_dispatch_check():
    done = bench("replay-mix8", 0, {"REPRO_KERNEL": "reference"})
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False
    # mempod-3tier runs the reference loop by design; the six two-tier
    # mechanisms must each fail their dispatch check
    assert result["failed"] >= 6
    assert "dispatch 'unused'" in done.stdout


def test_forced_reference_kernel_fails_sweep_cells():
    done = bench("sweep", 0, {"REPRO_KERNEL": "reference"})
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] > 0


def test_perturbed_digest_fails_its_cells(tmp_path, monkeypatch):
    args = run.parse_args(["--workload", "replay-mix8", "--seed", "3",
                           "--seconds", "0", "--sizing", "tiny"])
    sizing = common.TINY
    monkeypatch.setenv("REPRO_TRACE_DIR", str(tmp_path / "traces"))
    from repro.experiments.common import trace_for

    config = common.replay_config(sizing, 3)
    digests = replay.reference_digests(trace_for(config, "mix8"), config)
    digests["mempod"] = "0" * 20
    pins = {"replay-mix8": {sizing.key: {"3": digests}}}
    outcome = run.execute(args, tmp_path, pins=pins)
    assert outcome.failed == sizing.min_passes
    assert all("mempod" in error for error in outcome.errors)


def test_exits_nonzero_without_the_program(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").rglob("*.py"):
        target = tmp_path / path.relative_to(ROOT)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(path.read_bytes())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""
