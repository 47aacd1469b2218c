"""The ``sweep`` workload: ``repro sweep`` over every artefact, in-process.

Each pass runs the CLI's ``sweep`` command with an empty result cache
and the trace store filled during set-up, through the runner's process
pool (no wider than the host's CPUs, at most two).  The in-process trace
caches are dropped before every pass, so each pass opens its traces from
the store the way a fresh ``repro sweep`` would.

Every computed cell is logged by a wrapper around the runner's cell
entry point (:func:`logged_compute_cell`), in whichever process runs the
cell, so the harness sees each cell's kernel dispatch reason and host
seconds without changing the program.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

from . import layers
from .common import (
    EXPECTED_DISPATCH,
    HostSpeed,
    Outcome,
    Sizing,
    another_pass,
    peak_rss_mb,
    pinned,
    setup,
    text_digest,
)
from .layers import MECHANISMS
from .spans import Tracer
from .stats import describe, summarize

CELL_LOG_ENV = "PERFBENCH_CELL_LOG"

#: The paper's Figure 8 AVG-ALL normalised AMMAT, as EXPERIMENTS.md records it.
PAPER_FIG8_AVG = {
    "mempod": 0.81, "hma": 0.84, "thm": 0.80, "cameo": 1.41, "hbm-only": 0.60,
}

_SUMMARY = re.compile(r"(\d+)/(\d+) cells, (\d+) cache hits")

#: The runner's own cell entry point while :func:`logging_cells` replaces it.
_ORIGINAL = None


def logged_compute_cell(cell):
    """The runner's cell entry point, plus one JSON line per cell naming
    its kind, parameters, dispatch reason, records, and wall and CPU
    seconds (CPU time is what ``records_per_s`` divides by on the sweep:
    it leaves out the time a worker waits for a CPU the other worker or
    the parent holds)."""
    from repro.kernel import replay
    from repro.runner import pool

    replay.last_dispatch = "unused"
    # A forked worker inherits the saved original; a spawned one imports
    # the unpatched runner.
    start = time.thread_time()
    result, seconds = (_ORIGINAL or pool._compute_cell)(cell)
    busy = time.thread_time() - start
    kind = getattr(cell, "kind", None)
    entry = {
        "label": cell.label,
        "kind": kind,
        "params": sorted(name for name, _ in getattr(cell, "params", ())),
        "dispatch": replay.last_dispatch if kind is not None else None,
        "records": getattr(result, "demand_requests", 0),
        "seconds": seconds,
        "cpu_seconds": busy,
    }
    with open(os.environ[CELL_LOG_ENV], "a") as log:
        log.write(json.dumps(entry) + "\n")
    return result, seconds


#: Dispatch reasons of the sweep's mechanisms beyond the replay seven.
SWEEP_DISPATCH = dict(
    EXPECTED_DISPATCH,
    **{
        "ddr-only": "specialised:single-level",
        "hma-mea": "fallback:novel-spec:TrackedEpochManager",
        "thm-pods": "fallback:novel-shape:thresholdxpod",
    },
)


@contextlib.contextmanager
def logging_cells(log: Path):
    """Route the runner's cells through :func:`logged_compute_cell`,
    appending to ``log``."""
    global _ORIGINAL
    from repro.runner import pool

    _ORIGINAL = pool._compute_cell
    pool._compute_cell = logged_compute_cell
    os.environ[CELL_LOG_ENV] = str(log)
    try:
        yield
    finally:
        pool._compute_cell = _ORIGINAL
        _ORIGINAL = None
        del os.environ[CELL_LOG_ENV]


def expected_dispatch(kind: str, params: List[str]) -> Optional[str]:
    """The kernel dispatch reason a sweep cell must report (Figure 9's
    metadata caches keep their cells on the reference loop)."""
    if "cache_bytes" in params:
        return "fallback:metadata-cache"
    return SWEEP_DISPATCH.get(kind)


def sweep_argv(config, jobs: int, cache_dir: Path) -> List[str]:
    argv = [
        "sweep", "--length", str(config.length), "--seed", str(config.seed),
        "--scale", str(config.scale), "--jobs", str(jobs),
        "--cache-dir", str(cache_dir),
    ]
    if config.workloads:
        argv += ["--workloads", ",".join(config.workloads)]
    return argv


def sweep_once(config, jobs: int, cache_dir: Path):
    """One ``repro sweep``; returns (stdout, stderr, wall seconds)."""
    import repro.cli as cli
    from repro.experiments.common import clear_trace_cache

    clear_trace_cache()
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(sweep_argv(config, jobs, cache_dir))
    wall = time.perf_counter() - start
    if code:
        raise RuntimeError(f"repro sweep exited {code}: {err.getvalue()[-500:]}")
    return out.getvalue(), err.getvalue(), wall


def _cells(stderr: str) -> tuple:
    match = _SUMMARY.search(stderr)
    if match is None:
        raise RuntimeError(f"no runner summary in sweep stderr: {stderr[-300:]!r}")
    return int(match.group(2)), int(match.group(3))


def sweep_config(sizing: Sizing, seed: int):
    from repro.experiments.common import ExperimentConfig

    return ExperimentConfig(
        length=sizing.sweep_length, seed=seed, workloads=sizing.sweep_workloads
    )


#: The widest pool the sweep uses (the reference host has two CPUs).
MAX_JOBS = 2


def jobs_for() -> int:
    return max(1, min(MAX_JOBS, len(os.sched_getaffinity(0))))


def reference_stdout_digest(config, jobs: int, workdir: Path) -> str:
    """Digest of the sweep's stdout when every cell replays on the
    reference loop (the semantic definition the fast kernels match)."""
    previous = os.environ.get("REPRO_KERNEL")
    os.environ["REPRO_KERNEL"] = "reference"
    try:
        stdout, _, _ = sweep_once(config, jobs, workdir / "cache-reference")
    finally:
        if previous is None:
            del os.environ["REPRO_KERNEL"]
        else:
            os.environ["REPRO_KERNEL"] = previous
        shutil.rmtree(workdir / "cache-reference", ignore_errors=True)
    return text_digest(stdout)


def _expected_stdout(pins, sizing, seed, config, jobs, workdir, outcome) -> str:
    entry = pinned(pins, "sweep", sizing, seed)
    if entry is not None:
        return entry["stdout"]
    outcome.notes.append(
        f"seed {seed} has no pinned sweep digest: checking against a "
        "reference-kernel sweep"
    )
    return reference_stdout_digest(config, jobs, workdir)


def _check_cells(outcome: Outcome, entries: List[dict]) -> None:
    for entry in entries:
        if entry["kind"] is None:
            continue
        want = expected_dispatch(entry["kind"], entry["params"])
        if entry["dispatch"] != want:
            outcome.fail(1, f"{entry['label']}: dispatch {entry['dispatch']!r}, "
                            f"expected {want!r}")


def _read_log(path: Path) -> List[dict]:
    if not path.is_file():
        return []
    return [json.loads(line) for line in path.read_text().splitlines() if line]


def model_accuracy(stdout: str) -> Optional[str]:
    """The Figure 8 AVG-ALL row beside the paper's averages."""
    lines = stdout.splitlines()
    try:
        start = next(i for i, line in enumerate(lines) if line.startswith("Figure 8 -"))
    except StopIteration:
        return None
    headers = lines[start + 1].split()
    for line in lines[start + 2:]:
        if line.startswith("AVG ALL"):
            values = line.split()[2:]
            pairs = [
                f"{name} {float(value):.3f} (paper ~{PAPER_FIG8_AVG[name]:.2f})"
                for name, value in zip(headers[1:], values)
                if name in PAPER_FIG8_AVG
            ]
            return (
                "model accuracy (simulated time; deterministic; not gated; the "
                "model is not validated against hardware): Figure 8 AVG ALL "
                "AMMAT normalised to TLM: " + ", ".join(pairs)
            )
    return None


def run(seed: int, seconds: float, sizing: Sizing, src: Path, workdir: Path,
        pins: dict) -> Outcome:
    """The untraced, timed run of the sweep workload."""
    outcome = Outcome()
    config = sweep_config(sizing, seed)
    jobs = jobs_for()
    host = HostSpeed()
    setups = setup(src, workdir, config, config.workload_list(), sizing.setup_reps, host)
    expected = _expected_stdout(pins, sizing, seed, config, jobs, workdir, outcome)

    walls: List[float] = []
    busy: Dict[str, float] = {m: 0.0 for m in MECHANISMS}
    replayed: Dict[str, int] = {m: 0 for m in MECHANISMS}
    cell_seconds: List[float] = []
    accuracy = None
    began = time.perf_counter()
    while another_pass(walls, began, seconds, sizing.min_passes):
        index = len(walls)
        log = workdir / f"cells-{index}.jsonl"
        cache_dir = workdir / f"cache-{index}"
        try:
            with logging_cells(log), host.sampling():
                stdout, stderr, wall = sweep_once(config, jobs, cache_dir)
            total, _ = _cells(stderr)
        except Exception as exc:  # the whole pass failed
            outcome.attempted += 1
            outcome.fail(1, f"sweep pass {index}: {type(exc).__name__}: {exc}")
            walls.append(float("nan"))
            continue
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        walls.append(wall)
        outcome.attempted += total
        entries = _read_log(log)
        _check_cells(outcome, entries)
        if text_digest(stdout) != expected:
            outcome.fail(total, f"sweep pass {index}: stdout digest "
                                f"{text_digest(stdout)} != expected {expected}")
        for entry in entries:
            if entry["kind"] in busy:
                busy[entry["kind"]] += entry["cpu_seconds"]
                replayed[entry["kind"]] += entry["records"]
        cell_seconds += [e["seconds"] for e in entries]
        accuracy = accuracy or model_accuracy(stdout)

    speed = host.factor()
    good = [w for w in walls if w == w]
    unscaled = {"sweep_s": median(good) if good else 0.0, "setup_s": median(setups)}
    for mechanism in MECHANISMS:
        unscaled[f"records_per_s.{mechanism}"] = (
            replayed[mechanism] / busy[mechanism] if busy[mechanism] else 0.0
        )
    outcome.put("sweep_s", unscaled["sweep_s"] / speed, "s")
    outcome.put("setup_s", unscaled["setup_s"] / speed, "s")
    outcome.put("peak_rss_mb", peak_rss_mb(), "MB")
    for mechanism in MECHANISMS:
        name = f"records_per_s.{mechanism}"
        outcome.put(name, unscaled[name] * speed, "1/s")
    outcome.notes.append(host.note(unscaled))
    if accuracy:
        outcome.notes.append(accuracy)
    outcome.notes.append(
        f"{len(walls)} cold passes at --length {config.length} --jobs {jobs}; "
        f"pass seconds: {describe(summarize(good or [0.0]))}"
    )
    if cell_seconds:
        outcome.notes.append(
            f"computed cell seconds: {describe(summarize(cell_seconds))}"
        )
    return outcome


def traced(seed: int, sizing: Sizing, src: Path, workdir: Path, pins: dict,
           out_dir: Optional[Path]) -> Outcome:
    """Untraced, traced and warm in-process passes (``--jobs 1``)."""

    outcome = Outcome()
    config = sweep_config(sizing, seed)
    tracer = Tracer()
    patches, _ = layers.install(tracer)
    try:
        tracer.begin_cell("setup")
        setup(src, workdir, config, config.workload_list(), 1)
    finally:
        patches.undo()
    expected = _expected_stdout(pins, sizing, seed, config, 1, workdir, outcome)

    plain, _, untraced_wall = sweep_once(config, 1, workdir / "cache-untraced")
    shutil.rmtree(workdir / "cache-untraced", ignore_errors=True)

    cache_dir = workdir / "cache-traced"
    log = workdir / "cells-traced.jsonl"
    patches, tap = layers.install(tracer)
    try:
        with logging_cells(log):
            stdout, stderr, traced_wall = sweep_once(config, 1, cache_dir)
    finally:
        patches.undo()
    total, hits = _cells(stderr)
    outcome.attempted += total
    _check_cells(outcome, _read_log(log))
    if text_digest(stdout) != expected:
        outcome.fail(total, "traced sweep stdout differs from the expected digest")
    if stdout != plain:
        outcome.fail(total, "traced sweep stdout differs from the untraced one")
    _, _, warm_wall = sweep_once(config, 1, cache_dir)
    shutil.rmtree(cache_dir, ignore_errors=True)

    attribution = layers.Attribution(tracer)
    for name in layers.MUST_FIRE_SWEEP:
        if not attribution.calls.get(name):
            outcome.fail(1, f"boundary {name} recorded no call in the sweep")
    metrics = attribution.boundary_metrics()
    by_kind: Dict[str, float] = {m: 0.0 for m in MECHANISMS}
    for (label, name), (seconds, _) in attribution.by_cell.items():
        kind = label.rpartition("/")[2]
        if kind in by_kind and name in layers.KERNEL_SPANS:
            by_kind[kind] += seconds
    for mechanism in MECHANISMS:
        metrics[f"kernel.self_s.{mechanism}"] = by_kind[mechanism]
    metrics["runner.cache_hit_rate"] = hits / total if total else 0.0
    metrics["runner.warm_pass_s"] = warm_wall
    metrics["tracing.overhead_s"] = traced_wall - untraced_wall
    metrics.update(tap.metrics())
    for name, unit, _ in layers.per_layer_metrics():
        outcome.put(name, metrics[name], unit)
    outcome.notes.append(
        f"traced sweep: {total} cells, {hits} cache hits; traced pass "
        f"{traced_wall:.2f}s vs untraced {untraced_wall:.2f}s over "
        f"{len(tracer):,} spans; warm pass {warm_wall:.2f}s"
    )
    if out_dir is not None:
        tracer.save(out_dir / f"spans-sweep-seed{seed}.npz")
    return outcome
