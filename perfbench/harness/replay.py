"""The replay workloads: each mechanism replaying one long trace in-process.

A *round* replays every mechanism once (cheap ones a fixed number of
times, see :class:`~harness.common.Sizing`) on the warm trace store, each
with a freshly built manager, after a garbage collection so that one
replay's garbage is not collected inside the next one's timing.  Rounds
repeat while another one fits in the run's seconds (at least
``min_passes`` of them).
"""

from __future__ import annotations

import gc
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional

from . import layers
from .common import (
    EXPECTED_DISPATCH,
    Outcome,
    HostSpeed,
    Sizing,
    another_pass,
    build,
    peak_rss_mb,
    pinned,
    replay_config,
    result_digest,
    setup,
)
from .layers import MECHANISMS
from .spans import Tracer
from .stats import describe, summarize


def _replay(trace, config, mechanism: str):
    """Build and replay one mechanism; returns (result, dispatch, seconds)."""
    from repro.kernel import replay
    from repro.system.simulator import simulate

    gc.collect()
    start = time.perf_counter()
    manager = build(config, mechanism)
    replay.last_dispatch = "unused"
    result = simulate(trace, manager)
    seconds = time.perf_counter() - start
    return result, replay.last_dispatch, seconds


def reference_digests(trace, config) -> Dict[str, str]:
    """Digests of the reference replay loop, for seeds without pins."""
    from repro.system.simulator import reference_simulate

    return {
        mechanism: result_digest(reference_simulate(trace, build(config, mechanism)))
        for mechanism in MECHANISMS
    }


def _expected(pins: dict, workload: str, sizing: Sizing, seed: int, trace, config,
              outcome: Outcome) -> Dict[str, str]:
    expected = pinned(pins, workload, sizing, seed)
    if expected is None:
        outcome.notes.append(
            f"seed {seed} has no pinned digests for {workload}: "
            "checking against the reference replay loop"
        )
        expected = reference_digests(trace, config)
    return expected


def _problems(mechanism: str, result, dispatch: str,
              expected: Dict[str, str]) -> List[str]:
    """What is wrong with one replay's output (empty when it is correct)."""
    problems = []
    if dispatch != EXPECTED_DISPATCH[mechanism]:
        problems.append(f"dispatch {dispatch!r}, expected {EXPECTED_DISPATCH[mechanism]!r}")
    digest = result_digest(result)
    if digest != expected.get(mechanism):
        problems.append(f"result digest {digest} != expected {expected.get(mechanism)}")
    return problems


def run(workload: str, trace_name: str, seed: int, seconds: float, sizing: Sizing,
        src: Path, workdir: Path, pins: dict) -> Outcome:
    """The untraced, timed run of one replay workload."""
    from repro.experiments.common import trace_for

    outcome = Outcome()
    config = replay_config(sizing, seed)
    host = HostSpeed()
    setups = setup(src, workdir, config, [trace_name], sizing.setup_reps, host)
    trace = trace_for(config, trace_name)
    records = len(trace)
    expected = _expected(pins, workload, sizing, seed, trace, config, outcome)

    samples: Dict[str, List[float]] = {m: [] for m in MECHANISMS}
    busy: Dict[str, float] = {m: 0.0 for m in MECHANISMS}
    replayed: Dict[str, int] = {m: 0 for m in MECHANISMS}
    rounds: List[float] = []
    began = time.perf_counter()
    while another_pass(rounds, began, seconds, sizing.min_passes):
        round_seconds = 0.0
        for mechanism in MECHANISMS:
            repeats = sizing.repeats(mechanism)
            spent, done = 0.0, 0
            for _ in range(repeats):
                host.sample()
                outcome.attempted += 1
                try:
                    result, dispatch, took = _replay(trace, config, mechanism)
                except Exception as exc:  # a failed cell is counted, not fatal
                    outcome.fail(1, f"{mechanism}: {type(exc).__name__}: {exc}")
                    continue
                spent += took
                done += 1
                problems = _problems(mechanism, result, dispatch, expected)
                if problems:
                    outcome.fail(1, f"{mechanism}: " + "; ".join(problems))
            round_seconds += spent
            if done:
                samples[mechanism].append(records * done / spent)
                busy[mechanism] += spent
                replayed[mechanism] += records * done
        rounds.append(round_seconds)

    speed = host.factor()
    unscaled = {"sweep_s": median(rounds), "setup_s": median(setups)}
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
    for mechanism in MECHANISMS:
        if samples[mechanism]:
            outcome.notes.append(
                f"{mechanism} unscaled records/s per replay: "
                f"{describe(summarize(samples[mechanism]))}"
            )
    outcome.notes.append(
        f"{len(rounds)} rounds of {records:,}-record replays; round seconds: "
        f"{describe(summarize(rounds))}"
    )
    return outcome


def traced(workload: str, trace_name: str, seed: int, sizing: Sizing,
           src: Path, workdir: Path, pins: dict, out_dir: Optional[Path]) -> Outcome:
    """One untraced and one traced round; per-layer metrics from the trace."""
    outcome = Outcome()
    config = replay_config(sizing, seed)
    tracer = Tracer()
    patches, _ = layers.install(tracer)
    try:
        tracer.begin_cell("setup")
        setup(src, workdir, config, [trace_name], 1)
    finally:
        patches.undo()
    from repro.experiments.common import trace_for

    trace = trace_for(config, trace_name)
    expected = _expected(pins, workload, sizing, seed, trace, config, outcome)

    problems: Dict[str, List[str]] = {m: [] for m in MECHANISMS}
    untraced: Dict[str, str] = {}
    untraced_wall = 0.0
    for mechanism in MECHANISMS:
        try:
            result, _, took = _replay(trace, config, mechanism)
        except Exception as exc:
            problems[mechanism].append(f"untraced: {type(exc).__name__}: {exc}")
            continue
        untraced[mechanism] = result_digest(result)
        untraced_wall += took

    traced_wall = 0.0
    patches, tap = layers.install(tracer)
    try:
        for mechanism in MECHANISMS:
            tracer.begin_cell(mechanism)
            outcome.attempted += 1
            try:
                result, dispatch, took = _replay(trace, config, mechanism)
            except Exception as exc:
                problems[mechanism].append(f"{type(exc).__name__}: {exc}")
                continue
            traced_wall += took
            problems[mechanism] += _problems(mechanism, result, dispatch, expected)
            if result_digest(result) != untraced.get(mechanism):
                problems[mechanism].append("traced digest differs from untraced")
    finally:
        patches.undo()

    attribution = layers.Attribution(tracer)
    _check_boundaries(problems, attribution)
    for mechanism, found in problems.items():
        if found:
            outcome.fail(1, f"{mechanism}: " + "; ".join(found))
    metrics = attribution.boundary_metrics()
    for mechanism in MECHANISMS:
        metrics[f"kernel.self_s.{mechanism}"] = sum(
            attribution.cell_self(mechanism, name) for name in layers.KERNEL_SPANS
        )
    metrics.update(tap.metrics())
    metrics["runner.cache_hit_rate"] = 0.0
    metrics["runner.warm_pass_s"] = 0.0
    metrics["tracing.overhead_s"] = traced_wall - untraced_wall
    for name, unit, _ in layers.per_layer_metrics():
        outcome.put(name, metrics[name], unit)

    for mechanism in MECHANISMS:
        total, children = attribution.children_of(mechanism, layers.KERNEL_SPANS)
        if children:
            ranked = sorted(children.items(), key=lambda kv: -kv[1])
            outcome.notes.append(
                f"{mechanism} replay {total:.3f}s; largest child spans: "
                + ", ".join(f"{n} {s:.3f}s ({s / total:.0%})" for n, s in ranked[:4])
            )
    outcome.notes.append(
        f"tracing overhead: traced round {traced_wall:.3f}s vs untraced "
        f"{untraced_wall:.3f}s over {len(tracer):,} spans"
    )
    if out_dir is not None:
        tracer.save(out_dir / f"spans-{workload}-seed{seed}.npz")
    return outcome


def _check_boundaries(problems: Dict[str, List[str]], attribution) -> None:
    for name, cells in layers.MUST_FIRE_REPLAY.items():
        for cell in cells:
            if not attribution.cell_calls(cell, name):
                problems[cell].append(f"boundary {name} recorded no call")
    for name, cells in layers.MUST_NOT_FIRE_REPLAY.items():
        for cell in cells:
            if attribution.cell_calls(cell, name):
                problems[cell].append(f"boundary {name} fired, where it must not")
