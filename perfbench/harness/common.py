"""Sizing, set-up, result digests and pinned outputs shared by the workloads."""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import resource
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median
from typing import Dict, List, Optional, Sequence, Tuple

from .layers import MECHANISMS
from .stats import describe, summarize

PINS_FILE = Path(__file__).resolve().parents[1] / "pins.json"

#: Dispatch reason each replay mechanism must report
#: (``repro.kernel.replay.last_dispatch``).
EXPECTED_DISPATCH = {
    "tlm": "specialised:tlm",
    "hbm-only": "specialised:single-level",
    "mempod": "specialised:mempod",
    "hma": "specialised:hma",
    "thm": "specialised:thm",
    "cameo": "specialised:cameo",
    "mempod-3tier": "fallback:multi-tier",
}


@dataclasses.dataclass(frozen=True)
class Sizing:
    """How much work one run does (fixed by the benchmark, not the host)."""

    sweep_length: int
    sweep_workloads: Tuple[str, ...]
    replay_length: int
    #: replays of a mechanism per round; cheap mechanisms repeat so each
    #: records/s sample covers a comparable stretch of host time
    replay_repeats: Tuple[Tuple[str, int], ...]
    setup_reps: int
    min_passes: int

    def repeats(self, mechanism: str) -> int:
        return dict(self.replay_repeats).get(mechanism, 1)

    @property
    def key(self) -> str:
        """Identifies the sizing in the pins file."""
        subset = ",".join(self.sweep_workloads) or "all"
        return (
            f"sweep:{self.sweep_length}:{subset};replay:{self.replay_length}"
        )


FULL = Sizing(
    sweep_length=2000,
    sweep_workloads=(),
    replay_length=50_000,
    replay_repeats=(("tlm", 6), ("hbm-only", 6), ("hma", 4)),
    setup_reps=5,
    min_passes=3,
)

TINY = Sizing(
    sweep_length=1000,
    sweep_workloads=("mix8", "bwaves"),
    replay_length=10_000,
    replay_repeats=(),
    setup_reps=2,
    min_passes=2,
)

SIZINGS = {"full": FULL, "tiny": TINY}


@dataclasses.dataclass
class Outcome:
    """What one run measured, checked and wants to print."""

    metrics: Dict[str, Tuple[float, str]] = dataclasses.field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    errors: List[str] = dataclasses.field(default_factory=list)
    notes: List[str] = dataclasses.field(default_factory=list)

    def fail(self, cells: int, message: str) -> None:
        self.failed += cells
        if len(self.errors) < 50:
            self.errors.append(message)

    def put(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (value, unit)


def result_digest(result) -> str:
    """SHA-256 over a canonical JSON rendering of a ``SimulationResult``."""
    payload = json.dumps(dataclasses.asdict(result), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode()).hexdigest()[:20]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def load_pins() -> dict:
    return json.loads(PINS_FILE.read_text()) if PINS_FILE.is_file() else {}


def pinned(pins: dict, workload: str, sizing: Sizing, seed: int) -> Optional[dict]:
    """The pinned digests for one (workload, sizing, seed), if recorded."""
    return pins.get(workload, {}).get(sizing.key, {}).get(str(seed))


def replay_config(sizing: Sizing, seed: int):
    from repro.experiments.common import ExperimentConfig

    return ExperimentConfig(length=sizing.replay_length, seed=seed)


def build(config, mechanism: str):
    """A fresh manager, with the parameters the paper sweep passes (scaled HMA)."""
    from repro.mechanisms.registry import build_manager

    params = config.hma_params() if mechanism == "hma" else {}
    return build_manager(mechanism, config.geometry, **params)


def import_seconds(src: Path) -> float:
    """Wall time of a fresh interpreter importing the CLI (all layers)."""
    env = dict(os.environ, PYTHONPATH=str(src))
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.cli"], env=env, check=True,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - start


def setup(
    src: Path, workdir: Path, config, workloads: Sequence[str], reps: int,
    host: Optional["HostSpeed"] = None,
) -> List[float]:
    """Set up ``reps`` times; returns each set-up's seconds.

    One set-up is a fresh-interpreter import, trace acquisition into an
    empty trace store (synthesis, store write, re-open), and construction
    of every measured mechanism's manager.  The last store stays in place
    for the timed part of the run.
    """
    from repro.experiments.common import clear_trace_cache, trace_for

    times = []
    for rep in range(reps):
        if host is not None:
            host.sample(2)
        store = workdir / f"traces-{rep}"
        os.environ["REPRO_TRACE_DIR"] = str(store)
        clear_trace_cache()
        seconds = import_seconds(src)
        start = time.perf_counter()
        for name in workloads:
            trace_for(config, name)
        for mechanism in MECHANISMS:
            build(config, mechanism)
        times.append(seconds + time.perf_counter() - start)
        if rep:
            shutil.rmtree(workdir / f"traces-{rep - 1}", ignore_errors=True)
    return times


def peak_rss_mb() -> float:
    """Peak resident memory of this process plus its largest child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


#: CPU seconds one calibration unit takes on an uncontended vCPU of the
#: reference host (Intel Xeon at 2.1 GHz, Python 3.11).
CALIBRATION_NOMINAL_S = 0.020


def calibration_unit() -> None:
    """A fixed slice of interpreter work, independent of ``repro``."""
    table: Dict[int, int] = {}
    total = 0
    for i in range(100_000):
        key = i & 1023
        table[key] = table.get(key, 0) + i
        total += (i * 7) % 13


class HostSpeed:
    """Calibration samples that measure how fast the host runs right now,
    relative to the reference host.

    The machines this benchmark runs on share their cores with other
    tenants, which slows every instruction by up to about 1.7x for
    stretches of seconds to minutes.  Every host-time metric is therefore
    reported scaled by :meth:`factor`: the median calibration time over
    the run divided by :data:`CALIBRATION_NOMINAL_S`, so that a run on a
    slowed host reports what the reference host would have measured.
    Samples are thread CPU time, so the benchmark's own worker processes
    competing for the CPUs do not inflate them.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []

    def sample(self, units: int = 1) -> None:
        for _ in range(units):
            start = time.thread_time()
            calibration_unit()
            self.samples.append(time.thread_time() - start)

    @contextlib.contextmanager
    def sampling(self, period: float = 0.5):
        """Take a sample every ``period`` seconds from a background thread
        (pure Python, so a fork in the foreground never copies it mid-way
        through a native call)."""
        stop = threading.Event()

        def loop() -> None:
            while not stop.wait(period):
                self.sample()

        thread = threading.Thread(target=loop, name="perfbench-host-speed", daemon=True)
        thread.start()
        try:
            yield self
        finally:
            stop.set()
            thread.join(timeout=30)

    def factor(self) -> float:
        return median(self.samples) / CALIBRATION_NOMINAL_S

    def note(self, unscaled: Dict[str, float]) -> str:
        """The summary line naming the factor and the unscaled values."""
        return (
            f"host speed factor {self.factor():.3f} ({len(self.samples)} calibration "
            f"samples: {describe(summarize(self.samples))}); unscaled: "
            + ", ".join(f"{name} {value:.4g}" for name, value in unscaled.items())
        )


def another_pass(passes: Sequence[float], began: float, seconds: float,
                 minimum: int) -> bool:
    """Whether to start another pass: always until ``minimum`` passes,
    then only if a typical pass still fits in the run's ``seconds``."""
    if len(passes) < minimum:
        return True
    done = [p for p in passes if p == p]
    typical = median(done) if done else 0.0
    return time.perf_counter() - began + typical <= seconds


def report(outcome: Outcome, args) -> List[str]:
    """The human-readable lines printed before the JSON result."""
    lines = [f"perfbench {args.workload} seed {args.seed} "
             f"({'traced' if args.trace else 'untraced'}, sizing {args.sizing})"]
    lines += [f"  note: {note}" for note in outcome.notes]
    lines += [f"  FAILED: {error}" for error in outcome.errors]
    rate = outcome.failed / max(1, outcome.attempted)
    lines.append(f"  cells: {outcome.attempted} attempted, {outcome.failed} failed "
                 f"(cell_error_rate {rate:.4g})")
    for name, (value, unit) in outcome.metrics.items():
        lines.append(f"  {name:<40} {value:>16.6g} {unit}")
    return lines
