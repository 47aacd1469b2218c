"""The layer boundaries the traced run wraps, and what it derives from them.

Layers are the ``repro`` modules.  Each boundary is a public callable of
one module, wrapped from outside on every concrete class that defines it
(an override in a subclass is wrapped too: wrapping only
``MemoryManager.remap_columns`` would miss ``MemPodManager``'s).  A
boundary's ``_s`` metric is the summed *self time* of its spans; each
comes with a call count and, where the callable takes a batch, the
records passed.

The must-fire rules make the traced run fail loudly when a boundary
never records a call on a cell where it has to, which is what happens
when a wrapper targets the wrong class or a callable is renamed.
"""

from __future__ import annotations

from typing import Callable, Dict, Iterable, List, Tuple

from .spans import Patches, Tracer, cell_boundary, self_times, timed, timed_generator

#: The seven mechanisms the replay workloads measure, in replay order.
MECHANISMS = ("tlm", "hbm-only", "mempod", "hma", "thm", "cameo", "mempod-3tier")

#: Timed boundaries, in report order; ``True`` marks batched ones, which
#: also report the records passed.
BOUNDARIES: Tuple[Tuple[str, bool], ...] = (
    ("trace.synth", False),
    ("trace.store_open", False),
    ("trace.chunk_groups", True),
    ("dram.enqueue_batch", True),
    ("dram.enqueue_run", True),
    ("dram.enqueue", False),
    ("tracking.record_batch", True),
    ("tracking.access_batch", True),
    ("tracking.record", False),
    ("core.remap_columns", False),
    ("core.swap_pages", False),
    ("managers.blocked_columns", False),
    ("managers.handle", False),
    ("managers.finish", False),
    ("mechanisms.build_manager", False),
    ("system.collect_result", False),
    ("system.peak_bus_free", False),
    ("runner.fingerprint", False),
    ("runner.cache_get", False),
    ("runner.cache_put", False),
)

KERNEL_SPANS = ("kernel.fast", "kernel.reference")

ARTEFACTS = (
    "fig1", "fig2", "fig3", "fig6", "fig7", "fig8", "fig9", "fig10",
    "table1", "table2", "table3", "design",
)

SIM_FIELDS = (
    ("ammat_ns", "ns", "lower"),
    ("migrations", "count", "lower"),
    ("bytes_moved", "B", "lower"),
    ("fast_service_fraction", "ratio", "higher"),
    ("row_hit_rate_fast", "ratio", "higher"),
)

#: Replay cells (by mechanism) on which a boundary must record calls.
#: CAMEO's kernel hands every slow or remapped line to the manager's
#: ``handle``; only the direct kernels (tlm, hbm-only) consume
#: ``chunk_groups`` -- the interval kernels decode per chunk themselves.
MUST_FIRE_REPLAY: Dict[str, Tuple[str, ...]] = {
    "trace.chunk_groups": ("tlm", "hbm-only"),
    "dram.enqueue_batch": ("tlm", "hbm-only", "mempod", "hma", "thm"),
    "dram.enqueue_run": ("mempod", "thm"),
    "dram.enqueue": ("cameo", "mempod-3tier"),
    "tracking.record_batch": ("mempod", "hma"),
    "tracking.access_batch": ("thm",),
    "tracking.record": ("mempod-3tier",),
    "core.remap_columns": ("mempod",),
    "core.swap_pages": ("mempod", "thm", "mempod-3tier"),
    "managers.blocked_columns": ("mempod", "thm"),
    "managers.handle": ("cameo", "mempod-3tier"),
    "managers.finish": MECHANISMS,
    "mechanisms.build_manager": MECHANISMS,
    "system.collect_result": MECHANISMS,
    "system.peak_bus_free": MECHANISMS,
    "kernel.fast": MECHANISMS,
    "kernel.reference": ("mempod-3tier",),
}

_TWO_TIER_SPECIALISED = ("tlm", "hbm-only", "mempod", "hma", "thm", "cameo")

#: Replay cells on which a boundary must record no call at all.
MUST_NOT_FIRE_REPLAY: Dict[str, Tuple[str, ...]] = {
    "managers.handle": ("tlm", "hbm-only", "mempod", "hma", "thm"),
    "core.remap_columns": ("tlm", "hbm-only", "cameo"),
    "core.swap_pages": ("tlm", "hbm-only"),
    "tracking.record_batch": ("tlm", "hbm-only"),
    "tracking.access_batch": ("tlm", "hbm-only"),
    "tracking.record": ("tlm", "hbm-only"),
    "kernel.reference": _TWO_TIER_SPECIALISED,
    "runner.fingerprint": MECHANISMS,
    "runner.cache_get": MECHANISMS,
    "runner.cache_put": MECHANISMS,
}

#: Boundaries that must record calls somewhere in the traced sweep.
MUST_FIRE_SWEEP: Tuple[str, ...] = (
    "trace.synth", "trace.store_open", "trace.chunk_groups",
    "dram.enqueue_batch", "dram.enqueue_run", "dram.enqueue",
    "tracking.record_batch", "tracking.access_batch", "tracking.record",
    "core.remap_columns", "core.swap_pages", "managers.handle",
    "mechanisms.build_manager", "system.collect_result",
    "runner.fingerprint", "runner.cache_get", "runner.cache_put",
    "experiments.oracle", "kernel.fast", "kernel.reference",
) + tuple(f"experiments.{name}" for name in ARTEFACTS)


def per_layer_metrics() -> List[Tuple[str, str, str]]:
    """Every per-layer metric as ``(name, unit, better)``, in report order."""
    metrics: List[Tuple[str, str, str]] = []
    for name, batched in BOUNDARIES:
        metrics.append((f"{name}_s", "s", "lower"))
        metrics.append((f"{name}.calls", "count", "lower"))
        if batched:
            metrics.append((f"{name}.records", "count", "higher"))
    metrics += [(f"kernel.self_s.{mech}", "s", "lower") for mech in MECHANISMS]
    metrics += [
        ("dram.closed_form_share", "ratio", "higher"),
        ("dram.indexed_share", "ratio", "higher"),
        ("dram.scalar_fallback_share", "ratio", "lower"),
        ("runner.cache_hit_rate", "ratio", "higher"),
        ("runner.warm_pass_s", "s", "lower"),
    ]
    metrics += [(f"experiments.{name}_s", "s", "lower") for name in ARTEFACTS]
    metrics += [("experiments.oracle_s", "s", "lower")]
    metrics += [
        ("tracing.overhead_s", "s", "lower"),
        ("tracing.spans", "count", "lower"),
    ]
    metrics += [
        (f"sim.{field}.{mech}", unit, better)
        for field, unit, better in SIM_FIELDS
        for mech in MECHANISMS
    ]
    return metrics


def _nth(position: int, keyword: str) -> Callable[[tuple, dict], int]:
    def count(args: tuple, kwargs: dict) -> int:
        value = args[position] if len(args) > position else kwargs[keyword]
        return value if isinstance(value, int) else len(value)

    return count


def install(tracer: Tracer) -> Tuple[Patches, "ResultTap"]:
    """Wrap every boundary of the loaded ``repro`` modules; undo with
    ``.undo()`` on the returned patches.  The returned tap collects each
    simulation result of the traced cells."""
    import repro.cli as cli
    from repro.core.datapath import MigrationEngine
    from repro.dram.controller import ChannelController
    from repro.kernel import replay
    from repro.managers.base import MemoryManager
    from repro.mechanisms import registry
    from repro.runner import cache, pool
    from repro.system import simulator, stats
    from repro.system.hybrid import TieredMemory
    from repro.trace import interleave
    from repro.trace.packed import PackedTrace
    from repro.trace.store import TraceStore
    from repro.tracking import oracle
    from repro.tracking.base import ActivityTracker

    patches = Patches()

    # A boundary that matches nothing means the program changed under the
    # benchmark: stop rather than report a layer that was never timed.
    def function(name, fn, records=None):
        if not patches.function_everywhere(fn, timed(tracer, name, fn, records), "repro"):
            raise RuntimeError(f"boundary {name}: no repro module binds {fn.__qualname__}")

    def method(base, attr, name, records=None):
        if not patches.method_on_definers(
            base, attr, lambda fn: timed(tracer, name, fn, records)
        ):
            raise RuntimeError(f"boundary {name}: no class defines {base.__name__}.{attr}")

    function("trace.synth", interleave.build_trace)
    method(TraceStore, "open", "trace.store_open")
    method(PackedTrace, "chunk_groups", "trace.chunk_groups")
    patches.method_on_definers(
        PackedTrace, "chunk_groups_streamed",
        lambda fn: timed_generator(tracer, "trace.chunk_groups", fn),
    )
    function("kernel.fast", replay.fast_simulate)
    function("kernel.reference", simulator.reference_simulate)
    method(ChannelController, "enqueue_batch", "dram.enqueue_batch", _nth(1, "banks"))
    method(ChannelController, "enqueue_run", "dram.enqueue_run", _nth(5, "count"))
    method(ChannelController, "enqueue", "dram.enqueue")
    method(ActivityTracker, "record_batch", "tracking.record_batch", _nth(1, "pages"))
    method(ActivityTracker, "access_batch", "tracking.access_batch", _nth(2, "pages"))
    method(ActivityTracker, "record", "tracking.record")
    method(MemoryManager, "remap_columns", "core.remap_columns")
    method(MigrationEngine, "swap_pages", "core.swap_pages")
    method(MemoryManager, "blocked_columns", "managers.blocked_columns")
    method(MemoryManager, "handle", "managers.handle")
    method(MemoryManager, "finish", "managers.finish")
    function("mechanisms.build_manager", registry.build_manager)
    function("system.collect_result", stats.collect_result)
    method(TieredMemory, "peak_bus_free_ps", "system.peak_bus_free")
    function("runner.fingerprint", cache.fingerprint)
    method(cache.ResultCache, "load", "runner.cache_get")
    method(cache.ResultCache, "store", "runner.cache_put")
    function("experiments.oracle", oracle.run_oracle_study)
    patches.set(
        cli, "_cmd_artefact",
        timed(tracer, lambda args, kwargs: f"experiments.{args[1]}", cli._cmd_artefact),
    )
    patches.set(
        pool, "_compute_cell",
        cell_boundary(
            tracer, "runner.cell", pool._compute_cell,
            lambda args, kwargs: _cell_label(args[0]),
        ),
    )
    tap = ResultTap(tracer)
    collect = stats.collect_result
    patches.function_everywhere(collect, tap.wrap(collect), "repro")
    return patches, tap


def _cell_label(cell) -> str:
    kind = getattr(cell, "kind", "oracle")
    return f"{cell.workload}/{kind}"


class ResultTap:
    """Each collected ``SimulationResult`` under its cell's mechanism, plus
    the batched-engine service counts of the manager that produced it."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.results: Dict[str, list] = {mechanism: [] for mechanism in MECHANISMS}
        self.served = self.closed_form = self.indexed = self.scalar_fallback = 0

    def wrap(self, collect: Callable) -> Callable:
        def keep(manager, *args, **kwargs):
            result = collect(manager, *args, **kwargs)
            kind = self.tracer.current_cell.rpartition("/")[2]
            if kind in self.results:
                self.results[kind].append(result)
            paths = manager.memory.merged_service_paths()
            self.served += manager.memory.merged_stats().served
            self.closed_form += paths.closed_form_served
            self.indexed += paths.indexed_served
            self.scalar_fallback += paths.scalar_fallback_served
            return result

        return keep

    def metrics(self) -> Dict[str, float]:
        """Service shares, and each mechanism's simulated outputs averaged
        over its cells (0 where the workload has none)."""
        served = self.served or 1
        metrics = {
            "dram.closed_form_share": self.closed_form / served,
            "dram.indexed_share": self.indexed / served,
            "dram.scalar_fallback_share": self.scalar_fallback / served,
        }
        for field, _, _ in SIM_FIELDS:
            for mechanism, results in self.results.items():
                values = [float(getattr(result, field)) for result in results]
                metrics[f"sim.{field}.{mechanism}"] = (
                    sum(values) / len(values) if values else 0.0
                )
        return metrics


class Attribution:
    """Per-name and per-cell aggregates of one tracer's spans."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        names = tracer.names
        selfs = self_times(tracer.start, tracer.end, tracer.parent)
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.records: Dict[str, int] = {}
        #: (cell label, span name) -> [self seconds, calls]
        self.by_cell: Dict[Tuple[str, str], List[float]] = {}
        labels = tracer.cell_labels
        for index, name_id in enumerate(tracer.name_id):
            name = names[name_id]
            seconds = selfs[index]
            self.self_s[name] = self.self_s.get(name, 0.0) + seconds
            self.calls[name] = self.calls.get(name, 0) + 1
            self.records[name] = self.records.get(name, 0) + tracer.records[index]
            cell = tracer.cell[index]
            key = (labels[cell] if cell >= 0 else "", name)
            entry = self.by_cell.setdefault(key, [0.0, 0])
            entry[0] += seconds
            entry[1] += 1

    def cell_calls(self, label: str, name: str) -> int:
        return int(self.by_cell.get((label, name), (0.0, 0))[1])

    def cell_self(self, label: str, name: str) -> float:
        return self.by_cell.get((label, name), (0.0, 0))[0]

    def children_of(self, label: str, names: Iterable[str]) -> Tuple[float, Dict[str, float]]:
        """Inclusive seconds of cell ``label``'s spans named in ``names``,
        and of their direct children, summed by child name."""
        tracer = self.tracer
        wanted = {i for i, n in enumerate(tracer.names) if n in set(names)}
        if label not in tracer.cell_labels:
            return 0.0, {}
        cell = tracer.cell_labels.index(label)
        parents = {
            i for i, (c, n) in enumerate(zip(tracer.cell, tracer.name_id))
            if c == cell and n in wanted
        }
        total = sum(tracer.end[i] - tracer.start[i] for i in parents)
        totals: Dict[str, float] = {}
        for index, parent in enumerate(tracer.parent):
            if parent in parents:
                name = tracer.names[tracer.name_id[index]]
                totals[name] = totals.get(name, 0.0) + (
                    tracer.end[index] - tracer.start[index]
                )
        return total, totals

    def boundary_metrics(self) -> Dict[str, float]:
        """The ``<boundary>_s`` / ``.calls`` / ``.records`` metrics."""
        metrics: Dict[str, float] = {}
        for name, batched in BOUNDARIES:
            metrics[f"{name}_s"] = self.self_s.get(name, 0.0)
            metrics[f"{name}.calls"] = self.calls.get(name, 0)
            if batched:
                metrics[f"{name}.records"] = self.records.get(name, 0)
        for artefact in ARTEFACTS:
            name = f"experiments.{artefact}"
            metrics[f"{name}_s"] = self.self_s.get(name, 0.0)
        metrics["experiments.oracle_s"] = self.self_s.get("experiments.oracle", 0.0)
        metrics["tracing.spans"] = len(self.tracer)
        return metrics
