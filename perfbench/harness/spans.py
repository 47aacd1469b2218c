"""Outside-in span tracing for the benchmark's traced run.

Spans are recorded by wrappers the harness installs around the public
callables of the ``repro`` modules (see :mod:`harness.layers`); nothing
inside the program changes.  Every span has a name, a start, an end, the
span that was open when it started (its parent) and the cell (one
simulation or one sweep cell) it belongs to.  Spans stay in memory in
compact arrays and are written out once, when the run ends.

A span's *self time* is its duration minus the part of its interval that
its child spans cover.  Children of one parent are normally disjoint and
nested (one thread, a call stack), but the arithmetic takes the union of
their intervals so that overlapping children, or children that outlive
their parent, are never counted twice.
"""

from __future__ import annotations

import functools
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Sequence, Tuple

NO_PARENT = -1


class Tracer:
    """In-memory span recorder with a call stack and a current cell."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.cell = array("l")
        self.records = array("l")
        self.cell_labels: List[str] = []
        self._stack: List[int] = []
        self._cell = NO_PARENT

    def __len__(self) -> int:
        return len(self.start)

    def begin_cell(self, label: str) -> int:
        """Open a new cell; spans recorded until the next call share its id."""
        self.cell_labels.append(label)
        self._cell = len(self.cell_labels) - 1
        return self._cell

    @property
    def current_cell(self) -> str:
        """Label of the cell spans are currently recorded under."""
        return self.cell_labels[self._cell] if self._cell != NO_PARENT else ""

    def open(self, name: str) -> int:
        """Start a span under the innermost open span; returns its index."""
        name_id = self._name_ids.get(name)
        if name_id is None:
            name_id = self._name_ids[name] = len(self.names)
            self.names.append(name)
        index = len(self.start)
        self.name_id.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else NO_PARENT)
        self.cell.append(self._cell)
        self.records.append(0)
        self.end.append(0.0)
        self._stack.append(index)
        self.start.append(self.clock())
        return index

    def close(self, index: int, records: int = 0) -> None:
        """End the span ``index`` (the innermost open one)."""
        self.end[index] = self.clock()
        self.records[index] = records
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(
                f"span {self.names[self.name_id[index]]!r} closed out of order"
            )

    def save(self, path) -> None:
        """Write every span out (numpy ``.npz``: arrays plus name tables)."""
        import numpy as np

        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            cells=np.array(self.cell_labels, dtype=str),
            name_id=np.array(self.name_id),
            start=np.array(self.start),
            end=np.array(self.end),
            parent=np.array(self.parent),
            cell=np.array(self.cell),
            records=np.array(self.records),
        )


def self_times(
    starts: Sequence[float], ends: Sequence[float], parents: Sequence[int]
) -> List[float]:
    """Each span's duration minus the union of its children's intervals.

    Child intervals are clipped to the parent's interval first, then
    merged, so overlapping children are covered once and a child that
    started before or ended after its parent only subtracts the part
    inside it.
    """
    result = [end - start for start, end in zip(starts, ends)]
    children: Dict[int, List[int]] = {}
    for index, parent in enumerate(parents):
        if parent != NO_PARENT:
            children.setdefault(parent, []).append(index)
    for parent, kids in children.items():
        lo, hi = starts[parent], ends[parent]
        intervals = sorted(
            (max(lo, starts[k]), min(hi, ends[k])) for k in kids
        )
        covered = 0.0
        run_start, run_end = None, None
        for begin, finish in intervals:
            if finish <= begin:
                continue
            if run_end is None or begin > run_end:
                if run_end is not None:
                    covered += run_end - run_start
                run_start, run_end = begin, finish
            elif finish > run_end:
                run_end = finish
        if run_end is not None:
            covered += run_end - run_start
        result[parent] -= covered
    return result


# -- wrappers ---------------------------------------------------------------

RecordCount = Optional[Callable[[tuple, dict], int]]


def timed(tracer: Tracer, name, fn: Callable, records: RecordCount = None):
    """``fn`` wrapped so that every call is one span named ``name`` (a
    string, or a callable naming the span from the call's arguments)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        index = tracer.open(name(args, kwargs) if callable(name) else name)
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.close(index, records(args, kwargs) if records else 0)

    return wrapper


def timed_generator(tracer: Tracer, name: str, fn: Callable):
    """``fn`` (a generator function) wrapped so that producing each item
    is one span; the item's first field is recorded as its record count."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        while True:
            index = tracer.open(name)
            try:
                item = next(iterator)
            except StopIteration:
                tracer.close(index)
                return
            except BaseException:
                tracer.close(index)
                raise
            tracer.close(index, item[0])
            yield item

    return wrapper


def cell_boundary(tracer: Tracer, name: str, fn: Callable, label: Callable):
    """``fn`` wrapped to open a new cell (labelled from its arguments)
    and record one span around the call."""
    inner = timed(tracer, name, fn)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        tracer.begin_cell(label(args, kwargs))
        return inner(*args, **kwargs)

    return wrapper


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self) -> None:
        self._undo: List[Tuple[object, str, object]] = []

    def set(self, owner: object, attr: str, value: object) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def function_everywhere(self, fn: Callable, wrapper: Callable, prefix: str) -> int:
        """Replace ``fn`` in every loaded module under ``prefix`` that binds
        it (``from x import fn`` copies included); returns the count."""
        count = 0
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == prefix or module_name.startswith(prefix + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, attr, wrapper)
                    count += 1
        return count

    def method_on_definers(self, base: type, attr: str, make_wrapper: Callable) -> List[type]:
        """Wrap ``attr`` on ``base`` and every subclass that defines its own
        ``attr``, so overrides are traced too; returns the classes."""
        seen, pending, wrapped = set(), [base], []
        while pending:
            cls = pending.pop()
            if cls in seen:
                continue
            seen.add(cls)
            pending.extend(cls.__subclasses__())
            fn = cls.__dict__.get(attr)
            if callable(fn) and not isinstance(fn, (staticmethod, classmethod)):
                self.set(cls, attr, make_wrapper(fn))
                wrapped.append(cls)
        return wrapped

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
