"""Self-time arithmetic and the span recorder."""

import pytest

from harness.spans import NO_PARENT, Patches, Tracer, self_times, timed, timed_generator


def test_leaf_self_time_is_its_duration():
    assert self_times([0.0], [2.5], [NO_PARENT]) == [2.5]


def test_nested_children_are_subtracted_level_by_level():
    # root [0,10] > a [1,4] > a1 [2,3]; root > b [5,9]
    starts = [0.0, 1.0, 2.0, 5.0]
    ends = [10.0, 4.0, 3.0, 9.0]
    parents = [NO_PARENT, 0, 1, 0]
    assert self_times(starts, ends, parents) == [3.0, 2.0, 1.0, 4.0]


def test_overlapping_children_are_covered_once():
    # two children overlapping on [3,4]: union is [2,6] -> 4 covered
    starts = [0.0, 2.0, 3.0]
    ends = [10.0, 4.0, 6.0]
    assert self_times(starts, ends, [NO_PARENT, 0, 0])[0] == pytest.approx(6.0)


def test_child_contained_in_a_sibling_is_not_double_counted():
    starts = [0.0, 1.0, 2.0]
    ends = [10.0, 8.0, 3.0]
    assert self_times(starts, ends, [NO_PARENT, 0, 0])[0] == pytest.approx(3.0)


def test_children_are_clipped_to_the_parent_interval():
    # a child that began before and ended after its parent covers it all
    starts = [5.0, 4.0]
    ends = [7.0, 9.0]
    assert self_times(starts, ends, [NO_PARENT, 0]) == [0.0, 5.0]


def test_empty_and_touching_children():
    starts = [0.0, 1.0, 2.0, 3.0]
    ends = [5.0, 2.0, 3.0, 3.0]
    assert self_times(starts, ends, [NO_PARENT, 0, 0, 0])[0] == pytest.approx(3.0)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_records_parents_cells_and_records():
    tracer = Tracer(clock=FakeClock())
    tracer.begin_cell("a/mempod")

    def inner(pages):
        return len(pages)

    wrapped_inner = timed(tracer, "inner", inner, lambda args, kwargs: len(args[0]))
    outer = timed(tracer, "outer", lambda: wrapped_inner([1, 2, 3]))
    assert outer() == 3
    assert tracer.names == ["outer", "inner"]
    assert list(tracer.parent) == [NO_PARENT, 0]
    assert list(tracer.cell) == [0, 0]
    assert list(tracer.records) == [0, 3]
    # clock ticks: outer 1..4, inner 2..3
    assert self_times(tracer.start, tracer.end, tracer.parent) == [2.0, 1.0]
    assert tracer.current_cell == "a/mempod"


def test_span_closes_when_the_call_raises():
    tracer = Tracer(clock=FakeClock())

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        timed(tracer, "boom", boom)()
    assert len(tracer) == 1 and tracer.end[0] > tracer.start[0]


def test_generator_items_are_spans_with_record_counts():
    tracer = Tracer(clock=FakeClock())

    def chunks():
        yield (128, "a")
        yield (64, "b")

    items = list(timed_generator(tracer, "gen", chunks)())
    assert items == [(128, "a"), (64, "b")]
    assert list(tracer.records) == [128, 64, 0]


def test_patches_wrap_overrides_and_undo():
    class Base:
        def f(self):
            return "base"

    class Child(Base):
        def f(self):
            return "child"

    class Heir(Child):
        pass

    patches = Patches()
    wrapped = patches.method_on_definers(
        Base, "f", lambda fn: lambda self: "wrapped-" + fn(self)
    )
    assert set(wrapped) == {Base, Child}
    assert Heir().f() == "wrapped-child"
    patches.undo()
    assert Heir().f() == "child" and Base().f() == "base"
