"""Differential suite for the columnar tracker update paths.

``record_batch`` / ``access_batch`` must replay the per-record tracker
semantics **bit for bit** — same tables, same counters, same aggregate
event stats — both on the vectorised numpy path and with every batch
forced through the per-record loops that short batches and the MEA
stall fallback take (``_record_loop`` / ``_access_loop``).  The cases
here are adversarial on purpose: tiny saturating counters,
full-table decrement rounds with evictions, the strict paper capacity
variant, empty batches, and chunkings that land batch boundaries on
every alignment.
"""

import random
import sys

import numpy as np
import pytest

import repro.tracking.competing as competing_mod
import repro.tracking.full_counters as full_mod
import repro.tracking.mea as mea_mod
from repro.tracking.competing import CompetingCounterArray
from repro.tracking.full_counters import FullCountersTracker
from repro.tracking.mea import MeaTracker

MODES = ["numpy", "pure"]


@pytest.fixture(params=MODES)
def mode(request, monkeypatch):
    if request.param == "pure":
        # No batch is long enough to vectorise: every call runs the
        # plain-Python per-record loop.
        for module in (mea_mod, full_mod, competing_mod):
            monkeypatch.setattr(module, "_BATCH_MIN", sys.maxsize)
    return request.param


def _streams(seed=11, length=3_000):
    rng = random.Random(seed)
    zipf = [int(rng.paretovariate(1.2)) % 97 for _ in range(length)]
    uniform = [rng.randrange(10_000) for _ in range(length)]
    narrow = [rng.randrange(5) for _ in range(length)]
    return {"zipf": zipf, "uniform": uniform, "narrow": narrow}


def _chunked(stream, seed=5):
    """Split a stream into uneven chunks, empty chunks included."""
    rng = random.Random(seed)
    chunks, i = [], 0
    while i < len(stream):
        size = rng.choice([0, 1, 7, 32, 33, 128, 301])
        chunks.append(stream[i : i + size])
        i += size
    chunks.append([])
    return chunks


class TestMeaBatch:
    def _mea_state(self, tracker):
        return (
            {int(k): int(v) for k, v in tracker.counters().items()},
            tracker.increments,
            tracker.insertions,
            tracker.decrement_rounds,
            tracker.evictions,
            tracker.hot_pages(),
        )

    @pytest.mark.parametrize("counter_bits", [1, 2, 16])
    @pytest.mark.parametrize("capacity", [4, 64])
    @pytest.mark.parametrize("strict", [False, True])
    @pytest.mark.parametrize("stream_name", ["zipf", "uniform", "narrow"])
    def test_batch_equals_per_record(
        self, mode, counter_bits, capacity, strict, stream_name
    ):
        stream = _streams()[stream_name]
        reference = MeaTracker(
            capacity=capacity, counter_bits=counter_bits, strict_paper_capacity=strict
        )
        for page in stream:
            reference.record(page)
        batched = MeaTracker(
            capacity=capacity, counter_bits=counter_bits, strict_paper_capacity=strict
        )
        for chunk in _chunked(stream):
            batched.record_batch(chunk)
        assert self._mea_state(batched) == self._mea_state(reference)

    def test_single_batch_with_decrement_rounds(self, mode):
        # Capacity 4 with a wide stream: the table overflows constantly,
        # exercising the decrement-round segmentation (and, on the numpy
        # path, the stall fallback to the per-record loop).
        stream = _streams()["uniform"][:1_500]
        reference = MeaTracker(capacity=4, counter_bits=2)
        for page in stream:
            reference.record(page)
        batched = MeaTracker(capacity=4, counter_bits=2)
        batched.record_batch(stream)
        assert self._mea_state(batched) == self._mea_state(reference)
        assert batched.decrement_rounds > 0
        assert batched.evictions > 0

    def test_empty_batch(self, mode):
        tracker = MeaTracker(capacity=8)
        tracker.record_batch([])
        assert self._mea_state(tracker) == ({}, 0, 0, 0, 0, [])

    def test_table_keys_stay_plain_ints(self):
        tracker = MeaTracker(capacity=8)
        tracker.record_batch(np.asarray([3, 3, 5], dtype=np.int64))
        assert all(type(page) is int for page in tracker.counters())


class TestFullCountersBatch:
    @pytest.mark.parametrize("counter_bits", [1, 2, 16])
    @pytest.mark.parametrize("stream_name", ["zipf", "uniform"])
    def test_batch_equals_per_record(self, mode, counter_bits, stream_name):
        stream = _streams()[stream_name]
        reference = FullCountersTracker(20_000, counter_bits=counter_bits)
        for page in stream:
            reference.record(page)
        batched = FullCountersTracker(20_000, counter_bits=counter_bits)
        for chunk in _chunked(stream):
            batched.record_batch(chunk)
        assert {int(k): int(v) for k, v in batched.counts().items()} == reference.counts()
        assert batched.hot_pages() == reference.hot_pages()

    def test_empty_batch(self, mode):
        tracker = FullCountersTracker(16)
        tracker.record_batch([])
        assert tracker.counts() == {}


def _drive_scalar(counters, accesses):
    """Per-record reference: the THM handle() tracker sequence."""
    triggers = []
    for i, (segment, page, attacks) in enumerate(accesses):
        if attacks:
            nominated = counters.access_challenger(segment, page)
            if nominated is not None:
                triggers.append((i, nominated))
        else:
            counters.access_resident(segment)
    return triggers


def _drive_batched(counters, accesses):
    """Chunked access_batch with scalar replay of each trigger record."""
    segments = [segment for segment, _, _ in accesses]
    pages = [page for _, page, _ in accesses]
    attacks = [attack for _, _, attack in accesses]
    triggers = []
    i = 0
    while i < len(accesses):
        stop = counters.access_batch(segments[i:], pages[i:], attacks[i:])
        if stop is None:
            break
        j = i + stop
        assert attacks[j]
        nominated = counters.access_challenger(segments[j], pages[j])
        assert nominated is not None
        triggers.append((j, nominated))
        i = j + 1
    return triggers


def _competing_state(counters):
    return (
        list(counters._counts),
        [None if c is None else int(c) for c in counters._last_challenger],
        counters.triggers,
        counters.hot_pages(),
    )


class TestCompetingBatch:
    def _accesses(self, segments, seed=7, length=4_000, attack_bias=0.5):
        rng = random.Random(seed)
        return [
            (
                rng.randrange(segments),
                segments + rng.randrange(segments * 8),
                rng.random() < attack_bias,
            )
            for _ in range(length)
        ]

    @pytest.mark.parametrize("threshold,counter_bits", [(4, 8), (16, 8), (3, 2), (1, 1)])
    @pytest.mark.parametrize("attack_bias", [0.2, 0.8])
    def test_batch_equals_per_record(self, mode, threshold, counter_bits, attack_bias):
        accesses = self._accesses(32, attack_bias=attack_bias)
        reference = CompetingCounterArray(32, threshold=threshold, counter_bits=counter_bits)
        expected = _drive_scalar(reference, accesses)
        batched = CompetingCounterArray(32, threshold=threshold, counter_bits=counter_bits)
        actual = _drive_batched(batched, accesses)
        assert actual == expected
        assert _competing_state(batched) == _competing_state(reference)

    def test_saturating_threshold_takes_exact_fallback(self, mode):
        # threshold > max_count: upper saturation can bind before a
        # trigger, so the closed form is invalid; the scalar fallback
        # must still be exact (and can never trigger).
        accesses = self._accesses(8, length=600)
        reference = CompetingCounterArray(8, threshold=300, counter_bits=4)
        expected = _drive_scalar(reference, accesses)
        batched = CompetingCounterArray(8, threshold=300, counter_bits=4)
        actual = _drive_batched(batched, accesses)
        assert expected == actual == []
        assert _competing_state(batched) == _competing_state(reference)

    def test_empty_batch(self, mode):
        counters = CompetingCounterArray(4, threshold=2)
        assert counters.access_batch([], [], []) is None
        assert _competing_state(counters) == ([0] * 4, [None] * 4, 0, [])


class TestHotPagesTieBreak:
    """Regression for the missing (-count, page) nomination order."""

    def test_orders_by_count_then_page(self):
        counters = CompetingCounterArray(4, threshold=4, counter_bits=8)
        # Segment 0: count 2, challenger 90; segment 1: count 3,
        # challenger 41; segment 2: count 2, challenger 17; segment 3
        # stays below threshold/2.
        for segment, page, pumps in ((0, 90, 2), (1, 41, 3), (2, 17, 2), (3, 55, 1)):
            for _ in range(pumps):
                counters.access_challenger(segment, page)
        assert counters.hot_pages() == [41, 17, 90]

    def test_matches_mea_and_full_counter_convention(self):
        # Equal counts tie-break on the lower page, exactly like
        # MeaTracker.hot_pages and FullCountersTracker.hot_pages.
        counters = CompetingCounterArray(3, threshold=4, counter_bits=8)
        for segment, page in ((1, 300), (2, 7), (0, 120)):
            counters.access_challenger(segment, page)
            counters.access_challenger(segment, page)
        assert counters.hot_pages() == [7, 120, 300]

        mea = MeaTracker(capacity=4)
        full = FullCountersTracker(1_024)
        for page in (300, 7, 120):
            mea.record(page)
            full.record(page)
        assert mea.hot_pages() == full.hot_pages() == [7, 120, 300]
