"""PackedTrace, the Trace.packed() cache, sliced(), and page math."""

import pytest

from repro.common.errors import TraceError
from repro.common.rng import DeterministicRng
from repro.trace.packed import PackedTrace
from repro.trace.record import Trace


RECORDS = [
    (0, 0, 0, 0),
    (10, 2048, 1, 1),
    (25, 4096 + 64, 0, 2),
    (25, 123_456, 1, 3),
    (90, 7 * 2048 + 100, 0, 0),
]


class TestPackedTrace:
    def test_columns_mirror_records(self):
        packed = PackedTrace(RECORDS)
        assert packed.length == len(RECORDS)
        assert packed.arrivals == [r[0] for r in RECORDS]
        assert packed.addresses == [r[1] for r in RECORDS]
        assert packed.is_writes == [r[2] for r in RECORDS]
        assert packed.cores == [r[3] for r in RECORDS]
        assert packed.max_address == max(r[1] for r in RECORDS)

    def test_empty(self):
        packed = PackedTrace([])
        assert packed.length == 0
        assert packed.arrivals == []
        assert packed.max_address == -1
        assert packed.pages(11) == []

    def test_pages_match_division(self):
        packed = PackedTrace(RECORDS)
        assert packed.pages(11) == [r[1] // 2048 for r in RECORDS]
        assert packed.pages(6) == [r[1] // 64 for r in RECORDS]

    def test_pages_cached_per_shift(self):
        packed = PackedTrace(RECORDS)
        assert packed.pages(11) is packed.pages(11)
        assert packed.pages(11) is not packed.pages(6)

    def test_planes_dict_is_writable_cache(self):
        packed = PackedTrace(RECORDS)
        packed.planes[("k",)] = ([1], [2], [3])
        assert packed.planes[("k",)] == ([1], [2], [3])


def _grouping_fixture(seed=4, count=1_000):
    """Records plus a synthetic decode plane spread over 6 controllers."""
    rng = DeterministicRng(seed)
    records = []
    at = 0
    for _ in range(count):
        at += rng.randrange(5_000)
        records.append((at, rng.randrange(1 << 22) & ~63, int(rng.random() < 0.3), 0))
    packed = PackedTrace(records)
    ctrls = [rng.randrange(6) for _ in range(count)]
    banks = [rng.randrange(16) for _ in range(count)]
    rows = [rng.randrange(64) for _ in range(count)]
    return packed, ctrls, banks, rows


class TestChunkGroups:
    def _reference_groups(self, packed, ctrls, banks, rows, sample):
        """Obviously-correct regrouping: per chunk, stable-partition the
        record indices by controller."""
        total = packed.length
        step = sample if sample else (total or 1)
        chunks = []
        for begin in range(0, total, step):
            end = min(begin + step, total)
            by_ctrl = {}
            for i in range(begin, end):
                by_ctrl.setdefault(ctrls[i], []).append(i)
            groups = tuple(
                (
                    ci,
                    [banks[i] for i in members],
                    [rows[i] for i in members],
                    [packed.is_writes[i] for i in members],
                    [packed.arrivals[i] for i in members],
                )
                for ci, members in sorted(by_ctrl.items())
            )
            chunks.append((end - begin, groups))
        return chunks

    @pytest.mark.parametrize("sample", [0, 128, 100, 1_000, 5_000])
    def test_matches_reference_partition(self, sample):
        packed, ctrls, banks, rows = _grouping_fixture()
        chunks = packed.chunk_groups(("k",), ctrls, banks, rows, sample)
        assert chunks == self._reference_groups(packed, ctrls, banks, rows, sample)

    def test_memoised_per_sample_and_layout(self):
        packed, ctrls, banks, rows = _grouping_fixture(count=300)
        first = packed.chunk_groups(("a",), ctrls, banks, rows, 128)
        assert packed.chunk_groups(("a",), ctrls, banks, rows, 128) is first
        assert packed.chunk_groups(("b",), ctrls, banks, rows, 128) is not first
        assert packed.chunk_groups(("a",), ctrls, banks, rows, 0) is not first

    def test_empty_trace(self):
        packed = PackedTrace([])
        assert packed.chunk_groups(("k",), [], [], [], 128) == []

    def test_preserves_intra_controller_order(self):
        packed, ctrls, banks, rows = _grouping_fixture(seed=6, count=700)
        for count, groups in packed.chunk_groups(("k",), ctrls, banks, rows, 128):
            assert count == sum(len(g[4]) for g in groups)
            group_ids = [g[0] for g in groups]
            assert group_ids == sorted(group_ids)
            for _, _, _, _, arrival_col in groups:
                assert arrival_col == sorted(arrival_col)


class TestTracePackedAccessor:
    def test_packed_is_cached(self):
        trace = Trace(name="t", records=list(RECORDS))
        assert trace.packed() is trace.packed()

    def test_packed_rebuilds_after_resize(self):
        trace = Trace(name="t", records=list(RECORDS))
        first = trace.packed()
        trace.records.append((120, 2048, 0, 0))
        second = trace.packed()
        assert second is not first
        assert second.length == len(RECORDS) + 1


class TestSliced:
    def test_sliced_preserves_contents(self):
        trace = Trace(name="t", records=list(RECORDS), page_bytes=1024)
        part = trace.sliced(1, 4)
        assert part.records == RECORDS[1:4]
        assert part.name == "t"
        assert part.page_bytes == 1024

    def test_sliced_skips_revalidation(self, monkeypatch):
        """Regression: sliced() used to re-run validate() per slice, an
        O(n) pass on the sweep-construction path."""
        trace = Trace(name="t", records=list(RECORDS))
        calls = []
        monkeypatch.setattr(
            Trace, "validate", lambda self: calls.append(1), raising=True
        )
        trace.sliced(0, 3)
        assert calls == []

    def test_construction_still_validates(self):
        with pytest.raises(TraceError):
            Trace(name="bad", records=[(10, 0, 0, 0), (5, 0, 0, 0)])


class TestPageMath:
    def test_shift_matches_division_for_power_of_two(self):
        trace = Trace(name="t", records=list(RECORDS), page_bytes=2048)
        assert trace.page_sequence() == [r[1] // 2048 for r in RECORDS]
        assert trace.pages_touched() == {r[1] // 2048 for r in RECORDS}

    def test_non_power_of_two_page_bytes_falls_back(self):
        trace = Trace(name="t", records=list(RECORDS), page_bytes=3000)
        assert trace.page_sequence() == [r[1] // 3000 for r in RECORDS]
        assert trace.pages_touched() == {r[1] // 3000 for r in RECORDS}
