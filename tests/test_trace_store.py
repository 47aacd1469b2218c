"""Columnar trace store: v2 format, store addressing, streamed replay.

Three layers of proof:

* the v2 file format round-trips (including hypothesis-random traces)
  and every corruption mode fails loudly at open;
* the content-addressed store serves bit-identical traces to what
  synthesis builds, as memory-mapped views;
* the streamed replay path — windowed ``chunk_groups_streamed`` and the
  mapped kernels — matches the in-memory path result-for-result while
  keeping peak memory bounded by the window, not the trace.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import AddressError, ConfigError, TraceError
from repro.experiments.common import ExperimentConfig, clear_trace_cache, trace_for
from repro.geometry import scaled_geometry
from repro.system.simulator import (
    MANAGER_KINDS,
    THROTTLE_SAMPLE_PERIOD,
    build_manager,
    reference_simulate,
    simulate,
)
from repro.trace import Trace, build_trace, get_workload
from repro.trace.io import (
    CHUNK_RECORDS,
    columnar_size,
    read_columnar_header,
    save_columnar,
)
from repro.trace.store import (
    MappedTrace,
    TraceStore,
    import_tracehm_tsv,
    open_columnar,
    store_enabled,
    synth_trace_key,
)


@pytest.fixture
def sample_trace():
    geometry = scaled_geometry(64)
    return build_trace(get_workload("mix5"), geometry, length=2000, seed=4).trace


def _records(trace):
    return [tuple(r) for r in trace.records]


#: A hand-written trace for the golden-bytes tests: core -1 stores as
#: -1 (v2 keeps the raw value), and the page plane is address // 2048.
GOLDEN_RECORDS = [(0, 0, 0, -1), (10, 4096 + 64, 1, 0), (2**40, 2**33, 0, 7)]


def _golden_columnar(records, page_bytes, max_address=None):
    """The v2 file for ``records`` packed by hand: header, five plane
    directory entries, zero padding to 1024 bytes, then one ``<q`` plane
    per column zero-padded to a whole 128-record chunk.  ``max_address``
    overrides the header field (default: the true maximum)."""
    count = len(records)
    stride = -(-count // 128) * 128
    if max_address is None:
        max_address = max((r[1] for r in records), default=-1)
    head = struct.pack("<8sIIQQq", b"MPTRACE2", 2, 5, page_bytes, count, max_address)
    for name in ("arrival", "address", "iswrite", "core", "page"):
        head += struct.pack("<8s4sI", name.encode("ascii"), b"<i8", 0)
    data = head + b"\0" * (1024 - len(head))
    columns = [[r[i] for r in records] for i in range(4)]
    columns.append([r[1] // page_bytes for r in records])
    for column in columns:
        data += struct.pack(f"<{stride}q", *column, *([0] * (stride - count)))
    return data


class TestColumnarFormat:
    def test_chunk_matches_throttle_period(self):
        # The format's padding unit IS the replay throttle chunk: a
        # streaming reader never needs to split a chunk across reads.
        assert CHUNK_RECORDS == THROTTLE_SAMPLE_PERIOD

    def test_roundtrip(self, sample_trace, tmp_path):
        path = tmp_path / "t.mpt"
        save_columnar(sample_trace, path)
        assert path.stat().st_size == columnar_size(len(sample_trace))
        loaded = open_columnar(path, name=sample_trace.name)
        assert _records(loaded) == _records(sample_trace)
        assert loaded.page_bytes == sample_trace.page_bytes
        assert loaded.name == sample_trace.name
        assert len(loaded) == len(sample_trace)

    def test_mapped_when_numpy_available(self, sample_trace, tmp_path):
        path = tmp_path / "t.mpt"
        save_columnar(sample_trace, path)
        loaded = open_columnar(path)
        assert isinstance(loaded, MappedTrace)
        assert loaded.packed().mapped
        assert loaded.name == "t"  # name defaults to the file stem

    def test_header_info(self, sample_trace, tmp_path):
        path = tmp_path / "t.mpt"
        save_columnar(sample_trace, path)
        info = read_columnar_header(path)
        assert info.count == len(sample_trace)
        assert info.page_bytes == sample_trace.page_bytes
        assert info.max_address == sample_trace.packed().max_address
        assert info.stride % CHUNK_RECORDS == 0
        assert info.stride >= info.count

    def test_empty_roundtrip(self, tmp_path):
        path = tmp_path / "e.mpt"
        save_columnar(Trace(name="empty", records=[]), path)
        loaded = open_columnar(path)
        assert len(loaded) == 0
        assert list(loaded.records) == []

    def test_non_pow2_page_bytes(self, tmp_path):
        trace = Trace(
            name="odd",
            records=[(0, 0, 0, 0), (5, 3000, 1, 0)],
            page_bytes=1500,
        )
        path = tmp_path / "odd.mpt"
        save_columnar(trace, path)
        info = read_columnar_header(path)
        assert info.page_shift == -1
        loaded = open_columnar(path)
        assert _records(loaded) == trace.records
        assert loaded.page_bytes == 1500

    def test_truncated_rejected(self, sample_trace, tmp_path):
        path = tmp_path / "trunc.mpt"
        save_columnar(sample_trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-9])
        with pytest.raises(TraceError):
            open_columnar(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.mpt"
        path.write_bytes(b"NOTMPT00" + b"\0" * 2048)
        with pytest.raises(TraceError):
            open_columnar(path)

    def test_v1_file_rejected_as_columnar(self, sample_trace, tmp_path):
        from repro.trace.io import save_binary

        path = tmp_path / "v1.mpt"
        save_binary(sample_trace, path)
        with pytest.raises(TraceError):
            open_columnar(path)

    def test_bad_version_rejected(self, sample_trace, tmp_path):
        path = tmp_path / "ver.mpt"
        save_columnar(sample_trace, path)
        data = bytearray(path.read_bytes())
        data[8] = 99  # version field follows the 8-byte magic
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError):
            open_columnar(path)

    def test_corrupt_plane_name_rejected(self, sample_trace, tmp_path):
        path = tmp_path / "plane.mpt"
        save_columnar(sample_trace, path)
        data = bytearray(path.read_bytes())
        # First plane directory entry starts after the 40-byte header.
        data[40:47] = b"arrivel".ljust(7, b"\0")
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError):
            open_columnar(path)

    def test_corrupt_dtype_rejected(self, sample_trace, tmp_path):
        path = tmp_path / "dtype.mpt"
        save_columnar(sample_trace, path)
        data = bytearray(path.read_bytes())
        data[48:52] = b"<f8\0"  # dtype code of the first plane entry
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError):
            open_columnar(path)

    def test_nonzero_reserved_rejected(self, sample_trace, tmp_path):
        path = tmp_path / "resv.mpt"
        save_columnar(sample_trace, path)
        data = bytearray(path.read_bytes())
        data[52] = 1  # reserved field of the first plane entry
        path.write_bytes(bytes(data))
        with pytest.raises(TraceError):
            open_columnar(path)

    @pytest.mark.parametrize("records", [GOLDEN_RECORDS, []], ids=["three", "empty"])
    def test_writes_golden_bytes(self, records, tmp_path):
        path = tmp_path / "golden.mpt"
        save_columnar(Trace(name="golden", records=records, page_bytes=2048), path)
        assert path.read_bytes() == _golden_columnar(records, 2048)

    def test_reads_golden_bytes(self, tmp_path):
        path = tmp_path / "golden.mpt"
        path.write_bytes(_golden_columnar(GOLDEN_RECORDS, 2048))
        loaded = open_columnar(path)
        assert loaded.packed().mapped
        assert loaded.page_bytes == 2048
        assert _records(loaded) == GOLDEN_RECORDS
        assert list(loaded.packed().pages(11)) == [r[1] // 2048 for r in GOLDEN_RECORDS]

    @pytest.mark.parametrize(
        "records, max_address",
        [(GOLDEN_RECORDS, -7), (GOLDEN_RECORDS, -1), ([], 5), ([], -2)],
        ids=["nonempty-negative", "nonempty-minus-one", "empty-positive",
             "empty-below-minus-one"],
    )
    def test_max_address_rule(self, records, max_address, tmp_path):
        # -1 if and only if the trace is empty, otherwise non-negative.
        path = tmp_path / "lie.mpt"
        path.write_bytes(_golden_columnar(records, 2048, max_address))
        with pytest.raises(TraceError, match="max_address"):
            read_columnar_header(path)

    @settings(max_examples=30, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**40),
                st.integers(min_value=0, max_value=2**40),
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=-1, max_value=7),
            ),
            max_size=300,
        )
    )
    def test_columnar_roundtrip_property(self, raw):
        import tempfile
        from pathlib import Path

        records = sorted(raw, key=lambda r: r[0])
        trace = Trace(name="prop", records=records)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.mpt"
            save_columnar(trace, path)
            assert path.stat().st_size == columnar_size(len(records))
            assert _records(open_columnar(path)) == records


class TestMappedTraceView:
    def test_records_view(self, sample_trace, tmp_path):
        path = tmp_path / "v.mpt"
        save_columnar(sample_trace, path)
        loaded = open_columnar(path)
        expected = sample_trace.records
        assert loaded.records[0] == expected[0]
        assert loaded.records[-1] == expected[-1]
        assert loaded.records[10:20] == expected[10:20]
        assert list(loaded.records) == expected
        with pytest.raises(IndexError):
            loaded.records[len(expected)]
        # Trace helpers work through the view.
        assert loaded.duration_ps == sample_trace.duration_ps
        assert loaded.sliced(5, 50).records == sample_trace.sliced(5, 50).records


class TestTraceStore:
    def test_save_open_roundtrip(self, sample_trace, tmp_path):
        store = TraceStore(tmp_path)
        key = "ab" + "c" * 62
        path = store.save(key, sample_trace)
        assert path == tmp_path / "ab" / (("c" * 62) + ".mpt")
        assert store.has(key)
        loaded = store.open(key, name=sample_trace.name)
        assert _records(loaded) == _records(sample_trace)
        assert not list(tmp_path.glob("**/*.tmp"))  # no temp droppings

    def test_open_missing_returns_none(self, tmp_path):
        assert TraceStore(tmp_path).open("00" + "f" * 62) is None

    def test_corrupt_entry_raises(self, sample_trace, tmp_path):
        store = TraceStore(tmp_path)
        key = "12" + "d" * 62
        path = store.save(key, sample_trace)
        path.write_bytes(path.read_bytes()[:100])
        with pytest.raises(TraceError):
            store.open(key)

    def test_synth_key_covers_spec(self):
        base = synth_trace_key("mcf", 32, 1000, 1)
        assert base == synth_trace_key("mcf", 32, 1000, 1)
        assert base != synth_trace_key("mcf", 32, 1000, 2)
        assert base != synth_trace_key("mcf", 32, 2000, 1)
        assert base != synth_trace_key("mcf", 64, 1000, 1)
        assert base != synth_trace_key("milc", 32, 1000, 1)


class TestTraceForIntegration:
    def test_store_and_memory_identical(self, monkeypatch):
        config = ExperimentConfig(scale=64, length=3000, seed=2)
        monkeypatch.setenv("REPRO_NO_TRACE_STORE", "1")
        assert not store_enabled()
        clear_trace_cache()
        eager = trace_for(config, "mcf")
        monkeypatch.delenv("REPRO_NO_TRACE_STORE")
        assert store_enabled()
        clear_trace_cache()
        stored = trace_for(config, "mcf")
        assert stored.name == eager.name
        assert stored.page_bytes == eager.page_bytes
        assert _records(stored) == _records(eager)
        assert stored.packed().mapped
        clear_trace_cache()

    def test_warm_open_skips_synthesis(self, monkeypatch):
        config = ExperimentConfig(scale=64, length=1500, seed=9)
        clear_trace_cache()
        trace_for(config, "milc")  # populates the store
        clear_trace_cache()

        def boom(*args, **kwargs):  # pragma: no cover - failure path
            raise AssertionError("warm path must not re-synthesise")

        import repro.experiments.common as common

        monkeypatch.setattr(common, "_cached_trace", boom)
        warm = trace_for(config, "milc")
        assert len(warm) == 1500
        common._stored_trace.cache_clear()


class TestTracehmImport:
    def test_import(self, tmp_path):
        path = tmp_path / "cap.tsv"
        path.write_text(
            "# capture header\n"
            "\n"
            "0\t0x1000\t0\n"
            "5\t8192\t1\n"
            "5\t0x1000\t0\n"
        )
        trace = import_tracehm_tsv(path, tick_ps=1000)
        assert trace.name == "cap"
        assert trace.records == [
            (0, 4096, 0, 0),
            (5000, 8192, 1, 0),
            (5000, 4096, 0, 0),
        ]

    def test_errors_name_the_line(self, tmp_path):
        cases = [
            ("0\t0\t0\n1\t2\n", "expected 3 fields", 2),
            ("0\t0\t0\nx\t2\t0\n", "invalid literal", 2),
            ("0\t0\t0\n5\t2\t0\n1\t2\t0\n", "precedes", 3),
            ("0\t0\t0\n1\t2\t7\n", "is_write", 2),
            ("-1\t2\t0\n", "negative cnt", 1),
            ("0\t0\t0\n1\t-2\t0\n", "negative address", 2),
        ]
        for body, fragment, line_no in cases:
            path = tmp_path / "bad.tsv"
            path.write_text(body)
            with pytest.raises(TraceError) as err:
                import_tracehm_tsv(path)
            assert f"bad.tsv:{line_no}" in str(err.value)
            assert fragment in str(err.value)

    def test_bad_tick_rejected(self, tmp_path):
        path = tmp_path / "t.tsv"
        path.write_text("0\t0\t0\n")
        with pytest.raises(ConfigError):
            import_tracehm_tsv(path, tick_ps=0)

    def test_import_replays(self, tmp_path):
        # An imported capture replays through the simulator end to end.
        path = tmp_path / "cap.tsv"
        lines = [f"{i}\t{(i * 4096) % (1 << 24)}\t{i % 2}" for i in range(600)]
        path.write_text("\n".join(lines) + "\n")
        trace = import_tracehm_tsv(path)
        out = tmp_path / "cap.mpt"
        save_columnar(trace, out)
        loaded = open_columnar(out)
        geometry = scaled_geometry(64)
        a = simulate(trace, build_manager("mempod", geometry))
        b = simulate(loaded, build_manager("mempod", geometry))
        assert a == b


class TestStreamedChunkGroups:
    def _decode(self, addresses):
        a = np.asarray(addresses, dtype=np.int64)
        return (a >> 7) % 3, (a >> 9) % 4, a >> 13

    def _columns(self, packed):
        return self._decode(packed.np_addresses())

    def _eager(self, packed, sample):
        ctrls, banks, rows = self._columns(packed)
        return packed.chunk_groups(("test-layout",), ctrls, banks, rows, sample)

    @pytest.mark.parametrize("window", [128, 256, 1024, 2048])
    def test_throttled_windows_match_eager(self, sample_trace, window):
        packed = sample_trace.packed()
        eager = self._eager(packed, THROTTLE_SAMPLE_PERIOD)
        streamed = list(
            packed.chunk_groups_streamed(
                self._decode, THROTTLE_SAMPLE_PERIOD, window
            )
        )
        assert streamed == eager

    @pytest.mark.parametrize("window", [128, 512, 4096])
    def test_unthrottled_concatenation_matches_eager(self, sample_trace, window):
        # sample == 0: the eager method emits one whole-trace chunk, the
        # streamed one a chunk per window.  Per-controller concatenation
        # across streamed chunks must reproduce the eager groups.
        packed = sample_trace.packed()
        (eager_count, eager_groups), = self._eager(packed, 0)
        merged = {}
        total = 0
        for count, groups in packed.chunk_groups_streamed(self._decode, 0, window):
            total += count
            for ctrl, banks, rows, writes, arrivals in groups:
                entry = merged.setdefault(ctrl, ([], [], [], []))
                entry[0].extend(banks)
                entry[1].extend(rows)
                entry[2].extend(writes)
                entry[3].extend(arrivals)
        assert total == eager_count
        assert [
            (ctrl, *entry) for ctrl, entry in sorted(merged.items())
        ] == [
            (ctrl, list(banks), list(rows), list(writes), list(arrivals))
            for ctrl, banks, rows, writes, arrivals in eager_groups
        ]

    def test_window_must_align_with_sample(self, sample_trace):
        packed = sample_trace.packed()
        with pytest.raises(ValueError):
            list(packed.chunk_groups_streamed(self._decode, 128, 192))

    def test_mapped_trace_streams(self, sample_trace, tmp_path):
        path = tmp_path / "s.mpt"
        save_columnar(sample_trace, path)
        packed = open_columnar(path, window=256).packed()
        eager = self._eager(sample_trace.packed(), THROTTLE_SAMPLE_PERIOD)
        streamed = list(
            packed.chunk_groups_streamed(self._decode, THROTTLE_SAMPLE_PERIOD, 256)
        )
        assert streamed == eager


class TestMappedReplayDifferential:
    @pytest.fixture(scope="class")
    def pair(self, tmp_path_factory):
        geometry = scaled_geometry(64)
        trace = build_trace(
            get_workload("mix2"), geometry, length=4000, seed=7
        ).trace
        path = tmp_path_factory.mktemp("mapped") / "d.mpt"
        save_columnar(trace, path)
        return geometry, trace, path

    @pytest.mark.parametrize("kind", MANAGER_KINDS)
    def test_fast_kernel_identical(self, pair, kind):
        geometry, trace, path = pair
        mapped = open_columnar(path, name=trace.name)
        expected = simulate(trace, build_manager(kind, geometry))
        actual = simulate(mapped, build_manager(kind, geometry))
        assert actual == expected

    @pytest.mark.parametrize("kind", ["tlm", "mempod", "hma", "thm", "cameo"])
    @pytest.mark.parametrize("window", [128, 512, 1920])
    def test_windows_identical(self, pair, kind, window):
        # Mapped and in-memory replays share their decode code, so the
        # mapped run is held against the reference loop, not the
        # in-memory kernel.
        geometry, trace, path = pair
        mapped = open_columnar(path, name=trace.name, window=window)
        expected = reference_simulate(trace, build_manager(kind, geometry))
        assert simulate(mapped, build_manager(kind, geometry)) == expected

    @pytest.mark.parametrize("window", [128, 1920])
    def test_unthrottled_cameo_spans_windows(self, pair, window):
        # With the throttle off one chunk is the whole trace, so CAMEO's
        # record stream must chain its decode windows mid-chunk.
        geometry, trace, path = pair
        mapped = open_columnar(path, name=trace.name, window=window)
        expected = reference_simulate(
            trace, build_manager("cameo", geometry), throttle_cap_ps=0
        )
        actual = simulate(
            mapped, build_manager("cameo", geometry), throttle_cap_ps=0
        )
        assert actual == expected

    def test_lying_header_cannot_hide_out_of_range(self, tmp_path):
        # The header claims max_address 4096; the address plane holds a
        # record one line past the flat space.  Both kernels must raise.
        from repro.kernel import replay

        geometry = scaled_geometry(64)
        page_bytes = geometry.page_bytes
        records = [(0, 0, 0, 0), (10, geometry.total_bytes + 64, 1, 0)]
        path = tmp_path / "lie.mpt"
        path.write_bytes(_golden_columnar(records, page_bytes, max_address=4096))
        with pytest.raises(AddressError):
            simulate(open_columnar(path), build_manager("mempod", geometry),
                     kernel="fast")
        assert replay.last_dispatch == "fallback:out-of-range-address"
        with pytest.raises(AddressError):
            reference_simulate(open_columnar(path), build_manager("mempod", geometry))

    @pytest.mark.parametrize("kind", ["mempod", "cameo"])
    def test_reference_kernel_identical(self, pair, kind):
        geometry, trace, path = pair
        mapped = open_columnar(path, name=trace.name)
        short = trace.sliced(0, 1200)
        short_mapped = mapped.sliced(0, 1200)
        expected = reference_simulate(short, build_manager(kind, geometry))
        actual = reference_simulate(short_mapped, build_manager(kind, geometry))
        assert actual == expected


class TestStreamingPeakMemory:
    def test_peak_bounded_by_window(self, tmp_path):
        """Replaying ≥16x the window must not materialise the planes.

        tracemalloc tracks numpy's allocations, so the whole-trace
        decode shows up as a multi-plane-sized peak while the windowed
        replay stays near the window's working set.
        """
        import tracemalloc

        geometry = scaled_geometry(64)
        length = 65_536
        window = 4_096
        trace = build_trace(
            get_workload("mcf"), geometry, length=length, seed=3
        ).trace
        path = tmp_path / "big.mpt"
        save_columnar(trace, path)
        plane_bytes = 5 * 8 * length

        def peak(window_records):
            mapped = open_columnar(path, window=window_records)
            manager = build_manager("tlm", geometry)
            tracemalloc.start()
            simulate(mapped, manager)
            _, measured = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            return measured

        whole = length + CHUNK_RECORDS  # one window spanning everything
        peak(window)  # warm up one-time caches before measuring
        windowed_peak = peak(window)
        whole_peak = peak(whole)
        assert windowed_peak < whole_peak / 2
        assert windowed_peak < plane_bytes / 2
