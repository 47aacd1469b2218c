"""Trace serialisation round-trips and error handling."""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.common.errors import TraceError
from repro.geometry import scaled_geometry
from repro.trace import Trace, build_trace, get_workload
from repro.trace.io import (
    dumps,
    load_binary,
    load_text,
    loads,
    save_binary,
    save_text,
)


@pytest.fixture
def sample_trace():
    geometry = scaled_geometry(64)
    return build_trace(get_workload("mix5"), geometry, length=2000, seed=4).trace


class TestBinary:
    def test_roundtrip(self, sample_trace, tmp_path):
        path = tmp_path / "t.bin"
        save_binary(sample_trace, path)
        loaded = load_binary(path, name=sample_trace.name)
        assert loaded.records == sample_trace.records
        assert loaded.page_bytes == sample_trace.page_bytes
        assert loaded.name == sample_trace.name

    def test_empty_trace_roundtrip(self, tmp_path):
        path = tmp_path / "e.bin"
        empty = Trace(name="empty", records=[])
        save_binary(empty, path)
        assert load_binary(path).records == []

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOTATRACE" + b"\x00" * 64)
        with pytest.raises(TraceError):
            load_binary(path)

    def test_truncated_file_rejected(self, sample_trace, tmp_path):
        path = tmp_path / "trunc.bin"
        save_binary(sample_trace, path)
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(TraceError):
            load_binary(path)

    def test_short_header_rejected(self, tmp_path):
        path = tmp_path / "short.bin"
        path.write_bytes(b"MP")
        with pytest.raises(TraceError):
            load_binary(path)

    def test_dumps_matches_file(self, sample_trace, tmp_path):
        path = tmp_path / "t.bin"
        save_binary(sample_trace, path)
        assert dumps(sample_trace) == path.read_bytes()

    def test_loads_roundtrips_dumps(self, sample_trace):
        loaded = loads(dumps(sample_trace), name=sample_trace.name)
        assert loaded.records == sample_trace.records
        assert loaded.page_bytes == sample_trace.page_bytes
        assert loaded.name == sample_trace.name

    def test_loads_rejects_garbage(self):
        with pytest.raises(TraceError):
            loads(b"NOTATRACE" + b"\0" * 64)

    def test_dumps_golden_bytes(self):
        """The v1 layout packed by hand: the ``<8sIQQ`` header, then one
        ``<qqBB`` record each with the core stored +1 (core -1 -> 0)."""
        records = [(0, 0, 0, -1), (10, 4096 + 64, 1, 0), (2**40, 2**33, 0, 7)]
        trace = Trace(name="golden", records=records, page_bytes=2048)
        expected = struct.pack("<8sIQQ", b"MPTRACE1", 1, 2048, len(records))
        for arrival, address, is_write, core in records:
            expected += struct.pack("<qqBB", arrival, address, is_write, core + 1)
        assert dumps(trace) == expected
        assert loads(expected).records == records


class TestText:
    def test_roundtrip(self, sample_trace, tmp_path):
        path = tmp_path / "t.txt"
        save_text(sample_trace, path)
        loaded = load_text(path)
        assert loaded.records == sample_trace.records
        assert loaded.page_bytes == sample_trace.page_bytes

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "no-header.txt"
        path.write_text("0 0x100 0 1\n")
        with pytest.raises(TraceError):
            load_text(path)

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("# mempod-trace v1 page_bytes=2048\n1 2 3\n")
        with pytest.raises(TraceError):
            load_text(path)

    def test_non_numeric_rejected(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("# mempod-trace v1 page_bytes=2048\nten 0x0 0 1\n")
        with pytest.raises(TraceError):
            load_text(path)

    def test_out_of_range_is_write_names_line(self, tmp_path):
        path = tmp_path / "w.txt"
        path.write_text(
            "# mempod-trace v1 page_bytes=2048\n"
            "0 0x0 0 0\n"
            "5 0x40 2 0\n"
        )
        with pytest.raises(TraceError) as err:
            load_text(path)
        assert "w.txt:3" in str(err.value)
        assert "is_write" in str(err.value)

    def test_out_of_range_core_names_line(self, tmp_path):
        path = tmp_path / "c.txt"
        path.write_text(
            "# mempod-trace v1 page_bytes=2048\n"
            "0 0x0 0 -2\n"
        )
        with pytest.raises(TraceError) as err:
            load_text(path)
        assert "c.txt:2" in str(err.value)
        assert "core" in str(err.value)


class TestTraceValidation:
    def test_non_monotone_rejected(self):
        with pytest.raises(TraceError):
            Trace(name="x", records=[(100, 0, 0, 0), (50, 64, 0, 0)])

    def test_bad_write_flag_rejected(self):
        with pytest.raises(TraceError):
            Trace(name="x", records=[(0, 0, 2, 0)])

    def test_negative_address_rejected(self):
        with pytest.raises(TraceError):
            Trace(name="x", records=[(0, -64, 0, 0)])

    def test_helpers(self):
        trace = Trace(
            name="x",
            records=[(0, 0, 0, 0), (10, 2048, 1, 1), (20, 2048 + 64, 0, 1)],
        )
        assert trace.duration_ps == 20
        assert trace.write_fraction == pytest.approx(1 / 3)
        assert trace.pages_touched() == {0, 1}
        assert trace.page_sequence() == [0, 1, 1]
        assert len(trace.sliced(1, 3)) == 2

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=2**40),
                st.integers(min_value=0, max_value=2**40),
                st.integers(min_value=0, max_value=1),
                st.integers(min_value=-1, max_value=7),
            ),
            max_size=40,
        )
    )
    def test_binary_roundtrip_property(self, raw):
        import tempfile
        from pathlib import Path

        records = sorted(raw, key=lambda r: r[0])
        trace = Trace(name="prop", records=records)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "p.bin"
            save_binary(trace, path)
            assert load_binary(path).records == records
