"""Binary trace format: lossless round-trips and validation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from labmech import MalformedTrace, ReplayTrace, read_trace, trace_table, write_trace
from labmech.trace import KINDS


def random_trace(rng):
    kind = rng.choice(["generic", "liquid", "screw", "knob"])
    ncols = int(rng.integers(1, 7))
    columns = tuple(f"col{i}" for i in range(ncols))
    count = int(rng.integers(0, 40))
    data = rng.normal(scale=10.0 ** rng.integers(-12, 12), size=(count, ncols))
    return ReplayTrace(kind=str(kind), columns=columns, data=data)


class TestRoundTrip:
    def test_random_traces_bit_exact(self, tmp_path):
        rng = np.random.default_rng(109)
        for i in range(100):
            trace = random_trace(rng)
            path = tmp_path / f"t{i}.trace"
            write_trace(trace, path)
            assert read_trace(path) == trace

    def test_header_only_file(self, tmp_path):
        trace = ReplayTrace(kind="generic", columns=("a",), data=np.zeros((0, 1)))
        path = tmp_path / "empty.trace"
        write_trace(trace, path)
        back = read_trace(path)
        assert len(back) == 0
        assert back == trace

    def test_write_is_deterministic(self, tmp_path):
        rng = np.random.default_rng(113)
        trace = random_trace(rng)
        a, b = tmp_path / "a.trace", tmp_path / "b.trace"
        write_trace(trace, a)
        write_trace(trace, b)
        assert a.read_bytes() == b.read_bytes()

    def test_special_values_survive(self, tmp_path):
        data = np.array([[0.0, -0.0, np.pi], [1e-308, 1e308, -0.1]])
        trace = ReplayTrace(kind="generic", columns=("x", "y", "z"), data=data)
        path = tmp_path / "s.trace"
        write_trace(trace, path)
        assert read_trace(path).data.tobytes() == data.tobytes()


class TestValidation:
    def test_truncated_data_reports_record(self, tmp_path):
        trace = ReplayTrace(
            kind="knob", columns=("t", "q"), data=np.arange(20.0).reshape(10, 2)
        )
        path = tmp_path / "t.trace"
        write_trace(trace, path)
        blob = path.read_bytes()
        cut = path.with_suffix(".cut")
        cut.write_bytes(blob[: len(blob) - 2 * 16 - 5])  # drop 2.x records
        with pytest.raises(MalformedTrace) as err:
            read_trace(cut)
        assert err.value.record == 7

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.trace"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(MalformedTrace, match="magic"):
            read_trace(path)

    def test_short_file(self, tmp_path):
        path = tmp_path / "tiny.trace"
        path.write_bytes(b"LM")
        with pytest.raises(MalformedTrace, match="header"):
            read_trace(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        trace = ReplayTrace(kind="screw", columns=("t",), data=np.ones((3, 1)))
        path = tmp_path / "t.trace"
        write_trace(trace, path)
        path.write_bytes(path.read_bytes() + b"\x00" * 3)
        with pytest.raises(MalformedTrace):
            read_trace(path)

    def test_bad_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            ReplayTrace(kind="nonsense", columns=("a",), data=np.zeros((1, 1)))

    def test_duplicate_columns_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            ReplayTrace(kind="generic", columns=("a", "a"), data=np.zeros((1, 2)))

    @pytest.mark.parametrize("shape", [(2, 6), (6, 2), (0, 2), (2, 2, 2), (7,), ()],
                             ids=["wide", "narrow", "empty-narrow", "3-d", "flat-ragged", "0-d"])
    def test_data_of_the_wrong_width_rejected(self, shape):
        # a table is never reflowed into rows of another width: only flat
        # data whose size is a multiple of the column count is read as rows
        with pytest.raises(ValueError) as err:
            ReplayTrace(kind="generic", columns=("a", "b", "c"), data=np.zeros(shape))
        assert str(err.value) == f"trace data of shape {shape} does not fit 3 columns"

    def test_duplicate_column_names_in_a_file(self, tmp_path):
        trace = ReplayTrace(kind="liquid", columns=("nx", "ny"), data=np.zeros((2, 2)))
        path = tmp_path / "dup.trace"
        write_trace(trace, path)
        blob = bytearray(path.read_bytes())
        blob[16 + 16 + 1] = ord("x")  # the second name becomes "nx"
        path.write_bytes(bytes(blob))
        with pytest.raises(MalformedTrace, match="record 0: duplicate column names") as err:
            read_trace(path)
        assert err.value.record == 0


NAMES = ["t", "nx", "a\x00b", "height", "x" * 16, "q", " "]


@st.composite
def trace_bytes(draw):
    """The bytes of a valid trace, as :func:`write_trace` lays them out."""
    columns = draw(st.lists(st.sampled_from(NAMES), min_size=1, max_size=4, unique=True))
    rows = draw(st.integers(0, 3))
    values = draw(st.lists(st.floats(width=64), min_size=rows * len(columns),
                           max_size=rows * len(columns)))
    trace = ReplayTrace(kind=draw(st.sampled_from(KINDS)), columns=tuple(columns),
                        data=np.array(values, dtype=float).reshape(rows, len(columns)))
    names = b"".join(c.encode("ascii").ljust(16, b"\0") for c in trace.columns)
    header = b"LMTR" + (1).to_bytes(2, "little") + KINDS.index(trace.kind).to_bytes(2, "little")
    header += len(columns).to_bytes(2, "little") + bytes(2) + rows.to_bytes(4, "little")
    return header + names + trace.data.astype("<f8").tobytes()


@st.composite
def damaged_traces(draw):
    """A valid trace after one to three truncations, byte flips, splices of
    bytes from a second valid trace, or copies of one 16-byte slot (a
    header, a column name) over another."""
    blob = draw(trace_bytes())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(blob)))
        edit = draw(st.sampled_from(["truncate", "flip", "splice", "slot"]))
        if edit == "slot" and len(blob) >= 32:
            src, dst = (16 * draw(st.integers(0, len(blob) // 16 - 1)) for _ in range(2))
            blob = blob[:dst] + blob[src:src + 16] + blob[dst + 16:]
        elif edit == "truncate":
            blob = blob[:at]
        elif edit == "flip" and at < len(blob):
            byte = blob[at] ^ draw(st.integers(1, 255))
            blob = blob[:at] + bytes([byte]) + blob[at + 1:]
        elif edit == "splice":
            other = draw(trace_bytes())
            start = draw(st.integers(0, len(other)))
            piece = other[start:start + draw(st.integers(0, 40))]
            blob = blob[:at] + piece + blob[at + draw(st.integers(0, 40)):]
    return blob


class TestReadFuzz:
    @given(blob=trace_bytes())
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_writer_layout_matches(self, tmp_path_factory, blob):
        path = tmp_path_factory.getbasetemp() / "valid.trace"
        path.write_bytes(blob)
        again = tmp_path_factory.getbasetemp() / "again.trace"
        write_trace(read_trace(path), again)
        assert again.read_bytes() == blob

    @given(blob=damaged_traces())
    @settings(max_examples=600, deadline=None, derandomize=True, database=None)
    def test_only_malformed_trace_escapes(self, tmp_path_factory, blob):
        path = tmp_path_factory.getbasetemp() / "fuzz.trace"
        path.write_bytes(blob)
        try:
            trace = read_trace(path)
        except MalformedTrace:
            return
        again = tmp_path_factory.getbasetemp() / "fuzz-again.trace"
        write_trace(trace, again)
        assert read_trace(again) == trace


class TestTable:
    def test_row_count_and_reparse(self):
        rng = np.random.default_rng(127)
        trace = ReplayTrace(
            kind="liquid",
            columns=("t", "h"),
            data=rng.normal(size=(7, 2)),
        )
        text = trace_table(trace)
        lines = text.strip().splitlines()
        assert len(lines) == 2 + len(trace)  # comment + header + rows
        parsed = np.array(
            [[float(v) for v in line.split("\t")] for line in lines[2:]]
        )
        # shortest round-trip decimals reconstruct the exact doubles
        assert parsed.tobytes() == trace.data.tobytes()

    def test_text_is_the_per_value_formula(self):
        # the rows are formatted from Python floats; the bytes are those of
        # converting and formatting each numpy value on its own
        values = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308 / 3.0, 1e300, -1e300,
                  0.1, 1.0 / 3.0, 2.0 / 3.0, 123456.78901234567, -9.876543210987654e-5, 0.1 + 0.2]
        trace = ReplayTrace(kind="generic", columns=("a", "b", "c"), data=values)
        assert trace.data[0, 0] == 0.0 and np.signbit(trace.data[0, 0])
        lines = [f"# kind={trace.kind} records={len(trace)}", "\t".join(trace.columns)]
        for row in trace.data:
            lines.append("\t".join(repr(float(v)) for v in row))
        expected = "\n".join(lines) + "\n"
        assert trace_table(trace).encode() == expected.encode()
        for text in ("-0.0\t", "5e-324", "1e+300", "0.30000000000000004", "123456.78901234567"):
            assert text in expected
