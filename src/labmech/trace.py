"""
Replay traces: per-step simulation records with lossless binary round-trip.

Binary layout (all little-endian):

* 16-byte header: magic ``b"LMTR"``, format version (u16), trace kind
  (u16), column count (u16), reserved (u16), record count (u32);
* column names, 16 ASCII bytes each, NUL-padded;
* records, ``count x ncols`` float64 values.

Every recorded value survives write/read bit-for-bit, so a re-run that
produces the same floating-point trajectory produces a byte-identical
file.  A human-readable tabular export (:func:`trace_table`) uses
shortest round-trip decimals for inspection and diffing.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import MalformedTrace

_MAGIC = b"LMTR"
_VERSION = 1
_HEADER = struct.Struct("<4sHHHHI")
_NAME_BYTES = 16

KINDS = ("generic", "liquid", "screw", "knob")


@dataclass(frozen=True, eq=False)
class ReplayTrace:
    """Immutable table of per-step records.

    ``kind`` names the producing scene ("liquid", "screw", "knob", or
    "generic"), ``columns`` the record fields, and ``data`` holds one
    float64 row per step.
    """

    kind: str
    columns: tuple
    data: np.ndarray

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown trace kind {self.kind!r}; expected one of {KINDS}")
        cols = tuple(str(c) for c in self.columns)
        object.__setattr__(self, "columns", cols)
        if len(cols) == 0:
            raise ValueError("a trace needs at least one column")
        if len(set(cols)) != len(cols):
            raise ValueError("duplicate column names")
        for c in cols:
            if len(c.encode("ascii")) > _NAME_BYTES:
                raise ValueError(f"column name {c!r} exceeds {_NAME_BYTES} bytes")
        data = np.asarray(self.data, dtype=np.float64).reshape(-1, len(cols))
        object.__setattr__(self, "data", data)

    def __len__(self) -> int:
        return len(self.data)

    def __eq__(self, other) -> bool:
        if not isinstance(other, ReplayTrace):
            return NotImplemented
        return (
            self.kind == other.kind
            and self.columns == other.columns
            and self.data.shape == other.data.shape
            and self.data.tobytes() == other.data.tobytes()
        )

    def column(self, name: str) -> np.ndarray:
        """One column by name; ValueError naming a column the trace lacks."""
        if name not in self.columns:
            raise ValueError(f"{self.kind} trace has no column '{name}'")
        return self.data[:, self.columns.index(name)]


def write_trace(trace: ReplayTrace, path) -> None:
    """Serialize a trace; the round-trip through :func:`read_trace` is
    lossless to the last bit of every value."""
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        KINDS.index(trace.kind),
        len(trace.columns),
        0,
        len(trace.data),
    )
    names = b"".join(
        c.encode("ascii").ljust(_NAME_BYTES, b"\0") for c in trace.columns
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(names)
        fh.write(np.ascontiguousarray(trace.data, dtype="<f8").tobytes())


def read_trace(path) -> ReplayTrace:
    """Deserialize a trace, validating structure byte-for-byte.

    Raises :class:`MalformedTrace` on a bad magic/version, a truncated or
    invalid (say, repeated) column table, or a data section whose length
    disagrees with the header; ``record`` carries the index of the first
    incomplete record.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < _HEADER.size:
        raise MalformedTrace("file shorter than the 16-byte header", record=0)
    magic, version, kind_code, ncols, _, count = _HEADER.unpack_from(blob)
    if magic != _MAGIC:
        raise MalformedTrace(f"bad magic {magic!r}", record=0)
    if version != _VERSION:
        raise MalformedTrace(f"unsupported trace version {version}", record=0)
    if kind_code >= len(KINDS):
        raise MalformedTrace(f"unknown trace kind code {kind_code}", record=0)
    if ncols == 0:
        raise MalformedTrace("header declares zero columns", record=0)
    names_end = _HEADER.size + ncols * _NAME_BYTES
    if len(blob) < names_end:
        raise MalformedTrace("truncated column name table", record=0)
    columns = []
    for i in range(ncols):
        raw = blob[_HEADER.size + i * _NAME_BYTES : _HEADER.size + (i + 1) * _NAME_BYTES]
        try:
            columns.append(raw.rstrip(b"\0").decode("ascii"))
        except UnicodeDecodeError:
            raise MalformedTrace(f"column {i}: non-ASCII name", record=0)
    payload = blob[names_end:]
    row_bytes = 8 * ncols
    expected = count * row_bytes
    if len(payload) != expected:
        raise MalformedTrace(
            f"data section holds {len(payload)} bytes, header promises {expected}",
            record=len(payload) // row_bytes,
        )
    data = np.frombuffer(payload, dtype="<f8").reshape(count, ncols).copy()
    try:
        return ReplayTrace(kind=KINDS[kind_code], columns=tuple(columns), data=data)
    except ValueError as exc:
        raise MalformedTrace(str(exc), record=0) from None


def trace_table(trace: ReplayTrace) -> str:
    """Tabular text export: a comment header plus one whitespace-separated
    row per record, values as shortest round-trip decimals."""
    lines = [f"# kind={trace.kind} records={len(trace)}"]
    lines.append("\t".join(trace.columns))
    lines += ["\t".join(map(repr, row)) for row in trace.data.tolist()]
    return "\n".join(lines) + "\n"
