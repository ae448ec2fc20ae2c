"""Deterministic on-disk formats for run artifacts.

CSV columns are written with 17 significant digits so float64 values
round-trip exactly; JSON is sorted and indented; phase-space grids use a
little-endian binary layout with magic b"WGRD".  Re-running the same
experiment must reproduce every artifact byte for byte, so nothing here
writes timestamps, locale-dependent text, or platform-dependent numbers.
"""

from __future__ import annotations

import json
import struct
from pathlib import Path

import numpy as np

from .wigner import WignerGrid

_MAGIC = b"WGRD"
_VERSION = 3  # version 3: a full-period grid's body holds its rows 0..n-1 only
_HEADER = struct.Struct("<4sIB7xQQdd")


def write_csv(path, columns: dict) -> None:
    """Named 1-D columns of equal length, 17-significant-digit decimal."""
    arrays = {name: np.asarray(col, dtype=float) for name, col in columns.items()}
    lengths = {a.size for a in arrays.values()}
    if len(lengths) != 1:
        raise ValueError("all columns must have the same length")
    names = list(arrays)
    # Python floats from tolist format faster than numpy scalars, to the same digits
    fmt = ",".join(["%.17g"] * len(names))
    rows = zip(*(arrays[n].tolist() for n in names))
    Path(path).write_text("\n".join([",".join(names), *(fmt % row for row in rows)]) + "\n")


def read_csv(path) -> dict:
    text = Path(path).read_text().strip().split("\n")
    names = text[0].split(",")
    rows = [line.split(",") for line in text[1:]]
    return {
        name: np.asarray([float(row[i]) for row in rows]) for i, name in enumerate(names)
    }


def write_wigner_grid(path, x, p, blocks, hbar, defect=0.0) -> None:
    """A WignerGrid's axes and held rows, all of a window's or rows 0..n-1 of a full period
    (flagged once counted), from blocks in order: (grid.f,) or a stream of row blocks."""
    with open(path, "wb") as fh:
        fh.seek(_HEADER.size)
        fh.write(np.concatenate([x, p]).astype("<f8").tobytes())
        rows = 0
        for block in blocks:
            fh.write(memoryview(np.ascontiguousarray(block, dtype="<f8")))
            rows += len(block)
        fh.seek(0)
        fh.write(_HEADER.pack(_MAGIC, _VERSION, len(x) == 2 * rows, len(x), len(p), hbar, defect))


def read_wigner_grid(path) -> WignerGrid:
    raw = Path(path).read_bytes()
    if len(raw) < _HEADER.size:
        raise ValueError("grid file is shorter than its header")
    magic, version, flags, nx, npts, hbar, defect = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError("not a phase-space grid file")
    if version != _VERSION:
        raise ValueError(f"unsupported grid version {version}")
    rows = nx // 2 if flags & 1 else nx
    offset = _HEADER.size
    expect = offset + 8 * (nx + npts + rows * npts)
    if len(raw) != expect:
        raise ValueError("grid file is truncated or padded")
    x = np.frombuffer(raw, dtype="<f8", count=nx, offset=offset).astype(float)
    offset += 8 * nx
    p = np.frombuffer(raw, dtype="<f8", count=npts, offset=offset).astype(float)
    offset += 8 * npts
    f = np.frombuffer(raw, dtype="<f8", count=rows * npts, offset=offset).astype(float)
    return WignerGrid(x=x, p=p, f=f.reshape(rows, npts), hbar=hbar, marginal_defect=defect)


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())
