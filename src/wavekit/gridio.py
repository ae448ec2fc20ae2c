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
_VERSION = 2  # version 2: the header float holds WignerGrid.marginal_defect
_HEADER = struct.Struct("<4sIB7xQQdd")


def write_csv(path, columns: dict) -> None:
    """Named 1-D columns of equal length, 17-significant-digit decimal."""
    arrays = {name: np.asarray(col, dtype=float) for name, col in columns.items()}
    lengths = {a.size for a in arrays.values()}
    if len(lengths) != 1:
        raise ValueError("all columns must have the same length")
    names = list(arrays)
    lines = [",".join(names)]
    for row in zip(*(arrays[n] for n in names)):
        lines.append(",".join(f"{val:.17g}" for val in row))
    Path(path).write_text("\n".join(lines) + "\n")


def read_csv(path) -> dict:
    text = Path(path).read_text().strip().split("\n")
    names = text[0].split(",")
    rows = [line.split(",") for line in text[1:]]
    return {
        name: np.asarray([float(row[i]) for row in rows]) for i, name in enumerate(names)
    }


def write_wigner_grid(path, grid: WignerGrid) -> None:
    header = _HEADER.pack(
        _MAGIC,
        _VERSION,
        1 if grid.full_period else 0,
        grid.x.size,
        grid.p.size,
        grid.hbar,
        grid.marginal_defect,
    )
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(grid.x.astype("<f8").tobytes())
        fh.write(grid.p.astype("<f8").tobytes())
        fh.write(memoryview(np.ascontiguousarray(grid.f, dtype="<f8")))


def read_wigner_grid(path) -> WignerGrid:
    raw = Path(path).read_bytes()
    magic, version, flags, nx, npts, hbar, defect = _HEADER.unpack_from(raw)
    if magic != _MAGIC:
        raise ValueError("not a phase-space grid file")
    if version != _VERSION:
        raise ValueError(f"unsupported grid version {version}")
    offset = _HEADER.size
    expect = offset + 8 * (nx + npts + nx * npts)
    if len(raw) != expect:
        raise ValueError("grid file is truncated or padded")
    x = np.frombuffer(raw, dtype="<f8", count=nx, offset=offset).astype(float)
    offset += 8 * nx
    p = np.frombuffer(raw, dtype="<f8", count=npts, offset=offset).astype(float)
    offset += 8 * npts
    f = np.frombuffer(raw, dtype="<f8", count=nx * npts, offset=offset).astype(float)
    return WignerGrid(
        x=x, p=p, f=f.reshape(nx, npts), hbar=hbar,
        full_period=bool(flags & 1), marginal_defect=defect,
    )


def write_json(path, obj) -> None:
    Path(path).write_text(json.dumps(obj, sort_keys=True, indent=2) + "\n")


def read_json(path):
    return json.loads(Path(path).read_text())
