"""On-disk artifact formats: exact round-trips and deterministic bytes."""

import math
import struct

import numpy as np
import pytest

from wavekit import gridio, wigner


def test_csv_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(0)
    cols = {
        "x": rng.normal(size=20) * 10.0**rng.integers(-12, 12, size=20),
        "f": rng.normal(size=20),
    }
    cols["x"][0] = 1.0 / 3.0
    cols["x"][1] = 1e-300
    path = tmp_path / "table.csv"
    gridio.write_csv(path, cols)
    back = gridio.read_csv(path)
    assert list(back) == ["x", "f"]
    for name in cols:
        assert np.array_equal(back[name], np.asarray(cols[name]))


def test_csv_format_details(tmp_path):
    path = tmp_path / "t.csv"
    gridio.write_csv(path, {"a": [1.5], "b": [2.0]})
    text = path.read_text()
    assert text == "a,b\n1.5,2\n"
    with pytest.raises(ValueError):
        gridio.write_csv(path, {"a": [1.0, 2.0], "b": [1.0]})


def test_csv_bytes_are_reproducible(tmp_path):
    cols = {"v": np.linspace(0.0, 1.0, 7) / 3.0}
    p1, p2 = tmp_path / "one.csv", tmp_path / "two.csv"
    gridio.write_csv(p1, cols)
    gridio.write_csv(p2, cols)
    assert p1.read_bytes() == p2.read_bytes()


def test_wigner_grid_roundtrip(tmp_path):
    gp = wigner.GaussianEtaParams(n_quanta=2.0, g=16.0, k0=math.pi / 4, x0=32.0)
    wave = wigner.gaussian_action_wave(gp, 1.0, 64, 1.0)
    grid = wigner.wigner_1d(wave)
    path = tmp_path / "grid.bin"
    gridio.write_wigner_grid(path, grid)
    back = gridio.read_wigner_grid(path)
    assert np.array_equal(back.x, grid.x)
    assert np.array_equal(back.p, grid.p)
    assert np.array_equal(back.f, grid.f)
    assert back.hbar == grid.hbar
    assert back.full_period == grid.full_period
    assert back.marginal_defect == grid.marginal_defect
    assert 0.0 < back.marginal_defect < 1e-12
    # windowed grids keep their flag through the file
    win = grid.window(20.0, 40.0)
    gridio.write_wigner_grid(path, win)
    assert gridio.read_wigner_grid(path).full_period is False


def test_wigner_grid_rejects_corrupt_files(tmp_path):
    gp = wigner.GaussianEtaParams(n_quanta=1.0, g=4.0, k0=math.pi / 4, x0=8.0)
    grid = wigner.wigner_1d(wigner.gaussian_action_wave(gp, 1.0, 16, 1.0))
    path = tmp_path / "grid.bin"
    gridio.write_wigner_grid(path, grid)
    raw = path.read_bytes()
    bad_magic = tmp_path / "bad1.bin"
    bad_magic.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(ValueError):
        gridio.read_wigner_grid(bad_magic)
    truncated = tmp_path / "bad2.bin"
    truncated.write_bytes(raw[:-8])
    with pytest.raises(ValueError):
        gridio.read_wigner_grid(truncated)
    # version 1 stored a different header float; it must not be read as version 2
    old_version = tmp_path / "bad3.bin"
    old_version.write_bytes(raw[:4] + struct.pack("<I", 1) + raw[8:])
    with pytest.raises(ValueError, match="unsupported grid version"):
        gridio.read_wigner_grid(old_version)


def test_json_is_sorted_and_newline_terminated(tmp_path):
    path = tmp_path / "s.json"
    gridio.write_json(path, {"zeta": 1, "alpha": {"b": 2, "a": 3}})
    text = path.read_text()
    assert text.endswith("\n")
    assert text.index('"alpha"') < text.index('"zeta"')
    assert gridio.read_json(path) == {"zeta": 1, "alpha": {"b": 2, "a": 3}}
