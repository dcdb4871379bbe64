"""Writers, checked against the bytes they put on disk.

The sidecars and headers are read back with configparser, the PGM samples
with np.frombuffer after the exact header, and the raw spectrum with
np.fromfile, so these checks pin the file formats themselves.
"""

import configparser
import csv
import math

import numpy as np
import pytest

from epifield.fileio import (
    write_curve_csv,
    write_epi,
    write_heatmap_pgm,
    write_layers_rmse_csv,
    write_spectrum,
    write_sweep_csv,
)
from epifield.experiments import LayersResult, SweepResult
from epifield.mapping import PlaneParam
from epifield.render import Epi
from epifield.spectral import SpectrumGrid


def _ini(path):
    ini = configparser.ConfigParser()
    ini.read_string(path.read_text())
    return ini


def _pgm16(path, height, width):
    """Samples of a binary 16-bit PGM with exactly this header, as uint16."""
    raw = path.read_bytes()
    header = f"P5\n{width} {height}\n65535\n".encode("ascii")
    assert raw[: len(header)] == header
    return np.frombuffer(raw[len(header) :], dtype=">u2").reshape(height, width).astype(np.uint16)


def _epi_on_disk(stem):
    """(pixels up to 16-bit quantization, [epi] section, [param] as a PlaneParam)."""
    meta = _ini(stem.with_suffix(".meta"))
    sec = meta["epi"]
    pixels = _pgm16(stem.with_suffix(".pgm"), int(sec["n_s"]), int(sec["n_u"]))
    data = pixels.astype(float) / 65535.0 * float(sec["scale_max"])
    param = PlaneParam(**{k: float(v) for k, v in meta["param"].items()}, check=False)
    return data, sec, param


def _epi(data, param=None):
    n_s, n_u = data.shape
    param = param or PlaneParam(1.0, 1.4, 12.0, 0.9, 0.25)
    return Epi(
        data,
        np.linspace(-param.s_max, param.s_max, n_s),
        np.linspace(-param.u_max, param.u_max, n_u),
        param,
        scene_id="B",
    )


def test_epi_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    epi = _epi(np.abs(rng.normal(size=(12, 7))) * 3.0)
    pgm, meta = write_epi(epi, tmp_path / "cap")
    assert pgm.name == "cap.pgm" and meta.name == "cap.meta"
    data, sec, param = _epi_on_disk(tmp_path / "cap")
    # pixels are 16-bit quantized, everything else round-trips exactly
    scale = float(epi.data.max())
    assert np.abs(data - epi.data).max() <= 0.5 * scale / 65535.0 + 1e-12
    s_axis = np.linspace(float(sec["s_first"]), float(sec["s_last"]), int(sec["n_s"]))
    u_axis = np.linspace(float(sec["u_first"]), float(sec["u_last"]), int(sec["n_u"]))
    assert np.array_equal(s_axis, epi.s_axis)
    assert np.array_equal(u_axis, epi.u_axis)
    assert param == epi.param
    assert sec["scene_id"] == "B"


def test_epi_write_clips_negative_values(tmp_path):
    epi = _epi(np.array([[1.0, -0.5], [0.25, 0.0]]))
    write_epi(epi, tmp_path / "neg")
    data, _, _ = _epi_on_disk(tmp_path / "neg")
    assert data[0, 1] == 0.0
    assert data[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_zero_epi_roundtrip(tmp_path):
    epi = _epi(np.zeros((4, 5)))
    write_epi(epi, tmp_path / "zero")
    assert np.array_equal(_epi_on_disk(tmp_path / "zero")[0], np.zeros((4, 5)))


def test_epi_read_accepts_unchecked_params(tmp_path):
    # a stored capture may extrapolate past the plane crossing on purpose
    wild = PlaneParam(1.0, 0.5, 45.0, check=False)
    epi = _epi(np.ones((3, 3)), param=wild)
    write_epi(epi, tmp_path / "wild")
    assert _epi_on_disk(tmp_path / "wild")[2].depth == 0.5


def test_spectrum_roundtrip_is_exact(tmp_path):
    rng = np.random.default_rng(1)
    spec = SpectrumGrid(
        np.abs(rng.normal(size=(9, 6))),
        np.linspace(-40.0, 40.0, 9),
        np.linspace(-700.0, 700.0, 6),
    )
    pgm, raw, hdr = write_spectrum(spec, tmp_path / "spec")
    assert {p.suffix for p in (pgm, raw, hdr)} == {".pgm", ".f64", ".hdr"}
    sec = _ini(hdr)["spectrum"]
    n_s, n_u = int(sec["n_s"]), int(sec["n_u"])
    assert np.array_equal(np.fromfile(raw, dtype="<f8").reshape(n_s, n_u), spec.mag)
    ws_axis = np.linspace(float(sec["ws_first"]), float(sec["ws_last"]), n_s)
    wu_axis = np.linspace(float(sec["wu_first"]), float(sec["wu_last"]), n_u)
    assert np.array_equal(ws_axis, spec.ws_axis)
    assert np.array_equal(wu_axis, spec.wu_axis)
    view = _pgm16(pgm, 9, 6)
    assert view.dtype == np.uint16 and view.shape == (9, 6)
    assert view.max() == 65535  # peak maps to white


def test_sweep_csv_roundtrip(tmp_path):
    metric = np.array([[0.5, math.nan], [0.25, 0.125]])
    res = SweepResult(
        np.array([1.0, 2.0]), np.array([0.0, 10.0]), metric, "sparsity_rmse"
    )
    path = write_sweep_csv(res, tmp_path / "sweep.csv")
    with open(path, newline="") as fh:
        header, *rows = list(csv.reader(fh))
    assert header == ["depth", "tilt_deg", "sparsity_rmse"]
    cells = np.array(rows, dtype=float)  # one row per cell, depth-major
    assert np.array_equal(np.unique(cells[:, 0]), res.d_values)
    assert np.array_equal(np.unique(cells[:, 1]), res.tilt_values)
    assert np.array_equal(cells[:, 2].reshape(2, 2), metric, equal_nan=True)


def test_curve_csv_contents(tmp_path):
    rmse = {"parallel": np.zeros((2, 1)), "tilted": np.zeros((2, 1))}
    res = LayersResult((1, 2), (2,), rmse, {"parallel": (5916, 4369), "tilted": (1268, 336)})
    path = write_curve_csv(res, tmp_path / "curve.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "layers,images_parallel,images_tilted"
    assert lines[1] == "1,5916,1268"
    assert lines[2] == "2,4369,336"
    # the columns follow the result's families, in their order
    res.images = {"tilted": (1268, 336), "parallel": (5916, 4369)}
    lines = write_curve_csv(res, tmp_path / "swapped.csv").read_text().splitlines()
    assert lines == ["layers,images_tilted,images_parallel", "1,1268,5916", "2,336,4369"]


def test_layers_rmse_csv(tmp_path):
    res = LayersResult(
        (1, 2),
        (2, 4),
        {
            "parallel": np.array([[0.1, 0.2], [0.3, 0.4]]),
            "tilted": np.array([[0.01, 0.02], [0.03, 0.04]]),
        },
        {"parallel": (4, 3), "tilted": (2, 2)},
    )
    path = write_layers_rmse_csv(res, "tilted", tmp_path / "rmse.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "layers,factor,rmse"
    assert lines[1] == "1,2,0.01"
    assert lines[4] == "2,4,0.04"
    with pytest.raises(KeyError):
        write_layers_rmse_csv(res, "diagonal", tmp_path / "bad.csv")


def test_heatmap_normalization(tmp_path):
    metric = np.array([[1.0, 3.0], [2.0, math.nan]])
    img = _pgm16(write_heatmap_pgm(metric, tmp_path / "map.pgm"), 2, 2)
    assert img[0, 0] == 0 and img[0, 1] == 65535
    assert img[1, 0] == 32768  # midpoint, rounded half-up
    assert img[1, 1] == 0  # NaN renders black

    flat = _pgm16(write_heatmap_pgm(np.full((2, 2), 7.0), tmp_path / "flat.pgm"), 2, 2)
    assert (flat == 0).all()


def test_heatmap_draws_infinities_at_the_ends(tmp_path):
    # a perfect PSNR is the best cell, not a missing one
    metric = np.array([[1.0, 2.0], [math.inf, math.nan]])
    img = _pgm16(write_heatmap_pgm(metric, tmp_path / "a.pgm"), 2, 2)
    assert img.tolist() == [[0, 65535], [65535, 0]]
    metric = np.array([[math.inf, -math.inf, 3.0]])
    ends = _pgm16(write_heatmap_pgm(metric, tmp_path / "b.pgm"), 1, 3)
    assert ends.tolist() == [[65535, 0, 0]]
