"""Artifact serialization: PGM images, raw spectra, CSV tables.

EPIs and spectra are written as 16-bit binary PGM (maxval 65535,
big-endian samples per the format) with the value scaling recorded in a
plain-text sidecar, so the geometry metadata is kept losslessly even
though the image itself is quantized. Spectra additionally get an exact
raw float64 dump next to the viewable graymap. Tables are plain CSV with
full-precision reprs.
"""

from __future__ import annotations

import configparser
import csv
from dataclasses import fields
from pathlib import Path

import numpy as np

from .experiments import LayersResult, SweepResult
from .render import Epi
from .spectral import SpectrumGrid

__all__ = [
    "write_epi",
    "write_spectrum",
    "write_sweep_csv",
    "write_missing_csv",
    "write_curve_csv",
    "write_layers_rmse_csv",
    "write_heatmap_pgm",
]


def _write_pgm16(values01: np.ndarray, path: Path) -> None:
    # P5 with maxval 65535: two bytes per sample, most significant first
    quantized = np.round(np.clip(values01, 0.0, 1.0) * 65535.0).astype(">u2")
    height, width = quantized.shape
    with open(path, "wb") as fh:
        fh.write(f"P5\n{width} {height}\n65535\n".encode("ascii"))
        fh.write(quantized.tobytes())


def _format_float(x: float) -> str:
    return repr(float(x))


def write_epi(epi: Epi, stem) -> tuple[Path, Path]:
    """Write <stem>.pgm (quantized view) and <stem>.meta (lossless sidecar)."""
    stem = Path(stem)
    scale = float(epi.data.max())
    view = epi.data / scale if scale > 0.0 else np.zeros_like(epi.data)
    pgm_path = stem.with_suffix(".pgm")
    _write_pgm16(view, pgm_path)
    meta = configparser.ConfigParser()
    meta["epi"] = {
        "scene_id": epi.scene_id,
        "n_s": str(epi.n_s),
        "n_u": str(epi.n_u),
        "scale_max": _format_float(scale),
        "s_first": _format_float(epi.s_axis[0]),
        "s_last": _format_float(epi.s_axis[-1]),
        "u_first": _format_float(epi.u_axis[0]),
        "u_last": _format_float(epi.u_axis[-1]),
    }
    meta["param"] = {f.name: _format_float(getattr(epi.param, f.name)) for f in fields(epi.param)}
    meta_path = stem.with_suffix(".meta")
    with open(meta_path, "w") as fh:
        meta.write(fh)
    return pgm_path, meta_path


def write_spectrum(spectrum: SpectrumGrid, stem) -> tuple[Path, Path, Path]:
    """Write <stem>.pgm (log view), <stem>.f64 (exact) and <stem>.hdr.

    The .f64 file is the flat row-major magnitude array as little-endian
    float64; the header records shape and frequency axes.
    """
    stem = Path(stem)
    log_view = np.log1p(spectrum.mag)
    peak = float(log_view.max())
    pgm_path = stem.with_suffix(".pgm")
    _write_pgm16(log_view / peak if peak > 0.0 else log_view, pgm_path)
    raw_path = stem.with_suffix(".f64")
    spectrum.mag.astype("<f8").tofile(raw_path)
    hdr = configparser.ConfigParser()
    hdr["spectrum"] = {
        "n_s": str(spectrum.mag.shape[0]),
        "n_u": str(spectrum.mag.shape[1]),
        "dtype": "float64",
        "byte_order": "little",
        "layout": "row-major",
        "ws_first": _format_float(spectrum.ws_axis[0]),
        "ws_last": _format_float(spectrum.ws_axis[-1]),
        "wu_first": _format_float(spectrum.wu_axis[0]),
        "wu_last": _format_float(spectrum.wu_axis[-1]),
    }
    hdr_path = stem.with_suffix(".hdr")
    with open(hdr_path, "w") as fh:
        hdr.write(fh)
    return pgm_path, raw_path, hdr_path


def _write_csv(path, header, rows) -> Path:
    path = Path(path)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
    return path


def write_sweep_csv(result: SweepResult, path) -> Path:
    """One row per grid cell: depth, tilt_deg, metric (NaN for missing)."""
    rows = (
        [_format_float(d), _format_float(t), _format_float(result.metric[i, j])]
        for i, d in enumerate(result.d_values)
        for j, t in enumerate(result.tilt_values)
    )
    return _write_csv(path, ["depth", "tilt_deg", result.metric_kind], rows)


def write_missing_csv(result: SweepResult, path) -> Path:
    """One row per missing cell: depth, tilt_deg and why it was skipped."""
    rows = (
        [_format_float(result.d_values[i]), _format_float(result.tilt_values[j]), reason]
        for i, j, reason in result.missing
    )
    return _write_csv(path, ["depth", "tilt_deg", "reason"], rows)


def write_curve_csv(result: LayersResult, path) -> Path:
    """One row per layer count: layers, then images_<family> for each family."""
    header = ["layers"] + [f"images_{family}" for family in result.images]
    return _write_csv(path, header, zip(result.layer_counts, *result.images.values()))


def write_layers_rmse_csv(result: LayersResult, family: str, path) -> Path:
    table = result.rmse[family]
    rows = (
        [count, factor, _format_float(table[li, fi])]
        for li, count in enumerate(result.layer_counts)
        for fi, factor in enumerate(result.factors)
    )
    return _write_csv(path, ["layers", "factor", "rmse"], rows)


def write_heatmap_pgm(metric: np.ndarray, path) -> Path:
    """Min-max normalized graymap of the finite cells; +inf is white, -inf and NaN black."""
    path = Path(path)
    finite = np.isfinite(metric)
    view = (metric == np.inf).astype(float)
    if finite.any():
        lo = float(metric[finite].min())
        hi = float(metric[finite].max())
        span = hi - lo if hi > lo else 1.0
        view[finite] = (metric[finite] - lo) / span
    _write_pgm16(view, path)
    return path

