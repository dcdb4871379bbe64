"""Experiment drivers: parameter sweeps, reconstruction error, layering.

Each driver renders many EPIs over a grid of plane parameters or layer
counts and reduces them to one scalar metric per cell. Cells that cannot
be evaluated (invalid plane parameters) are recorded as missing rather
than silently skipped. Every cell of a sweep renders with the same seed:
noise models a fixed sensor, so the grid compares parameterizations, not
noise realizations, and results do not depend on evaluation order or on
the worker count.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np

from .mapping import DEFAULT_U_MAX, PlaneParam, intersect_rays, rewarp_coords
from .render import psnr, reconstruct_epi, render_epi, subsample_epi
from .scene import SceneDef, SurfaceSpec, TextureSpec, partition_depth_layers
from .spectral import (
    dft2_magnitude,
    max_camera_spacing,
    max_camera_spacing_tilted,
    min_image_count,
    nyquist_omega,
    optimal_depths,
    sparsity_rmse,
)

__all__ = [
    "SweepResult",
    "SamplingCurve",
    "LayersResult",
    "sweep_sparsity",
    "sweep_plane_mae",
    "sweep_reconstruction",
    "plane_mae",
    "layers_experiment",
]

_MAXIMIZED_METRICS = {"psnr"}


@dataclass
class SweepResult:
    """Metric values over a (depth, tilt) grid.

    metric has shape (len(d_values), len(tilt_values)); NaN marks missing
    cells, listed with reasons in `missing`.
    """

    d_values: np.ndarray
    tilt_values: np.ndarray
    metric: np.ndarray
    metric_kind: str
    missing: list[tuple[int, int, str]] = field(default_factory=list)

    @property
    def argopt(self) -> tuple[int, int]:
        """Best cell: min for error metrics, max for psnr.

        Ties and NaN cells resolve toward the lexicographically smallest
        (depth index, tilt index).
        """
        if self.missing and len(self.missing) == self.metric.size:
            raise ValueError(f"every cell is missing, first: {self.missing[0][2]}")
        m = self.metric
        if self.metric_kind in _MAXIMIZED_METRICS:
            m = -m
        flat_index = int(np.nanargmin(m.ravel()))
        return divmod(flat_index, self.metric.shape[1])

    def opt_cell_values(self) -> tuple[float, float]:
        i, j = self.argopt
        return float(self.d_values[i]), float(self.tilt_values[j])


def _sweep(
    d_values, tilt_values, metric_kind, cell_metric, *, focal, s_max, u_max, threads
) -> SweepResult:
    """Evaluate cell_metric(param) on every (depth, tilt) cell of the grid.

    A cell whose PlaneParam cannot be built is recorded as missing with
    the constructor's reason. The pool never has more workers than cells or
    cores.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    metric = np.full((len(d_values), len(tilt_values)), np.nan)
    missing = []
    params = {}
    for i, d in enumerate(d_values):
        for j, t in enumerate(tilt_values):
            try:
                params[i, j] = PlaneParam(focal, float(d), float(t), s_max, u_max)
            except ValueError as exc:
                missing.append((i, j, str(exc)))
    workers = min(threads, len(params), os.cpu_count() or 1)
    if workers <= 1:
        values = [cell_metric(p) for p in params.values()]
    else:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            values = list(pool.map(cell_metric, params.values()))
    for cell, value in zip(params, values):
        metric[cell] = value
    return SweepResult(
        np.asarray(d_values, dtype=float),
        np.asarray(tilt_values, dtype=float),
        metric,
        metric_kind,
        missing,
    )


def sweep_sparsity(
    scene: SceneDef,
    d_values,
    tilt_values,
    *,
    focal: float = 1.0,
    s_max: float = 1.0,
    u_max: float = DEFAULT_U_MAX,
    n_s: int = 256,
    n_u: int = 256,
    subsample_factor: int = 1,
    keep_fraction: float = 0.01,
    window: str = "rect",
    texture_override: TextureSpec | None = None,
    seed: int = 0,
    threads: int = 1,
) -> SweepResult:
    """Spectral compressibility over a grid of plane depths and tilts.

    Each cell renders the scene under its plane, tracing only every
    subsample_factor-th camera row, and scores the spectrum with
    sparsity_rmse. The default window here is rectangular, unlike
    dft2_magnitude: row-to-row drift under a mismatched plane shows up as
    truncation leakage, and that leakage is the signal this sweep ranks
    cells by; a taper would flatten the surface into sidelobe dust.
    texture_override swaps the scene's texture (view dependence, noise)
    while keeping its geometry, for robustness studies. The visibility
    check is skipped: single crossings hold for these scenes even where
    the conservative slope condition fails, and the grid must stay
    comparable across cells.
    """
    if subsample_factor > 1 and n_s % subsample_factor != 0:
        raise ValueError("subsample_factor must divide n_s")
    if texture_override is not None:
        scene = replace(scene, texture=texture_override)
    row_step = max(subsample_factor, 1)

    def cell_metric(param):
        epi = render_epi(
            scene, param, n_s, n_u, seed=seed, check_occlusion=False, row_step=row_step
        )
        return sparsity_rmse(dft2_magnitude(epi, window), keep_fraction)

    return _sweep(
        d_values,
        tilt_values,
        "sparsity_rmse",
        cell_metric,
        focal=focal,
        s_max=s_max,
        u_max=u_max,
        threads=threads,
    )


def plane_mae(surface: SurfaceSpec, depth: float, tilt_deg: float, n_samples: int = 1024) -> float:
    """Mean absolute depth gap between the surface and a candidate plane."""
    xs = np.linspace(*surface.x_range, n_samples)
    plane = depth + math.tan(math.radians(tilt_deg)) * xs
    return float(np.mean(np.abs(surface.depth(xs) - plane)))


def sweep_plane_mae(
    surface: SurfaceSpec, d_values, tilt_values, n_samples: int = 1024
) -> SweepResult:
    """Geometric plane-fit error over the same grid the render sweeps use."""
    metric = np.empty((len(d_values), len(tilt_values)))
    for i, d in enumerate(d_values):
        for j, t in enumerate(tilt_values):
            metric[i, j] = plane_mae(surface, float(d), float(t), n_samples)
    return SweepResult(
        np.asarray(d_values, dtype=float),
        np.asarray(tilt_values, dtype=float),
        metric,
        "plane_mae",
    )


def sweep_reconstruction(
    scene: SceneDef,
    d_values,
    tilt_values,
    *,
    factor: int,
    focal: float = 1.0,
    s_max: float = 1.0,
    u_max: float = DEFAULT_U_MAX,
    n_s: int = 256,
    n_u: int = 256,
    seed: int = 0,
    threads: int = 1,
) -> SweepResult:
    """PSNR of subsample-then-interpolate against the dense render, per cell."""
    if factor < 1 or n_s % factor != 0:
        raise ValueError("factor must divide n_s")

    def cell_metric(param):
        dense = render_epi(scene, param, n_s, n_u, seed=seed, check_occlusion=False)
        rebuilt = reconstruct_epi(subsample_epi(dense, factor), n_s)
        return psnr(dense.data, rebuilt.data)

    return _sweep(
        d_values,
        tilt_values,
        "psnr",
        cell_metric,
        focal=focal,
        s_max=s_max,
        u_max=u_max,
        threads=threads,
    )


@dataclass
class SamplingCurve:
    """Images required to cover the camera range, per layer count.

    One capture serves every layer (re-warping maps shared images to each
    layer's plane), so a scene's requirement is the maximum over layers.
    """

    layer_counts: tuple[int, ...]
    images_parallel: tuple[int, ...]
    images_tilted: tuple[int, ...]


@dataclass
class LayersResult:
    """Reconstruction error and image counts of the layered pipelines."""

    layer_counts: tuple[int, ...]
    factors: tuple[int, ...]
    rmse_parallel: np.ndarray  # (len(layer_counts), len(factors))
    rmse_tilted: np.ndarray
    curve: SamplingCurve


def _trajectory_reconstruct(src, s_axis, u_axis, factor, traj, rows):
    """Rebuild dropped camera rows by interpolating the kept rows along a
    plane's iso-u trajectories.

    traj is the (n_s, n_u) grid of trajectory coordinates (the plane
    parameterization's u for each pixel's ray) together with the map back:
    a pixel on row i follows its trajectory to the two bracketing kept
    rows, samples each by linear interpolation in u, and blends by camera
    distance. Trajectories that leave the captured window read the
    background value 0. Kept rows are copied; only `rows` are rebuilt.
    """
    xi, to_row = traj
    out = src.copy()
    if factor == 1:
        return out
    kept = np.arange(0, s_axis.size, factor)
    for i in rows:
        if i % factor == 0:
            continue
        k0 = min(i // factor, kept.size - 1)
        k1 = min(k0 + 1, kept.size - 1)
        r0, r1 = int(kept[k0]), int(kept[k1])
        v0 = np.interp(to_row(r0, xi[i]), u_axis, src[r0], left=0.0, right=0.0)
        if r1 == r0:
            out[i] = v0
            continue
        v1 = np.interp(to_row(r1, xi[i]), u_axis, src[r1], left=0.0, right=0.0)
        w = (i - r0) / (r1 - r0)
        out[i] = (1.0 - w) * v0 + w * v1
    return out


def layers_experiment(
    scene: SceneDef,
    layer_counts,
    factors,
    *,
    n_s: int = 1024,
    n_u: int = 512,
    focal: float = 1.0,
    s_max: float = 1.0,
    u_max: float = DEFAULT_U_MAX,
    view_bandwidth: float = 0.0,
    seed: int = 0,
    fit_samples: int = 256,
) -> LayersResult:
    """Layered reconstruction of one capture: parallel vs. fitted planes.

    The scene is captured once, in the directional frame. For each layer
    count the depth range splits into equal-width slabs; every captured
    pixel belongs to the slab its ray hits. Reconstruction from the
    factor-subsampled rows then runs per layer, interpolating along the
    iso-u trajectories of the layer's plane: its best parallel depth for
    the parallel family, its fitted depth line for the tilted family
    (built unchecked, since steep fits may cross the camera line; the
    trajectories remain straight lines through the crossing point, which
    the window keeps out of frame for any tilt below 75 degrees). A
    matched plane makes trajectories follow the content, so dropped rows
    interpolate cleanly; mismatch shows up as RMSE against the dense
    capture, pooled over each family's composite of the layers. Image
    counts come from the anti-aliasing spacing of each slab at the
    grid's u Nyquist frequency, taking the worst layer.
    """
    layer_counts = tuple(int(n) for n in layer_counts)
    factors = tuple(int(f) for f in factors)
    for f in factors:
        if f < 1:
            raise ValueError(f"factor {f} must be >= 1")
    rmse = {
        "parallel": np.zeros((len(layer_counts), len(factors))),
        "tilted": np.zeros((len(layer_counts), len(factors))),
    }
    images = {"parallel": [], "tilted": []}
    du = 2.0 * u_max / (n_u - 1)
    wu_max = nyquist_omega(du)
    surface = scene.surface
    canon = PlaneParam(focal, math.inf, 0.0, s_max, u_max)
    dense = render_epi(scene, canon, n_s, n_u, seed=seed)
    x, hit = intersect_rays(canon, surface, dense.s_axis[:, None], dense.u_axis[None, :])
    n_hit = int(hit.sum())
    if n_hit == 0:
        raise RuntimeError("the capture never sees the surface")
    for li, count in enumerate(layer_counts):
        layers = partition_depth_layers(surface, count, fit_samples)
        edges = np.array([lay.x_interval[0] for lay in layers] + [layers[-1].x_interval[1]])
        owner = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, count - 1)
        sum_sq = {k: np.zeros(len(factors)) for k in rmse}
        worst = {k: 2 for k in rmse}
        for key, layer in enumerate(layers):
            params = {
                "parallel": PlaneParam(
                    focal, optimal_depths(layer.depth_range).plane_depth, 0.0, s_max, u_max
                ),
                "tilted": PlaneParam(
                    focal, layer.fitted_z0, layer.fitted_tilt_deg, s_max, u_max, check=False
                ),
            }
            sp_par = max_camera_spacing(layer.depth_range, focal, wu_max, view_bandwidth)
            sp_til = max_camera_spacing_tilted(layer, focal, wu_max, view_bandwidth)
            worst["parallel"] = max(worst["parallel"], min_image_count(sp_par, s_max))
            worst["tilted"] = max(worst["tilted"], min_image_count(sp_til, s_max))
            mask = hit & (owner == key)
            rows = np.flatnonzero(mask.any(axis=1))
            if rows.size == 0:
                continue
            src = np.where(mask, dense.data, 0.0)
            for fam, prm in params.items():
                xi = rewarp_coords(canon, prm, dense.s_axis[:, None], dense.u_axis[None, :])

                def to_row(r, xi_row, prm=prm):
                    return rewarp_coords(prm, canon, dense.s_axis[r], xi_row)

                for fi, factor in enumerate(factors):
                    rebuilt = _trajectory_reconstruct(
                        src, dense.s_axis, dense.u_axis, factor, (xi, to_row), rows
                    )
                    diff = rebuilt[mask] - dense.data[mask]
                    sum_sq[fam][fi] += float(np.sum(np.square(diff)))
        for fam in rmse:
            rmse[fam][li] = np.sqrt(sum_sq[fam] / n_hit)
            images[fam].append(worst[fam])
    curve = SamplingCurve(layer_counts, tuple(images["parallel"]), tuple(images["tilted"]))
    return LayersResult(layer_counts, factors, rmse["parallel"], rmse["tilted"], curve)
