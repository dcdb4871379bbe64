"""Experiment drivers: parameter sweeps, reconstruction error, layering.

Each driver renders many EPIs over a grid of plane parameters or layer
counts and reduces them to one scalar metric per cell. Cells that cannot
be evaluated (invalid plane parameters, a surface that occludes itself)
are recorded as missing rather than silently skipped. Every cell of a
sweep renders with the same seed: noise models a fixed sensor, so the
grid compares parameterizations, not noise realizations, and results do
not depend on evaluation order or on the worker count.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field, replace
from threading import Thread

import numpy as np

from .mapping import PlaneParam, SelfOcclusionError, rewarp_coords
from .render import _noise_field, interp_u, psnr, reconstruct_epi, render_epi, subsample_epi
from .scene import SceneDef, SurfaceSpec, partition_depth_layers
from .spectral import dft2_magnitude, family_fans, sparsity_rmse, u_nyquist
from .workspace import Workspace

__all__ = [
    "SweepResult",
    "LayersResult",
    "sweep_sparsity",
    "sweep_plane_mae",
    "sweep_reconstruction",
    "plane_mae",
    "layers_experiment",
]

_MAXIMIZED_METRICS = {"psnr"}
_MAE_SAMPLES = 1024  # uniform points over the extent in plane_mae


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


def _sweep(d_values, tilt_values, metric_kind, cell_metric, *, plane, threads) -> SweepResult:
    """Evaluate cell_metric(param, workspace) on every (depth, tilt) cell.

    Each cell's param is plane under the cell's depth and tilt. A cell
    whose param fails validation, or whose cell_metric raises
    SelfOcclusionError, is recorded as missing with the exception's
    message; missing lists its cells in (i, j) order at any thread count.
    There are never more workers than cells or cores; each claims the
    next unclaimed cell until none is left, and reuses one Workspace for
    all its cells. The caller's thread is one worker and starts a thread
    per other worker: each started thread gets a malloc arena of its own,
    about 0.45 MB of a noisy 256² sweep's peak resident memory. Any other
    failing cell stops the claims, and once every worker has ended, the
    exception of the lowest failing cell is raised.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    metric = np.full((len(d_values), len(tilt_values)), np.nan)
    missing = []
    cells = []
    for i, d in enumerate(d_values):
        for j, t in enumerate(tilt_values):
            try:
                cells.append(((i, j), replace(plane, depth=float(d), tilt_deg=float(t))))
            except ValueError as exc:
                missing.append((i, j, str(exc)))
    claims = itertools.count()  # next() on it is atomic under the GIL
    failures = []

    def work():
        workspace = Workspace()
        while not failures and (k := next(claims)) < len(cells):
            cell, param = cells[k]
            try:
                metric[cell] = cell_metric(param, workspace)
            except SelfOcclusionError as exc:
                missing.append((*cell, str(exc)))  # list.append is atomic under the GIL
            except BaseException as exc:  # raised by the caller, lowest cell first
                failures.append((k, exc))

    workers = min(threads, len(cells), os.cpu_count() or 1)
    pool = [Thread(target=work) for _ in range(workers - 1)]
    for thread in pool:
        thread.start()
    work()
    for thread in pool:
        thread.join()
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    missing.sort()  # the workers append in claim order, not cell order
    return SweepResult(
        np.asarray(d_values, dtype=float),
        np.asarray(tilt_values, dtype=float),
        metric,
        metric_kind,
        missing,
    )


def _warm_noise(scene: SceneDef, seed: int, n_s: int, n_u: int) -> None:
    """Draw a noisy scene's sensor field before the workers start.

    Otherwise the first cell of every worker misses the cache at once and
    each draws its own copy of the same field.
    """
    if scene.texture.noise_sigma > 0.0:
        _noise_field(seed, n_s, n_u, scene.texture.noise_sigma)


def sweep_sparsity(
    scene: SceneDef,
    d_values,
    tilt_values,
    *,
    plane: PlaneParam = PlaneParam(),
    n_s: int = 256,
    n_u: int = 256,
    subsample_factor: int = 1,
    keep_fraction: float = 0.01,
    window: str = "rect",
    seed: int = 0,
    threads: int = 1,
) -> SweepResult:
    """Spectral compressibility over a grid of plane depths and tilts.

    Each cell renders the scene under plane moved to the cell's depth and
    tilt, tracing only every subsample_factor-th camera row, and scores
    the spectrum with sparsity_rmse. The default window here is
    rectangular, unlike dft2_magnitude: row-to-row drift under a
    mismatched plane shows up as truncation leakage, and that leakage is
    the signal this sweep ranks cells by; a taper would flatten the
    surface into sidelobe dust. A cell where a traced ray meets the
    surface twice is missing: its EPI is not the one the spectral
    analysis describes.
    """
    if subsample_factor < 1:
        raise ValueError(f"subsample_factor must be >= 1, got {subsample_factor}")
    if n_s % subsample_factor != 0 or n_s // subsample_factor < 2:
        raise ValueError(f"subsample_factor {subsample_factor} must split {n_s=} into 2+ rows")

    def cell_metric(param, workspace):
        epi = render_epi(
            scene,
            param,
            n_s,
            n_u,
            seed=seed,
            row_step=subsample_factor,
            workspace=workspace,
        )
        spectrum = dft2_magnitude(epi, window, workspace=workspace)
        return sparsity_rmse(spectrum, keep_fraction, workspace=workspace)

    _warm_noise(scene, seed, n_s, n_u)
    return _sweep(
        d_values,
        tilt_values,
        "sparsity_rmse",
        cell_metric,
        plane=plane,
        threads=threads,
    )


def plane_mae(surface: SurfaceSpec, depth: float, tilt_deg: float) -> float:
    """Mean absolute depth gap between the surface and a candidate plane."""
    xs = np.linspace(*surface.x_range, _MAE_SAMPLES)
    plane = depth + math.tan(math.radians(tilt_deg)) * xs
    return float(np.mean(np.abs(surface.depth(xs) - plane)))


def sweep_plane_mae(
    surface: SurfaceSpec, d_values, tilt_values, *, plane: PlaneParam = PlaneParam()
) -> SweepResult:
    """Geometric plane-fit error over the render sweeps' grid. It renders
    nothing, so only invalid planes are missing, not self-occluded ones."""

    def cell_metric(param, workspace):
        return plane_mae(surface, param.depth, param.tilt_deg)

    return _sweep(d_values, tilt_values, "plane_mae", cell_metric, plane=plane, threads=1)


def sweep_reconstruction(
    scene: SceneDef,
    d_values,
    tilt_values,
    *,
    factor: int,
    plane: PlaneParam = PlaneParam(),
    n_s: int = 256,
    n_u: int = 256,
    seed: int = 0,
    threads: int = 1,
) -> SweepResult:
    """PSNR of subsample-then-interpolate against the dense render, per cell."""
    if factor < 1 or n_s % factor != 0:
        raise ValueError(f"factor {factor} must divide {n_s=}")

    def cell_metric(param, workspace):
        dense = render_epi(scene, param, n_s, n_u, seed=seed, workspace=workspace)
        rebuilt = reconstruct_epi(subsample_epi(dense, factor), n_s, workspace=workspace)
        return psnr(dense.data, rebuilt.data, workspace=workspace)

    _warm_noise(scene, seed, n_s, n_u)
    return _sweep(
        d_values,
        tilt_values,
        "psnr",
        cell_metric,
        plane=plane,
        threads=threads,
    )


@dataclass
class LayersResult:
    """Reconstruction error and image counts of the layered pipelines.

    rmse and images are keyed by family_fans' family names, in its order;
    rmse[family] has shape (len(layer_counts), len(factors)). One capture
    serves every layer (re-warping maps shared images to each layer's
    plane), so images[family] holds each layer count's maximum over layers.
    """

    layer_counts: tuple[int, ...]
    factors: tuple[int, ...]
    rmse: dict[str, np.ndarray]
    images: dict[str, tuple[int, ...]]


def _trajectory_rebuild(src, dense, canon, prm, rows, xi, factor):
    """Rebuild pixels of dropped camera rows by interpolating the kept rows
    along the iso-u trajectories of the plane prm.

    rows are the pixels' rows and xi their coordinates under prm. A pixel
    follows its trajectory to the two bracketing kept rows (0, factor,
    2 * factor, ...), samples src along u on each and blends by camera
    distance; past the last kept row it takes that row's sample.
    Trajectories that leave the captured window read the background value 0.
    """
    s_axis, u_axis = dense.s_axis, dense.u_axis
    k0 = rows // factor
    r0 = k0 * factor
    r1 = np.minimum(k0 + 1, (dense.n_s - 1) // factor) * factor
    v0 = interp_u(src, u_axis, r0, rewarp_coords(prm, canon, s_axis[r0], xi))
    v1 = interp_u(src, u_axis, r1, rewarp_coords(prm, canon, s_axis[r1], xi))
    w = (rows - r0) / np.maximum(r1 - r0, 1)
    return np.where(r1 == r0, v0, (1.0 - w) * v0 + w * v1)


def _dense_capture(scene, param, n_s, n_u, seed):
    """render_epi plus the (x, hit) it traced, read back from its workspace.

    The workspace's scratch buffers go with it when this returns: hit keeps
    only its own buffer, and the data and x are copied out of the two-grid
    buffer they share.
    """
    workspace = Workspace()
    dense = render_epi(scene, param, n_s, n_u, seed=seed, workspace=workspace)
    shape = dense.data.shape
    x, hit = workspace.array("x", shape).copy(), workspace.array("hit", shape, bool)
    return replace(dense, data=dense.data.copy()), x, hit


def layers_experiment(
    scene: SceneDef,
    layer_counts,
    factors,
    *,
    n_s: int = 1024,
    n_u: int = 512,
    plane: PlaneParam = PlaneParam(),
    seed: int = 0,
) -> LayersResult:
    """Layered reconstruction of one capture: parallel vs. fitted planes.

    The scene is captured once, in the directional frame, with plane's
    focal length, camera range and image window (its depth and tilt are not
    used). For each layer count the depth range splits into equal-width
    slabs; a slab owns the hits in [lo, hi) of its x_range, and the last
    one x_hi too. Reconstruction from the factor-subsampled rows then runs
    per layer, interpolating along the iso-u trajectories of each family's
    plane from family_fans. The fitted plane's trajectories are straight
    lines through its camera-line crossing, and nothing keeps that crossing
    out of the camera range: on scene C at 2 / 4 / 8 / 16 layers,
    1 / 2 / 4 / 8 fitted planes (tilts 58-65 degrees) cross at s = -0.80 to
    -0.96, inside s_max = 1 (ROADMAP items 16 and 17; a FOUND line in
    CHANGES.md). A matched plane makes trajectories follow the content, so
    dropped rows interpolate cleanly; mismatch shows up as RMSE against the
    dense capture, pooled over each family's composite of the layers. Image
    counts come from the anti-aliasing spacing of each slab at the grid's u
    Nyquist frequency and the texture's angular bandwidth, taking the worst
    layer.
    """
    layer_counts = tuple(int(n) for n in layer_counts)
    factors = tuple(int(f) for f in factors)
    for f in factors:
        if f < 1:
            raise ValueError(f"factor {f} must be >= 1")
    rmse, images = {}, {}
    wu_max = u_nyquist(plane, n_u)
    view_bandwidth = scene.texture.angular_bandwidth
    canon = replace(plane, depth=math.inf, tilt_deg=0.0)
    dense, x, hit = _dense_capture(scene, canon, n_s, n_u, seed)
    n_hit = int(hit.sum())
    if n_hit == 0:
        raise ValueError("the capture never sees the surface")
    for li, count in enumerate(layer_counts):
        slabs = partition_depth_layers(scene.surface, count)
        fans = [family_fans(slab, plane, wu_max, view_bandwidth) for slab in slabs]
        for fam in fans[0]:
            rmse.setdefault(fam, np.zeros((len(layer_counts), len(factors))))
            images[fam] = images.get(fam, ()) + (max(f[fam][2] for f in fans),)
        for key, (slab, families) in enumerate(zip(slabs, fans)):
            lo, hi = slab.x_range
            mask = hit & (x >= lo) & (x < (math.inf if key == count - 1 else hi))
            pi, pj = np.nonzero(mask)
            if pi.size == 0:
                continue
            src = np.where(mask, dense.data, 0.0)
            s_px, u_px, d_px = dense.s_axis[pi], dense.u_axis[pj], dense.data[pi, pj]
            for fam, (prm, _, _) in families.items():
                xi = rewarp_coords(canon, prm, s_px, u_px)
                for fi, factor in enumerate(factors):
                    # pixels on kept rows are exact; they stay in as zeros so
                    # that np.sum pairs up the same vector as a full-grid diff
                    drop = pi % factor != 0
                    diff = np.zeros(pi.size)
                    diff[drop] = (
                        _trajectory_rebuild(src, dense, canon, prm, pi[drop], xi[drop], factor)
                        - d_px[drop]
                    )
                    rmse[fam][li, fi] += float(np.sum(np.square(diff)))
        for table in rmse.values():
            table[li] = np.sqrt(table[li] / n_hit)
    return LayersResult(layer_counts, factors, rmse, images)
