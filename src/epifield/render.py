"""EPI rendering, camera-axis subsampling, reconstruction and re-warping.

An EPI is the 2D slice of the light field over (s, u): one row per camera
position, one column per image coordinate. Rendering traces every ray of
the grid to the scene surface; subsampling drops camera rows; linear
interpolation puts them back. Re-warping resamples an EPI onto a
different global-plane parameterization without touching the scene.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .mapping import PlaneParam, check_no_self_occlusion, intersect_rays, rewarp_coords
from .scene import SceneDef

__all__ = [
    "Epi",
    "SelfOcclusionError",
    "NonDivisibleFactor",
    "render_epi",
    "subsample_epi",
    "reconstruct_epi",
    "rewarp_epi",
]


class SelfOcclusionError(RuntimeError):
    """The scene violates the no-self-occlusion condition for this capture."""


class NonDivisibleFactor(ValueError):
    """Subsampling factor incompatible with the camera row count."""


@dataclass
class Epi:
    """A rendered (s, u) slice with its axes and capture parameters.

    data has shape (n_s, n_u); row i belongs to camera s_axis[i]. The axes
    are uniform and ascending. After subsampling the s axis keeps its
    spacing times the factor and no longer reaches param.s_max.
    """

    data: np.ndarray
    s_axis: np.ndarray
    u_axis: np.ndarray
    param: PlaneParam
    scene_id: str = ""

    def __post_init__(self):
        self.data = np.asarray(self.data, dtype=float)
        self.s_axis = np.asarray(self.s_axis, dtype=float)
        self.u_axis = np.asarray(self.u_axis, dtype=float)
        if self.data.shape != (self.s_axis.size, self.u_axis.size):
            raise ValueError(
                f"data shape {self.data.shape} does not match axes "
                f"({self.s_axis.size}, {self.u_axis.size})"
            )

    @property
    def n_s(self) -> int:
        return self.data.shape[0]

    @property
    def n_u(self) -> int:
        return self.data.shape[1]

    @property
    def ds(self) -> float:
        if self.n_s < 2:
            raise ValueError("s spacing undefined for a single row")
        return float(self.s_axis[1] - self.s_axis[0])

    @property
    def du(self) -> float:
        if self.n_u < 2:
            raise ValueError("u spacing undefined for a single column")
        return float(self.u_axis[1] - self.u_axis[0])


def ray_grid(param: PlaneParam, n_s: int, n_u: int):
    """Axes of the capture grid: endpoint-inclusive uniform s and u."""
    if n_s < 2 or n_u < 2:
        raise ValueError("grid needs at least 2 samples per axis")
    s_axis = np.linspace(-param.s_max, param.s_max, n_s)
    u_axis = np.linspace(-param.u_max, param.u_max, n_u)
    return s_axis, u_axis


def render_epi(
    scene: SceneDef,
    param: PlaneParam,
    n_s: int,
    n_u: int,
    *,
    seed: int = 0,
    check_occlusion: bool = True,
    row_step: int = 1,
) -> Epi:
    """Trace the ray grid of the capture to an EPI.

    Rows sweep s over [-s_max, s_max] and columns sweep u over
    [-u_max, u_max], both endpoint inclusive. Rays that miss the surface
    get the background value 0. With a noisy texture, every pixel (i, j)
    receives sigma times a standard normal draw from a counter-based
    stream laid out row-major over the grid, so the field depends only on
    (seed, i, j) and not on traversal order; the noise models the sensor,
    so it covers misses too.

    row_step = k traces only the camera rows 0, k, 2k, ... of the n_s-row
    grid; the result equals subsample_epi(render_epi(...), k) exactly. k
    must divide n_s (NonDivisibleFactor otherwise).

    check_occlusion enforces the sufficient visibility condition and
    raises SelfOcclusionError when it fails. The condition is conservative;
    experiment code that has verified single crossings geometrically may
    disable it.
    """
    if check_occlusion:
        chk = check_no_self_occlusion(scene.surface, param)
        if not chk.ok:
            raise SelfOcclusionError(
                f"surface slope {chk.worst_slope:.4g} exceeds the visibility "
                f"limit {chk.slope_limit:.4g} for this capture"
            )
    s_axis, u_axis = ray_grid(param, n_s, n_u)
    if row_step < 1 or n_s % row_step != 0:
        raise NonDivisibleFactor(f"row step {row_step} does not divide {n_s} rows")
    if row_step > 1:
        s_axis = s_axis[::row_step].copy()
    x, hit = intersect_rays(param, scene.surface, s_axis[:, None], u_axis[None, :])
    data = scene.texture.radiance(x, s_axis[:, None])
    np.copyto(data, 0.0, where=~hit)
    if scene.texture.noise_sigma > 0.0:
        data += scene.texture.noise_sigma * _noise_field(seed, n_s, n_u)[::row_step]
    return Epi(data, s_axis, u_axis, param, scene.name)


@functools.lru_cache(maxsize=4)
def _noise_field(seed: int, n_s: int, n_u: int) -> np.ndarray:
    """The seeded sensor field, built once per (seed, grid) and read-only."""
    gen = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    field = gen.normal(size=(n_s, n_u))
    field.flags.writeable = False
    return field


def subsample_epi(epi: Epi, factor: int) -> Epi:
    """Keep every factor-th camera row, starting at row 0.

    The factor must divide the row count exactly, so 512 rows at factor 64
    leave 8. Columns are untouched.
    """
    if factor < 1 or epi.n_s % factor != 0:
        raise NonDivisibleFactor(f"factor {factor} does not divide {epi.n_s} rows")
    return replace(
        epi,
        data=epi.data[::factor].copy(),
        s_axis=epi.s_axis[::factor].copy(),
        u_axis=epi.u_axis.copy(),
    )


def reconstruct_epi(epi: Epi, n_s_target: int) -> Epi:
    """Linear interpolation of camera rows back to the pre-subsampling count.

    Assumes the rows sit at positions 0, k, 2k, ... of the target grid with
    k = n_s_target // n_s (the inverse of subsample_epi). Retained rows are
    reproduced exactly; rows beyond the last retained one repeat it.
    """
    if n_s_target < epi.n_s or n_s_target % epi.n_s != 0:
        raise NonDivisibleFactor(
            f"target row count {n_s_target} is not a multiple of {epi.n_s}"
        )
    k = n_s_target // epi.n_s
    s_axis = np.linspace(-epi.param.s_max, epi.param.s_max, n_s_target)
    if k == 1:
        return replace(epi, data=epi.data.copy(), s_axis=s_axis, u_axis=epi.u_axis.copy())
    pos = np.arange(n_s_target) / k
    i0 = np.minimum(pos.astype(int), epi.n_s - 1)
    i1 = np.minimum(i0 + 1, epi.n_s - 1)
    w = (pos - i0)[:, None]
    data = (1.0 - w) * epi.data[i0] + w * epi.data[i1]
    return replace(epi, data=data, s_axis=s_axis, u_axis=epi.u_axis.copy())


def rewarp_epi(epi: Epi, dst: PlaneParam) -> Epi:
    """Resample an EPI onto a different global-plane parameterization.

    For each target ray (s_i, u_j) the source coordinate comes from
    rewarp_coords and row i is sampled by linear interpolation along u;
    coordinates outside the source window produce 0. The camera line is
    shared, so dst must keep the focal length and s_max of the source.
    """
    if dst.focal != epi.param.focal or dst.s_max != epi.param.s_max:
        raise ValueError("rewarp requires a shared focal length and camera range")
    u_dst = np.linspace(-dst.u_max, dst.u_max, epi.n_u)
    out = np.empty_like(epi.data)
    for i, s in enumerate(epi.s_axis):
        u_src = rewarp_coords(dst, epi.param, s, u_dst)
        out[i] = np.interp(u_src, epi.u_axis, epi.data[i], left=0.0, right=0.0)
    return Epi(out, epi.s_axis.copy(), u_dst, dst, epi.scene_id)


def psnr(reference: np.ndarray, test: np.ndarray, peak: float = 1.0) -> float:
    """Peak signal-to-noise ratio in dB; math.inf for an exact match."""
    err = np.mean(np.square(np.asarray(reference) - np.asarray(test)))
    if err == 0.0:
        return math.inf
    return float(10.0 * math.log10(peak * peak / err))
