"""EPI rendering, camera-axis subsampling, reconstruction and re-warping.

An EPI is the 2D slice of the light field over (s, u): one row per camera
position, one column per image coordinate. Rendering traces every ray of
the grid to the scene surface; subsampling drops camera rows; linear
interpolation puts them back. interp_u samples rows along u, the one
resampling step every re-warp onto another global plane needs.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from .mapping import PlaneParam, SelfOcclusionError, intersect_rays
from .scene import SceneDef
from .workspace import Workspace, scratch, scratch_blocks

__all__ = [
    "Epi",
    "NonDivisibleFactor",
    "render_epi",
    "subsample_epi",
    "reconstruct_epi",
    "interp_u",
    "psnr",
]


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
    row_step: int = 1,
    workspace: Workspace | None = None,
) -> Epi:
    """Trace the ray grid of the capture to an EPI.

    Rows sweep s over [-s_max, s_max] and columns sweep u over
    [-u_max, u_max], both endpoint inclusive. Rays that miss the surface
    get the background value 0. With a noisy texture, every pixel (i, j)
    receives sigma times the standard normal draw number i * n_u + j of
    the seed's stream (epifield.noise): the field does not depend on
    traversal order, but the same (i, j) reads another draw at another
    n_u. The noise models the sensor, so it covers misses too; the scaled
    field is drawn once per (seed, n_s, n_u, sigma) and added as it is.

    row_step = k traces only the camera rows 0, k, 2k, ... of the n_s-row
    grid; the result equals subsample_epi(render_epi(...), k) exactly
    where the full grid renders. k must divide n_s (NonDivisibleFactor
    otherwise).

    A ray that meets the surface twice sees the surface hide part of
    itself, and the EPI lines through it are not straight. If any traced
    ray does, SelfOcclusionError names how many; under row_step only the
    traced rows count.

    With a workspace, data is its "radiance" role and the intersection
    stays in its "x" and "hit" roles (see epifield.workspace).
    """
    s_axis, u_axis = ray_grid(param, n_s, n_u)
    if row_step < 1 or n_s % row_step != 0:
        raise NonDivisibleFactor(f"row step {row_step} does not divide {n_s} rows")
    s_axis = s_axis[::row_step]
    x, hit, twice = intersect_rays(
        param, scene.surface, s_axis[:, None], u_axis[None, :], workspace=workspace
    )
    if twice:
        raise SelfOcclusionError(f"{twice} of {hit.size} rays meet the surface twice")
    data = scene.texture.radiance(x, s_axis[:, None], workspace=workspace)
    missed = np.logical_not(hit, out=scratch(workspace, "m1", hit.shape, bool))
    np.copyto(data, 0.0, where=missed)
    if scene.texture.noise_sigma > 0.0:
        data += _noise_field(seed, n_s, n_u, scene.texture.noise_sigma)[::row_step]
    return Epi(data, s_axis, u_axis, param, scene.name)


@functools.lru_cache(maxsize=4)
def _noise_field(seed: int, n_s: int, n_u: int, sigma: float) -> np.ndarray:
    """sigma times the seeded sensor field, built once per (seed, grid, sigma) and read-only."""
    from .noise import standard_normal  # here, so noise-free runs never compile it

    field = standard_normal(seed, (n_s, n_u))
    field *= sigma
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


def reconstruct_epi(epi: Epi, n_s_target: int, *, workspace: Workspace | None = None) -> Epi:
    """Linear interpolation of camera rows back to the pre-subsampling count.

    Assumes the rows sit at positions 0, k, 2k, ... of the target grid with
    k = n_s_target // n_s (the inverse of subsample_epi). Retained rows are
    reproduced exactly; a row past the last retained one is the blend
    (1 - w) * last + w * last, which can miss last by an ulp. With a
    workspace, data is its "rebuilt" role, and the blend's far rows are
    gathered one row block at a time (epifield.workspace.scratch_blocks).
    """
    if n_s_target < epi.n_s or n_s_target % epi.n_s != 0:
        raise NonDivisibleFactor(
            f"target row count {n_s_target} is not a multiple of {epi.n_s}"
        )
    k = n_s_target // epi.n_s
    s_axis = np.linspace(-epi.param.s_max, epi.param.s_max, n_s_target)
    shape = (n_s_target, epi.n_u)
    data = scratch(workspace, "rebuilt", shape)
    if k == 1:
        np.copyto(data, epi.data)
        return replace(epi, data=data, s_axis=s_axis, u_axis=epi.u_axis.copy())
    pos = np.arange(n_s_target) / k
    i0 = pos.astype(int)
    i1 = np.minimum(i0 + 1, epi.n_s - 1)
    w = (pos - i0)[:, None]
    # (1 - w) * near + w * far, gathered straight into the output; the
    # indices are in range, and "clip" lets take write out unbuffered
    np.take(epi.data, i0, axis=0, out=data, mode="clip")
    data *= 1.0 - w
    for rows, far in scratch_blocks(workspace, shape):
        np.take(epi.data, i1[rows], axis=0, out=far, mode="clip")
        far *= w[rows]
        data[rows] += far
    return replace(epi, data=data, s_axis=s_axis, u_axis=epi.u_axis.copy())


def interp_u(data: np.ndarray, u_axis: np.ndarray, rows, u) -> np.ndarray:
    """Sample rows of an EPI at image coordinates by linear interpolation.

    Returns numpy.interp(u[k], u_axis, data[rows[k]], left=0.0, right=0.0)
    for every k, bit for bit on finite data, without a call per row; rows
    and u broadcast. u_axis must be uniform and ascending, as ray_grid
    makes it. The interval comes from arithmetic on the spacing, corrected
    by one step to the one numpy's binary search finds, and the value from
    numpy's formula with its special cases: an exact node or the last node
    reads the node, a point outside the window reads 0 and a NaN point
    reads itself.
    """
    u = np.asarray(u, dtype=float)
    n = u_axis.size
    nan = np.isnan(u)
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        t = np.where(nan, 0.0, u - u_axis[0]) / (u_axis[1] - u_axis[0])
        j = np.clip(np.floor(t), 0, n - 2).astype(np.intp)
        j -= (u < u_axis[j]) & (j > 0)
        j += (u >= u_axis[j + 1]) & (j < n - 2)
        x0, x1 = u_axis[j], u_axis[j + 1]
        y0, y1 = data[rows, j], data[rows, j + 1]
        slope = (y1 - y0) / (x1 - x0)
        out = slope * (u - x0) + y0
    np.copyto(out, y0, where=u == x0)
    np.copyto(out, y1, where=u == u_axis[-1])
    np.copyto(out, 0.0, where=(u < u_axis[0]) | (u > u_axis[-1]))
    np.copyto(out, u, where=nan)
    return out


def psnr(reference: np.ndarray, test: np.ndarray, *, workspace: Workspace | None = None) -> float:
    """Peak signal-to-noise ratio in dB for data in [0, 1]; math.inf for an exact match.

    With a workspace the difference is computed in its "rebuilt" role,
    so a reconstruction made in the same workspace is overwritten.
    """
    reference, test = np.asarray(reference), np.asarray(test)
    shape = np.broadcast_shapes(reference.shape, test.shape)
    diff = scratch(workspace, "rebuilt", shape, np.result_type(reference, test))
    np.subtract(reference, test, out=diff)
    err = np.mean(np.square(diff, out=diff))
    if err == 0.0:
        return math.inf
    return float(10.0 * math.log10(1.0 / err))
