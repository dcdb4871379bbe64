"""The ray/surface intersection and radiance fill epifield used before its
linear/quadratic split, and the spectrum and reconstruction stages as they
were before they could write into a workspace, kept verbatim as the
reference for the differential tests in tests/test_render_kernel.py.

intersect_rays runs one general formula on every input: both quadratic
roots through np.where chains, the linear case masked in. render_fill is
the old render_epi fill: radiance (old albedo loop, old sinc factor)
gathered on the hit rays and scattered into a zero image. dft2_magnitude,
sparsity_rmse, reconstruct_data and psnr allocate every temporary.
"""

from __future__ import annotations

import math

import numpy as np

from epifield.mapping import PlaneParam
from epifield.scene import SurfaceSpec, unnormalized_sinc


def intersect_rays(param: PlaneParam, surface: SurfaceSpec, s, u):
    """Vectorized ray/surface intersection.

    Returns (x, hit). x holds the lateral coordinate of the crossing with
    the smallest positive depth inside the surface extent and is NaN where
    the ray misses; hit is the boolean mask of valid entries. Substituting
    the ray into the quadratic profile gives

        quad * A * x**2 + (tan(tilt_s) * A - focal * depth) * x
            + (z0 * A + s * focal * depth) = 0,  A = u * scale * depth - s * focal,

    where tilt_s is the surface tilt and scale the plane's perspective
    factor; the directional limit divides through by depth.
    """
    s = np.asarray(s, dtype=float)
    u = np.asarray(u, dtype=float)
    s, u = np.broadcast_arrays(s, u)
    u_plane = u * param.tilt_scale(s)
    if param.is_directional:
        aa = surface.quad * u_plane
        bb = surface.tilt_slope * u_plane - param.focal
        cc = surface.z0 * u_plane + s * param.focal
    else:
        big_a = u_plane * param.depth - s * param.focal
        aa = surface.quad * big_a
        bb = surface.tilt_slope * big_a - param.focal * param.depth
        cc = surface.z0 * big_a + s * param.focal * param.depth

    with np.errstate(divide="ignore", invalid="ignore"):
        linear = aa == 0.0
        x_lin = np.where(linear & (bb != 0.0), -cc / np.where(bb != 0.0, bb, 1.0), np.nan)
        disc = bb * bb - 4.0 * aa * cc
        solvable = ~linear & (disc >= 0.0)
        sqrt_disc = np.sqrt(np.where(solvable, disc, 0.0))
        # stable form: the larger-magnitude root first, companion via c / q
        qq = -0.5 * (bb + np.where(bb >= 0.0, 1.0, -1.0) * sqrt_disc)
        r1 = np.where(solvable & (aa != 0.0), qq / np.where(aa != 0.0, aa, 1.0), np.nan)
        r2 = np.where(solvable & (qq != 0.0), cc / np.where(qq != 0.0, qq, 1.0), np.nan)

    x = np.where(linear, x_lin, np.nan)
    v1, z1 = _valid_root(surface, r1)
    v2, z2 = _valid_root(surface, r2)
    both = v1 & v2
    pick2 = (v2 & ~v1) | (both & (z2 < z1))
    x = np.where(pick2, r2, np.where(v1, r1, x))
    v_lin, _ = _valid_root(surface, x_lin)
    x = np.where(linear & ~v_lin, np.nan, x)
    hit = np.isfinite(x)
    return x, hit


def _valid_root(surface: SurfaceSpec, r):
    # huge rejected candidates may overflow the depth polynomial; that is fine
    with np.errstate(invalid="ignore", over="ignore"):
        z = surface.depth(r)
        ok = np.isfinite(r) & surface.contains(r) & (z > 0.0)
    return ok, z


def render_fill(texture, x, hit, s_axis):
    """The old render_epi fill: gather the hit rays, scatter their radiance."""
    data = np.zeros(x.shape)
    s_grid = np.broadcast_to(s_axis[:, None], x.shape)
    data[hit] = radiance(texture, x[hit], s_grid[hit])
    return data


def radiance(texture, x, s):
    a = albedo(texture, x)
    if texture.is_lambertian:
        return a
    return a * unnormalized_sinc(texture.angular_bandwidth * np.asarray(s, dtype=float))


def albedo(texture, x):
    x = np.asarray(x, dtype=float)
    acc = np.zeros_like(x)
    for w in texture.omegas:
        acc += np.cos(w * x) + 1.0
    return acc / (2.0 * len(texture.omegas))


def dft2_magnitude(data, window):
    """The old centered magnitude: taper, transform, fftshift, abs."""
    if window == "hann":
        n_s, n_u = data.shape
        data = data * (np.hanning(n_s)[:, None] * np.hanning(n_u)[None, :])
    return np.abs(np.fft.fftshift(np.fft.fft2(data, norm="ortho")))


def sparsity_rmse(mag, keep_fraction):
    flat = mag.ravel()
    keep = math.ceil(keep_fraction * flat.size)
    if keep >= flat.size:
        return 0.0
    part = np.partition(flat, flat.size - keep)
    dropped = part[: flat.size - keep]
    return float(math.sqrt(np.sum(np.square(dropped)) / flat.size))


def reconstruct_data(data, n_s_target):
    """The old reconstruct_epi rows: gather, weight and sum in fresh arrays."""
    n_s = data.shape[0]
    k = n_s_target // n_s
    if k == 1:
        return data.copy()
    pos = np.arange(n_s_target) / k
    i0 = np.minimum(pos.astype(int), n_s - 1)
    i1 = np.minimum(i0 + 1, n_s - 1)
    w = (pos - i0)[:, None]
    return (1.0 - w) * data[i0] + w * data[i1]


def psnr(reference, test, peak=1.0):
    err = np.mean(np.square(np.asarray(reference) - np.asarray(test)))
    if err == 0.0:
        return math.inf
    return float(10.0 * math.log10(peak * peak / err))
