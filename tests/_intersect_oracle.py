"""The ray/surface intersection and radiance fill epifield used before its
linear/quadratic split, the spectrum and reconstruction stages as they
were before they could write into a workspace, the layered
reconstruction as it was before it sampled only a layer's own pixels,
the two spacing functions used before the spacing came from the fan, and
the two fan constructors used before plane_fan, kept verbatim as the
reference for the differential tests in tests/test_render_kernel.py,
tests/test_resample.py, tests/test_scene.py and tests/test_spectral.py.

intersect_rays runs one general formula on every input: both quadratic
roots through np.where chains, the linear case masked in. render_fill is
the old render_epi fill: radiance (old albedo loop, old sinc factor)
gathered on the hit rays and scattered into a zero image. dft2_magnitude,
sparsity_rmse, reconstruct_data and psnr allocate every temporary.
_trajectory_reconstruct and layers_experiment rebuild every column of every
row a layer touches, one np.interp call per row and kept row.
max_camera_spacing and max_camera_spacing_tilted are the spacing formulas,
from raw depths and from fit residuals, that FanBounds.max_spacing replaced.
fan_bounds_parallel is the depth-range fan, and fan_bounds_tilted the fan
of a layer's own fitted plane that pairs the residual extremes with z_min
and z_max (narrower than the exact fan). residual_range recomputes the
fit residual extremes of a slab about its fitted_line; a layer used to
carry them. Every function that takes a layer takes its slab, the
SurfaceSpec that partition_depth_layers returns.
"""

from __future__ import annotations

import math

import numpy as np

from epifield.experiments import LayersResult, _dense_capture
from epifield.mapping import DEFAULT_U_MAX, PlaneParam, rewarp_coords
from epifield.scene import (
    SceneDef,
    SurfaceSpec,
    fitted_line,
    partition_depth_layers,
    unnormalized_sinc,
)
from epifield.spectral import FanBounds, min_image_count, optimal_depths, plane_fan


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
        ok = np.isfinite(r) & (r >= surface.x_range[0]) & (r <= surface.x_range[1]) & (z > 0.0)
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


def max_camera_spacing(
    z_min: float,
    z_max: float,
    focal: float,
    wu_max: float,
    view_bandwidth: float = 0.0,
) -> float:
    """Widest alias-free camera spacing for a parallel plane.

    The spacing is 1 / (focal * (1/z_min - 1/z_max) * wu_max +
    2 * view_bandwidth); when the denominator vanishes (a single depth and
    a Lambertian texture) the baseline is unbounded and the spacing is inf.
    """
    if wu_max < 0.0 or view_bandwidth < 0.0:
        raise ValueError("wu_max and view_bandwidth must be >= 0")
    denom = (
        focal * (1.0 / z_min - 1.0 / z_max) * wu_max
        + 2.0 * view_bandwidth
    )
    return math.inf if denom == 0.0 else 1.0 / denom


def residual_range(slab: SurfaceSpec) -> tuple[float, float]:
    """Exact extremes of z(x) minus the slab's fitted line over the slab."""
    intercept, tilt_deg = fitted_line(slab)
    slope = math.tan(math.radians(tilt_deg))
    x_a, x_b = slab.x_range

    def residual(x):
        return float(slab.depth(x)) - (intercept + slope * x)

    cand = [x_a, x_b]
    if slab.quad != 0.0:
        x_vertex = -(slab.tilt_slope - slope) / (2.0 * slab.quad)
        if x_a < x_vertex < x_b:
            cand.append(x_vertex)
    res = [residual(x) for x in cand]
    return min(res), max(res)


def _line_slope(z: float, gap: float, param: PlaneParam) -> float:
    if gap == 0.0:
        return math.inf
    return z * param.depth / (param.focal * gap)


def _bound_slope(z: float, param: PlaneParam) -> float:
    if param.is_directional:
        return z / param.focal
    return _line_slope(z, param.depth - z, param)


def fan_bounds_parallel(
    param: PlaneParam, z_min: float, z_max: float, margin: float = 0.0
) -> FanBounds:
    """Fan bounds for a parallel (untilted) plane from a depth range."""
    if param.tilt_deg != 0.0:
        raise ValueError("fan_bounds_parallel requires an untilted plane")
    return FanBounds(
        slope_lo=_bound_slope(z_min, param),
        slope_hi=_bound_slope(z_max, param),
        margin=margin,
    )


def fan_bounds_tilted(param: PlaneParam, slab: SurfaceSpec, margin: float = 0.0) -> FanBounds:
    """Fan bounds for a plane aligned with a slab's depth-line fit.

    The bounding slopes pair the fit residual extremes with z_min and
    z_max; their sign is the opposite of the parallel fan's. The plane
    must match the slab's fit.
    """
    fitted_z0, fitted_tilt_deg = fitted_line(slab)
    if not (
        math.isclose(param.depth, fitted_z0, rel_tol=1e-9, abs_tol=1e-12)
        and math.isclose(param.tilt_deg, fitted_tilt_deg, rel_tol=1e-9, abs_tol=1e-12)
    ):
        raise ValueError("plane parameters do not match the layer fit")
    r_lo, r_hi = residual_range(slab)
    z_min, z_max = slab.depth_extremes()
    return FanBounds(_line_slope(z_min, r_lo, param), _line_slope(z_max, r_hi, param), margin)


def max_camera_spacing_tilted(
    slab: SurfaceSpec,
    focal: float,
    wu_max: float,
    view_bandwidth: float = 0.0,
) -> float:
    """Widest alias-free spacing for a plane aligned with a slab's fit.

    Replaces the raw depth spread by the fit residual extremes scaled by
    the fitted plane depth: 1 / ((focal / fitted_z0) * |r_min/z_min -
    r_max/z_max| * wu_max + 2 * view_bandwidth); inf for an exact plane
    layer under a Lambertian texture.
    """
    if wu_max < 0.0 or view_bandwidth < 0.0:
        raise ValueError("wu_max and view_bandwidth must be >= 0")
    r_lo, r_hi = residual_range(slab)
    z_min, z_max = slab.depth_extremes()
    denom = (focal / fitted_line(slab)[0]) * abs(
        r_lo / z_min - r_hi / z_max
    ) * wu_max + 2.0 * view_bandwidth
    return math.inf if denom == 0.0 else 1.0 / denom


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
) -> LayersResult:
    """The old layers_experiment: every touched row rebuilt with per-row np.interp."""
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
    wu_max = math.pi / du
    surface = scene.surface
    canon = PlaneParam(focal, math.inf, 0.0, s_max, u_max)
    dense, x, hit = _dense_capture(scene, canon, n_s, n_u, seed)
    n_hit = int(hit.sum())
    if n_hit == 0:
        raise RuntimeError("the capture never sees the surface")
    for li, count in enumerate(layer_counts):
        slabs = partition_depth_layers(surface, count)
        edges = np.array([slab.x_range[0] for slab in slabs] + [slabs[-1].x_range[1]])
        owner = np.clip(np.searchsorted(edges, x, side="right") - 1, 0, count - 1)
        sum_sq = {k: np.zeros(len(factors)) for k in rmse}
        worst = {k: 2 for k in rmse}
        for key, slab in enumerate(slabs):
            z_min, z_max = slab.depth_extremes()
            params = {
                "parallel": PlaneParam(
                    focal, optimal_depths(z_min, z_max).plane_depth, 0.0, s_max, u_max
                ),
                "tilted": PlaneParam(focal, *fitted_line(slab), s_max, u_max, check=False),
            }
            sp_par = max_camera_spacing(z_min, z_max, focal, wu_max, view_bandwidth)
            # the exact tilted fan, over the layer's slab
            sp_til = plane_fan(params["tilted"], slab, view_bandwidth).max_spacing(wu_max)
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
    images = {fam: tuple(counts) for fam, counts in images.items()}
    return LayersResult(layer_counts, factors, rmse, images)
