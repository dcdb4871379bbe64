"""Two-plane ray parameterization with a tiltable global image plane.

A ray is indexed by the pair (s, u). s is the camera position on the
z = 0 line. u locates the ray's crossing of a single global image plane
shared by all cameras: the plane passes through (0, depth) at an angle
tilt_deg, and u is the image coordinate of the crossing point as seen by
a pinhole at the origin with focal length `focal`. For a parallel plane
(tilt 0) this reduces to u = focal * X / depth where X is the lateral
crossing position; letting depth go to infinity turns u into a pure
direction coordinate.

With a tilted plane the map between u and the parallel-plane coordinate
at the same depth is the perspective factor (1 + s * tan(tilt) / depth):
the plane meets the camera line at s = -depth / tan(tilt), and cameras
must stay on the near side of that crossing for the parameterization to
stay one-to-one. The constructor enforces this; experiment code that
knowingly extrapolates past the crossing may pass check=False.
"""

from __future__ import annotations

import math
from dataclasses import InitVar, dataclass

import numpy as np

from .scene import SurfaceSpec
from .workspace import Workspace, scratch

__all__ = [
    "DEFAULT_U_MAX",
    "PlaneParam",
    "OcclusionCheck",
    "map_surface_to_image",
    "u_infinity",
    "intersect_rays",
    "rewarp_coords",
    "check_no_self_occlusion",
]

# Half-width of the image window for a 30 degree field of view at focal 1.
DEFAULT_U_MAX = 0.2679


@dataclass(frozen=True)
class PlaneParam:
    """Capture geometry: camera-line extent plus the global image plane.

    depth may be math.inf, selecting the directional limit; a directional
    plane cannot be tilted. All validation lives in validate() so callers
    with a legitimate reason (see module docstring) can skip it.
    """

    focal: float
    depth: float
    tilt_deg: float = 0.0
    s_max: float = 1.0
    u_max: float = DEFAULT_U_MAX
    check: InitVar[bool] = True

    def __post_init__(self, check):
        if check:
            self.validate()

    def validate(self) -> None:
        if not self.focal > 0.0:
            raise ValueError("focal length must be positive")
        if not self.depth > 0.0:
            raise ValueError("plane depth must be positive (math.inf allowed)")
        if not (self.s_max > 0.0 and self.u_max > 0.0):
            raise ValueError("s_max and u_max must be positive")
        if not abs(self.tilt_deg) < 90.0:  # NaN fails this too
            raise ValueError("plane tilt must satisfy |tilt| < 90 deg")
        if self.tilt_deg != 0.0:
            if self.is_directional:
                raise ValueError("a directional (infinite-depth) plane cannot be tilted")
            if self.s_max >= abs(self.s_crossing):
                raise ValueError(
                    f"camera range +-{self.s_max} reaches the plane/camera-line "
                    f"crossing at s = {self.s_crossing:.6g}"
                )

    @property
    def is_directional(self) -> bool:
        return math.isinf(self.depth)

    @property
    def tilt_slope(self) -> float:
        return math.tan(math.radians(self.tilt_deg))

    @property
    def inv_depth(self) -> float:
        return 0.0 if self.is_directional else 1.0 / self.depth

    @property
    def s_crossing(self) -> float:
        """Camera-line coordinate where the plane hits z = 0 (inf if parallel)."""
        if self.tilt_slope == 0.0 or self.is_directional:
            return math.inf
        return -self.depth / self.tilt_slope

    def tilt_scale(self, s):
        """Perspective factor 1 + s * tan(tilt) / depth; 1 exactly when parallel."""
        return 1.0 + np.multiply(s, self.tilt_slope * self.inv_depth)


@dataclass(frozen=True)
class OcclusionCheck:
    """Result of the self-occlusion test: worst surface slope vs. the limit."""

    ok: bool
    worst_slope: float
    slope_limit: float


def map_surface_to_image(param: PlaneParam, surface: SurfaceSpec, x, s):
    """Image coordinate u of the surface point at x seen from camera s.

    Follows the ray from (s, 0) through (x, z(x)) to the global plane.
    The analytic profile is evaluated as given; the lateral extent is
    enforced by intersect_rays, not here. Broadcasts over x and s.
    """
    z = surface.depth(x)
    u_parallel = np.multiply(x, param.focal) / z + np.multiply(s, param.focal) * (
        param.inv_depth - 1.0 / z
    )
    return u_parallel / param.tilt_scale(s)


def u_infinity(param: PlaneParam, s, u):
    """Direction coordinate of the ray (s, u): its u in the infinite-depth limit."""
    return param.tilt_scale(s) * np.asarray(u, dtype=float) - np.multiply(
        s, param.focal * param.inv_depth
    )


def intersect_rays(
    param: PlaneParam, surface: SurfaceSpec, s, u, *, workspace: Workspace | None = None
):
    """Vectorized ray/surface intersection.

    Returns (x, hit). x holds the lateral coordinate of the crossing with
    the smallest positive depth inside the surface extent and is NaN where
    the ray misses; hit is the boolean mask of valid entries. Substituting
    the ray into the quadratic profile gives

        quad * A * x**2 + (tan(tilt_s) * A - focal * depth) * x
            + (z0 * A + s * focal * depth) = 0,  A = u * scale * depth - s * focal,

    where tilt_s is the surface tilt and scale the plane's perspective
    factor; the directional limit divides through by depth. s and u
    broadcast; terms that depend on s alone are computed on s's own shape,
    so a column of cameras against a row of image coordinates pays for
    them once per camera. A planar surface (quad == 0) takes one division
    and a range check; a curved one takes the stable root pair, which also
    solves rays whose leading coefficient vanishes.
    With a workspace, x and hit are its "x" and "hit" buffers.
    """
    s = np.asarray(s, dtype=float)
    u = np.asarray(u, dtype=float)
    shape = np.broadcast_shapes(s.shape, u.shape)
    if shape == ():
        # the kernels below work in place, which needs arrays, not scalars
        x, hit = intersect_rays(param, surface, s.reshape(1), u.reshape(1), workspace=workspace)
        return x.reshape(()), hit.reshape(())

    def grid(name, dtype=float):
        return scratch(workspace, name, shape, dtype)

    big_a = np.multiply(u, param.tilt_scale(s), out=grid("x"))
    if param.is_directional:
        bb_shift = param.focal
        cc_s = s * param.focal
    else:
        big_a *= param.depth
        big_a -= s * param.focal
        bb_shift = param.focal * param.depth
        cc_s = s * param.focal * param.depth
    bb = np.multiply(big_a, surface.tilt_slope, out=grid("t1"))
    bb -= bb_shift
    planar = surface.quad == 0.0
    # a planar root needs no leading coefficient, so c and then x take big_a's buffer
    cc = np.multiply(big_a, surface.z0, out=big_a if planar else grid("t2"))
    cc += cc_s
    # rejected candidates may be huge, infinite or NaN; that is fine
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if planar:
            return _linear_root(surface, bb, cc, grid)
        aa = big_a
        aa *= surface.quad
        return _quadratic_root(surface, aa, bb, cc, grid)


def _linear_root(surface: SurfaceSpec, bb, cc, grid):
    # a planar profile's depth is monotonic in x even after rounding, and
    # positive at both ends of the extent, so the range check implies z > 0
    lo, hi = surface.x_range
    x = np.negative(cc, out=cc)
    x /= bb
    hit = np.greater_equal(x, lo, out=grid("hit", bool))
    hit &= np.less_equal(x, hi, out=grid("m1", bool))
    np.copyto(x, np.nan, where=np.logical_not(hit, out=grid("m1", bool)))
    return x, hit


def _quadratic_root(surface: SurfaceSpec, aa, bb, cc, grid):
    # stable form: the larger-magnitude root first, companion via c / q;
    # a negative discriminant leaves NaN roots, which the range check drops
    qq = np.multiply(bb, bb, out=grid("t3"))
    four_ac = np.multiply(aa, 4.0, out=grid("t4"))
    four_ac *= cc
    qq -= four_ac
    np.sqrt(qq, out=qq)
    np.negative(qq, out=qq, where=np.less(bb, 0.0, out=grid("m1", bool)))
    qq += bb
    qq *= -0.5
    if not aa.all():
        # a vanishing leading coefficient leaves the linear equation: q = -b
        # makes c / q its root, and q / 0 fails the range check
        np.negative(bb, out=qq, where=np.equal(aa, 0.0, out=grid("m1", bool)))
    r1 = np.divide(qq, aa, out=aa)
    r2 = np.divide(cc, qq, out=cc)
    # an invalid root gets depth inf, so the nearer valid root wins;
    # SurfaceSpec bounds the depth, so every valid depth is finite
    v1, z1 = _root_depth(surface, r1, grid("t1"), grid("hit", bool), grid)
    v2, z2 = _root_depth(surface, r2, grid("t3"), grid("m2", bool), grid)
    np.copyto(r1, r2, where=np.less(z2, z1, out=grid("m1", bool)))
    v1 |= v2
    np.copyto(r1, np.nan, where=np.logical_not(v1, out=grid("m1", bool)))
    return r1, v1


def _root_depth(surface: SurfaceSpec, r, z, ok, grid):
    lo, hi = surface.x_range
    z = np.multiply(r, surface.tilt_slope, out=z)
    z += surface.z0
    sq = np.square(r, out=grid("t4"))
    sq *= surface.quad
    z += sq
    ok = np.greater_equal(r, lo, out=ok)
    ok &= np.less_equal(r, hi, out=grid("m1", bool))
    ok &= np.greater(z, 0.0, out=grid("m1", bool))
    np.copyto(z, np.inf, where=np.logical_not(ok, out=grid("m1", bool)))
    return ok, z


def rewarp_coords(src: PlaneParam, dst: PlaneParam, s, u_src):
    """Coordinates of the same physical rays under a different plane.

    The camera line is shared, so s passes through unchanged and only u is
    remapped (via the direction coordinate). Both parameterizations must
    share the focal length. src == dst returns the input exactly.
    """
    if src.focal != dst.focal:
        raise ValueError("rewarp requires a shared focal length")
    if src == dst:
        return np.array(u_src, dtype=float, copy=True)
    ui = u_infinity(src, s, u_src)
    return (ui + np.multiply(s, dst.focal * dst.inv_depth)) / dst.tilt_scale(s)


def check_no_self_occlusion(surface: SurfaceSpec, param: PlaneParam) -> OcclusionCheck:
    """Sufficient condition for the surface to be fully visible.

    Every ray in the capture stays within |slope| < focal / (u_max +
    s_max * focal / depth) of vertical, so a surface whose |dz/dx| stays
    below that limit everywhere cannot occlude itself. The slope is affine
    in x, so the extremes sit at the extent endpoints.
    """
    limit = param.focal / (param.u_max + param.s_max * param.focal * param.inv_depth)
    lo, hi = surface.x_range
    worst = max(abs(surface.depth_slope(lo)), abs(surface.depth_slope(hi)))
    return OcclusionCheck(ok=worst < limit, worst_slope=worst, slope_limit=limit)
