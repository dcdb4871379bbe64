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
    "SelfOcclusionError",
    "map_surface_to_image",
    "u_infinity",
    "intersect_rays",
    "rewarp_coords",
]

# Half-width of the image window for a 30 degree field of view at focal 1.
DEFAULT_U_MAX = 0.2679

# A curved grid of at least this many rays is solved in four blocks of rows,
# so that its four temporaries fit in one grid and a sweep worker's
# workspace holds 2 float grids, not 5. A smaller grid is solved in one
# piece: its bytes are few and the blocks' call overhead is not; quartering
# a subsample-8 sweep's 32 x 256 cells cost 20 % of its CPU time (2-vCPU
# x86-64, Python 3.11, numpy 2.4).
_SPLIT_MIN_RAYS = 1 << 15


@dataclass(frozen=True)
class PlaneParam:
    """Capture geometry: camera-line extent plus the global image plane.

    depth may be math.inf, the directional limit, which cannot be tilted;
    focal, s_max and u_max must be finite. PlaneParam() is the default
    capture, directional at focal 1. validate() holds all checks so
    callers with a legitimate reason (see module docstring) can skip them.
    """

    focal: float = 1.0
    depth: float = math.inf
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
        if not all(map(math.isfinite, (self.focal, self.s_max, self.u_max))):
            raise ValueError("focal, s_max and u_max must be finite")
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
        return 1.0 / self.depth

    @property
    def s_crossing(self) -> float:
        """Camera-line coordinate where the plane hits z = 0 (inf if parallel)."""
        if self.tilt_slope == 0.0 or self.is_directional:
            return math.inf
        return -self.depth / self.tilt_slope

    def tilt_scale(self, s):
        """Perspective factor 1 + s * tan(tilt) / depth; 1 exactly when parallel."""
        return 1.0 + np.multiply(s, self.tilt_slope * self.inv_depth)


class SelfOcclusionError(RuntimeError):
    """A ray of the capture meets the surface twice: the surface hides part of itself."""


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

    Returns (x, hit, twice). x holds the lateral coordinate of the
    crossing with the smallest positive depth inside the surface extent
    and is NaN where the ray misses; hit is the boolean mask of valid
    entries; twice counts the rays with two distinct such crossings, which
    see the surface occlude itself (0 on a planar surface). Substituting
    the ray into the quadratic profile gives

        quad * A * x**2 + (tan(tilt_s) * A - focal * depth) * x
            + (z0 * A + s * focal * depth) = 0,  A = u * scale * depth - s * focal,

    where tilt_s is the surface tilt and scale the plane's perspective
    factor; the directional limit divides through by depth. s and u
    broadcast; terms that depend on s alone are computed on s's own shape,
    so a column of cameras against a row of image coordinates pays for
    them once per camera. A planar surface (quad == 0) takes one division
    and a range check; a curved one takes the stable root pair, which also
    solves rays whose leading coefficient vanishes. A curved grid of
    _SPLIT_MIN_RAYS rays or more is solved in four blocks of
    ceil(rows / 4) rows, so that a block's four temporaries fit in one
    grid; every step is elementwise, so the bits do not depend on the
    blocks. With a workspace, x and hit are its "x" and "hit" roles, and
    the planar b or the curved temporaries sit in its "radiance" role.
    """
    s = np.asarray(s, dtype=float)
    u = np.asarray(u, dtype=float)
    shape = np.broadcast_shapes(s.shape, u.shape)
    # rejected candidates may be huge, infinite or NaN; that is fine
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if surface.quad == 0.0:
            # a planar root needs no leading coefficient, so c and then x take A's buffer
            x = scratch(workspace, "x", shape)
            bb = scratch(workspace, "radiance", shape)
            _coefficients(param, surface, s, u, x, bb, x)
            hit = scratch(workspace, "hit", shape, bool)
            x, hit = _linear_root(surface, bb, x, hit, scratch(workspace, "m1", shape, bool))
            return x, hit, 0  # a plane meets a ray at most once
        return _curved_blocks(param, surface, s, u, shape, workspace)


def _coefficients(param: PlaneParam, surface: SurfaceSpec, s, u, aa, bb, cc):
    """A, b and c of intersect_rays' equation into aa, bb and cc (cc may be aa)."""
    big_a = np.multiply(u, param.tilt_scale(s), out=aa)
    if param.is_directional:
        bb_shift = param.focal
        cc_s = s * param.focal
    else:
        big_a *= param.depth
        big_a -= s * param.focal
        bb_shift = param.focal * param.depth
        cc_s = s * param.focal * param.depth
    np.multiply(big_a, surface.tilt_slope, out=bb)
    bb -= bb_shift
    np.multiply(big_a, surface.z0, out=cc)
    cc += cc_s


def _curved_blocks(param: PlaneParam, surface: SurfaceSpec, s, u, shape, workspace):
    grid = shape or (1,)  # a single ray solves as one row
    n = grid[0]
    block = -(-n // 4) if math.prod(shape) >= _SPLIT_MIN_RAYS else n
    # the temporaries before x: four blocks over more than the grid grow its buffer
    temps = scratch(workspace, "radiance", (4, block) + grid[1:])
    x = scratch(workspace, "x", shape)
    hit = scratch(workspace, "hit", shape, bool)
    m1 = scratch(workspace, "m1", shape, bool)
    m2 = scratch(workspace, "m2", shape, bool)
    out = [a.reshape(grid) for a in (x, hit, m1, m2)]

    def rows_of(a, rows):
        # an operand that broadcasts along the rows serves every block whole
        return a[rows] if a.ndim == len(grid) and a.shape[0] > 1 else a

    twice = 0
    for start in range(0, n, block):
        rows = slice(start, min(start + block, n))
        k = rows.stop - start
        aa, ok, m1_rows, m2_rows = (a[rows] for a in out)
        bb, cc, qq, four_ac = temps[:, :k]
        _coefficients(param, surface, rows_of(s, rows), rows_of(u, rows), aa, bb, cc)
        aa *= surface.quad
        twice += _quadratic_root(surface, aa, bb, cc, qq, four_ac, ok, m1_rows, m2_rows)
    return x, hit, twice


def _linear_root(surface: SurfaceSpec, bb, cc, hit, m1):
    # a planar profile's depth is monotonic in x even after rounding, and
    # positive at both ends of the extent, so the range check implies z > 0
    lo, hi = surface.x_range
    x = np.negative(cc, out=cc)
    x /= bb
    hit = np.greater_equal(x, lo, out=hit)
    hit &= np.less_equal(x, hi, out=m1)
    np.copyto(x, np.nan, where=np.logical_not(hit, out=m1))
    return x, hit


def _quadratic_root(surface: SurfaceSpec, aa, bb, cc, qq, four_ac, hit, m1, m2):
    """The nearer valid root into aa and its mask into hit; returns how many
    rays have two distinct valid roots. The other arrays are spent."""
    # stable form: the larger-magnitude root first, companion via c / q;
    # a negative discriminant leaves NaN roots, which the range check drops
    np.multiply(bb, bb, out=qq)
    np.multiply(aa, 4.0, out=four_ac)
    four_ac *= cc
    qq -= four_ac
    np.sqrt(qq, out=qq)
    np.negative(qq, out=qq, where=np.less(bb, 0.0, out=m1))
    qq += bb
    qq *= -0.5
    if not aa.all():
        # a vanishing leading coefficient leaves the linear equation: q = -b
        # makes c / q its root, and q / 0 fails the range check
        np.negative(bb, out=qq, where=np.equal(aa, 0.0, out=m1))
    r1 = np.divide(qq, aa, out=aa)
    r2 = np.divide(cc, qq, out=cc)
    # an invalid root gets depth inf, so the nearer valid root wins;
    # SurfaceSpec bounds the depth, so every valid depth is finite
    v1, z1 = _root_depth(surface, r1, bb, four_ac, hit, m1)
    v2, z2 = _root_depth(surface, r2, qq, four_ac, m2, m1)
    # a ray with two valid, distinct roots meets the surface twice
    twice = np.not_equal(r1, r2, out=m1)
    twice &= v1
    twice &= v2
    n_twice = int(np.count_nonzero(twice))
    np.copyto(r1, r2, where=np.less(z2, z1, out=m1))
    v1 |= v2
    np.copyto(r1, np.nan, where=np.logical_not(v1, out=m1))
    return n_twice


def _root_depth(surface: SurfaceSpec, r, z, sq, ok, m1):
    lo, hi = surface.x_range
    z = np.multiply(r, surface.tilt_slope, out=z)
    z += surface.z0
    np.square(r, out=sq)
    sq *= surface.quad
    z += sq
    ok = np.greater_equal(r, lo, out=ok)
    ok &= np.less_equal(r, hi, out=m1)
    ok &= np.greater(z, 0.0, out=m1)
    np.copyto(z, np.inf, where=np.logical_not(ok, out=m1))
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
