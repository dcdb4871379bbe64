"""Analytic test scenes: one depth surface with a cosine albedo.

The scene model is deliberately small. A single surface

    z(x) = z0 + tan(tilt) * x + quad * x**2

spans a bounded lateral extent and is viewed from cameras on the z = 0
line, so the depth must stay strictly positive over the extent. The
quadratic profile covers fronto-parallel planes (tilt = quad = 0), tilted
planes (quad = 0) and gently curved sheets. The albedo is a normalized
sum of cosines, which keeps the spatial bandwidth known exactly.

Lengths are in meters, angles in degrees at the API boundary, spatial
frequencies in rad/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .workspace import Workspace, scratch, scratch_blocks

__all__ = [
    "SceneGeometryError",
    "SurfaceSpec",
    "TextureSpec",
    "SceneDef",
    "partition_depth_layers",
    "fitted_line",
    "unnormalized_sinc",
    "DEFAULT_OMEGAS",
]

DEFAULT_OMEGAS = (20.0, 30.0, 40.0, 50.0, 60.0)  # [rad/m]
_FIT_SAMPLES = 256  # uniform points per depth-line fit, both ends included


class SceneGeometryError(ValueError):
    """Scene definition violates a geometric precondition."""


def unnormalized_sinc(y):
    """sin(y) / y with the removable singularity filled in."""
    return np.sinc(np.asarray(y, dtype=float) / np.pi)


@dataclass(frozen=True)
class SurfaceSpec:
    """Quadratic depth profile over a bounded lateral extent.

    Parameters
    ----------
    z0:
        Depth at x = 0 [m].
    tilt_deg:
        Angle of the tangent at x = 0 against the camera line, in degrees.
    quad:
        Quadratic coefficient [1/m]; negative values bow the surface
        toward the cameras at large |x|.
    x_range:
        Lateral extent (x_lo, x_hi) [m]. The surface does not exist
        outside it.
    """

    z0: float
    tilt_deg: float
    quad: float
    x_range: tuple[float, float]

    def __post_init__(self):
        lo, hi = self.x_range
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise SceneGeometryError(f"invalid lateral extent {self.x_range}")
        if abs(self.tilt_deg) >= 90.0:
            raise SceneGeometryError("surface tilt must satisfy |tilt| < 90 deg")
        object.__setattr__(self, "x_range", (float(lo), float(hi)))
        reach = max(abs(lo), abs(hi))
        bound = abs(self.z0) + abs(self.tilt_slope) * reach + abs(self.quad) * reach * reach
        if not bound < 1e300:
            # keeps every depth on the extent finite for the ray intersection
            raise SceneGeometryError(f"surface depth bound {bound:.6g} must stay below 1e300")
        if self.depth_extremes()[0] <= 0.0:
            raise SceneGeometryError("surface must stay in front of the camera line")

    @property
    def tilt_slope(self) -> float:
        return math.tan(math.radians(self.tilt_deg))

    def depth(self, x):
        """Depth z(x) [m]; accepts scalars or arrays."""
        return self.z0 + self.tilt_slope * x + self.quad * np.square(x)

    def depth_slope(self, x):
        """Derivative dz/dx, affine in x."""
        return self.tilt_slope + 2.0 * self.quad * x

    def depth_extremes(self) -> tuple[float, float]:
        """Exact min and max depth over the extent.

        The profile is quadratic, so the extremes sit at the extent's
        endpoints or at the interior vertex.
        """
        lo, hi = self.x_range
        cand = [lo, hi]
        if self.quad != 0.0:
            x_vertex = -self.tilt_slope / (2.0 * self.quad)
            if lo < x_vertex < hi:
                cand.append(x_vertex)
        depths = [float(self.depth(x)) for x in cand]
        return min(depths), max(depths)


@dataclass(frozen=True)
class TextureSpec:
    """Sum-of-cosines albedo with optional view dependence and noise.

    The albedo is (1 / 2K) * sum_k (cos(omega_k x) + 1), which lies in
    [0, 1] for any frequency set. A positive angular_bandwidth multiplies
    the albedo by sinc(angular_bandwidth * s), so radiance falls off away
    from the head-on view and vanishes where the argument is a multiple
    of pi. A positive noise_sigma requests additive Gaussian pixel noise
    at render time; the texture itself stays deterministic.
    """

    omegas: tuple[float, ...] = DEFAULT_OMEGAS
    angular_bandwidth: float = 0.0  # [rad per unit s]; 0 means Lambertian
    noise_sigma: float = 0.0

    def __post_init__(self):
        omegas = tuple(float(w) for w in self.omegas)
        if not omegas or not all(map(math.isfinite, omegas)):
            raise ValueError(f"texture needs at least one cosine frequency, all finite: {omegas}")
        object.__setattr__(self, "omegas", omegas)
        if not (0.0 <= self.angular_bandwidth < math.inf and 0.0 <= self.noise_sigma < math.inf):
            raise ValueError("angular_bandwidth and noise_sigma must be finite and >= 0")

    @property
    def is_lambertian(self) -> bool:
        return self.angular_bandwidth == 0.0

    def albedo(self, x, *, workspace: Workspace | None = None):
        """Base pattern in [0, 1], independent of the viewing position.

        The cosine terms are summed over flat chunks of x, each in one
        block (epifield.workspace.scratch_blocks). With a workspace the
        result is its "radiance" role.
        """
        x = np.asarray(x, dtype=float)
        acc = scratch(workspace, "radiance", x.shape)
        acc.fill(0.0)
        flat_x, flat_acc = x.reshape(-1), acc.reshape(-1)
        for items, term in scratch_blocks(workspace, flat_x.shape):
            x_items, acc_items = flat_x[items], flat_acc[items]
            for w in self.omegas:
                np.multiply(x_items, w, out=term)
                np.cos(term, out=term)
                term += 1.0
                acc_items += term
        acc /= 2.0 * len(self.omegas)
        return acc

    def radiance(self, x, s, *, workspace: Workspace | None = None):
        """Value emitted at surface position x toward the camera at s.

        x and s broadcast: with s as a column of camera positions the view
        factor is evaluated once per camera, and applied in place when x
        already has the full shape. With a workspace the result is its
        "radiance" role whenever x has the full shape.
        """
        a = self.albedo(x, workspace=workspace)
        shape = np.broadcast_shapes(a.shape, np.shape(s))
        if self.is_lambertian:
            return a if a.shape == shape else np.broadcast_to(a, shape).copy()
        view = unnormalized_sinc(self.angular_bandwidth * np.asarray(s, dtype=float))
        return np.multiply(a, view, out=a if a.shape == shape else None)


@dataclass(frozen=True)
class SceneDef:
    """A surface plus its texture, the unit every experiment consumes."""

    surface: SurfaceSpec
    texture: TextureSpec
    name: str = ""


def partition_depth_layers(surface: SurfaceSpec, n_layers: int) -> list[SurfaceSpec]:
    """Split the extent into n_layers slabs of equal depth width.

    Each slab is the same profile on its own x_range. Slab boundaries are
    uniform in depth between z(x_lo) and z(x_hi) and mapped back to x
    through the profile, so for n_layers > 1 the profile must be strictly
    monotonic over the extent. One layer is the surface itself.
    """
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    if n_layers == 1:
        return [surface]
    x_lo, x_hi = surface.x_range
    d_lo = surface.depth_slope(x_lo)
    d_hi = surface.depth_slope(x_hi)
    # slope is affine, so same strict sign at both ends <=> monotonic
    if d_lo == 0.0 or d_hi == 0.0 or (d_lo > 0.0) != (d_hi > 0.0):
        raise SceneGeometryError("depth must be strictly monotonic over the extent to partition it")
    z_edges = np.linspace(surface.depth(x_lo), surface.depth(x_hi), n_layers + 1)
    edges = [x_lo] + [_invert_depth(surface, z) for z in z_edges[1:-1]] + [x_hi]
    return [replace(surface, x_range=(min(a, b), max(a, b))) for a, b in zip(edges[:-1], edges[1:])]


def _invert_depth(surface: SurfaceSpec, z_target: float) -> float:
    """x with z(x) = z_target inside the extent (profile monotonic there)."""
    lo, hi = surface.x_range
    roots = _real_roots(surface.quad, surface.tilt_slope, surface.z0 - z_target)
    inside = [x for x in roots if lo - 1e-9 <= x <= hi + 1e-9]
    if not inside:
        raise SceneGeometryError(f"depth {z_target} is not reached inside the extent")
    return min(max(inside[0], lo), hi)


def _real_roots(a: float, b: float, c: float) -> list[float]:
    """Real roots of a*x**2 + b*x + c (of b*x + c when a == 0; none if both vanish)."""
    if a == 0.0:
        return [] if b == 0.0 else [-c / b]
    disc = b * b - 4.0 * a * c
    if disc < 0.0:
        return []
    # companion form: naive (-b + root)/(2a) cancels as a -> 0
    qq = -0.5 * (b + math.copysign(math.sqrt(disc), b))
    return [qq / a] + ([c / qq] if qq != 0.0 else [])


def fitted_line(surface: SurfaceSpec) -> tuple[float, float]:
    """(z0, tilt_deg) of the least-squares depth line of surface over its extent.

    z(x) is sampled at 256 uniform points, both ends included. A planar
    profile returns its own z0 and tilt_deg: a sampled fit, or a tilt back
    from atan, would leave rounding between that plane and the surface.
    """
    if surface.quad == 0.0:
        return surface.z0, surface.tilt_deg
    xs = np.linspace(*surface.x_range, _FIT_SAMPLES)
    slope, intercept = np.polyfit(xs, surface.depth(xs), 1)
    return float(intercept), math.degrees(math.atan(float(slope)))
