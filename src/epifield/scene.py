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
from dataclasses import dataclass

import numpy as np

__all__ = [
    "SceneGeometryError",
    "DepthRange",
    "SurfaceSpec",
    "TextureSpec",
    "SceneDef",
    "DepthLayer",
    "partition_depth_layers",
    "unnormalized_sinc",
    "DEFAULT_OMEGAS",
]

DEFAULT_OMEGAS = (20.0, 30.0, 40.0, 50.0, 60.0)  # [rad/m]


class SceneGeometryError(ValueError):
    """Scene definition violates a geometric precondition."""


def unnormalized_sinc(y):
    """sin(y) / y with the removable singularity filled in."""
    return np.sinc(np.asarray(y, dtype=float) / np.pi)


@dataclass(frozen=True)
class DepthRange:
    """Closed interval of depths, strictly in front of the camera line."""

    z_min: float
    z_max: float

    def __post_init__(self):
        if not (0.0 < self.z_min <= self.z_max):
            raise SceneGeometryError(
                f"invalid depth range [{self.z_min}, {self.z_max}]"
            )

    @property
    def width(self) -> float:
        return self.z_max - self.z_min


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

    def contains(self, x):
        lo, hi = self.x_range
        return (x >= lo) & (x <= hi)

    def depth_extremes(self, x_lo=None, x_hi=None) -> tuple[float, float]:
        """Exact min and max depth over [x_lo, x_hi] (default: full extent).

        The profile is quadratic, so the extremes sit at the interval
        endpoints or at the interior vertex.
        """
        lo = self.x_range[0] if x_lo is None else x_lo
        hi = self.x_range[1] if x_hi is None else x_hi
        cand = [lo, hi]
        if self.quad != 0.0:
            x_vertex = -self.tilt_slope / (2.0 * self.quad)
            if lo < x_vertex < hi:
                cand.append(x_vertex)
        depths = [float(self.depth(x)) for x in cand]
        return min(depths), max(depths)

    def depth_range(self) -> DepthRange:
        return DepthRange(*self.depth_extremes())


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
        if not omegas:
            raise ValueError("texture needs at least one cosine frequency")
        object.__setattr__(self, "omegas", omegas)
        if self.angular_bandwidth < 0.0 or self.noise_sigma < 0.0:
            raise ValueError("angular_bandwidth and noise_sigma must be >= 0")

    @property
    def is_lambertian(self) -> bool:
        return self.angular_bandwidth == 0.0

    def albedo(self, x):
        """Base pattern in [0, 1], independent of the viewing position."""
        x = np.asarray(x, dtype=float)
        acc = np.zeros_like(x)
        term = np.empty_like(x)
        for w in self.omegas:
            np.multiply(x, w, out=term)
            np.cos(term, out=term)
            term += 1.0
            acc += term
        acc /= 2.0 * len(self.omegas)
        return acc

    def radiance(self, x, s):
        """Value emitted at surface position x toward the camera at s.

        x and s broadcast: with s as a column of camera positions the view
        factor is evaluated once per camera.
        """
        a = self.albedo(x)
        if self.is_lambertian:
            return a
        return a * unnormalized_sinc(self.angular_bandwidth * np.asarray(s, dtype=float))


@dataclass(frozen=True)
class SceneDef:
    """A surface plus its texture, the unit every experiment consumes."""

    surface: SurfaceSpec
    texture: TextureSpec
    name: str = ""


@dataclass(frozen=True)
class DepthLayer:
    """One slab of a layered decomposition, with its own plane fit.

    residual_range holds the exact extremes of z(x) minus the fitted line
    over the slab; a slab that is itself a plane has (0, 0).
    """

    x_interval: tuple[float, float]
    depth_range: DepthRange
    fitted_z0: float  # intercept of the least-squares depth line [m]
    fitted_tilt_deg: float
    residual_range: tuple[float, float]


def partition_depth_layers(
    surface: SurfaceSpec, n_layers: int, fit_samples: int = 256
) -> list[DepthLayer]:
    """Split the extent into n_layers slabs of equal depth width.

    Slab boundaries are uniform in depth between z(x_lo) and z(x_hi) and
    mapped back to x through the profile, so for n_layers > 1 the profile
    must be strictly monotonic over the extent. Each slab carries a
    least-squares line fit of z(x), sampled at fit_samples uniform points
    including both endpoints, plus the exact residual extremes of that fit.
    """
    if n_layers < 1:
        raise ValueError("n_layers must be >= 1")
    if fit_samples < 2:
        raise ValueError("fit_samples must be >= 2")
    x_lo, x_hi = surface.x_range
    if n_layers == 1:
        edges = [x_lo, x_hi]
    else:
        d_lo = surface.depth_slope(x_lo)
        d_hi = surface.depth_slope(x_hi)
        # slope is affine, so same strict sign at both ends <=> monotonic
        if d_lo == 0.0 or d_hi == 0.0 or (d_lo > 0.0) != (d_hi > 0.0):
            raise SceneGeometryError(
                "depth must be strictly monotonic over the extent to partition it"
            )
        z_edges = np.linspace(surface.depth(x_lo), surface.depth(x_hi), n_layers + 1)
        edges = [x_lo]
        edges += [_invert_depth(surface, z) for z in z_edges[1:-1]]
        edges += [x_hi]
    layers = []
    for a, b in zip(edges[:-1], edges[1:]):
        x_a, x_b = (a, b) if a < b else (b, a)
        layers.append(_fit_layer(surface, x_a, x_b, fit_samples))
    return layers


def _invert_depth(surface: SurfaceSpec, z_target: float) -> float:
    """x with z(x) = z_target inside the extent (profile monotonic there)."""
    lo, hi = surface.x_range
    t, q = surface.tilt_slope, surface.quad
    if q == 0.0:
        x = (z_target - surface.z0) / t
    else:
        disc = t * t - 4.0 * q * (surface.z0 - z_target)
        if disc < 0.0:
            raise SceneGeometryError(f"depth {z_target} is never reached")
        # companion form: naive (-t + root)/(2q) cancels as q -> 0
        qq = -0.5 * (t + math.copysign(math.sqrt(disc), t))
        roots = [qq / q]
        if qq != 0.0:
            roots.append((surface.z0 - z_target) / qq)
        inside = [x for x in roots if lo - 1e-9 <= x <= hi + 1e-9]
        if not inside:
            raise SceneGeometryError(f"depth {z_target} is not reached inside the extent")
        x = inside[0]
    return min(max(x, lo), hi)


def _fit_layer(surface: SurfaceSpec, x_a: float, x_b: float, fit_samples: int) -> DepthLayer:
    xs = np.linspace(x_a, x_b, fit_samples)
    slope, intercept = np.polyfit(xs, surface.depth(xs), 1)
    slope, intercept = float(slope), float(intercept)

    def residual(x):
        return float(surface.depth(x)) - (intercept + slope * x)

    cand = [x_a, x_b]
    if surface.quad != 0.0:
        x_vertex = -(surface.tilt_slope - slope) / (2.0 * surface.quad)
        if x_a < x_vertex < x_b:
            cand.append(x_vertex)
    res = [residual(x) for x in cand]
    return DepthLayer(
        x_interval=(x_a, x_b),
        depth_range=DepthRange(*surface.depth_extremes(x_a, x_b)),
        fitted_z0=intercept,
        fitted_tilt_deg=math.degrees(math.atan(slope)),
        residual_range=(min(res), max(res)),
    )
