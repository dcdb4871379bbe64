"""Spectral analysis of EPIs and the sampling guidelines derived from it.

The 2D spectrum of an EPI concentrates along lines through DC whose
slope is set by scene depth: a feature at depth z under a plane at depth
D contributes near omega_s = focal * (1/z - 1/D) * omega_u. A depth range
therefore predicts a fan-shaped support region, and the widest camera
spacing that avoids aliasing follows from the fan's extreme lines plus
any view-dependence bandwidth of the texture (FanBounds.max_spacing).

Angular frequencies are in rad per unit s (omega_s) and rad per unit u
(omega_u); texture frequencies enter in rad/m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .mapping import PlaneParam
from .render import Epi
from .scene import SceneDef, SurfaceSpec, _real_roots, fitted_line
from .workspace import Workspace, scratch

__all__ = [
    "SpectrumGrid",
    "FanBounds",
    "OptimalDepths",
    "ChirpParams",
    "dft2_magnitude",
    "sparsity_rmse",
    "plane_fan",
    "out_of_bound_energy",
    "optimal_depths",
    "family_fans",
    "min_image_count",
    "camera_axis_chirp",
    "u_nyquist",
    "sampling_guidelines",
]


def u_nyquist(plane: PlaneParam, n_u: int) -> float:
    """The u Nyquist frequency of plane's image window on n_u pixels: pi / du."""
    return math.pi / (2.0 * plane.u_max / (n_u - 1))


@dataclass
class SpectrumGrid:
    """Centered DFT magnitude of an EPI with physical frequency axes."""

    mag: np.ndarray  # (n_s, n_u), DC at index (n_s//2, n_u//2)
    ws_axis: np.ndarray  # [rad per unit s]
    wu_axis: np.ndarray  # [rad per unit u]


def dft2_magnitude(
    epi: Epi, window: str = "hann", *, workspace: Workspace | None = None
) -> SpectrumGrid:
    """Centered 2D DFT magnitude of an EPI.

    The default separable Hann taper keeps leakage from off-bin content
    below a few hundredths of a percent, which matters whenever energies
    are compared against support predictions. window="rect" skips the
    taper; the transform is orthonormal, so in that case the squared
    magnitudes sum exactly to the EPI energy. With a workspace, the
    complex spectrum fills its whole "x" buffer and mag is the buffer's
    second grid. An EPI rendered in the same workspace ("radiance", also
    the second grid) is widened into the spectrum in place and is spent
    once it is transformed. Any other EPI that shares the spectrum's bytes
    is copied first.
    """
    data = epi.data
    # fft2 would cast the real data into a fresh complex grid; the data is
    # widened into the spectrum instead, in ascending row blocks [a, b).
    # Spectrum rows [a, b) span float rows [2a, 2b), and an EPI that starts
    # n_s rows into the spectrum or later (as one rendered in the workspace
    # does) keeps row r at float row n_s + r or later, so with 2b <= n_s + a
    # a block overwrites only EPI rows already read; numpy buffers the last
    # one-row block, which meets its own row. An earlier EPI is copied first.
    spec = scratch(workspace, "spectrum", data.shape, complex)
    if np.may_share_memory(data, spec) and not (
        data.flags.c_contiguous and data.ctypes.data >= spec.ctypes.data + data.nbytes
    ):
        data = data.copy()
    if window == "hann":
        taper = np.multiply(
            np.hanning(epi.n_s)[:, None],
            np.hanning(epi.n_u)[None, :],
            out=scratch(workspace, "taper", data.shape),
        )
    elif window != "rect":
        raise ValueError(f"unknown window {window!r}")
    a = 0
    while a < epi.n_s:
        b = max(a + 1, (epi.n_s + a) // 2)
        if window == "hann":
            np.multiply(data[a:b], taper[a:b], out=spec[a:b])
        else:
            np.copyto(spec[a:b], data[a:b])
        a = b
    for axis in (1, 0):  # fft2's order, so the bits match
        np.fft.fft(spec, axis=axis, norm="ortho", out=spec)
    # |spec| over the spectrum's first grid, in ascending row blocks [a, 2a):
    # those float rows end where spectrum row a starts, so a block overwrites
    # only spectrum rows already read. Row 0 goes out of place: it starts at
    # its own source's address, an overlap numpy does not buffer.
    absolute = spec.reshape(-1).view(float)[: spec.size].reshape(spec.shape)
    absolute[0] = np.abs(spec[0])
    a = 1
    while a < epi.n_s:
        b = min(epi.n_s, 2 * a)
        np.abs(spec[a:b], out=absolute[a:b])
        a = b
    # the fftshift, as four quadrant copies into mag
    mag = scratch(workspace, "mag", data.shape)
    hs, hu = epi.n_s // 2, epi.n_u // 2
    ms, mu = epi.n_s - hs, epi.n_u - hu
    mag[:hs, :hu] = absolute[ms:, mu:]
    mag[:hs, hu:] = absolute[ms:, :mu]
    mag[hs:, :hu] = absolute[:ms, mu:]
    mag[hs:, hu:] = absolute[:ms, :mu]
    ws = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(epi.n_s, d=epi.ds))
    wu = 2.0 * math.pi * np.fft.fftshift(np.fft.fftfreq(epi.n_u, d=epi.du))
    return SpectrumGrid(mag, ws, wu)


def sparsity_rmse(
    spectrum: SpectrumGrid, keep_fraction: float = 0.01, *, workspace: Workspace | None = None
) -> float:
    """RMSE against the best keep_fraction-sparse copy of the spectrum.

    Keeps the ceil(keep_fraction * size) largest-magnitude bins (ties
    resolved by the partition, deterministically for a fixed input) and
    zeroes the rest; the error is then just the dropped energy:
    sqrt(sum of dropped magnitudes squared / size). The partition runs on
    a copy, in the workspace's "t1" role with one, and leaves the
    spectrum as it was.
    """
    if not 0.0 < keep_fraction <= 1.0:
        raise ValueError("keep_fraction must be in (0, 1]")
    flat = spectrum.mag.ravel()
    keep = math.ceil(keep_fraction * flat.size)
    part = scratch(workspace, "t1", flat.shape)
    np.copyto(part, flat)
    part.partition(flat.size - keep)
    dropped = part[: flat.size - keep]
    return float(math.sqrt(np.sum(np.square(dropped, out=dropped)) / flat.size))


@dataclass(frozen=True)
class FanBounds:
    """Predicted spectral support: the fan between two lines through DC.

    slope_lo and slope_hi are the reciprocal slopes d(omega_u)/d(omega_s)
    of the bounding lines (see plane_fan; under an untilted plane, z_min's
    line first). A point on the plane gives an infinite value, meaning the
    line omega_s = 0. margin widens the fan by a fixed amount along omega_s;
    use the texture's view bandwidth, or one frequency bin for grids.
    """

    slope_lo: float
    slope_hi: float
    margin: float = 0.0

    def max_spacing(self, wu_max: float) -> float:
        """Widest alias-free camera spacing for content up to |omega_u| = wu_max.

        1 / (wu_max * |1/slope_lo - 1/slope_hi| + 2 * margin), the inverse of
        the fan's omega_s extent at wu_max; inf when that extent vanishes (a
        fan on the omega_s = 0 line with no margin: the baseline is unbounded).
        """
        if wu_max < 0.0 or self.margin < 0.0:
            raise ValueError("wu_max and margin must be >= 0")
        denom = wu_max * abs(1.0 / self.slope_lo - 1.0 / self.slope_hi) + 2.0 * self.margin
        return math.inf if denom == 0.0 else 1.0 / denom


def plane_fan(plane: PlaneParam, surface: SurfaceSpec, margin: float = 0.0) -> FanBounds:
    """The exact fan of surface under plane, any plane (check=False ones too).

    A point at x and depth z has the line 1/slope = f * (g(x) - 1/D) with
    g(x) = (1 + a*x) / z(x) and a = tan(tilt) / D, so the fan's bounding
    lines come from the range of g: slope_lo where g is largest, slope_hi
    where it is smallest. g' vanishes at the roots of a quadratic, so that
    range is exact without sampling. At a = 0 the fan is the depth-range
    fan of Chai et al. (slope_lo from z_min); a point on the plane gives
    inf, and a directional plane z / f. For a layer, pass its slab from
    partition_depth_layers.
    """
    t = plane.tilt_slope
    a = t * plane.inv_depth
    lo, hi = surface.x_range
    roots = _real_roots(-a * surface.quad, -2.0 * surface.quad, a * surface.z0 - surface.tilt_slope)
    xs = [lo, hi] + [x for x in roots if lo < x < hi]
    zs = [float(surface.depth(x)) for x in xs]
    g = [(1.0 + a * x) / z for x, z in zip(xs, zs)]

    def slope(k: int) -> float:
        if plane.is_directional:
            return zs[k] / plane.focal  # the D -> inf limit; the finite form gives inf / inf
        gap = (plane.depth + t * xs[k]) - zs[k]
        return math.inf if gap == 0.0 else zs[k] * plane.depth / (plane.focal * gap)

    # ties in g go to the nearer depth for the largest g and the farther for
    # the smallest, so that at a = 0 these are z_min and z_max exactly
    order = sorted(range(len(xs)), key=lambda k: (g[k], -zs[k]))
    return FanBounds(slope(order[-1]), slope(order[0]), margin)


def out_of_bound_energy(spectrum: SpectrumGrid, bounds: FanBounds) -> float:
    """Fraction of spectral energy outside the fan (margin included).

    The fan is the continuous region between the two bounding lines,
    widened by the margin along omega_s; a bin counts as inside when its
    grid cell overlaps that region, since each DFT bin stands for a cell
    of frequency space, not a point. Infinite stored slopes contribute
    the line omega_s = 0, so the DC bin is always inside. Returns 0 for
    an all-zero spectrum.
    """
    m_lo = 1.0 / bounds.slope_lo
    m_hi = 1.0 / bounds.slope_hi
    wu = spectrum.wu_axis
    ws = spectrum.ws_axis
    half_u = 0.5 * float(wu[1] - wu[0]) if wu.size > 1 else 0.0
    half_s = 0.5 * float(ws[1] - ws[0]) if ws.size > 1 else 0.0
    wu_lo = (wu - half_u)[None, :]
    wu_hi = (wu + half_u)[None, :]
    corners = (m_lo * wu_lo, m_lo * wu_hi, m_hi * wu_lo, m_hi * wu_hi)
    lo = np.minimum.reduce(corners) - bounds.margin
    hi = np.maximum.reduce(corners) + bounds.margin
    wsc = ws[:, None]
    inside = (wsc + half_s >= lo) & (wsc - half_s <= hi)
    energy = np.square(spectrum.mag)
    total = energy.sum()
    if total == 0.0:
        return 0.0
    return float(energy[~inside].sum() / total)


@dataclass(frozen=True)
class OptimalDepths:
    """Distinguished depths of a range.

    midpoint_depth is the arithmetic midpoint (geometric center), and
    plane_depth the harmonic mean: the global-plane depth that balances
    the fan, and the best single rendering focus.
    """

    midpoint_depth: float
    plane_depth: float


def optimal_depths(z_min: float, z_max: float) -> OptimalDepths:
    return OptimalDepths(
        midpoint_depth=0.5 * (z_min + z_max),
        plane_depth=2.0 / (1.0 / z_min + 1.0 / z_max),
    )


def family_fans(
    slab: SurfaceSpec, plane: PlaneParam, wu_max: float, margin: float = 0.0
) -> dict[str, tuple[PlaneParam, float, int]]:
    """Each family's plane for slab, its max spacing at wu_max and image count.

    Both planes keep plane's focal, s_max and u_max: the parallel one is
    untilted at the slab's optimal plane_depth, the tilted one is the slab's
    fitted_line, unchecked (a steep fit may cross the camera line). Each
    spacing comes from the plane's fan over the slab.
    """
    z0, tilt_deg = fitted_line(slab)
    plane_depth = optimal_depths(*slab.depth_extremes()).plane_depth
    parallel = replace(plane, depth=plane_depth, tilt_deg=0.0)
    tilted = replace(plane, depth=z0, tilt_deg=tilt_deg, check=False)

    def family(param: PlaneParam) -> tuple[PlaneParam, float, int]:
        spacing = plane_fan(param, slab, margin).max_spacing(wu_max)
        return param, spacing, min_image_count(spacing, plane.s_max)

    return {"parallel": family(parallel), "tilted": family(tilted)}


def min_image_count(spacing: float, s_max: float) -> int:
    """Cameras needed to cover [-s_max, s_max] at the given spacing.

    ceil(2 * s_max / spacing) + 1; an infinite spacing (unbounded
    baseline) still needs the two end cameras.
    """
    if not spacing > 0.0:
        raise ValueError("spacing must be positive")
    return max(2, math.ceil(2.0 * s_max / spacing) + 1)


@dataclass(frozen=True)
class ChirpParams:
    """Local frequency model along the camera axis under a tilted plane.

    A texture frequency wu at a surface point maps to an s-frequency that
    drifts linearly with s: it starts at base_frequency and changes at
    rate 2 * rate per unit s. crossing_frequency is its value where the
    plane meets the camera line, the extreme the sampling bound must cover.
    """

    base_frequency: float
    rate: float
    crossing_frequency: float

    def frequency_at(self, s):
        return self.base_frequency + 2.0 * self.rate * np.asarray(s, dtype=float)


def camera_axis_chirp(param: PlaneParam, x: float, z: float, wu: float) -> ChirpParams:
    """Chirp parameters for a point at (x, z) under a tilted finite plane."""
    if param.is_directional:
        raise ValueError("chirp model needs a finite plane depth")
    if param.tilt_deg == 0.0:
        raise ValueError("chirp model needs a tilted plane")
    if not z > 0.0:
        raise ValueError("depth must be positive")
    t = param.tilt_slope
    base_scale = wu * param.focal / (param.depth * z)
    return ChirpParams(
        base_frequency=base_scale * (param.depth - z - t * x),
        rate=base_scale * t * (param.depth - z) / param.depth,
        crossing_frequency=base_scale * (z - param.depth - t * x),
    )


def sampling_guidelines(scene: SceneDef, plane: PlaneParam, n_u: int) -> list[tuple[str, object]]:
    """The sampling guideline of a scene under plane on n_u pixels, as (name, value) pairs.

    Everything comes from the whole surface at the u Nyquist frequency of
    plane's window; a tilted plane adds the chirp at mid-surface.
    """
    surface = scene.surface
    z_min, z_max = surface.depth_extremes()
    depths = optimal_depths(z_min, z_max)
    wu_max = u_nyquist(plane, n_u)
    fams = family_fans(surface, plane, wu_max, scene.texture.angular_bandwidth)
    fitted = fams["tilted"][0]
    pairs = [
        ("scene", scene.name),
        ("z_min", z_min),
        ("z_max", z_max),
        ("midpoint_depth", depths.midpoint_depth),
        ("plane_depth", depths.plane_depth),
        ("wu_max", wu_max),
        ("view_bandwidth", scene.texture.angular_bandwidth),
        ("max_spacing_parallel", fams["parallel"][1]),
        ("images_parallel", fams["parallel"][2]),
        ("fitted_z0", fitted.depth),
        ("fitted_tilt_deg", fitted.tilt_deg),
        ("max_spacing_tilted", fams["tilted"][1]),
        ("images_tilted", fams["tilted"][2]),
    ]
    if plane.tilt_deg != 0.0:
        x_mid = 0.5 * (surface.x_range[0] + surface.x_range[1])
        chirp = camera_axis_chirp(plane, x_mid, float(surface.depth(x_mid)), wu_max)
        pairs += [
            ("s_crossing", plane.s_crossing),
            ("chirp_base_frequency", chirp.base_frequency),
            ("chirp_rate", chirp.rate),
            ("chirp_crossing_frequency", chirp.crossing_frequency),
        ]
    return pairs
