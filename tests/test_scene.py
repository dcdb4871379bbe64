import math

import _intersect_oracle as oracle
import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from epifield.scene import (
    DepthRange,
    SceneGeometryError,
    SurfaceSpec,
    TextureSpec,
    fitted_line,
    partition_depth_layers,
    unnormalized_sinc,
)
from epifield.workspace import Workspace

# exact depth extremes of the shipped presets (quadratic endpoint/vertex
# evaluation done by hand)
PRESET_RANGES = {
    "A": (1.2554154548330716, 1.7445845451669284),
    "B": (0.9994154548330716, 1.5584195309907354),
    "C": (0.654123203702895, 1.8458767962971052),
}


def quadratic_surfaces(monotonic=False):
    def build(z0, tilt, q, half):
        surf = SurfaceSpec(z0, tilt, q, (-half, half))
        if monotonic:
            lo, hi = surf.depth_slope(-half), surf.depth_slope(half)
            assume(lo * hi > 0.0)
        return surf

    return st.builds(
        build,
        st.floats(1.0, 3.0),
        st.floats(5.0, 45.0),
        st.floats(-0.3, 0.3),
        st.floats(0.3, 0.8),
    )


def test_depth_range_rejects_bad_intervals():
    with pytest.raises(SceneGeometryError):
        DepthRange(0.0, 1.0)
    with pytest.raises(SceneGeometryError):
        DepthRange(2.0, 1.0)
    depth_range = DepthRange(1.0, 2.5)
    assert depth_range.z_max - depth_range.z_min == 1.5


def test_surface_validation():
    with pytest.raises(SceneGeometryError):
        SurfaceSpec(1.5, 90.0, 0.0, (-1.0, 1.0))
    with pytest.raises(SceneGeometryError):
        SurfaceSpec(1.5, 0.0, 0.0, (1.0, 1.0))
    with pytest.raises(SceneGeometryError):
        SurfaceSpec(1.5, 0.0, 0.0, (-math.inf, 1.0))
    # dips behind the camera line at the left edge
    with pytest.raises(SceneGeometryError):
        SurfaceSpec(0.1, -80.0, 0.0, (-1.0, 1.0))


def test_surface_depth_bound_stays_below_1e300():
    # every depth on the extent must stay finite for the ray intersection
    for z0, tilt, quad, x_range in (
        (1e300, 0.0, 0.0, (-1.0, 1.0)),
        (1.5, 0.0, 1e300, (-1.0, 1.0)),
        (1.5, 0.0, 1.0, (-2e150, 2e150)),
        (1.5, 60.0, 0.0, (0.0, 1e300)),
    ):
        with pytest.raises(SceneGeometryError, match="1e300"):
            SurfaceSpec(z0, tilt, quad, x_range)
    assert SurfaceSpec(1e299, 0.0, 0.0, (-1.0, 1.0)).depth_range().z_min == 1e299


def test_depth_profile_basics():
    surf = SurfaceSpec(1.5, 17.0, -0.4, (-0.8, 0.8))
    assert surf.depth(0.0) == 1.5
    t = math.tan(math.radians(17.0))
    assert math.isclose(surf.depth(0.5), 1.5 + 0.5 * t - 0.1, rel_tol=1e-15)
    assert math.isclose(surf.depth_slope(0.5), t - 0.4, rel_tol=1e-15)
    lo, hi = surf.x_range
    assert lo <= 0.8 <= hi and not lo <= 0.81 <= hi


def test_preset_depth_ranges(scene_a, scene_b, scene_c):
    for scene, key in ((scene_a, "A"), (scene_b, "B"), (scene_c, "C")):
        dr = scene.surface.depth_range()
        z_min, z_max = PRESET_RANGES[key]
        assert math.isclose(dr.z_min, z_min, rel_tol=0, abs_tol=1e-12)
        assert math.isclose(dr.z_max, z_max, rel_tol=0, abs_tol=1e-12)


def test_interior_vertex_caught_by_extremes(scene_b):
    # the maximum of B sits inside the extent, not at an endpoint
    surf = scene_b.surface
    lo, hi = surf.depth_extremes()
    assert hi > max(float(surf.depth(-0.8)), float(surf.depth(0.8)))


@given(quadratic_surfaces(), st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=20))
def test_depth_extremes_bound_all_samples(surf, fractions):
    lo, hi = surf.x_range
    xs = np.array([lo + (f + 1.0) / 2.0 * (hi - lo) for f in fractions])
    z = surf.depth(xs)
    z_lo, z_hi = surf.depth_extremes()
    assert np.all(z >= z_lo - 1e-12)
    assert np.all(z <= z_hi + 1e-12)


def test_unnormalized_sinc():
    assert unnormalized_sinc(0.0) == 1.0
    assert abs(unnormalized_sinc(math.pi)) < 1e-15
    y = 0.7
    assert math.isclose(float(unnormalized_sinc(y)), math.sin(y) / y, rel_tol=1e-15)


def test_texture_validation():
    with pytest.raises(ValueError):
        TextureSpec(omegas=())
    with pytest.raises(ValueError):
        TextureSpec(noise_sigma=-0.1)
    with pytest.raises(ValueError):
        TextureSpec(angular_bandwidth=-1.0)
    assert TextureSpec().is_lambertian
    assert not TextureSpec(angular_bandwidth=2.0).is_lambertian


@given(
    st.lists(st.floats(0.1, 100.0), min_size=1, max_size=6),
    st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=30),
)
def test_albedo_stays_in_unit_interval(omegas, xs):
    tex = TextureSpec(omegas=tuple(omegas))
    vals = tex.albedo(np.array(xs))
    assert np.all(vals >= 0.0)
    assert np.all(vals <= 1.0)


def test_albedo_peaks_at_origin():
    assert TextureSpec().albedo(0.0) == 1.0


def test_radiance_view_dependence():
    tex = TextureSpec(angular_bandwidth=5.0)
    x = np.array([0.1, 0.3])
    assert np.allclose(tex.radiance(x, 0.0), tex.albedo(x), rtol=0, atol=0)
    # sinc zero: the surface goes dark where bandwidth * s hits pi
    assert np.all(np.abs(tex.radiance(x, math.pi / 5.0)) < 1e-15)
    lam = TextureSpec()
    assert np.array_equal(lam.radiance(x, 0.7), lam.albedo(x))


@pytest.mark.parametrize("bandwidth", [0.0, 1.0])
def test_radiance_broadcasts_x_against_s(bandwidth):
    tex = TextureSpec(angular_bandwidth=bandwidth)
    out = tex.radiance(0.3, np.zeros(4))
    assert out.shape == (4,)
    assert np.all(out == tex.albedo(0.3))
    s = np.linspace(-1.0, 1.0, 3)[:, None]
    assert tex.radiance(np.array([0.1, 0.2]), s).shape == (3, 2)


def test_radiance_of_a_full_grid_is_the_albedo_buffer():
    # x with the full shape: the result is the albedo, left where it was computed
    x = np.linspace(-0.5, 0.5, 6).reshape(2, 3)
    for tex in (TextureSpec(), TextureSpec(angular_bandwidth=1.0)):
        grid = Workspace()
        out = tex.radiance(x, np.zeros((2, 1)), workspace=grid)
        assert grid.holds("radiance", out)


def test_partition_validation(scene_a):
    with pytest.raises(ValueError):
        partition_depth_layers(scene_a.surface, 0)


def test_partition_single_layer_spans_extent(scene_a, scene_b, scene_c):
    (slab,) = partition_depth_layers(scene_b.surface, 1)
    assert slab.x_range == scene_b.surface.x_range
    dr = scene_b.surface.depth_range()
    assert slab.depth_range().z_min == dr.z_min
    assert slab.depth_range().z_max == dr.z_max
    # one layer is the surface itself
    for scene in (scene_a, scene_b, scene_c):
        assert partition_depth_layers(scene.surface, 1) == [scene.surface]


@given(quadratic_surfaces())
def test_a_single_layer_is_any_surface(surf):
    assert partition_depth_layers(surf, 1) == [surf]


def test_partition_needs_monotonic_depth(scene_b):
    # B folds back inside the extent, so only the trivial split exists
    with pytest.raises(SceneGeometryError):
        partition_depth_layers(scene_b.surface, 2)


def test_partition_tiles_extent_with_equal_depth_slabs(scene_c):
    surf = scene_c.surface
    slabs = partition_depth_layers(surf, 4)
    assert slabs[0].x_range[0] == surf.x_range[0]
    assert slabs[-1].x_range[1] == surf.x_range[1]
    for left, right in zip(slabs, slabs[1:]):
        assert left.x_range[1] == right.x_range[0]
    edges = [slab.x_range[0] for slab in slabs] + [surf.x_range[1]]
    z_edges = surf.depth(np.array(edges))
    target = np.linspace(float(surf.depth(surf.x_range[0])), float(surf.depth(surf.x_range[1])), 5)
    assert np.allclose(z_edges, target, rtol=0, atol=1e-9)


def test_exact_plane_layer_has_zero_residuals(scene_a):
    # the fit of a plane is the surface itself, tilt included
    for slab in partition_depth_layers(scene_a.surface, 4):
        assert fitted_line(slab)[1] == 17.0
        assert oracle.residual_range(slab) == (0.0, 0.0)
    (single,) = partition_depth_layers(scene_a.surface, 1)
    assert math.isclose(fitted_line(single)[0], 1.5, rel_tol=0, abs_tol=1e-12)


def test_scene_c_single_layer_fit(scene_c):
    # frozen least-squares values for the 256-sample fit of the C profile
    (slab,) = partition_depth_layers(scene_c.surface, 1)
    fitted_z0, fitted_tilt_deg = fitted_line(slab)
    assert math.isclose(fitted_z0, 1.4160130718954247, rel_tol=0, abs_tol=1e-9)
    assert math.isclose(fitted_tilt_deg, 50.0, rel_tol=0, abs_tol=1e-9)
    r_lo, r_hi = oracle.residual_range(slab)
    assert math.isclose(r_lo, -0.1660130718954247, rel_tol=0, abs_tol=1e-9)
    assert math.isclose(r_hi, 0.08398692810457531, rel_tol=0, abs_tol=1e-9)


@given(quadratic_surfaces(monotonic=True), st.integers(1, 6))
def test_fitted_line_is_the_closed_form_least_squares_line(surf, n_layers):
    # the 256-point fit of z0 + t*x + q*x**2 on [x_a, x_b]: with m the
    # midpoint and s2 the points' variance, slope t + q*(x_a + x_b) and
    # intercept z0 + q*(s2 - m**2)
    for slab in partition_depth_layers(surf, n_layers):
        x_a, x_b = slab.x_range
        m = 0.5 * (x_a + x_b)
        s2 = (x_b - x_a) ** 2 * 257.0 / (12.0 * 255.0)
        slope = slab.tilt_slope + slab.quad * (x_a + x_b)
        intercept = slab.z0 + slab.quad * (s2 - m * m)
        z0, tilt_deg = fitted_line(slab)
        assert math.isclose(z0, intercept, rel_tol=0, abs_tol=1e-9)
        assert math.isclose(tilt_deg, math.degrees(math.atan(slope)), rel_tol=0, abs_tol=1e-9)


@given(quadratic_surfaces(monotonic=True), st.integers(1, 6))
def test_layer_fit_residuals_straddle_zero(surf, n_layers):
    for slab in partition_depth_layers(surf, n_layers):
        r_lo, r_hi = oracle.residual_range(slab)
        assert r_lo <= 1e-12
        assert r_hi >= -1e-12
        assert r_lo <= r_hi


@given(quadratic_surfaces(monotonic=True), st.integers(2, 6))
def test_layer_depth_ranges_nest_in_scene_range(surf, n_layers):
    dr = surf.depth_range()
    for slab in partition_depth_layers(surf, n_layers):
        assert slab.depth_range().z_min >= dr.z_min - 1e-12
        assert slab.depth_range().z_max <= dr.z_max + 1e-12
