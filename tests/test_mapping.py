import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

from epifield.mapping import (
    DEFAULT_U_MAX,
    PlaneParam,
    SelfOcclusionError,
    check_no_self_occlusion,
    intersect_rays,
    map_surface_to_image,
    rewarp_coords,
    u_infinity,
)
from epifield.render import ray_grid
from epifield.scene import SurfaceSpec
from epifield.workspace import Workspace


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(focal=0.0, depth=2.0),
        dict(focal=-1.0, depth=2.0),
        dict(focal=1.0, depth=0.0),
        dict(focal=1.0, depth=-2.0),
        dict(focal=1.0, depth=2.0, tilt_deg=90.0),
        dict(focal=1.0, depth=2.0, tilt_deg=-95.0),
        dict(focal=1.0, depth=2.0, tilt_deg=math.nan),
        dict(focal=1.0, depth=math.inf, tilt_deg=10.0),
        # plane meets the camera line at s = -0.5, inside the +-1 range
        dict(focal=1.0, depth=0.5, tilt_deg=45.0),
        dict(focal=1.0, depth=2.0, s_max=0.0),
        dict(focal=1.0, depth=2.0, u_max=-0.1),
        dict(focal=math.inf, depth=1.5),
        dict(focal=1.0, depth=1.5, s_max=math.inf),
        dict(focal=1.0, depth=1.5, u_max=math.inf),
    ],
)
def test_param_validation(kwargs):
    with pytest.raises(ValueError):
        PlaneParam(**kwargs)


def test_subnormal_tilt_is_parallel():
    # tan(radians(5e-324)) is 0.0: no crossing with the camera line
    p = PlaneParam(1.0, 2.0, 5e-324)
    assert p.tilt_slope == 0.0 and p.s_crossing == math.inf
    assert p.tilt_scale(0.7) == 1.0
    with pytest.raises(ValueError, match="cannot be tilted"):
        PlaneParam(1.0, math.inf, 5e-324)


def test_check_false_defers_validation():
    p = PlaneParam(1.0, 0.5, 45.0, check=False)
    with pytest.raises(ValueError):
        p.validate()


def test_tilt_scale(directional):
    assert directional.tilt_scale(0.7) == 1.0
    p = PlaneParam(1.0, 2.0, 30.0)
    assert p.tilt_scale(0.5) == pytest.approx(1.1443375672974065, abs=1e-15)
    # the perspective factor vanishes exactly at the plane/camera-line crossing
    assert abs(p.tilt_scale(p.s_crossing)) <= 1e-12
    assert PlaneParam(1.0, 2.0).s_crossing == math.inf
    assert directional.s_crossing == math.inf


def test_map_at_camera_origin_is_thin_lens():
    flat = SurfaceSpec(1.5, 0.0, 0.0, (-1.0, 1.0))
    u = map_surface_to_image(PlaneParam(1.0, 1.5), flat, 0.3, 0.0)
    assert u == pytest.approx(0.2, abs=1e-15)


def test_map_tilted_frozen_value(scene_b):
    p = PlaneParam(1.0, 1.3, 10.0)
    u = map_surface_to_image(p, scene_b.surface, 0.3, 0.25)
    assert u == pytest.approx(0.217085991844446, abs=1e-15)


@given(x=st.floats(-0.8, 0.8), s=st.floats(-1.0, 1.0))
def test_matched_plane_is_view_independent(scene_a, x, s):
    # the plane lying exactly on the surface: every camera sees the same u
    p = PlaneParam(1.0, 1.5, 17.0)
    base = map_surface_to_image(p, scene_a.surface, x, 0.0)
    assert map_surface_to_image(p, scene_a.surface, x, s) == pytest.approx(base, abs=1e-12)


def test_u_infinity_identities(directional):
    p = PlaneParam(1.0, 2.0)
    assert u_infinity(p, 0.0, 0.3) == 0.3
    assert u_infinity(directional, 0.7, 0.3) == 0.3
    assert u_infinity(p, 0.5, 0.3) == pytest.approx(0.05, abs=1e-15)


@given(
    depth=st.floats(1.2, 3.0),
    tilt=st.floats(-30.0, 30.0),
    x=st.floats(-0.8, 0.8),
    s=st.floats(-1.0, 1.0),
)
@example(depth=1.5, tilt=5e-324, x=0.3, s=0.5)
def test_direction_coordinate_collapses_plane_choice(scene_b, directional, depth, tilt, x, s):
    p = PlaneParam(1.0, depth, tilt)
    u = map_surface_to_image(p, scene_b.surface, x, s)
    want = map_surface_to_image(directional, scene_b.surface, x, s)
    assert u_infinity(p, s, u) == pytest.approx(want, abs=1e-9)


@given(s=st.floats(-1.0, 1.0), u=st.floats(-DEFAULT_U_MAX, DEFAULT_U_MAX))
def test_directional_intersection_flat_scene(directional, flat_scene, s, u):
    x, hit = intersect_rays(directional, flat_scene.surface, s, u)
    assert hit
    assert float(x) == pytest.approx(s + u * 1.5, abs=1e-12)


@given(
    depth=st.floats(1.2, 3.0),
    tilt=st.floats(-30.0, 30.0),
    s=st.floats(-1.0, 1.0),
    u=st.floats(-DEFAULT_U_MAX, DEFAULT_U_MAX),
    key=st.sampled_from(["A", "B"]),
)
def test_intersection_roundtrip(scene_a, scene_b, depth, tilt, s, u, key):
    scene = scene_a if key == "A" else scene_b
    p = PlaneParam(1.0, depth, tilt)
    x, hit = intersect_rays(p, scene.surface, s, u)
    assume(bool(hit))
    u_back = map_surface_to_image(p, scene.surface, float(x), s)
    assert u_back == pytest.approx(u, abs=1e-9)


def test_miss_reports_no_intersection(directional):
    narrow = SurfaceSpec(1.5, 0.0, 0.0, (-0.1, 0.1))
    x, hit = intersect_rays(directional, narrow, 2.0, 0.0)
    assert not hit and math.isnan(x)
    x, hit = intersect_rays(directional, narrow, [2.0, 0.0], [0.0, 0.0])
    assert not hit[0] and math.isnan(x[0])
    assert hit[1] and x[1] == pytest.approx(0.0, abs=1e-15)


def test_vectorized_intersection_matches_scalar(scene_c):
    p = PlaneParam(1.0, 1.6, 25.0)
    rng = np.random.default_rng(3)
    s = rng.uniform(-1.0, 1.0, 64)
    u = rng.uniform(-DEFAULT_U_MAX, DEFAULT_U_MAX, 64)
    xs, hit = intersect_rays(p, scene_c.surface, s, u)
    assert hit.any() and not hit.all()
    for i in range(s.size):
        one, one_hit = intersect_rays(p, scene_c.surface, s[i], u[i])
        assert one_hit == hit[i]
        if hit[i]:
            assert float(one) == pytest.approx(float(xs[i]), abs=1e-12)
        else:
            assert math.isnan(one)


@given(
    key=st.sampled_from("ABC"),
    depth=st.one_of(st.just(math.inf), st.floats(1.0, 3.0)),
    tilt=st.floats(-60.0, 60.0),  # unchecked: steep planes cross the camera line
    s=st.floats(-1.0, 1.0),
    u=st.floats(-DEFAULT_U_MAX, DEFAULT_U_MAX),
    reuse=st.booleans(),
)
def test_scalar_intersection_is_the_one_ray_call(
    scene_a, scene_b, scene_c, key, depth, tilt, s, u, reuse
):
    surface = {"A": scene_a, "B": scene_b, "C": scene_c}[key].surface
    param = PlaneParam(1.0, depth, 0.0 if math.isinf(depth) else tilt, check=False)
    workspace = Workspace() if reuse else None
    x, hit = intersect_rays(param, surface, s, u, workspace=workspace)
    for got, dtype in ((x, float), (hit, bool)):
        assert type(got) is np.ndarray and got.shape == () and got.dtype == dtype
    x, hit = x.tobytes(), hit.tobytes()  # the next call may overwrite the workspace
    x1, hit1 = intersect_rays(param, surface, [s], [u], workspace=workspace)
    assert x1.shape == hit1.shape == (1,)
    assert x == x1.tobytes() and hit == hit1.tobytes()


def test_vanishing_leading_coefficient_takes_the_linear_root():
    # quad * A underflows to zero while b * b overflows: the root pair must
    # still return the linear root -c / b, not c / inf = 0
    param = PlaneParam(1.0, 1e200, check=False)
    curved = SurfaceSpec(1.5, 0.0, 5e-324, (-1.0, 1.0))
    x, hit = intersect_rays(param, curved, [1e-200, 0.5e-200], [0.0, 0.0])
    assert hit.all()
    assert x[0] == 1e-200 and x[1] == 0.5e-200


def test_odd_width_curved_capture_allocates_no_grid(scene_c):
    # an odd-width directional grid puts u = 0 on a column, where the curved
    # surface's leading coefficient vanishes; those rays take the same
    # in-place root pair as the rest of the grid
    param = PlaneParam(1.0, math.inf)
    s_axis, u_axis = ray_grid(param, 256, 257)
    assert u_axis[128] == 0.0
    s, u = s_axis[:, None], u_axis[None, :]
    workspace = Workspace()
    intersect_rays(param, scene_c.surface, s, u, workspace=workspace)
    tracemalloc.start()
    try:
        x, hit = intersect_rays(param, scene_c.surface, s, u, workspace=workspace)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert hit[:, 128].any()
    assert peak < x.nbytes


def test_rewarp_same_param_is_exact_copy():
    p = PlaneParam(1.0, 1.5, 17.0)
    u = np.array([-0.2, 0.0, 0.1])
    out = rewarp_coords(p, p, np.array([0.3, -0.5, 1.0]), u)
    assert np.array_equal(out, u)
    assert out is not u


def test_rewarp_requires_shared_focal():
    with pytest.raises(ValueError):
        rewarp_coords(PlaneParam(1.0, 2.0), PlaneParam(2.0, 2.0), 0.0, 0.1)


@given(
    depth_a=st.floats(1.2, 3.0),
    tilt_a=st.floats(-30.0, 30.0),
    depth_b=st.floats(1.2, 3.0),
    tilt_b=st.floats(-30.0, 30.0),
    s=st.floats(-1.0, 1.0),
    u=st.floats(-DEFAULT_U_MAX, DEFAULT_U_MAX),
)
def test_rewarp_roundtrip(depth_a, tilt_a, depth_b, tilt_b, s, u):
    a = PlaneParam(1.0, depth_a, tilt_a)
    b = PlaneParam(1.0, depth_b, tilt_b)
    back = rewarp_coords(b, a, s, rewarp_coords(a, b, s, u))
    assert back == pytest.approx(u, abs=1e-9)


def test_rewarp_agrees_with_direct_mapping(scene_b):
    a = PlaneParam(1.0, 1.4, 12.0)
    b = PlaneParam(1.0, 2.2, -20.0)
    xs = np.linspace(-0.7, 0.7, 9)
    for s in (-0.8, 0.0, 0.45):
        ua = map_surface_to_image(a, scene_b.surface, xs, s)
        ub = map_surface_to_image(b, scene_b.surface, xs, s)
        assert np.allclose(rewarp_coords(a, b, s, ua), ub, rtol=0.0, atol=1e-12)


def test_rewarp_preserves_cross_ratio():
    a = PlaneParam(1.0, 1.3, 10.0)
    b = PlaneParam(1.0, 3.0, -25.0)
    us = np.array([-0.2, -0.05, 0.1, 0.25])

    def cross(v):
        return ((v[0] - v[2]) * (v[1] - v[3])) / ((v[0] - v[3]) * (v[1] - v[2]))

    warped = rewarp_coords(a, b, 0.6, us)
    assert cross(us) == pytest.approx(1.333333333333333, abs=1e-12)
    assert cross(warped) == pytest.approx(cross(us), abs=1e-9)


def _planar(slope):
    return SurfaceSpec(3.0, math.degrees(math.atan(slope)), 0.0, (-0.3, 0.3))


def test_occlusion_check(flat_scene, directional):
    check_no_self_occlusion(flat_scene.surface, directional)

    steep = SurfaceSpec(3.0, 80.0, 0.0, (-0.3, 0.3))
    worst, limit = math.tan(math.radians(80.0)), 1.0 / DEFAULT_U_MAX
    with pytest.raises(SelfOcclusionError) as err:
        check_no_self_occlusion(steep, directional)
    assert str(err.value) == (
        f"surface slope {worst:.4g} exceeds the visibility limit {limit:.4g} for this capture"
    )
    # a finite plane depth widens the ray fan and tightens the limit
    check_no_self_occlusion(_planar(2.0), directional)
    with pytest.raises(SelfOcclusionError):
        check_no_self_occlusion(_planar(2.0), PlaneParam(1.0, 1.0))


@pytest.mark.parametrize(
    "plane",
    [PlaneParam(1.0, math.inf), PlaneParam(1.0, 1.0), PlaneParam(1.3, 1.7, s_max=0.6, u_max=0.2)],
)
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_occlusion_check_sits_at_the_slope_limit(plane, sign):
    limit = plane.focal / (plane.u_max + plane.s_max * plane.focal * plane.inv_depth)
    check_no_self_occlusion(_planar(sign * limit * (1.0 - 1e-9)), plane)
    with pytest.raises(SelfOcclusionError):
        check_no_self_occlusion(_planar(sign * limit * (1.0 + 1e-9)), plane)
