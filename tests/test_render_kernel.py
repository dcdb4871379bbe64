"""Differential tests: the render kernel against the code it replaced.

tests/_intersect_oracle.py holds the general-formula intersection and the
gather/scatter radiance fill verbatim. The kernel must agree with them bit
for bit: the same hit mask, and the same x down to the NaN payload.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, strategies as st

import _intersect_oracle as oracle
from epifield.mapping import PlaneParam, intersect_rays, map_surface_to_image
from epifield.render import ray_grid, render_epi
from epifield.scene import SceneDef, SceneGeometryError, SurfaceSpec, TextureSpec

# the oracle does not silence the overflow of huge rejected roots
pytestmark = pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")

TINY_QUADS = [5e-324, 1e-310, 1e-300, -1e-300, 1e-200, -1e-30]


def _surface(z0, tilt, quad, lo, width):
    try:
        return SurfaceSpec(z0, tilt, quad, (lo, lo + width))
    except SceneGeometryError:
        assume(False)


surfaces = st.builds(
    _surface,
    st.floats(0.3, 5.0),
    st.floats(-60.0, 60.0),
    st.one_of(st.just(0.0), st.just(-0.0), st.sampled_from(TINY_QUADS), st.floats(-3.0, 3.0)),
    st.floats(-2.0, 0.5),
    st.floats(0.05, 3.0),
)

planes = st.one_of(
    st.builds(
        lambda f, d, t: PlaneParam(f, d, t, check=False),
        st.floats(0.5, 2.0),
        st.floats(0.3, 6.0),
        st.floats(-60.0, 60.0),
    ),
    st.builds(lambda f: PlaneParam(f, math.inf), st.floats(0.5, 2.0)),
)


def _same(new, old):
    """hit masks equal and x equal bit for bit, NaNs included."""
    x_new, hit_new = new
    x_old, hit_old = old
    assert np.shape(x_new) == np.shape(x_old)
    assert np.array_equal(hit_new, hit_old)
    assert np.array_equal(
        np.asarray(x_new, dtype=float).view(np.uint64),
        np.asarray(x_old, dtype=float).view(np.uint64),
    )


def _grazing_rays(param, surface, n):
    """Rays tangent to the surface, plus rays through the extent ends."""
    lo, hi = surface.x_range
    x0 = np.linspace(lo, hi, n)
    slope = surface.depth_slope(x0)
    with np.errstate(divide="ignore", invalid="ignore"):
        s_tan = x0 - surface.depth(x0) / slope
    s = np.concatenate([s_tan, np.linspace(-1.0, 1.0, n), np.linspace(-1.0, 1.0, n)])
    xs = np.concatenate([x0, np.full(n, lo), np.full(n, hi)])
    keep = np.isfinite(s) & (np.abs(s) < 10.0)
    s, xs = s[keep], xs[keep]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        u = map_surface_to_image(param, surface, xs, s)
    ok = np.isfinite(u)
    return s[ok], u[ok]


@given(param=planes, surface=surfaces, seed=st.integers(0, 2**32 - 1))
@example(param=PlaneParam(1.0, math.inf), surface=SurfaceSpec(1.5, 10.0, 1e-300, (-1.0, 1.0)), seed=0)
def test_kernel_matches_oracle_on_random_rays(param, surface, seed):
    rng = np.random.default_rng(seed)
    # u = 0 under a directional plane, or s = u = 0, makes the leading
    # coefficient vanish on a curved surface: the general path must agree too
    for s, u in (
        (rng.uniform(-1.5, 1.5, 64), rng.uniform(-0.6, 0.6, 64)),
        (np.r_[rng.uniform(-1.5, 1.5, 8), 0.0, 0.3], np.r_[rng.uniform(-0.6, 0.6, 8), 0.0, 0.0]),
    ):
        _same(intersect_rays(param, surface, s, u), oracle.intersect_rays(param, surface, s, u))


@given(param=planes, surface=surfaces)
def test_kernel_matches_oracle_on_grazing_rays(param, surface):
    s, u = _grazing_rays(param, surface, 16)
    assume(s.size > 0)
    _same(intersect_rays(param, surface, s, u), oracle.intersect_rays(param, surface, s, u))


@given(param=planes, surface=surfaces, n_s=st.integers(2, 9), n_u=st.integers(2, 9))
def test_kernel_matches_oracle_on_ray_grids(param, surface, n_s, n_u):
    # odd counts put s = 0 and u = 0 on the grid
    s_axis, u_axis = ray_grid(param, n_s, n_u)
    s, u = s_axis[:, None], u_axis[None, :]
    _same(intersect_rays(param, surface, s, u), oracle.intersect_rays(param, surface, s, u))


@given(
    param=planes,
    surface=surfaces,
    s=st.floats(-1.5, 1.5),
    u=st.one_of(st.just(0.0), st.floats(-0.6, 0.6)),
)
def test_kernel_matches_oracle_on_scalars(param, surface, s, u):
    new = intersect_rays(param, surface, s, u)
    _same(new, oracle.intersect_rays(param, surface, s, u))
    assert np.ndim(new[0]) == 0 and np.ndim(new[1]) == 0


def test_kernel_matches_oracle_on_the_presets(scene_a, scene_b, scene_c):
    for scene in (scene_a, scene_b, scene_c):
        for param in (
            PlaneParam(1.0, math.inf),
            PlaneParam(1.0, 1.5, 17.0),
            PlaneParam(1.0, 1.0, 34.0),
            PlaneParam(1.0, 2.0, -20.0),
        ):
            s_axis, u_axis = ray_grid(param, 64, 65)
            s, u = s_axis[:, None], u_axis[None, :]
            _same(
                intersect_rays(param, scene.surface, s, u),
                oracle.intersect_rays(param, scene.surface, s, u),
            )


textures = st.builds(
    TextureSpec,
    st.lists(st.floats(0.5, 80.0), min_size=1, max_size=6).map(tuple),
    st.one_of(st.just(0.0), st.floats(0.1, 12.0)),
)


@given(param=planes, surface=surfaces, texture=textures)
def test_radiance_fill_matches_gather_scatter(param, surface, texture):
    s_axis, u_axis = ray_grid(param, 12, 17)
    x, hit = intersect_rays(param, surface, s_axis[:, None], u_axis[None, :])
    want = oracle.render_fill(texture, x, hit, s_axis)
    epi = render_epi(SceneDef(surface, texture), param, 12, 17, check_occlusion=False)
    assert np.array_equal(epi.data.view(np.uint64), want.view(np.uint64))


def test_preset_renders_match_the_old_pipeline(scene_a, scene_b):
    for scene, texture in (
        (scene_a, TextureSpec()),
        (scene_b, TextureSpec()),
        (scene_b, TextureSpec(angular_bandwidth=5.0)),
    ):
        param = PlaneParam(1.0, 1.5, 17.0)
        s_axis, u_axis = ray_grid(param, 64, 64)
        x, hit = oracle.intersect_rays(param, scene.surface, s_axis[:, None], u_axis[None, :])
        want = oracle.render_fill(texture, x, hit, s_axis)
        got = render_epi(SceneDef(scene.surface, texture), param, 64, 64, check_occlusion=False)
        assert np.array_equal(got.data.view(np.uint64), want.view(np.uint64))
