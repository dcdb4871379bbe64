"""Differential tests: the render kernel against the code it replaced.

tests/_intersect_oracle.py holds the general-formula intersection and the
gather/scatter radiance fill verbatim. The kernel must agree with them bit
for bit: the same hit mask, the same x down to the NaN payload, and the
count of rays that meet the surface twice that the oracle's own roots
give. A render raises exactly when the oracle counts such a ray. Every
stage run with a reused Workspace must also match the same stage run
without one, and the oracle, bit for bit.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import _intersect_oracle as oracle
from epifield import mapping, noise
from epifield.experiments import sweep_reconstruction, sweep_sparsity
from epifield.mapping import PlaneParam, SelfOcclusionError, intersect_rays, map_surface_to_image
from epifield.render import (
    Epi,
    psnr,
    ray_grid,
    reconstruct_epi,
    render_epi,
    subsample_epi,
)
from epifield.scene import (
    SceneDef,
    SceneGeometryError,
    SurfaceSpec,
    TextureSpec,
    partition_depth_layers,
)
from epifield.spectral import dft2_magnitude, family_fans, sparsity_rmse, u_nyquist
from epifield.workspace import _BLOCK_ITEMS as BLOCK, Workspace

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


def _oracle(param, surface, s, u):
    """The oracle's (x, hit) and the double crossings its roots give."""
    x, hit = oracle.intersect_rays(param, surface, s, u)
    return x, hit, oracle.double_crossings(param, surface, s, u)


def _same(new, old):
    """hit masks equal, x equal bit for bit, NaNs included, and counts equal."""
    x_new, hit_new, twice_new = new
    x_old, hit_old, twice_old = old
    assert np.shape(x_new) == np.shape(x_old)
    assert np.array_equal(hit_new, hit_old)
    # x is NaN exactly where a ray misses (layers_experiment's masks rely on it)
    assert np.array_equal(np.isnan(x_new), np.logical_not(hit_new))
    assert np.array_equal(
        np.asarray(x_new, dtype=float).view(np.uint64),
        np.asarray(x_old, dtype=float).view(np.uint64),
    )
    assert twice_new == twice_old


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
        _same(intersect_rays(param, surface, s, u), _oracle(param, surface, s, u))


@given(param=planes, surface=surfaces)
# 15 of these rays meet the surface twice; on one, s = -0.1238..., the roots
# are 1 ulp apart at x = 0.4667 and their depths tie, so r1 must be kept
@example(param=PlaneParam(1.5, math.inf), surface=SurfaceSpec(1.0, 0.0, 3.0, (0.0, 1.0)))
def test_kernel_matches_oracle_on_grazing_rays(param, surface):
    s, u = _grazing_rays(param, surface, 16)
    assume(s.size > 0)
    _same(intersect_rays(param, surface, s, u), _oracle(param, surface, s, u))


@given(param=planes, surface=surfaces, n_s=st.integers(2, 9), n_u=st.integers(2, 9))
def test_kernel_matches_oracle_on_ray_grids(param, surface, n_s, n_u):
    # odd counts put s = 0 and u = 0 on the grid
    s_axis, u_axis = ray_grid(param, n_s, n_u)
    s, u = s_axis[:, None], u_axis[None, :]
    _same(intersect_rays(param, surface, s, u), _oracle(param, surface, s, u))


@given(
    param=planes,
    surface=surfaces,
    s=st.floats(-1.5, 1.5),
    u=st.one_of(st.just(0.0), st.floats(-0.6, 0.6)),
)
def test_kernel_matches_oracle_on_scalars(param, surface, s, u):
    new = intersect_rays(param, surface, s, u)
    _same(new, _oracle(param, surface, s, u))
    assert np.ndim(new[0]) == 0 and np.ndim(new[1]) == 0


class _BlockRecorder(Workspace):
    """A workspace that remembers the row blocks the curved intersection asked for."""

    def __init__(self):
        super().__init__()
        self.blocks = []

    def array(self, name, shape, dtype=float):
        if name == "radiance" and len(shape) > 2:
            self.blocks.append(shape[1])
        return super().array(name, shape, dtype)


# reused across examples, like a sweep worker's workspace across cells
BLOCKS = _BlockRecorder()
# (rows, n_u) around SPLIT's threshold: one row below and above it, odd
# row counts, and a grid whose block holds more rows than its columns
GRIDS_AROUND_THE_THRESHOLD = [
    (127, 256),
    (128, 256),
    (129, 256),
    (127, 257),
    (128, 257),
    (129, 255),
    (1025, 64),
]
SPLIT = mapping._SPLIT_MIN_RAYS


@settings(max_examples=40, deadline=None)
@given(
    param=planes,
    surface=surfaces,
    grid=st.sampled_from(GRIDS_AROUND_THE_THRESHOLD),
    row_step=st.sampled_from([1, 2, 3]),
)
def test_halved_curved_intersection_matches_the_one_shot_call(param, surface, grid, row_step):
    assume(surface.quad != 0.0)
    rows, n_u = grid
    s_axis, u_axis = ray_grid(param, rows * row_step, n_u)
    s, u = s_axis[::row_step, None], u_axis[None, :]
    with mock.patch.object(mapping, "_SPLIT_MIN_RAYS", math.inf):
        want = intersect_rays(param, surface, s, u)
    BLOCKS.blocks.clear()
    _same(intersect_rays(param, surface, s, u, workspace=BLOCKS), want)
    _same(intersect_rays(param, surface, s, u), want)
    assert BLOCKS.blocks == [-(-rows // 4) if rows * n_u >= SPLIT else rows]


@given(param=planes, surface=surfaces, seed=st.integers(0, 2**32 - 1))
@settings(max_examples=20, deadline=None)
def test_halved_intersection_of_ray_lists_matches_the_one_shot_call(param, surface, seed):
    # s and u both run along the rows, and an odd count leaves a shorter last block
    rng = np.random.default_rng(seed)
    s, u = rng.uniform(-1.5, 1.5, SPLIT + 1), rng.uniform(-0.6, 0.6, SPLIT + 1)
    with mock.patch.object(mapping, "_SPLIT_MIN_RAYS", math.inf):
        want = intersect_rays(param, surface, s, u)
    _same(intersect_rays(param, surface, s, u, workspace=BLOCKS), want)


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
                _oracle(param, scene.surface, s, u),
            )


textures = st.builds(
    TextureSpec,
    st.lists(st.floats(0.5, 80.0), min_size=1, max_size=6).map(tuple),
    st.one_of(st.just(0.0), st.floats(0.1, 12.0)),
)


# scene C under its recommended tilted plane: row 0's rays cross it twice
C_TILTED = PlaneParam(1.0, 1.416, 50.0), SurfaceSpec(1.5, 50.0, -1.0, (-0.5, 0.5))
# its mirror image in x, where the last rows' rays cross twice
C_MIRRORED = PlaneParam(1.0, 1.416, -50.0), SurfaceSpec(1.5, -50.0, -1.0, (-0.5, 0.5))


@given(param=planes, surface=surfaces, texture=textures)
@example(param=C_TILTED[0], surface=C_TILTED[1], texture=TextureSpec())
def test_radiance_fill_matches_gather_scatter(param, surface, texture):
    s_axis, u_axis = ray_grid(param, 12, 17)
    scene = SceneDef(surface, texture)
    if oracle.double_crossings(param, surface, s_axis[:, None], u_axis[None, :]):
        with pytest.raises(SelfOcclusionError):
            render_epi(scene, param, 12, 17)
        return
    x, hit, _ = intersect_rays(param, surface, s_axis[:, None], u_axis[None, :])
    want = oracle.render_fill(texture, x, hit, s_axis)
    epi = render_epi(scene, param, 12, 17)
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
        got = render_epi(SceneDef(scene.surface, texture), param, 64, 64)
        assert np.array_equal(got.data.view(np.uint64), want.view(np.uint64))


def _bits(value):
    return np.asarray(value, dtype=float).view(np.uint64)


def _cell(scene, param, n_s, n_u, k, workspace, seed=5):
    """Every stage of a sparsity cell and a reconstruction cell, copied out.

    Results computed with a workspace alias it, so each is copied before
    the next stage may reuse the buffers. mag overwrites the EPI rendered
    in the same workspace, so the second window transforms the copy.
    """
    s_axis, u_axis = ray_grid(param, n_s, n_u)
    s_col = s_axis[::k, None]
    out = {}
    x, hit, _ = intersect_rays(param, scene.surface, s_col, u_axis[None, :], workspace=workspace)
    assert np.array_equal(np.isnan(x), np.logical_not(hit))
    out["x"], out["hit"] = x.copy(), hit.copy()
    out["radiance"] = scene.texture.radiance(x, s_col, workspace=workspace).copy()
    epi = render_epi(scene, param, n_s, n_u, seed=seed, row_step=k, workspace=workspace)
    out["render"] = epi.data.copy()
    for window, source in (("hann", epi), ("rect", replace(epi, data=out["render"]))):
        spectrum = dft2_magnitude(source, window, workspace=workspace)
        out[f"mag_{window}"] = spectrum.mag.copy()
        out[f"sparsity_{window}"] = sparsity_rmse(spectrum, 0.02, workspace=workspace)
    dense = render_epi(scene, param, n_s, n_u, seed=seed, workspace=workspace)
    rebuilt = reconstruct_epi(subsample_epi(dense, k), n_s, workspace=workspace)
    out["rebuilt"] = rebuilt.data.copy()
    out["psnr"] = psnr(dense.data, rebuilt.data, workspace=workspace)
    return out


def _oracle_cell(scene, param, n_s, n_u, k, seed=5):
    s_axis, u_axis = ray_grid(param, n_s, n_u)
    s_col = s_axis[::k, None]
    x, hit = oracle.intersect_rays(param, scene.surface, s_col, u_axis[None, :])
    out = {"x": x, "hit": hit}
    out["radiance"] = oracle.radiance(scene.texture, x, np.broadcast_to(s_col, x.shape))

    def rendered(rows):
        xr, hr = oracle.intersect_rays(param, scene.surface, s_axis[::rows, None], u_axis[None, :])
        data = oracle.render_fill(scene.texture, xr, hr, s_axis[::rows])
        if scene.texture.noise_sigma > 0.0:
            field = noise.standard_normal(seed, (n_s, n_u))
            data += scene.texture.noise_sigma * field[::rows]
        return data

    out["render"] = rendered(k)
    for window in ("hann", "rect"):
        out[f"mag_{window}"] = oracle.dft2_magnitude(out["render"], window)
        out[f"sparsity_{window}"] = oracle.sparsity_rmse(out[f"mag_{window}"], 0.02)
    dense = rendered(1)
    out["rebuilt"] = oracle.reconstruct_data(dense[::k].copy(), n_s)
    out["psnr"] = oracle.psnr(dense, out["rebuilt"])
    return out


def _same_cell(got, want):
    assert got.keys() == want.keys()
    for name in got:
        assert np.shape(got[name]) == np.shape(want[name]), name
        if name == "hit":
            assert np.array_equal(got[name], want[name])
        else:
            assert np.array_equal(_bits(got[name]), _bits(want[name])), name


# one workspace for every example below, so it is reused across planes,
# surfaces, textures and grid shapes
SHARED = Workspace()

captures = st.builds(
    TextureSpec,
    st.sampled_from([(20.0, 30.0, 40.0, 50.0, 60.0), (7.0,), (3.0, 45.5)]),
    st.sampled_from([0.0, 5.0]),
    st.sampled_from([0.0, 0.05]),
)


@given(
    param=planes,
    surface=surfaces,
    texture=captures,
    k=st.sampled_from([1, 2, 4, 8]),
    rows=st.integers(2, 4),
    n_u=st.integers(2, 19),
)
@example(
    param=PlaneParam(1.0, math.inf),
    surface=SurfaceSpec(1.5, 10.0, 0.0, (-1.0, 1.0)),
    texture=TextureSpec(noise_sigma=0.05),
    k=8,
    rows=2,
    n_u=9,
)
# both renders raise; then only the dense one does, as rows 0 and 8 cross once
@example(param=C_TILTED[0], surface=C_TILTED[1], texture=TextureSpec(), k=8, rows=2, n_u=9)
@example(param=C_MIRRORED[0], surface=C_MIRRORED[1], texture=TextureSpec(), k=8, rows=2, n_u=9)
def test_workspace_stages_match_fresh_calls_and_the_oracle(param, surface, texture, k, rows, n_u):
    scene = SceneDef(surface, texture, "w")
    n_s = 8 * rows
    s_axis, u_axis = ray_grid(param, n_s, n_u)
    with np.errstate(all="ignore"):
        # the cell renders every k-th row, then every row
        occluded = {
            step: oracle.double_crossings(param, surface, s_axis[::step, None], u_axis[None, :]) > 0
            for step in (k, 1)
        }
        if any(occluded.values()):
            for workspace in (None, SHARED):
                for step, raises in occluded.items():
                    if raises:
                        with pytest.raises(SelfOcclusionError):
                            render_epi(scene, param, n_s, n_u, row_step=step, workspace=workspace)
                    else:
                        render_epi(scene, param, n_s, n_u, row_step=step, workspace=workspace)
            return
        fresh = _cell(scene, param, n_s, n_u, k, None)
        reused = _cell(scene, param, n_s, n_u, k, SHARED)
        _same_cell(reused, fresh)
        _same_cell(reused, _oracle_cell(scene, param, n_s, n_u, k))


def test_one_workspace_across_changing_shapes(scene_a, scene_b):
    workspace = Workspace()
    noisy_b = SceneDef(scene_b.surface, TextureSpec(angular_bandwidth=5.0, noise_sigma=0.05), "B")
    param = PlaneParam(1.0, 1.5, 17.0)
    for scene, (n_s, n_u), k in (
        (noisy_b, (256, 256), 8),
        (noisy_b, (32, 256), 4),
        (scene_a, (33, 17), 1),
        (noisy_b, (9, 5), 1),
        (scene_a, (256, 256), 2),
        (noisy_b, (256, 256), 1),
    ):
        reused = _cell(scene, param, n_s, n_u, k, workspace)
        _same_cell(reused, _cell(scene, param, n_s, n_u, k, None))


# grids with a factor that divides their rows: odd and even row and
# column counts (the fftshift's quadrants), row counts that are and are
# not a power of two (the magnitude's doubling blocks [a, 2a) end short
# or not), rows longer than a scratch block, short grids whose halving
# widening takes a few one-row blocks (a subsample-8 cell among them), and
# a two-column grid, whose quadrants are one column wide
SPECTRUM_GRIDS = [
    ((256, 256), 4),
    ((257, 65), 1),
    ((255, 300), 5),
    ((63, 257), 3),
    ((3, BLOCK + 1), 3),
    ((4, BLOCK + 7), 2),
    ((2, 256), 2),
    ((3, 7), 3),
    ((5, 256), 5),
    ((33, 255), 3),
    ((32, 256), 8),
    ((3, 2), 3),
]


@pytest.mark.parametrize("grid, k", SPECTRUM_GRIDS)
def test_spectrum_of_an_epi_in_its_workspace_matches_the_oracle(scene_b, grid, k):
    # a rendered EPI is widened into the spectrum in place, |spectrum|
    # written over the spectrum's first grid in doubling row blocks and
    # fftshifted from there into mag; a rebuilt EPI sits in the spectrum's
    # first grid, where widening in place would overwrite EPI rows before
    # it reads them
    noisy_b = SceneDef(scene_b.surface, TextureSpec(angular_bandwidth=5.0, noise_sigma=0.05), "B")
    param = PlaneParam(1.0, 1.5, 17.0)
    workspace = Workspace()
    for window in ("rect", "hann"):
        for stage in ("render", "rebuilt"):
            epi = render_epi(noisy_b, param, *grid, seed=3, workspace=workspace)
            if stage == "rebuilt":
                epi = reconstruct_epi(subsample_epi(epi, k), grid[0], workspace=workspace)
            want = oracle.dft2_magnitude(epi.data.copy(), window)
            got = dft2_magnitude(epi, window, workspace=workspace).mag
            assert np.array_equal(_bits(got), _bits(want)), (window, stage)


def test_results_without_a_workspace_are_owned(scene_b):
    noisy_b = SceneDef(scene_b.surface, TextureSpec(noise_sigma=0.05), "B")
    param = PlaneParam(1.0, 1.5, 17.0)
    epi = render_epi(noisy_b, param, 32, 32)
    spectrum = dft2_magnitude(epi, "rect")
    x, hit, _ = intersect_rays(param, scene_b.surface, epi.s_axis[:, None], epi.u_axis[None, :])
    owned = {"data": epi.data, "mag": spectrum.mag, "x": x, "hit": hit.view(np.uint8)}
    kept = {name: value.copy() for name, value in owned.items()}
    sweep_sparsity(noisy_b, [1.2, 1.5], [0.0, 17.0], n_s=32, n_u=32, threads=2)
    sweep_reconstruction(noisy_b, [1.2, 1.5], [0.0, 17.0], factor=4, n_s=32, n_u=32)
    # a caller's spectrum passed with a workspace is partitioned in a copy
    workspace = Workspace()
    dft2_magnitude(epi, "rect", workspace=workspace)
    sparsity_rmse(spectrum, 0.02, workspace=workspace)
    for name, value in owned.items():
        assert np.array_equal(value.view(np.uint8), kept[name].view(np.uint8)), name


def test_double_crossings_on_pinned_captures(scene_c):
    # a surface whose steep end meets one ray of the 513^2 grid twice
    steep_end = SceneDef(SurfaceSpec(1.0, -32.0, -1.1, (-0.4, 0.2)), TextureSpec(), "steep end")
    # scene C's recommended tilted plane, D 1.416 at 50 degrees: near
    # s = -1 the rays graze the curved surface and cross it twice
    capture = PlaneParam()
    (slab,) = partition_depth_layers(scene_c.surface, 1)
    c_tilted = family_fans(slab, capture, u_nyquist(capture, 512))["tilted"][0]
    for scene, param, n, count in (
        (steep_end, PlaneParam(1.0, 1.5, 30.0), 513, 1),
        (scene_c, c_tilted, 512, 10_399),
    ):
        s_axis, u_axis = ray_grid(param, n, n)
        s, u = s_axis[:, None], u_axis[None, :]
        got = intersect_rays(param, scene.surface, s, u)
        assert got[2] == count
        _same(got, _oracle(param, scene.surface, s, u))
        with pytest.raises(SelfOcclusionError) as err:
            render_epi(scene, param, n, n)
        assert str(err.value) == f"{count} of {n * n} rays meet the surface twice"


def test_no_ray_meets_a_or_b_twice_on_the_sweep_grid(scene_a, scene_b):
    # criterion 6's 20 x 20 grid at 256^2, where the old slope bound
    # refused 120 of B's planes
    workspace = Workspace()
    for scene in (scene_a, scene_b):
        for depth in np.linspace(1.0, 2.0, 20):
            for tilt in np.linspace(0.0, 34.0, 20):
                param = PlaneParam(1.0, float(depth), float(tilt))
                s_axis, u_axis = ray_grid(param, 256, 256)
                _, _, twice = intersect_rays(
                    param, scene.surface, s_axis[:, None], u_axis[None, :], workspace=workspace
                )
                assert twice == 0, (scene.name, param)


# The block kernels against the whole-grid loops they replaced: the
# albedo's per-frequency term and a reconstruction's far rows each filled a
# whole grid of t1, and now reuse one block of at most BLOCK elements.


def _whole_grid_albedo(texture, x):
    """TextureSpec.albedo with its term in a grid of x's shape."""
    x = np.asarray(x, dtype=float)
    acc = np.zeros(x.shape)
    term = np.empty(x.shape)
    for w in texture.omegas:
        np.multiply(x, w, out=term)
        np.cos(term, out=term)
        term += 1.0
        acc += term
    acc /= 2.0 * len(texture.omegas)
    return acc


def _whole_grid_reconstruct(data, n_s_target):
    """reconstruct_epi's rows with the far rows in a grid of the target's shape."""
    n_s = data.shape[0]
    k = n_s_target // n_s
    if k == 1:
        return data.copy()
    pos = np.arange(n_s_target) / k
    i0 = np.minimum(pos.astype(int), n_s - 1)
    i1 = np.minimum(i0 + 1, n_s - 1)
    w = (pos - i0)[:, None]
    out = np.take(data, i0, axis=0)
    out *= 1.0 - w
    far = np.take(data, i1, axis=0)
    far *= w
    out += far
    return out


# reused across examples, so a block may be left from a larger shape
BLOCKED = Workspace()

# below, at and past one block, flat and as rows of odd and even n_u
ALBEDO_SHAPES = [
    (),
    (0,),
    (1,),
    (BLOCK - 1,),
    (BLOCK,),
    (BLOCK + 1,),
    (2 * BLOCK + 3,),
    (3, 5),
    (64, 256),
    (63, 257),
    (65, 255),
    (129, 257),
]


@settings(max_examples=60, deadline=None)
@given(
    omegas=st.lists(st.floats(0.5, 80.0), min_size=1, max_size=6),
    shape=st.sampled_from(ALBEDO_SHAPES),
    seed=st.integers(0, 2**32 - 1),
    reuse=st.booleans(),
)
def test_chunked_albedo_matches_the_whole_grid_loop(omegas, shape, seed, reuse):
    texture = TextureSpec(tuple(omegas))
    rng = np.random.default_rng(seed)
    x = rng.uniform(-2.0, 2.0, shape)
    # rays that miss carry NaN into the albedo
    x[rng.random(shape) < 0.1] = np.nan
    got = texture.albedo(x, workspace=BLOCKED if reuse else None)
    want = _whole_grid_albedo(texture, x)
    assert got.shape == want.shape
    assert np.array_equal(_bits(got), _bits(want))


@settings(max_examples=60, deadline=None)
@given(
    factor=st.sampled_from([1, 2, 3, 64]),
    rows=st.integers(1, 5),
    n_u=st.sampled_from([1, 7, 255, 256, 257, 300, 1000, BLOCK + 3]),
    seed=st.integers(0, 2**32 - 1),
    reuse=st.booleans(),
)
# BLOCK // n_u rows per block leave a shorter last block of the 256 rows
@example(factor=64, rows=4, n_u=300, seed=0, reuse=True)
@example(factor=64, rows=4, n_u=257, seed=1, reuse=False)
def test_blocked_reconstruction_matches_the_whole_grid_loop(factor, rows, n_u, seed, reuse):
    n_s = rows * factor
    assume(n_s * n_u <= 1 << 19)
    rng = np.random.default_rng(seed)
    data = rng.uniform(-1.0, 2.0, (rows, n_u))
    data[rng.random(data.shape) < 0.05] = np.nan
    epi = Epi(data, np.linspace(-1.0, 1.0, rows), np.linspace(-0.2, 0.2, n_u), PlaneParam())
    got = reconstruct_epi(epi, n_s, workspace=BLOCKED if reuse else None)
    want = _whole_grid_reconstruct(data, n_s)
    assert got.data.shape == want.shape
    assert np.array_equal(_bits(got.data), _bits(want))
