import math

import numpy as np
import pytest

from epifield.config import load_preset
from epifield.mapping import PlaneParam, SelfOcclusionError, rewarp_coords
from epifield.render import (
    Epi,
    NonDivisibleFactor,
    interp_u,
    psnr,
    ray_grid,
    reconstruct_epi,
    render_epi,
    subsample_epi,
)
from epifield.scene import SceneDef, SurfaceSpec, TextureSpec, unnormalized_sinc


def test_ray_grid_axes(directional):
    s_axis, u_axis = ray_grid(directional, 5, 4)
    assert s_axis[0] == -1.0 and s_axis[-1] == 1.0
    assert u_axis[0] == -directional.u_max and u_axis[-1] == directional.u_max
    with pytest.raises(ValueError):
        ray_grid(directional, 1, 4)


def test_epi_shape_and_spacing(flat_scene, directional):
    epi = render_epi(flat_scene, directional, 5, 4)
    assert epi.data.shape == (5, 4)
    assert epi.ds == pytest.approx(0.5)
    assert epi.du == pytest.approx(2.0 * directional.u_max / 3.0)
    with pytest.raises(ValueError):
        Epi(np.zeros((3, 3)), np.zeros(4), np.zeros(3), directional)
    one_row = Epi(np.zeros((1, 3)), np.zeros(1), np.zeros(3), directional)
    with pytest.raises(ValueError):
        one_row.ds


def test_flat_lambertian_render_matches_albedo(flat_scene, directional):
    epi = render_epi(flat_scene, directional, 16, 32)
    x = epi.s_axis[:, None] + 1.5 * epi.u_axis[None, :]
    want = flat_scene.texture.albedo(x)
    assert np.allclose(epi.data, want, rtol=0.0, atol=1e-14)


def test_render_frozen_pixels(scene_a, scene_b):
    # hand ray trace of (s=0.25, u=0.1) through both preset profiles
    p = PlaneParam(1.0, math.inf, u_max=0.2)
    epi_a = render_epi(scene_a, p, 9, 5)
    epi_b = render_epi(scene_b, p, 9, 5)
    assert epi_a.s_axis[5] == 0.25 and epi_a.u_axis[3] == pytest.approx(0.1)
    assert epi_a.data[5, 3] == pytest.approx(0.5616761839926518, abs=1e-12)
    assert epi_b.data[5, 3] == pytest.approx(0.5636820105266248, abs=1e-12)
    assert epi_a.scene_id == "A" and epi_b.scene_id == "B"


def test_view_dependent_render_scales_rows(directional):
    flat = SurfaceSpec(1.5, 0.0, 0.0, (-3.0, 3.0))
    lam = SceneDef(flat, TextureSpec(), "lam")
    glossy = SceneDef(flat, TextureSpec(angular_bandwidth=3.0), "glossy")
    base = render_epi(lam, directional, 8, 6)
    seen = render_epi(glossy, directional, 8, 6)
    for i, s in enumerate(base.s_axis):
        want = base.data[i] * unnormalized_sinc(3.0 * s)
        assert np.allclose(seen.data[i], want, rtol=0.0, atol=1e-15)


def test_noiseless_render_ignores_seed(flat_scene, directional):
    a = render_epi(flat_scene, directional, 8, 8, seed=1)
    b = render_epi(flat_scene, directional, 8, 8, seed=2)
    assert np.array_equal(a.data, b.data)


def test_noise_is_seeded_and_calibrated(directional):
    flat = SurfaceSpec(1.5, 0.0, 0.0, (-3.0, 3.0))
    noisy = SceneDef(flat, TextureSpec(noise_sigma=0.25), "noisy")
    clean = SceneDef(flat, TextureSpec(), "clean")
    a = render_epi(noisy, directional, 128, 128, seed=11)
    b = render_epi(noisy, directional, 128, 128, seed=11)
    c = render_epi(noisy, directional, 128, 128, seed=12)
    assert np.array_equal(a.data, b.data)
    assert not np.array_equal(a.data, c.data)
    assert np.isfinite(a.data).all()
    field = a.data - render_epi(clean, directional, 128, 128).data
    assert abs(field.mean()) < 0.01
    assert field.std() == pytest.approx(0.25, abs=0.01)


def test_noise_covers_missed_rays():
    # surface entirely outside the ray fan: the sensor still sees noise
    off = SceneDef(
        SurfaceSpec(1.5, 0.0, 0.0, (5.0, 6.0)), TextureSpec(noise_sigma=1.0), "off"
    )
    epi = render_epi(off, PlaneParam(1.0, math.inf), 4, 3, seed=7)
    assert epi.data[2, 1] == pytest.approx(0.7834162546693795, abs=1e-15)
    assert (epi.data != 0.0).all()


def test_psnr():
    ref = np.linspace(0.0, 1.0, 32).reshape(4, 8)
    assert psnr(ref, ref) == math.inf
    assert psnr(ref, ref + 0.1) == pytest.approx(20.0, abs=1e-12)
    # the peak is 1: data in [0, 1]
    assert psnr(ref, ref + 0.2) == pytest.approx(13.979400086720377, abs=1e-12)


def test_subsample_keeps_every_factorth_row(flat_scene, directional):
    epi = render_epi(flat_scene, directional, 8, 4)
    sub = subsample_epi(epi, 2)
    assert sub.n_s == 4
    assert np.array_equal(sub.data, epi.data[::2])
    assert np.array_equal(sub.s_axis, epi.s_axis[::2])
    assert sub.ds == pytest.approx(2.0 * epi.ds)
    with pytest.raises(NonDivisibleFactor):
        subsample_epi(epi, 3)
    same = subsample_epi(epi, 1)
    assert np.array_equal(same.data, epi.data) and same.data is not epi.data


def test_reconstruct_interpolates_rows(directional):
    data = np.arange(16.0).reshape(8, 2)
    epi = Epi(data, np.linspace(-1, 1, 8), np.array([-0.1, 0.1]), directional)
    sub = subsample_epi(epi, 2)
    rec = reconstruct_epi(sub, 8)
    assert rec.n_s == 8
    assert np.array_equal(rec.data[::2], sub.data)
    # interior rows are midpoints; the final row repeats the last kept one
    assert np.allclose(rec.data[1], 0.5 * (sub.data[0] + sub.data[1]))
    assert np.array_equal(rec.data[7], sub.data[3])
    assert np.array_equal(rec.s_axis, epi.s_axis)
    with pytest.raises(NonDivisibleFactor):
        reconstruct_epi(sub, 10)
    with pytest.raises(NonDivisibleFactor):
        reconstruct_epi(sub, 2)
    copy = reconstruct_epi(sub, 4)
    assert np.array_equal(copy.data, sub.data) and copy.data is not sub.data
    # past the last kept row the blend (1 - w) * last + w * last is kept as
    # computed, so it can miss last by an ulp (it does at factors 3 and 64)
    dense = render_epi(load_preset("A"), PlaneParam(1.0, 1.5, 17.0), 192, 256)
    for k in (2, 3, 64):
        sub = subsample_epi(dense, k)
        tail = reconstruct_epi(sub, 192).data[192 - k + 1 :]
        w = (np.arange(192 - k + 1, 192) / k - (sub.n_s - 1))[:, None]
        last = sub.data[-1]
        blend = (1.0 - w) * last + w * last
        assert np.array_equal(tail.view(np.uint64), blend.view(np.uint64)), k
        assert np.all(np.abs(tail - last) <= np.spacing(np.abs(last))), k


def _rewarp(epi, dst):
    """epi resampled onto the plane dst: row i at rewarp_coords of dst's u axis."""
    u_dst = np.linspace(-dst.u_max, dst.u_max, epi.n_u)
    u_src = rewarp_coords(dst, epi.param, epi.s_axis[:, None], u_dst[None, :])
    return interp_u(epi.data, epi.u_axis, np.arange(epi.n_s)[:, None], u_src)


def test_interp_u_same_param_rewarp_is_identity(flat_scene, directional):
    epi = render_epi(flat_scene, directional, 8, 16)
    assert np.array_equal(_rewarp(epi, directional), epi.data)


def test_interp_u_rewarp_matches_direct_render():
    # low-frequency texture keeps the u-interpolation error far below tol
    scene = SceneDef(SurfaceSpec(1.5, 0.0, 0.0, (-3.0, 3.0)), TextureSpec(omegas=(2.0,)), "low")
    src = PlaneParam(1.0, math.inf)
    dst = PlaneParam(1.0, 5.0, 15.0)
    warped = _rewarp(render_epi(scene, src, 64, 512), dst)
    direct = render_epi(scene, dst, 64, 512)
    covered = 0
    for i, s in enumerate(direct.s_axis):
        u_src = rewarp_coords(dst, src, s, direct.u_axis)
        in_window = np.abs(u_src) <= src.u_max
        covered += int(in_window.sum())
        err = np.abs(warped[i] - direct.data[i])
        assert err[in_window].max() < 1e-5
        assert np.all(warped[i][~in_window] == 0.0)
    assert covered > direct.data.size // 2


def test_occlusion_guard(directional):
    # a plane cannot meet a ray twice, however steep
    steep = SceneDef(SurfaceSpec(3.0, 80.0, 0.0, (-0.3, 0.3)), TextureSpec(), "steep")
    epi = render_epi(steep, directional, 4, 4)
    assert np.isfinite(epi.data).all()
    # the rays of the first camera row graze scene C's cap and cross it twice
    occluder = SceneDef(SurfaceSpec(1.5, 50.0, -1.0, (-0.5, 0.5)), TextureSpec(), "C")
    with pytest.raises(SelfOcclusionError, match="^4 of 16 rays meet the surface twice$"):
        render_epi(occluder, PlaneParam(1.0, 1.416, 50.0), 4, 4)


@pytest.mark.parametrize("k", [1, 2, 4, 8])
@pytest.mark.parametrize(
    "texture, param",
    [
        (TextureSpec(noise_sigma=0.1), PlaneParam(1.0, 1.5, 17.0)),
        (TextureSpec(angular_bandwidth=5.0), PlaneParam(1.0, 1.2, -20.0)),
        (TextureSpec(angular_bandwidth=3.0, noise_sigma=0.05), PlaneParam(1.0, 1.5, 30.0)),
        (TextureSpec(noise_sigma=0.2), PlaneParam(1.0, math.inf)),
    ],
    ids=["noisy", "sinc", "tilted", "directional"],
)
def test_row_step_equals_subsampled_render(scene_b, texture, param, k):
    scene = SceneDef(scene_b.surface, texture, "B")
    full = subsample_epi(render_epi(scene, param, 32, 24, seed=4), k)
    rows = render_epi(scene, param, 32, 24, seed=4, row_step=k)
    for name in ("data", "s_axis", "u_axis"):
        got, want = getattr(rows, name), getattr(full, name)
        assert got.shape == want.shape
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    assert rows.param == full.param and rows.scene_id == full.scene_id


def test_row_step_must_divide_the_rows(flat_scene, directional):
    for k in (3, 0, -2):
        with pytest.raises(NonDivisibleFactor):
            render_epi(flat_scene, directional, 8, 4, row_step=k)


def test_noise_field_is_shared_and_read_only(directional):
    from epifield.noise import standard_normal
    from epifield.render import _noise_field

    field = _noise_field(9, 8, 6, 0.3)
    assert _noise_field(9, 8, 6, 0.3) is field
    assert _noise_field(9, 8, 6, 0.2) is not field  # sigma is part of the key
    scaled = 0.3 * standard_normal(9, (8, 6))  # scaled once, when drawn
    assert np.array_equal(field.view(np.uint64), scaled.view(np.uint64))
    assert not field.flags.writeable
    with pytest.raises(ValueError):
        field[0, 0] = 1.0
    noisy = SceneDef(SurfaceSpec(1.5, 0.0, 0.0, (-3.0, 3.0)), TextureSpec(noise_sigma=0.3), "n")
    first = render_epi(noisy, directional, 8, 6, seed=9)
    want = first.data.copy()
    first.data += 100.0
    first.data[:] = -1.0
    again = render_epi(noisy, directional, 8, 6, seed=9)
    assert np.array_equal(again.data, want)
    assert again.data is not first.data


def test_noise_pixel_reads_its_row_major_draw():
    from epifield.render import _noise_field

    wide, narrow = _noise_field(9, 4, 8, 0.3), _noise_field(9, 4, 4, 0.3)
    assert np.array_equal(narrow.ravel(), wide.ravel()[:16])  # pixel (i, j) reads draw i * n_u + j
    assert not np.array_equal(narrow, wide[:, :4])  # so (i, j) moves with n_u
