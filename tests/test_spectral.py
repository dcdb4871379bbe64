import functools
import math
from dataclasses import replace

import _intersect_oracle as oracle
import numpy as np
import pytest
from hypothesis import given, strategies as st

from epifield.mapping import PlaneParam, SelfOcclusionError, map_surface_to_image
from epifield.render import Epi, render_epi
from epifield.scene import SurfaceSpec, fitted_line, partition_depth_layers
from epifield.spectral import (
    FanBounds,
    SpectrumGrid,
    camera_axis_chirp,
    dft2_magnitude,
    family_fans,
    min_image_count,
    optimal_depths,
    out_of_bound_energy,
    plane_fan,
    sparsity_rmse,
    u_nyquist,
)
from epifield.workspace import Workspace

C_RANGE = (0.654123203702895, 1.8458767962971052)
A_RANGE = (1.2554154548330716, 1.7445845451669284)


def _flat_epi(data):
    n_s, n_u = data.shape
    return Epi(
        data,
        np.linspace(-1.0, 1.0, n_s),
        np.linspace(-0.2679, 0.2679, n_u),
        PlaneParam(1.0, math.inf),
    )


def test_u_nyquist():
    # three pixels over [-0.5, 0.5] are 0.5 apart
    assert u_nyquist(PlaneParam(u_max=0.5), 3) == pytest.approx(2.0 * math.pi)


def test_constant_epi_concentrates_at_dc():
    epi = _flat_epi(np.ones((16, 8)))
    spec = dft2_magnitude(epi, window="rect")
    dc = spec.mag[8, 4]
    assert dc == pytest.approx(math.sqrt(16 * 8), abs=1e-12)
    assert spec.ws_axis[8] == 0.0 and spec.wu_axis[4] == 0.0
    off_dc = spec.mag.copy()
    off_dc[8, 4] = 0.0
    assert np.abs(off_dc).max() < 1e-12


def test_spectrum_axes_spacing():
    epi = _flat_epi(np.zeros((32, 16)))
    spec = dft2_magnitude(epi)
    assert spec.ws_axis[1] - spec.ws_axis[0] == pytest.approx(2.0 * math.pi / (32 * epi.ds))
    assert spec.wu_axis[1] - spec.wu_axis[0] == pytest.approx(2.0 * math.pi / (16 * epi.du))


def test_rect_window_preserves_energy():
    rng = np.random.default_rng(5)
    epi = _flat_epi(rng.normal(size=(24, 40)))
    spec = dft2_magnitude(epi, window="rect")
    energy = float(np.sum(np.square(spec.mag)))
    assert energy == pytest.approx(float(np.sum(epi.data**2)), rel=1e-12)


def test_unknown_window_rejected():
    with pytest.raises(ValueError):
        dft2_magnitude(_flat_epi(np.zeros((4, 4))), window="hamming")


def test_hann_confines_off_bin_leakage():
    # a half-bin cosine is the worst case for the bare transform
    n = 64
    row = np.cos(2.0 * math.pi * 10.5 * (np.arange(n) / n))
    epi = _flat_epi(np.repeat(row[:, None], n, axis=1))

    def leak(window):
        spec = dft2_magnitude(epi, window=window)
        energy = spec.mag**2
        keep = np.zeros_like(energy, dtype=bool)
        for flat in np.argsort(spec.mag.ravel())[-2:]:
            i, j = divmod(int(flat), n)
            keep[i - 2 : i + 3, j - 2 : j + 3] = True
        return float(energy[~keep].sum() / energy.sum())

    assert leak("hann") < 0.01
    assert leak("rect") > 10.0 * leak("hann")


def test_sparsity_rmse_hand_case():
    spec = SpectrumGrid(np.array([[2.0, 1.0], [1.0, 0.0]]), np.zeros(2), np.zeros(2))
    assert sparsity_rmse(spec, 0.25) == pytest.approx(math.sqrt(0.5), abs=1e-15)
    assert sparsity_rmse(spec, 1.0) == 0.0
    assert sparsity_rmse(spec, 1.0, workspace=Workspace()) == 0.0
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            sparsity_rmse(spec, bad)


def test_sparsity_rmse_leaves_the_workspace_spectrum_as_it_was(scene_b):
    # the partition runs on a copy in t1, even for the workspace's own mag
    workspace = Workspace()
    epi = render_epi(scene_b, PlaneParam(1.0, 1.5, 17.0), 64, 64, workspace=workspace)
    spectrum = dft2_magnitude(epi, workspace=workspace)
    kept = spectrum.mag.copy()
    got = sparsity_rmse(spectrum, 0.01, workspace=workspace)
    assert np.array_equal(spectrum.mag.view(np.uint8), kept.view(np.uint8))
    assert got == 0.02311389010900925
    assert got == sparsity_rmse(replace(spectrum, mag=kept), 0.01)


def test_sparsity_rmse_monotone_in_budget():
    rng = np.random.default_rng(9)
    spec = SpectrumGrid(np.abs(rng.normal(size=(32, 32))), np.zeros(32), np.zeros(32))
    errs = [sparsity_rmse(spec, f) for f in (0.01, 0.05, 0.2, 1.0)]
    assert all(a >= b for a, b in zip(errs, errs[1:]))
    assert errs[-1] == 0.0


def test_sparsity_rmse_zero_when_budget_covers_support():
    mag = np.zeros((10, 10))
    mag[3, 7] = 5.0
    spec = SpectrumGrid(mag, np.zeros(10), np.zeros(10))
    assert sparsity_rmse(spec, 0.01) == 0.0


def test_untilted_plane_fan_is_the_depth_range_fan(scene_a, directional):
    surface = scene_a.surface
    fan = plane_fan(directional, surface)
    assert fan.slope_lo == pytest.approx(A_RANGE[0], abs=1e-12)
    assert fan.slope_hi == pytest.approx(A_RANGE[1], abs=1e-12)

    finite = plane_fan(PlaneParam(1.0, 2.0), surface)
    assert finite.slope_lo == pytest.approx(3.3721233216078104, abs=1e-12)
    assert finite.slope_hi == pytest.approx(13.660759458014104, abs=1e-12)

    at_plane = plane_fan(PlaneParam(1.0, A_RANGE[0]), surface)
    assert math.isinf(at_plane.slope_lo) and math.isfinite(at_plane.slope_hi)


def _preset_layers(scenes, counts):
    """Every slab of each count (scene B, not monotonic, gives one)."""
    for scene in scenes:
        for count in counts if scene.name != "B" else (1,):
            yield from partition_depth_layers(scene.surface, count)


def test_untilted_plane_fan_equals_the_old_parallel_fan_bit_for_bit(scene_a, scene_b, scene_c):
    cases = 0
    for slab in _preset_layers((scene_a, scene_b, scene_c), range(1, 17)):
        harmonic = optimal_depths(*slab.depth_extremes()).plane_depth
        for depth in (harmonic, 0.7, 1.0, 1.37, 2.5, math.inf):
            for plane in (PlaneParam(1.0, depth), PlaneParam(1.3, depth, s_max=0.6)):
                want = oracle.fan_bounds_parallel(plane, *slab.depth_extremes(), 0.5)
                assert plane_fan(plane, slab, 0.5) == want
                cases += 1
    assert cases == 2 * 6 * (1 + 2 * 136)


def test_tilted_plane_fan(scene_c):
    # a planar surface under its own plane collapses onto omega_s = 0
    exact = SurfaceSpec(1.5, 17.0, 0.0, (-0.8, 0.8))
    fan = plane_fan(PlaneParam(1.0, 1.5, 17.0), exact)
    assert math.isinf(fan.slope_lo) and math.isinf(fan.slope_hi)

    (slab,) = partition_depth_layers(scene_c.surface, 1)
    plane_c = PlaneParam(1.0, *fitted_line(slab))
    fan_c = plane_fan(plane_c, scene_c.surface, margin=0.5)
    assert fan_c.slope_lo == pytest.approx(5.5793618930012725, abs=1e-9)
    assert fan_c.slope_hi == pytest.approx(-24.92937009542107, abs=1e-9)
    # the fitted line crosses the surface, so the bounding lines open to
    # opposite sides, in the parallel fan's convention (nearer content first)
    assert fan_c.slope_hi < 0.0 < fan_c.slope_lo
    assert fan_c.margin == 0.5
    # the residual extremes paired with z_min and z_max give a narrower fan
    paired = oracle.fan_bounds_tilted(plane_c, slab)
    assert fan_c.max_spacing(6.0) < paired.max_spacing(6.0)


def _assert_fan_spans_the_grid(plane, surface):
    # 1/slope = f * (g - 1/D) with g = (1 + a*x) / z(x), on a 200,001-point grid
    fan = plane_fan(plane, surface)
    x = np.linspace(*surface.x_range, 200_001)
    g = (1.0 + plane.tilt_slope * plane.inv_depth * x) / surface.depth(x)
    m = plane.focal * (g - plane.inv_depth)
    m_lo = 0.0 if math.isinf(fan.slope_lo) else 1.0 / fan.slope_lo
    m_hi = 0.0 if math.isinf(fan.slope_hi) else 1.0 / fan.slope_hi
    scale = plane.focal * float(np.max(np.abs(g)))
    assert m_hi <= m_lo
    assert float(m.max()) <= m_lo + 1e-12 * scale and float(m.min()) >= m_hi - 1e-12 * scale
    # the grid reaches the closed-form extremes up to its spacing
    assert float(m.max()) >= m_lo - 1e-8 * scale and float(m.min()) <= m_hi + 1e-8 * scale


def test_plane_fan_takes_the_fan_of_the_plane(scene_a, scene_b, scene_c):
    for scene in (scene_a, scene_b, scene_c):
        (slab,) = partition_depth_layers(scene.surface, 1)
        fitted = PlaneParam(1.0, *fitted_line(slab), check=False)
        planes = (fitted, replace(fitted, depth=1.3), replace(fitted, tilt_deg=10.0))
        for plane in (PlaneParam(1.0, math.inf), PlaneParam(1.3, 2.0, s_max=0.6), *planes):
            _assert_fan_spans_the_grid(plane, scene.surface)
            assert plane_fan(plane, scene.surface, 0.5).margin == 0.5


def test_plane_fan_matches_a_dense_grid_on_random_slabs():
    rng = np.random.default_rng(18)
    cases = directional = unchecked = 0
    while cases < 300:
        lo = rng.uniform(-1.0, 0.5)
        try:
            surface = SurfaceSpec(
                rng.uniform(0.5, 3.0),
                rng.uniform(-70.0, 70.0),
                rng.uniform(-1.5, 1.5),
                (lo, lo + rng.uniform(0.05, 1.5)),
            )
        except ValueError:
            continue  # the draw reaches the camera line
        if rng.random() < 0.2:
            plane = PlaneParam(rng.uniform(0.5, 2.0), math.inf)
            directional += 1
        else:
            tilt = rng.uniform(-80.0, 80.0)
            plane = PlaneParam(rng.uniform(0.5, 2.0), rng.uniform(0.3, 4.0), tilt, check=False)
            try:
                plane.validate()
            except ValueError:
                unchecked += 1
        _assert_fan_spans_the_grid(plane, surface)
        cases += 1
    assert directional > 30 and unchecked > 30


def test_family_fans_spacing_and_count(scene_b, scene_c):
    capture = PlaneParam(1.3, math.inf, s_max=0.6, u_max=0.2)
    wu_max = u_nyquist(capture, 64)
    slabs = [
        *partition_depth_layers(scene_b.surface, 1),
        *partition_depth_layers(scene_c.surface, 1),
        *partition_depth_layers(scene_c.surface, 4),
    ]
    for slab in slabs:
        z_min, z_max = slab.depth_extremes()
        parallel = PlaneParam(1.3, optimal_depths(z_min, z_max).plane_depth, 0.0, 0.6, 0.2)
        fitted = PlaneParam(1.3, *fitted_line(slab), 0.6, 0.2, check=False)
        fans = {
            "parallel": (parallel, oracle.fan_bounds_parallel(parallel, z_min, z_max, 0.5)),
            "tilted": (fitted, plane_fan(fitted, slab, 0.5)),
        }
        got = family_fans(slab, capture, wu_max, 0.5)
        assert list(got) == ["parallel", "tilted"]
        for fam, (plane, fan) in fans.items():
            spacing = fan.max_spacing(wu_max)
            assert got[fam] == (plane, spacing, min_image_count(spacing, capture.s_max))


def test_some_tilted_family_planes_of_c_slabs_cross_the_camera_line(scene_c):
    # layers_experiment renders these planes unchecked; ROADMAP items 16 and
    # 17 are to change that on purpose, and this pins the count until then
    capture = PlaneParam()
    wu_max = u_nyquist(capture, 512)
    for layers, n_crossing in ((1, 0), (2, 1), (4, 2), (8, 4), (16, 8)):
        crossing = []
        for slab in partition_depth_layers(scene_c.surface, layers):
            plane, _, _ = family_fans(slab, capture, wu_max)["tilted"]
            if abs(plane.s_crossing) <= capture.s_max:
                crossing.append(plane)
        assert len(crossing) == n_crossing, layers
        for plane in crossing:
            assert -0.963 < plane.s_crossing < -0.803
            assert 58.0 < plane.tilt_deg < 65.2
            with pytest.raises(ValueError, match="reaches the plane/camera-line crossing"):
                plane.validate()


def test_an_exact_plane_layer_keeps_an_unbounded_baseline():
    # degrees(atan(tan(radians(tilt)))) misses this tilt by an ulp, which
    # would leave the fitted plane a gap of about 1e-16 off the surface
    tilt = -79.91
    rounded = math.degrees(math.atan(math.tan(math.radians(tilt))))
    assert rounded != tilt
    surface = SurfaceSpec(1.7, tilt, 0.0, (-0.8, 0.3))
    (slab,) = partition_depth_layers(surface, 1)
    assert fitted_line(slab) == (1.7, tilt)
    capture = PlaneParam(1.0, math.inf)
    wu_max = u_nyquist(capture, 512)
    _, spacing, images = family_fans(slab, capture, wu_max)["tilted"]
    assert (spacing, images) == (math.inf, 2)
    off = PlaneParam(1.0, 1.7, rounded, check=False)
    assert math.isfinite(plane_fan(off, surface).max_spacing(wu_max))


@pytest.mark.parametrize("depth, tilt", [(1.3, 17.0), (1.8, 17.0), (1.2, 5.0)])
def test_one_sided_tilted_planes_keep_the_spectrum_in_their_fan(scene_a, depth, tilt):
    # the whole surface lies on one side of each plane: the same fan on the
    # other side of omega_s = 0 leaves 13-15 % of the energy out
    plane = PlaneParam(1.0, depth, tilt)
    epi = render_epi(scene_a, plane, 512, 512, seed=0)
    spectrum = dft2_magnitude(epi)
    bin_width = 2.0 * math.pi / (512 * epi.ds)
    fan = plane_fan(plane, scene_a.surface, margin=bin_width)
    assert out_of_bound_energy(spectrum, fan) <= 0.05


def test_every_family_plane_keeps_the_spectrum_in_its_fan(scene_a, scene_b, scene_c):
    # the paper's claim on each plane `guidelines` recommends, at one layer:
    # criterion 10's bound with the view bandwidth plus one omega_s bin as
    # the margin. Under C's tilted plane rays near s = -1 meet the surface
    # twice, where the claim's straight EPI lines do not hold: it is refused.
    capture = PlaneParam()
    energies = {}
    for scene in (scene_a, scene_b, scene_c):
        (slab,) = partition_depth_layers(scene.surface, 1)
        for family, (plane, _, _) in family_fans(slab, capture, u_nyquist(capture, 512)).items():
            if (scene.name, family) == ("C", "tilted"):
                with pytest.raises(SelfOcclusionError, match="^10399 of 262144 rays"):
                    render_epi(scene, plane, 512, 512, seed=0)
                continue
            epi = render_epi(scene, plane, 512, 512, seed=0)
            spectrum = dft2_magnitude(epi)
            margin = scene.texture.angular_bandwidth + 2.0 * math.pi / (512 * epi.ds)
            fan = plane_fan(plane, slab, margin)
            energies[scene.name, family] = out_of_bound_energy(spectrum, fan)
    worst = max(energies, key=energies.get)
    print(f"worst out-of-fan energy {100 * energies[worst]:.3f}% ({' '.join(worst)} plane)")
    assert len(energies) == 5
    assert {case: e for case, e in energies.items() if not e <= 0.05} == {}


def test_out_of_bound_energy_hand_case():
    axes = np.array([-6.0, -2.0, 2.0, 6.0])
    spec = SpectrumGrid(np.ones((4, 4)), axes, axes)
    assert out_of_bound_energy(spec, FanBounds(4.0, -4.0)) == pytest.approx(0.5)
    assert out_of_bound_energy(spec, FanBounds(4.0, -4.0, margin=4.0)) == 0.0
    # infinite slopes pin the fan to the omega_s = 0 line
    assert out_of_bound_energy(spec, FanBounds(math.inf, math.inf)) == pytest.approx(0.5)
    assert out_of_bound_energy(spec, FanBounds(math.inf, math.inf, margin=4.0)) == 0.0
    empty = SpectrumGrid(np.zeros((4, 4)), axes, axes)
    assert out_of_bound_energy(empty, FanBounds(1.0, 2.0)) == 0.0


def test_optimal_depths_frozen_and_ordering():
    depths = optimal_depths(*A_RANGE)
    assert depths.plane_depth == pytest.approx(1.4601189335103246, abs=1e-12)
    assert depths.midpoint_depth == pytest.approx(1.5, abs=1e-12)


@given(z_min=st.floats(0.5, 3.0), width=st.floats(0.0, 2.0))
def test_plane_depth_never_exceeds_midpoint(z_min, width):
    depths = optimal_depths(z_min, z_min + width)
    assert depths.plane_depth <= depths.midpoint_depth + 1e-12
    if width == 0.0:
        assert depths.plane_depth == pytest.approx(z_min, abs=1e-12)


def _parallel_spacing(z_min, z_max, focal, wu_max, view_bandwidth=0.0):
    # the depth-range fan under the directional plane, of a surface with
    # z_min at x = 0 and z_max (up to the rounding of their sum) at x = 1
    surface = SurfaceSpec(z_min, 0.0, z_max - z_min, (0.0, 1.0))
    fan = plane_fan(PlaneParam(focal, math.inf), surface, view_bandwidth)
    return fan.max_spacing(wu_max)


def _tilted_spacing(slab, focal, wu_max, view_bandwidth=0.0):
    # the fan of a layer's slab under the slab's own fitted plane
    plane = PlaneParam(focal, *fitted_line(slab), check=False)
    return plane_fan(plane, slab, view_bandwidth).max_spacing(wu_max)


def test_max_camera_spacing_hand_case():
    assert _parallel_spacing(1.0, 2.0, 2.0, 3.0, 0.5) == pytest.approx(0.25)
    assert _parallel_spacing(2.0, 2.0, 1.0, 3.0, 0.0) == math.inf
    with pytest.raises(ValueError):
        _parallel_spacing(1.0, 2.0, 1.0, -1.0)
    with pytest.raises(ValueError):
        FanBounds(1.0, 2.0, margin=-0.5).max_spacing(3.0)


@given(
    z0=st.floats(0.5, 1.0),
    pad_lo=st.floats(0.0, 0.5),
    inner=st.floats(0.01, 1.0),
    pad_hi=st.floats(0.0, 0.5),
    wu=st.floats(0.5, 50.0),
)
def test_wider_depth_ranges_need_tighter_spacing(z0, pad_lo, inner, pad_hi, wu):
    narrow = (z0 + pad_lo, z0 + pad_lo + inner)
    wide = (z0, z0 + pad_lo + inner + pad_hi)
    assert _parallel_spacing(*wide, 1.0, wu) <= _parallel_spacing(*narrow, 1.0, wu) + 1e-12


def test_max_camera_spacing_tilted(scene_a, scene_c):
    exact = SurfaceSpec(1.5, 17.0, 0.0, (-0.8, 0.8))
    (exact_slab,) = partition_depth_layers(exact, 1)
    assert _tilted_spacing(exact_slab, 1.0, 6.0) == math.inf
    # an exact plane leaves only the view-dependence term
    assert _tilted_spacing(exact_slab, 1.0, 6.0, view_bandwidth=0.5) == pytest.approx(1.0)
    # scene A's fit is its own plane too
    (fitted,) = partition_depth_layers(scene_a.surface, 1)
    assert _tilted_spacing(fitted, 1.0, 6.0) > 1e6

    (slab,) = partition_depth_layers(scene_c.surface, 1)
    tilted = _tilted_spacing(slab, 1.0, 6.0)
    parallel = _parallel_spacing(*scene_c.surface.depth_extremes(), 1.0, 6.0)
    assert tilted == pytest.approx(0.7598369847016291, abs=1e-12)
    assert parallel == pytest.approx(0.16885912926099123, abs=1e-12)
    # aligning the plane with the scene always buys baseline for scene C
    assert tilted > parallel


def test_max_spacing_matches_the_old_spacing_formulas(scene_a, scene_b, scene_c, monkeypatch):
    # the fan's spacing against the two functions it replaced, under the
    # recommended and the directional parallel plane and the fitted plane
    # (whose old paired-extremes fan is the oracle's). The oracle refits a
    # slab per case; fitted_line is pure and a slab is hashable, so cache it.
    monkeypatch.setattr(oracle, "fitted_line", functools.cache(fitted_line))
    n_us = (33, 64, 128, 256, 512, 1024)
    wus = [u_nyquist(PlaneParam(), n_u) for n_u in n_us]
    cases = worst = exact_cases = 0
    for slab in _preset_layers((scene_a, scene_b, scene_c), range(1, 33)):
        dr = slab.depth_extremes()
        for focal in (0.5, 1.0, 1.3, 2.0):
            parallel = [
                PlaneParam(focal, optimal_depths(*dr).plane_depth, 0.0),
                PlaneParam(focal, math.inf),
            ]
            fitted = PlaneParam(focal, *fitted_line(slab), check=False)
            for bandwidth in (0.0, 1.0, 5.0):
                pairs = [
                    (plane_fan(p, slab, bandwidth), oracle.max_camera_spacing, dr)
                    for p in parallel
                ]
                paired = oracle.fan_bounds_tilted(fitted, slab, bandwidth)
                pairs.append((paired, oracle.max_camera_spacing_tilted, (slab,)))
                if oracle.residual_range(slab) == (0.0, 0.0):
                    # an exact plane layer leaves exactly the bandwidth term
                    exact_cases += 1
                    want = math.inf if bandwidth == 0.0 else 0.5 / bandwidth
                    tilted = plane_fan(fitted, slab, bandwidth)
                    assert all(tilted.max_spacing(wu) == want for wu in wus)
                for fan, old, args in pairs:
                    for wu in wus:
                        got, want = fan.max_spacing(wu), old(*args, focal, wu, bandwidth)
                        cases += 1
                        assert min_image_count(got, 1.0) == min_image_count(want, 1.0)
                        if math.isinf(want):
                            assert got == want
                        else:
                            worst = max(worst, abs(got - want) / want)
    # 1057 layers x 4 focals x 3 bandwidths x 6 grids, under each of the three planes
    assert cases == 3 * 76_104
    assert worst <= 1e-13
    assert exact_cases == 528 * 4 * 3  # scene A is planar: every layer is exact


def test_min_image_count():
    assert min_image_count(math.inf, 1.0) == 2
    assert min_image_count(0.5, 1.0) == 5
    assert min_image_count(1e9, 1.0) == 2
    with pytest.raises(ValueError):
        min_image_count(0.0, 1.0)
    with pytest.raises(ValueError):
        min_image_count(-0.5, 1.0)


def test_chirp_frozen_example():
    p = PlaneParam(1.0, 1.6, 40.0)
    chirp = camera_axis_chirp(p, 0.3, 1.2, 60.0)
    assert chirp.base_frequency == pytest.approx(4.633440957713005, abs=1e-12)
    assert chirp.rate == pytest.approx(6.555465868572501, abs=1e-12)
    assert chirp.crossing_frequency == pytest.approx(-20.366559042287005, abs=1e-12)
    assert chirp.frequency_at(0.0) == chirp.base_frequency


def test_chirp_crossing_frequency_is_the_projection_slope():
    # criterion 11's cases, each on a flat surface through (x, z):
    # crossing_frequency is wu * du/ds at s = 0 under the map the render
    # inverts, to the central difference's error (worst 5.0e-9). No assert
    # on base_frequency: its t * x term has the opposite sign (ROADMAP item 10)
    rng = np.random.default_rng(11)
    h = 1e-6
    for _ in range(2000):
        depth = rng.uniform(0.5, 3.0)
        tilt = rng.uniform(2.0, 60.0) * (1.0 if rng.random() < 0.5 else -1.0)
        s_cross = depth / abs(math.tan(math.radians(tilt)))
        param = PlaneParam(rng.uniform(0.5, 2.0), depth, tilt, s_max=min(1.0, 0.5 * s_cross))
        x, z, wu = rng.uniform(-1.0, 1.0), rng.uniform(0.3, 3.0), rng.uniform(1.0, 100.0)
        chirp = camera_axis_chirp(param, x, z, wu)
        flat = SurfaceSpec(z, 0.0, 0.0, (x - 1.0, x + 1.0))
        u_plus, u_minus = (map_surface_to_image(param, flat, x, s) for s in (h, -h))
        want = wu * (u_plus - u_minus) / (2.0 * h)
        assert abs(chirp.crossing_frequency - want) <= 1e-7 * max(1.0, abs(want))


def test_chirp_vanishes_on_the_plane_axis_point():
    chirp = camera_axis_chirp(PlaneParam(1.0, 1.6, 40.0), 0.0, 1.6, 60.0)
    assert chirp.base_frequency == 0.0
    assert chirp.rate == 0.0
    assert chirp.crossing_frequency == 0.0


@given(
    depth=st.floats(1.2, 3.0),
    tilt=st.floats(5.0, 30.0),
    x=st.floats(-0.8, 0.8),
    z=st.floats(0.5, 3.0),
    wu=st.floats(1.0, 80.0),
)
def test_chirp_reaches_crossing_frequency_at_crossing(depth, tilt, x, z, wu):
    p = PlaneParam(1.0, depth, tilt)
    chirp = camera_axis_chirp(p, x, z, wu)
    at_crossing = float(chirp.frequency_at(p.s_crossing))
    scale = max(1.0, abs(chirp.crossing_frequency))
    assert at_crossing == pytest.approx(chirp.crossing_frequency, abs=1e-9 * scale)


def test_chirp_preconditions(directional):
    with pytest.raises(ValueError):
        camera_axis_chirp(directional, 0.0, 1.5, 60.0)
    with pytest.raises(ValueError):
        camera_axis_chirp(PlaneParam(1.0, 1.6), 0.0, 1.5, 60.0)
    with pytest.raises(ValueError):
        camera_axis_chirp(PlaneParam(1.0, 1.6, 40.0), 0.0, -1.5, 60.0)


def test_rendered_scene_energy_sits_inside_predicted_fan(scene_a, directional):
    # end to end: spectrum of a real capture against its depth-range fan
    epi = render_epi(scene_a, directional, 128, 128)
    spec = dft2_magnitude(epi)
    fan = plane_fan(directional, scene_a.surface, margin=float(spec.ws_axis[1] - spec.ws_axis[0]))
    # measured 4.95% at this grid; windowing skirts land just under 6%
    assert out_of_bound_energy(spec, fan) < 0.06
