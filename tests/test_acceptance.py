"""Acceptance suite: one test per criterion, one verdict line per test.

Each test appends a CRITERION line to the session report (printed after
the pytest summary) before asserting, so the verdict table survives a
red run. The sweep-based criteria share module fixtures; everything
runs from seed 0 and the grids stated in the criteria.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from epifield.experiments import (
    layers_experiment,
    sweep_plane_mae,
    sweep_reconstruction,
    sweep_sparsity,
)
from epifield.mapping import (
    PlaneParam,
    SelfOcclusionError,
    check_no_self_occlusion,
    intersect_rays,
    map_surface_to_image,
    u_infinity,
)
from epifield.render import psnr, reconstruct_epi, render_epi, subsample_epi
from epifield.scene import SurfaceSpec
from epifield.spectral import (
    camera_axis_chirp,
    dft2_magnitude,
    optimal_depths,
    out_of_bound_energy,
    plane_fan,
)

D_VALUES = np.linspace(1.0, 2.0, 20)
TILT_VALUES = np.linspace(0.0, 34.0, 20)
THREADS = 8

# the preset geometries were designed to land on these depth extremes
REFERENCE_RANGES = {
    "A": (1.2554, 1.7446),
    "B": (0.9994, 1.5584),
    "C": (0.6541, 1.8459),
}


def _cheb(a: tuple[int, int], b: tuple[int, int]) -> int:
    return max(abs(a[0] - b[0]), abs(a[1] - b[1]))


@pytest.fixture(scope="module")
def sparsity_a(scene_a):
    return sweep_sparsity(scene_a, D_VALUES, TILT_VALUES, seed=0, threads=THREADS)


@pytest.fixture(scope="module")
def sparsity_b(scene_b):
    return sweep_sparsity(scene_b, D_VALUES, TILT_VALUES, seed=0, threads=THREADS)


def test_criterion_01_preset_depth_ranges(criterion_report, scene_a, scene_b, scene_c):
    worst = 0.0
    for scene in (scene_a, scene_b, scene_c):
        got = scene.surface.depth_extremes()
        want = REFERENCE_RANGES[scene.name]
        worst = max(worst, abs(got[0] - want[0]), abs(got[1] - want[1]))
    ok = worst <= 5e-4
    criterion_report.append(
        f"CRITERION 01 {'PASS' if ok else 'FAIL'}  scene depth ranges within 5e-4 "
        f"of reference (worst dev {worst:.2e})"
    )
    assert ok


def test_criterion_02_optimal_placements(criterion_report, scene_a):
    opt = optimal_depths(*scene_a.surface.depth_extremes())
    zg_err = abs(opt.midpoint_depth - 1.5)
    dopt_err = abs(opt.plane_depth - 1.4601)
    fan = plane_fan(PlaneParam(1.0, opt.plane_depth, 0.0), scene_a.surface)
    symmetric = math.isclose(fan.slope_lo, -fan.slope_hi, rel_tol=1e-12)
    ok = zg_err <= 1e-9 and dopt_err <= 1e-3 and symmetric
    criterion_report.append(
        f"CRITERION 02 {'PASS' if ok else 'FAIL'}  z_G err {zg_err:.1e}, "
        f"D_opt err {dopt_err:.1e}, fan slopes {fan.slope_lo:.6f}/{fan.slope_hi:.6f} "
        f"sign-symmetric={symmetric}"
    )
    assert zg_err <= 1e-9
    assert dopt_err <= 1e-3
    assert symmetric


def test_criterion_03_parallel_plane_reductions(criterion_report):
    rng = np.random.default_rng(3)
    t0 = time.perf_counter()
    worst = 0.0

    def track(got, want):
        nonlocal worst
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
        worst = max(worst, float(err.max()))

    # (i) tilted surface->image map collapses to the thin-lens shear at zero tilt
    for _ in range(20):
        surface = SurfaceSpec(
            rng.uniform(1.0, 3.0),
            rng.uniform(-30.0, 30.0),
            rng.uniform(-0.3, 0.3),
            (-0.8, 0.8),
        )
        param = PlaneParam(rng.uniform(0.5, 2.0), rng.uniform(0.8, 4.0), 0.0)
        x = rng.uniform(-0.8, 0.8, 500)
        s = rng.uniform(-1.0, 1.0, 500)
        z = surface.depth(x)
        want = x * param.focal / z + s * param.focal * (1.0 / param.depth - 1.0 / z)
        track(map_surface_to_image(param, surface, x, s), want)

    # (ii) the directional re-map loses its tilt correction at zero tilt
    for _ in range(20):
        param = PlaneParam(rng.uniform(0.5, 2.0), rng.uniform(0.8, 4.0), 0.0)
        s = rng.uniform(-1.0, 1.0, 500)
        u = rng.uniform(-0.2679, 0.2679, 500)
        track(u_infinity(param, s, u), u - s * param.focal / param.depth)

    # (iii) spacing with zero view bandwidth is the pure depth-extent bound
    for _ in range(10_000):
        z_min = rng.uniform(0.5, 2.0)
        z_max = z_min + rng.uniform(0.05, 2.0)
        focal = rng.uniform(0.5, 2.0)
        wu = rng.uniform(1.0, 500.0)
        # depth z_min at x = 0 and z_max at x = 1: the sum rounds back to z_max here
        surface = SurfaceSpec(z_min, 0.0, z_max - z_min, (0.0, 1.0))
        fan = plane_fan(PlaneParam(focal, math.inf), surface)
        track(fan.max_spacing(wu), 1.0 / (focal * (1.0 / z_min - 1.0 / z_max) * wu))

    # (iv) a planar surface under its own plane leaves only the view-bandwidth term
    for _ in range(10_000):
        z0 = rng.uniform(1.0, 3.0)
        tilt = rng.uniform(-40.0, 40.0)
        lo = rng.uniform(-1.0, -0.1)
        hi = rng.uniform(0.1, 1.0)
        ends = sorted(z0 + math.tan(math.radians(tilt)) * np.array([lo, hi]))
        if ends[0] <= 0.0:
            continue
        surface = SurfaceSpec(z0, tilt, 0.0, (lo, hi))
        bandwidth = rng.uniform(0.1, 20.0)
        plane = PlaneParam(rng.uniform(0.5, 2.0), z0, tilt, check=False)
        fan = plane_fan(plane, surface, bandwidth)
        track(fan.max_spacing(rng.uniform(1.0, 500.0)), 0.5 / bandwidth)

    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12
    criterion_report.append(
        f"CRITERION 03 {'PASS' if ok else 'FAIL'}  four reductions, worst rel dev "
        f"{worst:.2e} (tol 1e-12, {elapsed:.2f} s)"
    )
    assert ok


def test_criterion_04_ray_mapping_round_trip(criterion_report, scene_a, scene_b):
    rng = np.random.default_rng(4)
    worst = 0.0
    for scene in (scene_a, scene_b):
        params = []
        attempts = 0
        while len(params) < 5 and attempts < 200:
            attempts += 1
            depth = math.inf if rng.random() < 0.25 else rng.uniform(1.2, 4.0)
            tilt = 0.0 if math.isinf(depth) else rng.uniform(-20.0, 20.0)
            param = PlaneParam(rng.uniform(0.8, 1.25), depth, tilt)
            try:
                check_no_self_occlusion(scene.surface, param)
            except SelfOcclusionError:
                continue
            params.append(param)
        assert len(params) == 5, "could not draw five valid parameterizations"
        lo, hi = scene.surface.x_range
        pad = 0.01 * (hi - lo)
        x = rng.uniform(lo + pad, hi - pad, (100, 100))
        for param in params:
            s = rng.uniform(-param.s_max, param.s_max, (100, 100))
            u = map_surface_to_image(param, scene.surface, x, s)
            x_back, hit = intersect_rays(param, scene.surface, s, u)
            assert bool(hit.all()), "mapped ray missed its own surface point"
            worst = max(worst, float(np.abs(x_back - x).max()))
    ok = worst <= 1e-9
    criterion_report.append(
        f"CRITERION 04 {'PASS' if ok else 'FAIL'}  round-trip on 10^4 rays x 5 params "
        f"x 2 scenes, worst |dx| {worst:.2e} (tol 1e-9)"
    )
    assert ok


def test_criterion_05_matched_tilt_degeneracy(criterion_report, scene_a):
    param = PlaneParam(1.0, 1.5, 17.0)
    epi = render_epi(scene_a, param, 256, 256, seed=0)
    column_var = float(epi.data.var(axis=0).max())
    rec = reconstruct_epi(subsample_epi(epi, 64), 256)
    rmse = float(np.sqrt(np.mean(np.square(rec.data - epi.data))))
    ok = column_var <= 1e-18 and rmse <= 1e-6
    criterion_report.append(
        f"CRITERION 05 {'PASS' if ok else 'FAIL'}  matched plane: max column var "
        f"{column_var:.2e} (tol 1e-18), factor-64 rmse {rmse:.2e} (tol 1e-6)"
    )
    assert column_var <= 1e-18
    assert rmse <= 1e-6


def test_criterion_06_sparsity_matches_geometry(
    criterion_report, scene_a, scene_b, sparsity_a, sparsity_b
):
    t0 = time.perf_counter()
    pieces = []
    worst = 0
    for scene, sweep in ((scene_a, sparsity_a), (scene_b, sparsity_b)):
        mae = sweep_plane_mae(scene.surface, D_VALUES, TILT_VALUES)
        sp_idx = sweep.argopt
        mae_idx = mae.argopt
        dist = _cheb(sp_idx, mae_idx)
        worst = max(worst, dist)
        pieces.append(f"{scene.name}: sparsity {sp_idx} vs plane_mae {mae_idx} d={dist}")
    elapsed = time.perf_counter() - t0
    ok = worst <= 1
    criterion_report.append(
        f"CRITERION 06 {'PASS' if ok else 'FAIL'}  {'; '.join(pieces)} "
        f"(tol: one cell, {elapsed:.0f} s after shared sweeps)"
    )
    assert ok, pieces


def test_criterion_07_argmin_robustness(
    criterion_report, scene_a, scene_b, sparsity_a, sparsity_b
):
    t0 = time.perf_counter()
    perturbations = (
        [("view_bw", b) for b in (1.0, 5.0, 10.0)]
        + [("sigma", s) for s in (0.025, 0.05, 0.1, 0.25)]
        + [("factor", f) for f in (2, 8, 64)]
    )
    drifts = []
    total = 0
    for scene, base_sweep in ((scene_a, sparsity_a), (scene_b, sparsity_b)):
        base = base_sweep.argopt
        for kind, value in perturbations:
            total += 1
            texture = scene.texture
            factor = 1
            if kind == "view_bw":
                texture = replace(scene.texture, angular_bandwidth=value)
            elif kind == "sigma":
                texture = replace(scene.texture, noise_sigma=value)
            else:
                factor = int(value)
            sweep = sweep_sparsity(
                replace(scene, texture=texture),
                D_VALUES,
                TILT_VALUES,
                subsample_factor=factor,
                seed=0,
                threads=THREADS,
            )
            idx = sweep.argopt
            dist = _cheb(idx, base)
            if dist > 1:
                drifts.append(f"{scene.name} {kind}={value} -> {idx} d={dist}")
    elapsed = time.perf_counter() - t0
    ok = not drifts
    held = total - len(drifts)
    detail = "all stable" if ok else "; ".join(drifts)
    criterion_report.append(
        f"CRITERION 07 {'PASS' if ok else 'FAIL'}  {held}/{total} argmins within one "
        f"cell of baseline; {detail} ({elapsed:.0f} s)"
    )
    assert ok, drifts


def test_criterion_08_reconstruction_sweep(criterion_report, scene_a):
    t0 = time.perf_counter()
    sweep = sweep_reconstruction(
        scene_a, D_VALUES, TILT_VALUES, factor=64, seed=0, threads=THREADS
    )
    i, j = sweep.argopt
    cell_d = abs(float(D_VALUES[i]) - 1.5) / (D_VALUES[1] - D_VALUES[0])
    cell_t = abs(float(TILT_VALUES[j]) - 17.0) / (TILT_VALUES[1] - TILT_VALUES[0])
    near = cell_d <= 1.5 + 1e-9 and cell_t <= 1.5 + 1e-9

    # matched-cell PSNR, evaluated at the exact matched parameterization
    epi = render_epi(scene_a, PlaneParam(1.0, 1.5, 17.0), 256, 256, seed=0)
    rec = reconstruct_epi(subsample_epi(epi, 64), 256)
    matched = psnr(epi.data, rec.data)
    best_parallel = float(np.nanmax(sweep.metric[:, 0]))
    margin = matched - best_parallel
    elapsed = time.perf_counter() - t0
    ok = near and margin >= 10.0
    criterion_report.append(
        f"CRITERION 08 {'PASS' if ok else 'FAIL'}  psnr argmax (D={D_VALUES[i]:.4f}, "
        f"tilt={TILT_VALUES[j]:.2f}) within one cell of (1.5, 17)={near}; matched "
        f"{matched:.1f} dB vs best zero-tilt {best_parallel:.1f} dB, margin "
        f"{margin:.1f} >= 10 ({elapsed:.0f} s)"
    )
    assert near
    assert margin >= 10.0


def test_criterion_09_layered_capture(criterion_report, scene_c):
    t0 = time.perf_counter()
    result = layers_experiment(
        scene_c,
        (1, 2, 4, 8, 16),
        (2, 4, 8, 16, 32, 64, 128, 256),
        n_s=512,
        n_u=512,
        seed=0,
    )
    rmse, images = result.rmse, result.images
    rmse_ok = bool(np.all(rmse["tilted"] <= rmse["parallel"]))
    counts_ok = bool(
        np.all(np.asarray(images["tilted"]) <= np.asarray(images["parallel"]))
    ) and images["tilted"][0] < images["parallel"][0]
    worst_gap = float(np.max(rmse["tilted"] - rmse["parallel"]))
    elapsed = time.perf_counter() - t0
    ok = rmse_ok and counts_ok
    criterion_report.append(
        f"CRITERION 09 {'PASS' if ok else 'FAIL'}  rmse_tilted <= rmse_parallel at all "
        f"{rmse['tilted'].size} grid points (max gap {worst_gap:.2e}); images "
        f"{list(images['tilted'])} vs {list(images['parallel'])} ({elapsed:.0f} s)"
    )
    assert rmse_ok
    assert counts_ok


def test_criterion_10_spectral_containment(criterion_report, scene_a, directional):
    epi = render_epi(scene_a, directional, 512, 512, seed=0)
    spectrum = dft2_magnitude(epi)
    bin_width = 2.0 * math.pi / (512 * epi.ds)
    bounds = plane_fan(directional, scene_a.surface, margin=bin_width)
    energy = out_of_bound_energy(spectrum, bounds)
    ok = energy <= 0.05
    criterion_report.append(
        f"CRITERION 10 {'PASS' if ok else 'FAIL'}  out-of-fan energy {100 * energy:.3f}% "
        f"<= 5% with one-bin margin {bin_width:.4f}"
    )
    assert ok


def test_criterion_11_chirp_identities(criterion_report):
    rng = np.random.default_rng(11)
    tol = 1e-12
    worst_crossing = 0.0
    worst_negation = 0.0
    negation_failures = 0
    n = 100_000
    t0 = time.perf_counter()
    for _ in range(n):
        depth = rng.uniform(0.5, 3.0)
        tilt = rng.uniform(2.0, 60.0) * (1.0 if rng.random() < 0.5 else -1.0)
        s_cross = depth / abs(math.tan(math.radians(tilt)))
        param = PlaneParam(
            rng.uniform(0.5, 2.0), depth, tilt, s_max=min(1.0, 0.5 * s_cross)
        )
        chirp = camera_axis_chirp(
            param, rng.uniform(-1.0, 1.0), rng.uniform(0.3, 3.0), rng.uniform(1.0, 100.0)
        )
        at_crossing = chirp.frequency_at(param.s_crossing)
        scale = max(
            1.0,
            abs(chirp.base_frequency),
            abs(at_crossing),
            abs(chirp.crossing_frequency),
        )
        worst_crossing = max(
            worst_crossing, abs(at_crossing - chirp.crossing_frequency) / scale
        )
        negation_err = abs(chirp.crossing_frequency + chirp.base_frequency) / scale
        worst_negation = max(worst_negation, negation_err)
        if negation_err > tol:
            negation_failures += 1
    elapsed = time.perf_counter() - t0
    crossing_ok = worst_crossing <= tol
    negation_ok = worst_negation <= tol
    ok = crossing_ok and negation_ok
    criterion_report.append(
        f"CRITERION 11 {'PASS' if ok else 'FAIL'}  frequency at the crossing point "
        f"equals the bandwidth bound (worst {worst_crossing:.2e}); bound equals "
        f"negated base frequency fails for off-axis points "
        f"({negation_failures}/{n} violations, worst {worst_negation:.2e}; "
        f"the two differ by twice the tilt-weighted x term) ({elapsed:.1f} s)"
    )
    assert crossing_ok
    assert negation_ok
