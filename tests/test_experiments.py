import math
import re
import sys
import threading
import time
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from epifield import experiments, mapping, render
from epifield.config import load_preset
from epifield.experiments import (
    LayersResult,
    SweepResult,
    layers_experiment,
    plane_mae,
    sweep_plane_mae,
    sweep_reconstruction,
    sweep_sparsity,
)
from epifield.mapping import PlaneParam
from epifield.render import render_epi
from epifield.scene import SceneDef, TextureSpec
from epifield.spectral import dft2_magnitude, family_fans, sparsity_rmse, u_nyquist
from epifield.workspace import _BLOCK_ITEMS, Workspace


def _result(metric, kind):
    metric = np.asarray(metric, dtype=float)
    return SweepResult(
        np.arange(metric.shape[0], dtype=float),
        np.arange(metric.shape[1], dtype=float),
        metric,
        kind,
    )


def test_argopt_minimizes_error_metrics():
    res = _result([[math.nan, 3.0], [2.0, 2.0]], "sparsity_rmse")
    assert res.argopt == (1, 0)  # tie resolves lexicographically
    assert res.opt_cell_values() == (1.0, 0.0)


def test_argopt_maximizes_psnr():
    res = _result([[math.nan, 3.0], [2.0, 3.0]], "psnr")
    assert res.argopt == (0, 1)


def test_argopt_on_all_missing_grid_raises():
    res = _result([[math.nan]], "sparsity_rmse")
    with pytest.raises(ValueError):
        res.argopt


def test_plane_mae(scene_a, scene_b):
    assert plane_mae(scene_a.surface, 1.5, 17.0) == 0.0
    assert plane_mae(scene_b.surface, 1.5, 0.0) == pytest.approx(
        0.12267353169014711, abs=1e-15
    )


def test_sweep_plane_mae_finds_the_matched_plane(scene_a):
    res = sweep_plane_mae(scene_a.surface, [1.3, 1.5, 1.7], [0.0, 17.0, 30.0])
    assert res.argopt == (1, 1)
    assert res.metric[1, 1] <= 1e-12
    assert res.metric.shape == (3, 3)
    assert not res.missing


def test_sweep_plane_mae_misses_the_render_sweeps_cells(scene_c):
    # at depth 1.0 a 50 degree plane meets the camera line inside s_max = 1
    grid = ([1.0, 1.5], [0.0, 50.0])
    geometry = sweep_plane_mae(scene_c.surface, *grid)
    assert [cell[:2] for cell in geometry.missing] == [(0, 1)]
    assert "crossing at s = -0.8391" in geometry.missing[0][2]
    # the render sweep also misses the cells where rays meet C twice; the
    # plane fit, which renders nothing, keeps their values
    occluded = [
        (0, 0, "1 of 256 rays meet the surface twice"),
        (1, 0, "4 of 256 rays meet the surface twice"),
        (1, 1, "12 of 256 rays meet the surface twice"),
    ]
    rendered = sweep_sparsity(scene_c, *grid, n_s=16, n_u=16)
    assert rendered.missing == sorted(geometry.missing + occluded)
    assert np.isnan(geometry.metric[0, 1])
    assert np.isfinite(geometry.metric).sum() == 3
    # the plane's camera range decides, as in the render sweeps
    short = PlaneParam(1.0, math.inf, s_max=0.5)
    assert not sweep_plane_mae(scene_c.surface, *grid, plane=short).missing


def test_sweep_sparsity_matches_direct_pipeline(scene_a):
    res = sweep_sparsity(scene_a, [1.4], [10.0], n_s=32, n_u=32, seed=3)
    epi = render_epi(scene_a, PlaneParam(1.0, 1.4, 10.0), 32, 32, seed=3)
    want = sparsity_rmse(dft2_magnitude(epi, "rect"), 0.01)
    assert res.metric[0, 0] == want


@pytest.mark.parametrize("sweep", [sweep_sparsity, sweep_reconstruction])
def test_occluded_cells_are_missing_in_cell_order(scene_c, monkeypatch, sweep):
    # (0, 2) is an invalid plane, listed before any cell renders; every
    # other cell but (0, 1) has a ray that meets C twice
    grid = ([1.0, 1.5, 2.0], [0.0, 10.0, 50.0])
    kwargs = dict(n_s=16, n_u=16, **({"factor": 4} if sweep is sweep_reconstruction else {}))
    sizes = _record_pool_sizes(monkeypatch, cores=2)
    one = sweep(scene_c, *grid, threads=1, **kwargs)
    two = sweep(scene_c, *grid, threads=2, **kwargs)
    assert sizes == [2]
    assert one.missing == two.missing
    cells = [(0, 0), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1), (2, 2)]
    assert [cell[:2] for cell in one.missing] == cells
    for i, j, reason in one.missing:
        assert (i, j) == (0, 2) or reason.endswith(" of 256 rays meet the surface twice")
    assert np.array_equal(one.metric, two.metric, equal_nan=True)
    assert np.isfinite(one.metric).sum() == 1


def test_sweep_sparsity_thread_count_is_invisible(scene_b):
    kwargs = dict(n_s=32, n_u=32, seed=1)
    one = sweep_sparsity(scene_b, [1.2, 1.5, 2.0], [0.0, 10.0, 20.0], threads=1, **kwargs)
    four = sweep_sparsity(scene_b, [1.2, 1.5, 2.0], [0.0, 10.0, 20.0], threads=4, **kwargs)
    assert np.array_equal(one.metric, four.metric, equal_nan=True)
    assert one.missing == four.missing


def test_sweep_sparsity_records_invalid_cells(scene_a):
    res = sweep_sparsity(scene_a, [-1.0, 1.5], [0.0], n_s=16, n_u=16)
    assert math.isnan(res.metric[0, 0])
    assert len(res.missing) == 1 and res.missing[0][:2] == (0, 0)
    assert math.isfinite(res.metric[1, 0])


def test_sweep_sparsity_records_a_nan_tilt_as_missing(scene_a):
    # a NaN tilt that passed validation would render an all-zero EPI, the
    # best possible sparsity score
    res = sweep_sparsity(scene_a, [1.5], [math.nan, 10.0], n_s=16, n_u=16)
    assert [cell[:2] for cell in res.missing] == [(0, 0)]
    assert "plane tilt must satisfy" in res.missing[0][2]
    assert math.isnan(res.metric[0, 0])
    assert res.argopt == (0, 1)


def test_sweep_sparsity_prefers_the_matched_depth(flat_scene):
    res = sweep_sparsity(flat_scene, [1.0, 1.5, 2.5], [0.0], n_s=32, n_u=32)
    assert res.argopt == (1, 0)


def test_sweep_sparsity_texture_override(scene_a):
    # a texture is swapped on the scene itself; the sweep renders the one it holds
    swapped = replace(scene_a, texture=TextureSpec(noise_sigma=0.1))
    got = sweep_sparsity(swapped, [1.5], [0.0], n_s=16, n_u=16, seed=2)
    epi = render_epi(swapped, PlaneParam(1.0, 1.5), 16, 16, seed=2)
    assert got.metric[0, 0] == sparsity_rmse(dft2_magnitude(epi, "rect"), 0.01)
    clean = sweep_sparsity(scene_a, [1.5], [0.0], n_s=16, n_u=16, seed=2)
    assert got.metric[0, 0] != clean.metric[0, 0]


def test_sweep_sparsity_rejects_bad_subsample(scene_a):
    with pytest.raises(ValueError):
        sweep_sparsity(scene_a, [1.5], [0.0], n_s=32, n_u=16, subsample_factor=3)
    for factor in (0, -4):
        with pytest.raises(ValueError, match="subsample_factor must be >= 1"):
            sweep_sparsity(scene_a, [1.5], [0.0], n_s=32, n_u=16, subsample_factor=factor)
    with pytest.raises(ValueError, match="subsample_factor 32 must split n_s=32 into 2"):
        sweep_sparsity(scene_a, [1.5], [0.0], n_s=32, n_u=16, subsample_factor=32)


def test_sweep_reconstruction(flat_scene):
    with pytest.raises(ValueError):
        sweep_reconstruction(flat_scene, [1.5], [0.0], factor=3, n_s=32, n_u=16)
    # rows of a matched-plane capture agree to rounding error, so any
    # subsampling reconstructs the EPI essentially exactly (300+ dB)
    res = sweep_reconstruction(flat_scene, [2.0, 1.5], [0.0], factor=4, n_s=32, n_u=32)
    assert res.metric_kind == "psnr"
    assert res.metric[1, 0] > 300.0
    assert res.metric[0, 0] < 100.0
    assert res.argopt == (1, 0)


def test_layers_flat_scene_families_coincide(flat_scene):
    res = layers_experiment(flat_scene, (1,), (1, 2, 4), n_s=64, n_u=64)
    assert isinstance(res, LayersResult)
    parallel, tilted = res.rmse["parallel"], res.rmse["tilted"]
    assert parallel.shape == (1, 3)
    # the dense capture reconstructs itself
    assert parallel[0, 0] == 0.0 and tilted[0, 0] == 0.0
    # a flat scene gives both families the same plane (up to fit rounding);
    # subsampled errors stay nonzero because edge trajectories leave the window
    assert (parallel[0, 1:] > 0.0).all()
    assert np.allclose(parallel, tilted, rtol=0.0, atol=1e-12)
    assert res.images["parallel"] == (2,) and res.images["tilted"] == (2,)


def test_layers_curved_scene_prefers_tilted_planes(scene_c):
    res = layers_experiment(scene_c, (1, 2, 4), (2, 4), n_s=128, n_u=128)
    assert res.rmse["parallel"].shape == (3, 2)
    assert (res.rmse["tilted"] <= res.rmse["parallel"]).all()
    par, til = res.images["parallel"], res.images["tilted"]
    assert til[0] < par[0]
    assert all(a >= b for a, b in zip(par, par[1:]))
    assert all(a >= b for a, b in zip(til, til[1:]))


def test_layers_results_are_keyed_by_family_fans(scene_c):
    res = layers_experiment(scene_c, (1, 2), (2, 4), n_s=32, n_u=16)
    plane = PlaneParam(1.0, math.inf)
    margin = scene_c.texture.angular_bandwidth
    families = family_fans(scene_c.surface, plane, u_nyquist(plane, 16), margin)
    assert list(res.rmse) == list(res.images) == list(families)
    for fam, (_, _, n_images) in families.items():
        assert res.rmse[fam].shape == (2, 2)
        assert res.images[fam][0] == n_images  # one layer is the whole surface


def test_layers_traces_the_dense_capture_once(scene_c, monkeypatch):
    calls = []
    real = mapping.intersect_rays

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    for module in (mapping, render, experiments):
        if hasattr(module, "intersect_rays"):
            monkeypatch.setattr(module, "intersect_rays", counting)
    res = layers_experiment(scene_c, (1, 2), (2, 4), n_s=32, n_u=16)
    assert len(calls) == 1
    assert res.rmse["tilted"].shape == (2, 2)


def test_layers_rejects_bad_factor(flat_scene):
    with pytest.raises(ValueError):
        layers_experiment(flat_scene, (1,), (0,), n_s=16, n_u=16)


def _record_pool_sizes(monkeypatch, cores):
    """Workers of each sweep that starts a thread, in call order.

    A pooled sweep's workers are the threads it starts plus the caller's.
    """
    sizes = []
    real_sweep = experiments._sweep

    class Recording(threading.Thread):
        def start(self):
            sizes[-1] += 1
            super().start()

    def sweep(*args, **kwargs):
        sizes.append(0)
        try:
            return real_sweep(*args, **kwargs)
        finally:
            if sizes[-1]:
                sizes[-1] += 1
            else:
                sizes.pop()

    monkeypatch.setattr(experiments, "_sweep", sweep)
    monkeypatch.setattr(experiments, "Thread", Recording)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cores)
    return sizes


def test_sweep_pool_is_capped_at_the_cell_count(scene_a, monkeypatch):
    sizes = _record_pool_sizes(monkeypatch, cores=64)
    res = sweep_sparsity(scene_a, [1.4, 1.6], [0.0, 10.0], n_s=16, n_u=16, threads=64)
    assert sizes == [4]
    assert not np.isnan(res.metric).any()


@pytest.mark.parametrize("cores, pools", [(3, [3]), (1, []), (None, [])])
def test_sweep_pool_is_capped_at_the_core_count(scene_a, monkeypatch, cores, pools):
    # one worker (os.cpu_count() unknown counts as one core) runs serially
    sizes = _record_pool_sizes(monkeypatch, cores)
    res = sweep_sparsity(scene_a, [1.4, 1.6], [0.0, 10.0], n_s=16, n_u=16, threads=8)
    assert sizes == pools
    assert not np.isnan(res.metric).any()


def test_sweep_rejects_threads_below_one(scene_a):
    for threads in (0, -3):
        with pytest.raises(ValueError, match="threads"):
            sweep_sparsity(scene_a, [1.5], [0.0], n_s=16, n_u=16, threads=threads)


def test_all_missing_sweep_reports_the_first_reason(flat_scene):
    res = sweep_reconstruction(flat_scene, [-1.0, -0.5], [0.0], factor=2, n_s=16, n_u=16)
    assert [cell[:2] for cell in res.missing] == [(0, 0), (1, 0)]
    with pytest.raises(ValueError, match=re.escape(res.missing[0][2])):
        res.argopt


def _record_started_threads(monkeypatch, cores):
    """The threads that sweeps start, in start order."""
    started = []

    class Recording(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(experiments, "Thread", Recording)
    monkeypatch.setattr(experiments.os, "cpu_count", lambda: cores)
    return started


def test_a_failing_cell_raises_the_lowest_failure_once_every_worker_ends(monkeypatch):
    started = _record_started_threads(monkeypatch, cores=4)

    def cell_metric(param, workspace):
        # cell 2 fails last: cell 3 fails on another worker while it sleeps
        if param.depth == 1.3:
            time.sleep(0.2)
            raise RuntimeError("cell 2")
        if param.depth == 1.4:
            raise RuntimeError("cell 3")
        return param.depth

    depths = [1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8]
    with pytest.raises(RuntimeError, match="cell 2"):
        experiments._sweep(
            depths, [0.0], "plane_mae", cell_metric, plane=PlaneParam(), threads=4
        )
    assert len(started) == 3  # and the caller's thread is the fourth worker
    assert not any(thread.is_alive() for thread in started)


def test_a_pooled_sweep_runs_cells_on_the_calling_thread(monkeypatch):
    started = _record_started_threads(monkeypatch, cores=4)
    depths = [1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7, 1.8]
    # each of the first 4 cells waits for the others, so 4 workers claim them
    first_cells = threading.Barrier(4)
    ran_on, live = set(), []

    def cell_metric(param, workspace):
        ran_on.add(threading.get_ident())
        live.append(1 + sum(thread.is_alive() for thread in started))  # the caller counts
        if param.depth in depths[:4]:
            first_cells.wait(timeout=10.0)
        return param.depth

    res = experiments._sweep(
        depths, [0.0], "plane_mae", cell_metric, plane=PlaneParam(), threads=4
    )
    assert res.metric[:, 0].tolist() == depths
    assert threading.get_ident() in ran_on
    assert len(ran_on) == 4 and max(live) <= 4


def test_sweep_workers_never_share_a_workspace(scene_b, monkeypatch):
    """More workers than cores, switching threads as often as possible."""
    created = []

    class OwnedWorkspace(Workspace):
        def __init__(self):
            super().__init__()
            self.owner = threading.get_ident()
            created.append(self)

        def array(self, name, shape, dtype=float):
            assert threading.get_ident() == self.owner, "workspace used by two threads"
            return super().array(name, shape, dtype)

    noisy_b = replace(scene_b, texture=TextureSpec(angular_bandwidth=5.0, noise_sigma=0.05))
    grid = ([1.2, 1.4, 1.6, 1.8], [0.0, 10.0, 20.0, 30.0])
    kwargs = dict(n_s=32, n_u=32, seed=3)
    serial = (
        sweep_sparsity(noisy_b, *grid, **kwargs).metric,
        sweep_reconstruction(noisy_b, *grid, factor=4, **kwargs).metric,
    )
    sizes = _record_pool_sizes(monkeypatch, cores=64)
    monkeypatch.setattr(experiments, "Workspace", OwnedWorkspace)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        deadline = time.monotonic() + 5.0
        for _ in range(3):
            for sweep, want in zip(
                (
                    lambda: sweep_sparsity(noisy_b, *grid, threads=8, **kwargs),
                    lambda: sweep_reconstruction(noisy_b, *grid, factor=4, threads=8, **kwargs),
                ),
                serial,
            ):
                created.clear()
                sizes.clear()
                got = sweep().metric
                assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
                assert sizes == [8]
                assert 1 <= len(created) <= 8
            if time.monotonic() > deadline:
                break
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("window", ["rect", "hann"])
def test_warm_sweep_cells_allocate_less_than_one_grid(scene_b, window):
    """A workspace'd cell allocates nothing grid-sized, the transform included.

    A subsample-8 sparsity cell renders 32 rows of the sweep's 256² grid.
    Its intersection alone takes two of numpy's np.getbufsize() ufunc
    buffers, more than its own 32 x 256 grid, so every cell is held to the
    sweep's grid.
    """
    noisy_b = replace(scene_b, texture=TextureSpec(angular_bandwidth=5.0, noise_sigma=0.05))
    param = PlaneParam(1.0, 1.5, 17.0)
    workspace = Workspace()

    def render_dense(row_step=1):
        return render_epi(noisy_b, param, 256, 256, seed=0, row_step=row_step, workspace=workspace)

    def sparsity_cell(row_step=1):
        spectrum = dft2_magnitude(render_dense(row_step), window, workspace=workspace)
        return sparsity_rmse(spectrum, 0.01, workspace=workspace)

    def sub8_sparsity_cell():
        return sparsity_cell(row_step=8)

    def reconstruct_cell():
        dense = render_dense()
        rebuilt = render.reconstruct_epi(render.subsample_epi(dense, 64), 256, workspace=workspace)
        return render.psnr(dense.data, rebuilt.data, workspace=workspace)

    for cell in (sparsity_cell, sub8_sparsity_cell, reconstruct_cell):
        cell()
        tracemalloc.start()
        try:
            cell()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 256 * 256 * 8, cell.__name__


@pytest.mark.parametrize("sweep", [sweep_sparsity, sweep_reconstruction])
def test_pooled_sweep_draws_the_noise_field_once(scene_b, monkeypatch, sweep):
    noisy_b = replace(scene_b, texture=TextureSpec(angular_bandwidth=5.0, noise_sigma=0.05))
    kwargs = {"factor": 4} if sweep is sweep_reconstruction else {}
    sizes = _record_pool_sizes(monkeypatch, cores=64)
    render._noise_field.cache_clear()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # let the workers interleave in their first cells
    louder_b = replace(noisy_b, texture=replace(noisy_b.texture, noise_sigma=0.25))
    try:
        sweep(noisy_b, [1.4, 1.6], [0.0, 10.0], n_s=128, n_u=128, seed=4, threads=4, **kwargs)
        assert render._noise_field.cache_info().misses == 1
        # sigma is part of the key: another sigma on the same grid draws once more
        sweep(louder_b, [1.4, 1.6], [0.0, 10.0], n_s=128, n_u=128, seed=4, threads=4, **kwargs)
    finally:
        sys.setswitchinterval(interval)
    assert sizes == [4, 4]
    assert render._noise_field.cache_info().misses == 2


@pytest.mark.parametrize("cell", ["sparsity-hann", "sparsity-rect", "reconstruct"])
def test_cold_sweep_cell_holds_two_float_grids_and_a_block(scene_b, cell):
    """The workspace roles of one cell share bytes down to 2 float grids, one
    block of _BLOCK_ITEMS floats and 3 bool grids.

    A Hann-windowed transform holds its taper in one float grid more.
    numpy 2 also buffers each ufunc call whose operands do not iterate as
    one flat run (a broadcast) in chunks of np.getbufsize() elements, up
    to a few operands at once, and copies the one EPI row that the
    widening's last block overwrites; the magnitude's row 0 takes one row
    of its own. The bound allows 4 float64 buffers of np.getbufsize()
    elements on top of the grids.
    """
    noisy_b = replace(scene_b, texture=TextureSpec(angular_bandwidth=5.0, noise_sigma=0.05))
    param = PlaneParam(1.0, 1.5, 17.0)
    n = 256

    def run(workspace):
        dense = render_epi(noisy_b, param, n, n, seed=0, workspace=workspace)
        if cell == "reconstruct":
            rebuilt = render.reconstruct_epi(render.subsample_epi(dense, 64), n, workspace=workspace)
            return render.psnr(dense.data, rebuilt.data, workspace=workspace)
        spectrum = dft2_magnitude(dense, cell.removeprefix("sparsity-"), workspace=workspace)
        return sparsity_rmse(spectrum, 0.01, workspace=workspace)

    want = run(Workspace())  # caches the noise field and the FFT plan
    tracemalloc.start()
    try:
        got = run(Workspace())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert got == want
    itemsize = np.dtype(float).itemsize
    grid = n * n * itemsize
    grids = 3 if cell == "sparsity-hann" else 2
    bound = grids * grid + _BLOCK_ITEMS * itemsize + 3 * n * n + 4 * np.getbufsize() * itemsize
    assert peak < bound, peak / grid


def _recording_workspace(asked):
    """A Workspace class whose instances add each role they are asked for to `asked`."""

    class RecordingWorkspace(Workspace):
        def array(self, name, shape, dtype=float):
            asked.add(name)
            return super().array(name, shape, dtype)

    return RecordingWorkspace


@pytest.mark.parametrize(
    "window, roles", [("rect", {"spectrum", "mag"}), ("hann", {"spectrum", "taper", "mag"})]
)
def test_transform_asks_for_these_roles(scene_b, window, roles):
    """The transform of a rendered EPI takes no block: the magnitude is one
    pass of |spectrum| in place and one fftshift into mag."""
    asked = set()
    workspace = _recording_workspace(asked)()
    epi = render_epi(scene_b, PlaneParam(1.0, 1.5, 17.0), 256, 256, workspace=workspace)
    asked.clear()
    dft2_magnitude(epi, window, workspace=workspace)
    assert asked == roles


@pytest.mark.parametrize(
    "preset, roles",
    [
        ("A", {"x", "block", "radiance", "hit", "m1", "rebuilt"}),
        ("B", {"x", "block", "radiance", "hit", "m1", "m2", "rebuilt"}),
    ],
)
def test_reconstruct_cell_asks_for_these_roles(monkeypatch, preset, roles):
    """A cell asks for roles of the x buffer, the block and 2 bool grids.

    A curved cell also asks for a third bool grid. Pinned as role names:
    tracemalloc counts allocated bytes, not the bytes a cell writes (see
    the next test).
    """
    asked = set()
    monkeypatch.setattr(experiments, "Workspace", _recording_workspace(asked))
    sweep_reconstruction(load_preset(preset), [1.5], [17.0], factor=64, n_s=256, n_u=256)
    assert asked == roles


def test_a_reconstruct_cell_writes_no_byte_of_x_past_two_grids(monkeypatch):
    """An x buffer grown past two grids keeps its bytes past them through a cell.

    The intersection (planar or curved, in four blocks of rows), the
    radiance, the noise, the reconstruction and psnr all write grids 0
    and 1 of x, and grid 1 whole. Checked on the bytes, which tracemalloc
    cannot see.
    """
    n = 256
    grid = n * n
    sentinel = np.uint64(0x7FF8_5EED_5EED_5EED)  # a NaN that no stage computes
    workspace = Workspace()
    monkeypatch.setattr(experiments, "Workspace", lambda: workspace)
    for preset in ("A", "B"):
        for sigma in (0.0, 0.05):
            # a spectrum of twice the rows fills the x buffer's four grids
            x_buffer = workspace.array("spectrum", (2 * n, n), complex).reshape(-1)
            x_buffer.view(np.uint64).fill(sentinel)
            scene = load_preset(preset)
            scene = replace(scene, texture=replace(scene.texture, noise_sigma=sigma))
            result = sweep_reconstruction(scene, [1.5], [17.0], factor=64, n_s=n, n_u=n)
            assert np.isfinite(result.metric).all()
            words = x_buffer.view(np.uint64)
            assert not np.any(words[grid : 2 * grid] == sentinel), (preset, sigma)
            assert np.all(words[2 * grid :] == sentinel), (preset, sigma)
