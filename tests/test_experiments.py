import math
import re

import numpy as np
import pytest

from epifield import experiments
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
from epifield.spectral import dft2_magnitude, sparsity_rmse


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


def test_sweep_sparsity_matches_direct_pipeline(scene_a):
    res = sweep_sparsity(scene_a, [1.4], [10.0], n_s=32, n_u=32, seed=3)
    epi = render_epi(scene_a, PlaneParam(1.0, 1.4, 10.0), 32, 32, seed=3)
    want = sparsity_rmse(dft2_magnitude(epi, "rect"), 0.01)
    assert res.metric[0, 0] == want


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


def test_sweep_sparsity_prefers_the_matched_depth(flat_scene):
    res = sweep_sparsity(flat_scene, [1.0, 1.5, 2.5], [0.0], n_s=32, n_u=32)
    assert res.argopt == (1, 0)


def test_sweep_sparsity_texture_override(scene_a):
    noisy = TextureSpec(noise_sigma=0.1)
    via_override = sweep_sparsity(
        scene_a, [1.5], [0.0], n_s=16, n_u=16, texture_override=noisy, seed=2
    )
    from dataclasses import replace

    swapped = replace(scene_a, texture=noisy)
    direct = sweep_sparsity(swapped, [1.5], [0.0], n_s=16, n_u=16, seed=2)
    assert np.array_equal(via_override.metric, direct.metric)


def test_sweep_sparsity_rejects_bad_subsample(scene_a):
    with pytest.raises(ValueError):
        sweep_sparsity(scene_a, [1.5], [0.0], n_s=32, n_u=16, subsample_factor=3)


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
    assert res.rmse_parallel.shape == (1, 3)
    # the dense capture reconstructs itself
    assert res.rmse_parallel[0, 0] == 0.0 and res.rmse_tilted[0, 0] == 0.0
    # a flat scene gives both families the same plane (up to fit rounding);
    # subsampled errors stay nonzero because edge trajectories leave the window
    assert (res.rmse_parallel[0, 1:] > 0.0).all()
    assert np.allclose(res.rmse_parallel, res.rmse_tilted, rtol=0.0, atol=1e-12)
    assert res.curve.images_parallel == (2,) and res.curve.images_tilted == (2,)


def test_layers_curved_scene_prefers_tilted_planes(scene_c):
    res = layers_experiment(scene_c, (1, 2, 4), (2, 4), n_s=128, n_u=128)
    assert res.rmse_parallel.shape == (3, 2)
    assert (res.rmse_tilted <= res.rmse_parallel).all()
    par, til = res.curve.images_parallel, res.curve.images_tilted
    assert til[0] < par[0]
    assert all(a >= b for a, b in zip(par, par[1:]))
    assert all(a >= b for a, b in zip(til, til[1:]))


def test_layers_rejects_bad_factor(flat_scene):
    with pytest.raises(ValueError):
        layers_experiment(flat_scene, (1,), (0,), n_s=16, n_u=16)


def _record_pool_sizes(monkeypatch, cores):
    sizes = []
    real = experiments.ThreadPoolExecutor

    def recording(max_workers):
        sizes.append(max_workers)
        return real(max_workers=max_workers)

    monkeypatch.setattr(experiments, "ThreadPoolExecutor", recording)
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
