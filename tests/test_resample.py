"""Differential tests: u-resampling against the per-row np.interp it replaced.

interp_u must return what np.interp returns on each (row, point) pair,
bit for bit, and layers_experiment must produce the RMSE tables and image
counts of the old row-by-row reconstruction kept in
tests/_intersect_oracle.py, bit for bit.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

import _intersect_oracle as oracle
from epifield.experiments import _dense_capture, _trajectory_rebuild, layers_experiment
from epifield.mapping import PlaneParam, intersect_rays, rewarp_coords
from epifield.render import interp_u, ray_grid
from epifield.scene import SceneDef, SurfaceSpec, TextureSpec, fitted_line, partition_depth_layers


def _per_row_interp(data, u_axis, rows, u):
    return np.array(
        [np.interp(uk, u_axis, data[r], left=0.0, right=0.0) for uk, r in zip(u, rows)]
    )


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


@st.composite
def probes(draw):
    n = draw(st.integers(2, 40))
    if draw(st.booleans()):
        half = draw(st.floats(1e-3, 5.0))
        u_axis = np.linspace(-half, half, n)
    else:
        lo = draw(st.floats(-5.0, 5.0))
        u_axis = np.linspace(lo, lo + draw(st.floats(1e-3, 10.0)), n)
    n_rows = draw(st.integers(1, 4))
    values = st.floats(allow_nan=False, allow_infinity=False)
    data = np.array(draw(st.lists(values, min_size=n_rows * n, max_size=n_rows * n)))
    node = st.integers(0, n - 1).map(lambda k: u_axis[k])
    point = st.one_of(
        node,
        st.tuples(node, st.sampled_from([-math.inf, math.inf])).map(lambda p: np.nextafter(*p)),
        st.floats(2 * u_axis[0] - u_axis[-1], 2 * u_axis[-1] - u_axis[0]),
        st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0]),
        st.floats(),
    )
    u = np.array(draw(st.lists(point, min_size=1, max_size=60)), dtype=float)
    rows = np.array(draw(st.lists(st.integers(0, n_rows - 1), min_size=u.size, max_size=u.size)))
    return data.reshape(n_rows, n), u_axis, rows, u


# a 2-node axis, and NaN points whose bits np.interp passes through: a
# signalling and a negative NaN
_NANS = np.array([0x7FF0000000000001, 0xFFF8000000000000], dtype=np.uint64).view(float)


@given(probes())
@example(
    (
        np.array([[1.0, 3.0], [5.0, -5.0]]),
        np.array([-0.5, 0.5]),
        np.array([0, 0, 1, 1, 1, 0]),
        np.array([-0.5, 0.0, 0.5, 0.6, np.nextafter(0.5, 0.0), math.nan]),
    )
)
@example((np.array([[0.0, 1.0, 2.0]]), np.linspace(-1.0, 1.0, 3), np.zeros(2, dtype=int), _NANS))
def test_interp_u_matches_np_interp_bit_for_bit(probe):
    data, u_axis, rows, u = probe
    got = interp_u(data, u_axis, rows, u)
    assert np.array_equal(_bits(got), _bits(_per_row_interp(data, u_axis, rows, u)))


def test_interp_u_special_points():
    u_axis = np.linspace(-1.0, 1.0, 5)
    # the last segment's formula at its far end gives 0.030000000000000027
    data = np.array([[-0.0, 1.0, 2.0, 0.55, 0.03]])
    u = np.array([-1.0, 1.0, 0.5, -1.5, 1.5, math.nan, np.nextafter(1.0, 2.0), 0.25])
    got = interp_u(data, u_axis, np.zeros(u.size, dtype=int), u)
    assert _bits(got[0]) == _bits(-0.0)  # an exact node reads the node, sign included
    assert got[1] == 0.03 and got[2] == 0.55
    assert got[3] == 0.0 and got[4] == 0.0 and got[6] == 0.0
    assert math.isnan(got[5])
    assert got[7] == pytest.approx(1.275, abs=1e-15)


TILTED_PLANE = SceneDef(
    SurfaceSpec(1.5, 20.0, 0.0, (-4.0, 4.0)), TextureSpec(omegas=(20.0, 45.0)), "tilted"
)


def _has_empty_layer(scene, count, n_s, n_u):
    canon = PlaneParam(1.0, math.inf)
    s_axis, u_axis = ray_grid(canon, n_s, n_u)
    x, hit, _ = intersect_rays(canon, scene.surface, s_axis[:, None], u_axis[None, :])
    slabs = [slab.x_range for slab in partition_depth_layers(scene.surface, count)]
    return any(not np.any(hit & (x >= lo) & (x <= hi)) for lo, hi in slabs)


@pytest.mark.parametrize(
    "scene_name, layer_counts",
    [("C", (1, 2, 5)), ("tilted", (1, 3, 4))],
)
def test_layers_match_the_per_row_reconstruction(scene_c, scene_name, layer_counts):
    scene = scene_c if scene_name == "C" else TILTED_PLANE
    n_s, n_u = 48, 40
    # 1 keeps every row; 5 and 7 leave a partial last block; 48 and 64 keep one row
    factors = (1, 2, 5, 7, 48, 64)
    if scene_name == "tilted":
        assert _has_empty_layer(scene, 4, n_s, n_u)
    got = layers_experiment(scene, layer_counts, factors, n_s=n_s, n_u=n_u, seed=3)
    want = oracle.layers_experiment(scene, layer_counts, factors, n_s=n_s, n_u=n_u, seed=3)
    assert list(got.rmse) == list(want.rmse) == ["parallel", "tilted"]
    for fam in want.rmse:
        assert np.array_equal(_bits(got.rmse[fam]), _bits(want.rmse[fam]))
        assert np.all(got.rmse[fam][:, 0] == 0.0)
    assert (got.layer_counts, got.images) == (want.layer_counts, want.images)


@pytest.mark.parametrize("factor", [2, 5, 7, 48, 64])
def test_rebuilt_pixels_match_the_per_row_reconstruction(scene_c, factor):
    n_s, n_u = 48, 40
    canon = PlaneParam(1.0, math.inf)
    dense, _, hit = _dense_capture(scene_c, canon, n_s, n_u, 0)
    slab = partition_depth_layers(scene_c.surface, 1)[0]
    prm = PlaneParam(1.0, *fitted_line(slab), check=False)
    src = np.where(hit, dense.data, 0.0)
    xi = rewarp_coords(canon, prm, dense.s_axis[:, None], dense.u_axis[None, :])

    def to_row(r, xi_row):
        return rewarp_coords(prm, canon, dense.s_axis[r], xi_row)

    rows = np.flatnonzero(hit.any(axis=1))
    want = oracle._trajectory_reconstruct(
        src, dense.s_axis, dense.u_axis, factor, (xi, to_row), rows
    )
    pi, pj = np.nonzero(hit & (np.arange(n_s)[:, None] % factor != 0))
    got = _trajectory_rebuild(src, dense, canon, prm, pi, xi[pi, pj], factor)
    assert np.array_equal(_bits(got), _bits(want[pi, pj]))
