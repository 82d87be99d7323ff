import numpy as np
import pytest

from renewalpde.domain import (
    CorruptStateError,
    Domain,
    Grid,
    GridFn,
    interp_gather,
    interp_values,
    l1_norm,
    linf_norm,
)


def grid_1d(length=2.0, cells=400, half=True):
    dom = Domain(half_lengths=(length,)) if half else Domain(full_lengths=(length,))
    return Grid(dom, (cells,))


def indicator(lo, hi):
    return lambda pts: ((pts[:, 0] >= lo) & (pts[:, 0] <= hi)).astype(float)


def test_grid_geometry():
    g = grid_1d(2.0, 400)
    assert g.n_nodes == 400
    assert g.dx == (0.005,)
    assert np.isclose(g.points[0, 0], 0.0025)
    assert np.isclose(g.points[-1, 0], 1.9975)
    # quadrature weights sum to the box volume
    assert np.isclose(g.cell_volume * g.n_nodes, 2.0)


def test_l1_norm_zero():
    g = grid_1d()
    assert l1_norm(GridFn.zeros(g)) == 0.0


def test_l1_norm_constant_volume():
    g = Grid(Domain(half_lengths=(1.0,)), (128,))
    f = GridFn(g, np.ones(128))
    assert abs(l1_norm(f) - 1.0) <= 1e-12


def test_l1_norm_indicator():
    g = grid_1d(2.0, 400)
    f = GridFn.from_callback(g, indicator(0.0, 1.0))
    assert abs(l1_norm(f) - 1.0) <= 0.005


def test_linf_norm_zero_and_vector():
    g = grid_1d(1.0, 32)
    assert linf_norm(GridFn.zeros(g, k=2)) == 0.0
    f = GridFn(g, np.tile([1.0, 2.0], (32, 1)))
    assert linf_norm(f) == 3.0


def test_linf_norm_blowup_profile():
    # 1/(1-t) * 1_[0,1] at t = 0.5 has sup 2
    g = Grid(Domain(full_lengths=(1.5,)), (400,))
    vals = 2.0 * ((g.points[:, 0] >= 0) & (g.points[:, 0] <= 1))
    assert abs(linf_norm(GridFn(g, vals)) - 2.0) <= 0.01


def test_norm_errors_on_nan():
    g = grid_1d(1.0, 8)
    vals = np.ones(8)
    vals[3] = np.nan
    with pytest.raises(CorruptStateError):
        l1_norm(GridFn(g, vals))
    with pytest.raises(CorruptStateError):
        linf_norm(GridFn(g, vals))


def test_triangle_inequality_and_scaling():
    rng = np.random.default_rng(7)
    g = grid_1d(2.0, 64)
    for _ in range(20):
        a = GridFn(g, rng.normal(size=(64, 3)))
        b = GridFn(g, rng.normal(size=(64, 3)))
        assert l1_norm(a + b) <= l1_norm(a) + l1_norm(b) + 1e-12
        c = float(rng.normal())
        assert abs(l1_norm(c * a) - abs(c) * l1_norm(a)) <= 1e-12 * (1 + l1_norm(a))


def test_refinement_stability():
    # refining the grid changes the L1 norm of an indicator by O(dx)
    coarse = Grid(Domain(half_lengths=(2.0,)), (100,))
    fine = Grid(Domain(half_lengths=(2.0,)), (200,))
    f_c = GridFn.from_callback(coarse, indicator(0.0, 1.3))
    f_f = GridFn.from_callback(fine, indicator(0.0, 1.3))
    assert abs(l1_norm(f_c) - l1_norm(f_f)) <= 2 * coarse.dx[0]


def test_interp_exact_at_nodes_and_outside_zero():
    g = Grid(Domain(half_lengths=(1.0,), full_lengths=(1.0,)), (8, 6))
    rng = np.random.default_rng(3)
    f = GridFn(g, rng.normal(size=(48, 2)))
    got = interp_values(g, f.values, g.points)
    assert np.allclose(got, f.values)
    outside = np.array([[2.0, 0.0], [0.5, 5.0], [-0.1, 0.0]])
    assert np.all(interp_values(g, f.values, outside) == 0.0)


def test_interp_linear_in_between():
    g = Grid(Domain(half_lengths=(1.0,)), (10,))
    f = GridFn(g, 3.0 * g.points[:, 0] + 1.0)
    pts = np.array([[0.5], [0.22], [0.91]])
    assert np.allclose(interp_values(g, f.values, pts)[:, 0], 3.0 * pts[:, 0] + 1.0)


def test_interp_on_a_one_cell_axis_equals_the_axis_dropped():
    # a one-cell axis has one node: its coordinate weighs nothing, and an (8, 1)
    # grid interpolates as the 8 nodes of its first axis alone
    flat = Grid(Domain(half_lengths=(2.0,), full_lengths=(1.0,)), (8, 1))
    line = Grid(Domain(half_lengths=(2.0,)), (8,))
    rng = np.random.default_rng(5)
    values = rng.normal(size=(8, 2))
    pts = np.column_stack([rng.uniform(0.0, 2.0, 50), rng.uniform(-1.0, 1.0, 50)])
    pts[:2, 0] = [0.0, 2.0]  # the half-cell margins of the first axis
    st = flat.stencil(pts)  # corners (0, 1) and (1, 1) step off the one node: weight 0
    assert st.flat.min() >= 0 and not st.weight[[1, 3]].any()
    assert np.array_equal(interp_values(flat, values, pts), interp_values(line, values, pts[:, :1]))


def test_face_grid_nodes_and_weights():
    g = Grid(Domain(half_lengths=(2.0, 1.0), full_lengths=(1.0,)), (4, 5, 8))
    fg = g.face_grid(0)
    assert fg.points.shape == (40, 3)
    assert np.all(fg.points[:, 0] == 0.0)
    assert np.isclose(fg.measure, 2.0)
    # the nodes are the cell midpoints of the other axes, the weight their cell area
    assert np.array_equal(np.unique(fg.points[:, 1]), g.axes[1])
    assert np.array_equal(np.unique(fg.points[:, 2]), g.axes[2])
    assert fg.weight == g.dx[1] * g.dx[2]
    point_face = Grid(Domain(half_lengths=(2.0,)), (8,)).face_grid(0)
    assert np.array_equal(point_face.points, [[0.0]])
    assert point_face.weight == point_face.measure == 1.0


@pytest.mark.parametrize("shape", [(40,), (6, 5, 4)])
@pytest.mark.parametrize("folded", [False, True])
def test_gather_of_some_rows_equals_those_rows_of_the_full_gather(shape, folded):
    # each component row is summed on its own, so a subset keeps every bit; the
    # rows left out are NaN, never a stale or zero value
    dom = Domain(half_lengths=(2.0,), full_lengths=(1.0,) * (len(shape) - 1))
    grid = Grid(dom, shape)
    rng = np.random.default_rng(len(shape))
    lo, hi = np.array(dom.bounds()).T
    pts = rng.uniform(lo - 0.1, hi + 0.1, (300, grid.dim))
    stencil = grid.stencil(pts)
    if folded:  # three knot states, each point reading its knot interval j
        values, lam = rng.normal(size=(3, grid.n_nodes, 4)), rng.uniform(0.0, 1.0, len(pts))
        stencil.flat[:] += rng.integers(0, 2, len(pts)) * grid.n_nodes
    else:
        values, lam = rng.normal(size=(grid.n_nodes, 4)), None
    full = interp_gather(stencil, values, lam)
    assert full.shape == (len(pts), 4) and np.isfinite(full).all()
    for rows in [(0, 1, 2), (1,), (1, 2), (0, 3), (2, 0), ()]:
        got = interp_gather(stencil, values, lam, rows)
        unread = [c for c in range(4) if c not in rows]
        assert got.shape == full.shape
        assert np.array_equal(got[:, list(rows)], full[:, list(rows)])
        assert np.isnan(got[:, unread]).all()
    assert np.array_equal(interp_gather(stencil, values, lam, range(4)), full)
