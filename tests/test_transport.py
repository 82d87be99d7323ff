import tracemalloc

import numpy as np
import pytest

from renewalpde import characteristics, transport
from renewalpde.characteristics import VelocityField, trace_backward
from renewalpde.domain import Domain, Grid, GridFn, l1_norm
from renewalpde.models import bump
from renewalpde.transport import LinearProblem, evaluate, solve_series

from fields import const_field, zero_field


def make_grid(cells=400, length=4.0):
    return Grid(Domain(half_lengths=(length,)), (cells,))


def indicator_profile(grid, lo=0.0, hi=1.0):
    x = grid.points[:, 0]
    return GridFn(grid, ((x >= lo) & (x <= hi)).astype(float))


def exact_l1_distance(grid, got: GridFn, expected_fn):
    vals = expected_fn(grid.points[:, 0])
    return float(np.sum(np.abs(got.values[:, 0] - vals)) * grid.cell_volume)


def test_pure_transport_shift_aligned():
    grid = make_grid(400, 4.0)
    lp = LinearProblem(VelocityField.constant([1.0]), zero_field, zero_field,
                       zero_field, indicator_profile(grid))
    u = evaluate(lp, 0.5, grid, substeps=32)
    err = exact_l1_distance(grid, u, lambda x: ((x >= 0.5) & (x <= 1.5)).astype(float))
    assert err <= 2 * grid.dx[0]


def test_pure_transport_shift_misaligned():
    grid = make_grid(397, 4.0)
    lp = LinearProblem(VelocityField.constant([1.0]), zero_field, zero_field,
                       zero_field, indicator_profile(grid))
    u = evaluate(lp, 0.5, grid, substeps=32)
    err = exact_l1_distance(grid, u, lambda x: ((x >= 0.5) & (x <= 1.5)).astype(float))
    assert err <= 2 * grid.dx[0]


def test_exponential_growth_smooth():
    grid = make_grid(400, 4.0)
    c = 0.7
    u0 = lambda x: np.exp(-((x - 1.5) / 0.3) ** 2)
    lp = LinearProblem(VelocityField.constant([1.0]), const_field(c), zero_field,
                       zero_field, GridFn(grid, u0(grid.points[:, 0])))
    t = 0.8
    u = evaluate(lp, t, grid, substeps=64)
    err = exact_l1_distance(grid, u, lambda x: np.exp(c * t) * u0(x - t))
    assert err <= 2e-3


def test_boundary_fill():
    grid = make_grid(400, 4.0)
    lp = LinearProblem(VelocityField.constant([1.0]), zero_field, zero_field,
                       const_field(1.0), GridFn.zeros(grid))
    u = evaluate(lp, 1.0, grid, substeps=32)
    err = exact_l1_distance(grid, u, lambda x: (x < 1.0).astype(float))
    assert err <= 2 * grid.dx[0]


def test_divergence_growth_term():
    # v = 1 + x has div v = 1; the foot of (t, x) is (1 + x) e^{-t} - 1 and the
    # datum there is damped by exp(-int div v) = e^{-t}
    grid = Grid(Domain(half_lengths=(8.0,)), (400,))
    u0 = lambda x: np.exp(-((x - 2.0) / 0.4) ** 2)
    v = VelocityField(lambda t, x: 1.0 + np.atleast_2d(x),
                      lambda t, x: np.ones(np.atleast_2d(x).shape[0]), sup=9.0)
    lp = LinearProblem(v, zero_field, zero_field, zero_field, GridFn(grid, u0(grid.points[:, 0])))
    t = 0.5

    def exact(x):
        foot = (1.0 + x) * np.exp(-t) - 1.0
        return np.where(foot >= 0.0, np.exp(-t) * u0(foot), 0.0)

    err = exact_l1_distance(grid, evaluate(lp, t, grid, substeps=32), exact)
    assert err <= 1e-3


def test_truncated_trace_gets_no_boundary_datum():
    # (a, y) with velocity (1, 2): a trace that leaves y >= -1 before it reaches
    # a = 0 carries the truncation value 0, not ub = 1
    grid = Grid(Domain(half_lengths=(2.0,), full_lengths=(1.0,)), (40, 20))
    lp = LinearProblem(VelocityField.constant([1.0, 2.0]), zero_field, zero_field,
                       const_field(1.0), GridFn.zeros(grid))
    t = 0.5
    u = evaluate(lp, t, grid)
    a, y = grid.points.T
    exact = ((a < t) & (y - 2.0 * a >= -1.0)).astype(float)
    assert float(np.sum(np.abs(u.values[:, 0] - exact)) * grid.cell_volume) <= 0.06


def test_truncation_stops_source_integral():
    # q = 1 on [-1, 1] with velocity 2: a trace picks up the source only
    # inside the box, from its truncation crossing at s = t - (y + 1) / 2 on
    grid = Grid(Domain(full_lengths=(1.0,)), (40,))
    lp = LinearProblem(VelocityField.constant([2.0]), zero_field, const_field(1.0),
                       zero_field, GridFn.zeros(grid))
    t = 0.5
    u = evaluate(lp, t, grid)
    assert exact_l1_distance(grid, u, lambda y: np.minimum(t, (y + 1.0) / 2.0)) <= 1e-9


def test_time_dependent_coefficients_on_full_line():
    # u_t + u_x = -2t u + exp(-t^2) on [-4, 4]: u = exp(-t^2) w with w_t + w_x = 1,
    # so w is the datum at the foot plus the time spent inside the box
    grid = Grid(Domain(full_lengths=(4.0,)), (400,))

    def p(t, pts):
        return -2.0 * np.asarray(t, dtype=float) + np.zeros(np.atleast_2d(pts).shape[0])

    def q(t, pts):
        return np.exp(-np.asarray(t, dtype=float) ** 2) + np.zeros(np.atleast_2d(pts).shape[0])

    u0 = bump(0.0, 1.0)
    lp = LinearProblem(VelocityField.constant([1.0]), p, q, zero_field,
                       GridFn.from_callback(grid, u0))
    t = 0.5
    u = evaluate(lp, t, grid, substeps=64)

    def exact(x):
        return np.exp(-t * t) * (u0(x - t) + t - np.maximum(0.0, t - (x + 4.0)))

    assert exact_l1_distance(grid, u, exact) <= 1e-10


def test_time_dependent_coefficients_with_inflow_exits():
    # u_t + u_x = -2t u + exp(-t^2) on [0, 4] with ub = exp(-t^2): u = exp(-t^2) w
    # with w_t + w_x = 1 and w = 1 on the inflow face, so w = 1 + x behind the front
    grid = make_grid(400, 4.0)

    def p(t, pts):
        return -2.0 * np.asarray(t, dtype=float) + np.zeros(np.atleast_2d(pts).shape[0])

    def q(t, pts):
        return np.exp(-np.asarray(t, dtype=float) ** 2) + np.zeros(np.atleast_2d(pts).shape[0])

    u0 = bump(2.0, 1.0)
    lp = LinearProblem(VelocityField.constant([1.0]), p, q, q, GridFn.from_callback(grid, u0))
    t = 0.5
    u = evaluate(lp, t, grid, substeps=64)

    def exact(x):
        return np.exp(-t * t) * np.where(x < t, 1.0 + x, u0(x - t) + t)

    assert exact_l1_distance(grid, u, exact) <= 1e-10


def test_growth_rate_sampled_on_live_knots_only():
    # v = 1 on [0, 4]: the trace from x exits at s = t - x, so its knots are
    # the shared knots above the exit time plus the exit itself; knots past
    # the exit are not sampled.  Exit times lie halfway between knots.
    grid = make_grid(40, 4.0)
    t, substeps = 1.0, 10
    calls = []

    def p(s, pts):
        calls.append(np.atleast_2d(pts).shape[0])
        return np.zeros(np.atleast_2d(pts).shape[0])

    lp = LinearProblem(VelocityField.constant([1.0]), p, zero_field, const_field(1.0),
                       GridFn.zeros(grid))
    evaluate(lp, t, grid, substeps=substeps)
    knots = np.linspace(t, 0.0, substeps + 1)
    x = grid.points[:, 0]
    exited = x < t
    live = np.where(exited, np.sum(knots[:, None] > (t - x)[None, :], axis=0) + 1, len(knots))
    assert exited.any() and not exited.all()
    assert calls == [int(live.sum())]
    assert calls[0] < len(knots) * grid.n_nodes


def test_boundary_time_profile():
    # ub(t) = t rides in along characteristics: u(1, x) = (1-x) for x < 1
    grid = make_grid(400, 4.0)

    def ub(t, pts):
        pts = np.atleast_2d(pts)
        return np.broadcast_to(np.asarray(t, dtype=float), pts.shape[0]).astype(float).copy()

    lp = LinearProblem(VelocityField.constant([1.0]), zero_field, zero_field,
                       ub, GridFn.zeros(grid))
    u = evaluate(lp, 1.0, grid, substeps=32)
    err = exact_l1_distance(grid, u, lambda x: np.clip(1.0 - x, 0.0, None))
    assert err <= 2 * grid.dx[0]


def test_source_ramp():
    # q = 1, u0 = 0, ub = 0: u(1, x) = min(x, 1); trapezoid is exact here
    grid = make_grid(200, 4.0)
    lp = LinearProblem(VelocityField.constant([1.0]), zero_field, const_field(1.0),
                       zero_field, GridFn.zeros(grid))
    u = evaluate(lp, 1.0, grid, substeps=16)
    expected = np.minimum(grid.points[:, 0], 1.0)
    assert np.max(np.abs(u.values[:, 0] - expected)) <= 1e-10


def test_series_identity_at_zero():
    grid = make_grid(100, 4.0)
    u0 = indicator_profile(grid)
    lp = LinearProblem(VelocityField.constant([1.0]), zero_field, zero_field,
                       zero_field, u0)
    series = solve_series(lp, [0.0], grid, substeps=8)
    assert np.array_equal(series[0].values, u0.values)


def test_series_l1_continuity():
    grid = make_grid(400, 4.0)
    lp = LinearProblem(VelocityField.constant([1.0]), zero_field, zero_field,
                       zero_field, indicator_profile(grid))
    s = solve_series(lp, [0.25, 0.5], grid, substeps=32)
    dist = l1_norm(s[1] - s[0])
    # shifted indicators at distance 0.25 differ by exactly 0.5 in L1
    assert dist <= 0.5 + 4 * grid.dx[0]
    assert dist >= 0.5 - 4 * grid.dx[0]


def _series_problem(velocity):
    """Age x 1-D space: traces leave through the inflow face a = 0 and the
    truncation face y = -1; the coefficients vary in t, a and y."""
    grid = Grid(Domain(half_lengths=(2.0,), full_lengths=(1.0,)), (12, 10))
    a, y = grid.points.T
    u0 = GridFn(grid, np.exp(-4.0 * (a - 1.0) ** 2) * (1.0 + 0.5 * y))

    def p(t, pts):
        return -0.2 + 0.1 * t * pts[:, 0]

    def q(t, pts):
        return 0.05 * (1.0 + pts[:, 1] ** 2) + 0.0 * t

    def ub(t, pts):
        return 1.0 + t + 0.25 * pts[:, 1]

    return grid, LinearProblem(velocity, p, q, ub, u0)


def _t_dependent_velocity():
    def fn(t, x):
        x = np.atleast_2d(x)
        t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:1])
        return np.column_stack([1.0 + 0.2 * t, 1.2 + 0.3 * x[:, 1]])

    return VelocityField(fn, lambda t, x: np.full(np.atleast_2d(x).shape[0], 0.3), sup=2.2)


@pytest.mark.parametrize("velocity, substeps", [
    ("callable", None), ("callable", 12), ("constant", None), ("constant", 12)])
def test_series_equals_one_evaluate_per_time(velocity, substeps, monkeypatch):
    # one trace call and one exit bisection serve every output time; each state
    # has the bits of tracing its time alone.  t = 0 comes first, 0.3 repeats
    v = _t_dependent_velocity() if velocity == "callable" else VelocityField.constant([1.0, 1.5])
    grid, lp = _series_problem(v)
    ts = [0.0, 0.3, 0.3, 0.7, 1.0]
    reference = [evaluate(lp, t, grid, substeps) for t in ts]
    last = trace_backward(v, 1.0, grid.points, substeps or 16, grid.domain)
    assert set(last.exit_face[last.exited]) == {0, -1}

    traces, refines = [], []
    trace, refine = transport.trace_backward, characteristics._refine_exit
    monkeypatch.setattr(transport, "trace_backward", lambda *a, **k: traces.append(1)
                        or trace(*a, **k))
    monkeypatch.setattr(characteristics, "_refine_exit", lambda *a, **k: refines.append(1)
                        or refine(*a, **k))
    got = solve_series(lp, ts, grid, substeps)
    assert len(traces) == len(refines) == 1
    assert len(got) == len(ts)
    for u, ref in zip(got, reference):
        assert np.array_equal(u.values, ref.values)
    assert got[1] is not got[2] and not np.shares_memory(got[1].values, got[2].values)
    assert solve_series(lp, [], grid, substeps) == []


def test_series_peak_memory_is_that_of_its_last_time():
    # the linear-transport benchmark problem: nine output times on [0, 3].  Each
    # knot column is its own unpadded array, freed once evaluated, so the series
    # peaks about where one evaluate at its last time does; stacking the nine
    # columns in one padded array would double it
    grid = make_grid(400, 8.0)

    def vel(t, x):
        x = np.atleast_2d(x)
        return 1.0 + 0.5 * x / (1.0 + x)

    v = VelocityField(vel, lambda t, x: 0.5 / (1.0 + np.atleast_2d(x)[:, 0]) ** 2, 1.5)
    lp = LinearProblem(v, const_field(-0.2), lambda t, x: 0.1 * np.exp(-x[:, 0]),
                       lambda t, x: 1.0 + 0.5 * np.sin(3.0 * t),
                       GridFn.from_callback(grid, bump(1.5, 1.0)))
    ts = np.linspace(0.0, 3.0, 9)
    evaluate(lp, ts[-1], grid)
    tracemalloc.start()
    try:
        evaluate(lp, ts[-1], grid)
        one = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        solve_series(lp, ts, grid)
        series = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert series <= 1.25 * one


def test_constant_state_away_from_boundary():
    grid = make_grid(200, 4.0)
    lp = LinearProblem(VelocityField.constant([1.0]), zero_field, zero_field,
                       const_field(1.0), GridFn(grid, np.ones(200)))
    u = evaluate(lp, 1.5, grid, substeps=32)
    assert np.allclose(u.values[:, 0], 1.0, atol=1e-12)


def test_linearity_superposition():
    grid = make_grid(150, 4.0)
    rng = np.random.default_rng(5)
    v = VelocityField.constant([1.0])
    p = lambda t, pts: 0.3 * np.sin(np.atleast_2d(pts)[:, 0]) + 0.1 * t

    def mk(seed):
        r = np.random.default_rng(seed)
        u0 = GridFn(grid, r.normal(size=150))
        qc, bc = float(r.normal()), float(r.normal())
        return u0, const_field(qc), const_field(bc), qc, bc

    u0a, qa, uba, qca, bca = mk(1)
    u0b, qb, ubb, qcb, bcb = mk(2)
    t = 0.9
    ua = evaluate(LinearProblem(v, p, qa, uba, u0a), t, grid, substeps=24)
    ub_ = evaluate(LinearProblem(v, p, qb, ubb, u0b), t, grid, substeps=24)
    usum = evaluate(LinearProblem(v, p, const_field(qca + qcb), const_field(bca + bcb),
                                  u0a + u0b), t, grid, substeps=24)
    assert np.allclose(usum.values, ua.values + ub_.values, atol=1e-12)


def test_positivity_of_formula():
    grid = make_grid(150, 4.0)
    rng = np.random.default_rng(9)
    u0 = GridFn(grid, np.abs(rng.normal(size=150)))
    p = lambda t, pts: -0.5 + 0.3 * np.cos(np.atleast_2d(pts)[:, 0])
    q = lambda t, pts: np.abs(np.sin(np.atleast_2d(pts)[:, 0])) * 0.2
    lp = LinearProblem(VelocityField.constant([1.0]), p, q, const_field(0.7), u0)
    u = evaluate(lp, 1.3, grid, substeps=48)
    assert np.min(u.values) >= 0.0


def _cell_average_indicator(grid, lo, hi):
    """Exact cell averages of 1_[lo, hi]: the honest L1 target on a grid."""
    x = grid.points[:, 0]
    h = grid.dx[0]
    a, b = x - h / 2, x + h / 2
    return np.clip((np.minimum(b, hi) - np.maximum(a, lo)) / h, 0.0, 1.0)


@pytest.mark.parametrize("case", ["shift", "smooth", "fill"])
def test_first_order_convergence(case):
    t = 1.0 / 3.0
    errs = []
    for cells, sub in ((400, 16), (800, 32)):
        grid = make_grid(cells, 4.0)
        if case == "shift":
            lp = LinearProblem(VelocityField.constant([1.0]), zero_field, zero_field,
                               zero_field, indicator_profile(grid))
            exact_vals = _cell_average_indicator(grid, t, 1 + t)
        elif case == "smooth":
            c = 0.7
            u0 = lambda x: np.exp(-((x - 1.5) / 0.25) ** 2)
            lp = LinearProblem(VelocityField.constant([1.0]), const_field(c), zero_field,
                               zero_field, GridFn(grid, u0(grid.points[:, 0])))
            exact_vals = np.exp(c * t) * u0(grid.points[:, 0] - t)
        else:
            lp = LinearProblem(VelocityField.constant([1.0]), zero_field, zero_field,
                               const_field(1.0), GridFn.zeros(grid))
            exact_vals = _cell_average_indicator(grid, -1.0, t)
        u = evaluate(lp, t, grid, substeps=sub)
        errs.append(float(np.sum(np.abs(u.values[:, 0] - exact_vals)) * grid.cell_volume))
    assert errs[1] > 0
    assert errs[0] / errs[1] >= 1.8


def test_source_total_equals_a_loop_with_one_running_sum(monkeypatch):
    # stacked starts on [0, 3] with v = 1: ragged, padded columns with exits.
    # With zero data the value is the source total alone; it must equal a
    # loop over each trace's own knots, with one running trapezoid per call
    grid = make_grid(30, 3.0)
    v = VelocityField.constant([1.0])
    starts, substeps = np.repeat([0.5, 1.0, 2.0], grid.n_nodes), np.repeat([2, 4, 8], grid.n_nodes)
    batch = trace_backward(v, starts, np.tile(grid.points, (3, 1)), substeps, grid.domain)
    assert batch.exited.any() and not batch.exited.all()

    def p(t, pts):
        return np.sin(3.0 * t) - 0.5 * pts[:, 0]

    def q(t, pts):
        return np.cos(t) + pts[:, 0] ** 2

    lp = LinearProblem(v, p, q, zero_field, GridFn.zeros(grid))
    runs = []
    running = transport.cumulative_trapezoid
    monkeypatch.setattr(transport, "cumulative_trapezoid",
                        lambda *a: runs.append(1) or running(*a))
    got = evaluate(lp, starts, grid, batch=batch)
    assert len(runs) == 1

    live, _, _ = batch.live
    ts, xs = batch.trace_times, batch.path
    own = live.sum(axis=0)  # each trace's own knots; the rest repeat its last
    log_e = np.zeros(ts.shape)
    for c, n in enumerate(own):
        g = p(ts[:, c], xs[:, c])
        for r in range(1, n):
            log_e[r, c] = log_e[r - 1, c] + 0.5 * (g[r - 1] + g[r]) * (ts[r - 1, c] - ts[r, c])
        log_e[n:, c] = log_e[n - 1, c]
    E = np.exp(log_e)
    for c, n in enumerate(own):
        qe = q(ts[:, c], xs[:, c]) * E[:, c]
        src = 0.0
        for r in range(1, n):
            src += 0.5 * (qe[r - 1] + qe[r]) * (ts[r - 1, c] - ts[r, c])
        assert got[c] == src


def test_none_source_and_datum_equal_zero_callbacks():
    # a q or ub of None skips the source integral or the boundary call, with the same bits
    grid = make_grid(200, 4.0)
    vel, p, u0 = VelocityField.constant([1.0]), const_field(-0.3), indicator_profile(grid)
    for q, ub in ((None, const_field(1.0)), (const_field(0.2), None), (None, None)):
        lean = LinearProblem(vel, p, q, ub, u0)
        full = LinearProblem(vel, p, q or zero_field, ub or zero_field, u0)
        for t in (0.5, 1.5):
            assert np.array_equal(evaluate(lean, t, grid, substeps=32).values,
                                  evaluate(full, t, grid, substeps=32).values)
