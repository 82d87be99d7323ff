import dataclasses

import numpy as np
import pytest

from renewalpde import characteristics
from renewalpde.characteristics import VelocityField, rk4_step, trace_backward
from renewalpde.domain import Domain, Grid, GridFn
from renewalpde.transport import LinearProblem, evaluate

HALFLINE = Domain(half_lengths=(10.0,))


def linear_velocity():
    # v(t, x) = x, div v = 1
    return VelocityField(lambda t, x: np.atleast_2d(x).copy(),
                         lambda t, x: np.ones(np.atleast_2d(x).shape[0]), sup=10.0)


def wiggly_velocity():
    def fn(t, x):
        x = np.atleast_2d(x)
        return 1.0 + 0.3 * np.sin(2.0 * x)

    def div(t, x):
        x = np.atleast_2d(x)
        return 0.6 * np.cos(2.0 * x[:, 0])

    return VelocityField(fn, div, sup=1.3)


def test_constant_velocity_boundary_hit():
    v = VelocityField.constant([1.0])
    b = trace_backward(v, 1.0, [[0.5]], 32, HALFLINE)
    assert b.exited[0]
    assert abs(b.exit_time[0] - 0.5) <= 1e-10
    assert b.exit_face[0] == 0
    assert b.exit_point[0, 0] == 0.0


def test_constant_velocity_interior_foot():
    v = VelocityField.constant([1.0])
    b = trace_backward(v, 1.0, [[1.5]], 32, HALFLINE)
    assert not b.exited[0]
    assert abs(b.feet[0, 0] - 0.5) <= 1e-12
    assert not b.truncated[0]


def test_exponential_flow_foot():
    # dx/ds = x from (t=1, x=e) lands at x = 1 at s = 0
    b = trace_backward(linear_velocity(), 1.0, [[np.e]], 200, HALFLINE)
    assert not b.exited[0]
    assert abs(b.feet[0, 0] - 1.0) <= 1e-8


def test_truncation_exit_flagged():
    # backward from small x with negative velocity walks out the far face
    v = VelocityField.constant([-3.0])
    b = trace_backward(v, 1.0, [[0.5]], 32, Domain(half_lengths=(2.0,)))
    assert b.exited[0]
    assert b.truncated[0]
    assert abs(b.exit_time[0] - 0.5) <= 1e-10
    assert b.exit_face[0] == -1


def test_truncation_before_inflow_exit_flagged():
    # (a, y) with velocity (1, 2): backward, y leaves [-1, 1] at s = t - (y + 1) / 2
    # and a reaches 0 at s = t - a.  The second point crosses y = -1 at s = 0.325
    # and a = 0 at s = 0.3, both inside the substep (0.375, 0.25].
    v = VelocityField.constant([1.0, 2.0])
    dom = Domain(half_lengths=(2.0,), full_lengths=(1.0,))
    pts = [[0.3, 0.5], [0.2, -0.65], [0.1, -0.7], [1.0, 0.2]]
    b = trace_backward(v, 0.5, pts, 4, dom)
    assert list(b.exited) == [True, True, True, False]
    assert list(b.truncated) == [False, True, False, False]


# (vector, domain, start times, points, substeps, floor)
_CONSTANT_CASES = {
    # an inflow hit and an interior foot
    "inflow-and-foot": ([1.0], HALFLINE, 1.0, [[0.5], [1.5], [0.02]], 32, 0.0),
    # backward with negative velocity the trace walks out the far truncation face
    "truncation": ([-3.0], Domain(half_lengths=(2.0,)), 1.0, [[0.5], [1.9]], 32, 0.0),
    # the second point leaves through y = -1 in the substep where it also crosses a = 0
    "truncation-before-inflow": ([1.0, 2.0], Domain(half_lengths=(2.0,), full_lengths=(1.0,)),
                                 0.5, [[0.3, 0.5], [0.2, -0.65], [0.1, -0.7], [1.0, 0.2]], 4,
                                 0.0),
    "3-d-inflow": ([1.0, 0.2, -0.1], Domain(half_lengths=(2.0,), full_lengths=(1.0, 1.0)), 0.8,
                   [[0.3, 0.5, 0.0], [1.5, -0.9, 0.95], [0.05, 0.95, -0.95]], 16, 0.0),
    # three start columns with their own substep counts, each on its own rows; some
    # of their traces exit, some land at feet
    "stacked": ([1.0, 0.6], Domain(half_lengths=(2.0, 1.5)), [0.25, 0.5, 1.0],
                [[0.1, 0.7], [0.4, 0.05], [1.2, 1.4], [0.9, 0.6]], [2, 4, 8], 0.0),
    # one start time, a substep count per knot column, from a floor above 0: the
    # fields shifted by the floor, traced from the start less the floor
    "scalar-t": ([1.0], HALFLINE, 0.9, [[0.1], [0.3], [2.0], [0.5]], [3, 8, 5, 1], 0.2),
    "zero": ([0.0], HALFLINE, 1.0, [[0.5], [2.0]], 16, 0.0),
}


@pytest.mark.parametrize("case", list(_CONSTANT_CASES))
def test_constant_field_sum_equals_step_loop(case, monkeypatch):
    # a field built by VelocityField.constant is summed in one pass; the same
    # callbacks as a plain field take the RK4 step loop.  Every field of the
    # batch must agree bit for bit
    vec, domain, t, pts, substeps, floor = _CONSTANT_CASES[case]
    v = VelocityField.constant(vec)
    assert v.shifted(floor) is v  # a constant field does not depend on time
    loop = VelocityField(v.fn, v.div, v.sup).shifted(floor)
    assert loop.vec is None
    t = np.subtract(t, floor)
    reference = trace_backward(loop, t, pts, substeps, domain)

    def no_callbacks(self, t, x):
        raise AssertionError("a constant field is traced without its callbacks")

    monkeypatch.setattr(VelocityField, "__call__", no_callbacks)
    got = trace_backward(v.shifted(floor), t, pts, substeps, domain)
    for f in dataclasses.fields(got):
        a, b = getattr(got, f.name), getattr(reference, f.name)
        # a tuple holds one array per knot column
        for x, y in zip(a, b, strict=True) if isinstance(a, tuple) else [(a, b)]:
            assert np.array_equal(x, y, equal_nan=True), f.name
    if case in ("inflow-and-foot", "stacked"):
        assert got.exited.any() and not got.exited.all()
    if case == "stacked":
        assert set(got.exit_face[got.exited]) == {0, 1}
    if case == "truncation":
        assert got.truncated.all()


def test_constant_field_rejects_non_finite_vectors():
    for vec in ([np.nan], [1.0, np.inf]):
        with pytest.raises(ValueError):
            VelocityField.constant(vec)
    v = VelocityField.constant([1.0, 2.0])
    with pytest.raises(ValueError):
        v.vec[0] = 3.0  # read-only: fn keeps returning the vector it was built from


def test_semigroup_property():
    v = wiggly_velocity()
    t, s, r = 0.9, 0.5, 0.2
    x = [[4.0]]
    # each leg traced on its own clock: from its start less its floor, the field
    # shifted by the floor
    direct = trace_backward(v.shifted(r), t - r, x, 512, HALFLINE).feet
    mid = trace_backward(v.shifted(s), t - s, x, 256, HALFLINE).feet
    two_leg = trace_backward(v.shifted(r), s - r, mid, 256, HALFLINE).feet
    assert abs(direct[0, 0] - two_leg[0, 0]) <= 1e-7


def test_time_derivative_matches_velocity():
    v = wiggly_velocity()
    b = trace_backward(v, 1.0, [[5.0]], 64, HALFLINE)
    ts, path = b.knots[:, 0], b.paths[0][:, 0]
    for j in range(0, len(ts) - 1, 7):
        dt = ts[j] - ts[j + 1]
        fd = (path[j, 0] - path[j + 1, 0]) / dt
        mid = 0.5 * (path[j, 0] + path[j + 1, 0])
        vm = float(v(0.5 * (ts[j] + ts[j + 1]), np.array([[mid]]))[0, 0])
        assert abs(fd - vm) <= 5e-3


def test_monotone_exit_constant_velocity():
    v = VelocityField.constant([1.0])
    b = trace_backward(v, 1.0, np.linspace(0.05, 3.0, 24)[:, None], 32, HALFLINE)
    # once interior, larger x stays interior
    assert b.exited[0] and not b.exited[-1]
    assert np.all(np.diff(b.exited.astype(int)) <= 0)


def test_exit_consistency_forward_retrace():
    v = wiggly_velocity()
    x = 0.4
    b = trace_backward(v, 1.0, [[x]], 256, HALFLINE)
    assert b.exited[0]
    # re-integrate forward with an independent fine RK4
    y = b.exit_point[:1].copy()
    s = b.exit_time[0]
    nfwd = 2000
    dt = (1.0 - s) / nfwd
    for i in range(nfwd):
        y = rk4_step(v, s + i * dt, y, dt)
    assert abs(y[0, 0] - x) <= 1e-6


def test_batched_exits_time_dependent_velocity(monkeypatch):
    # v = (1 + t, t / 2) on [0, 8] x [-5, 5]: back from (t, x, y) the trace is
    # X(s) = x - (t - s) - (t^2 - s^2) / 2 and Y(s) = y - (t^2 - s^2) / 4, so it
    # leaves through the age face at T = t - a with a = (1 + t) - sqrt((1 + t)^2 - 2x)
    # when x < t + t^2 / 2, and RK4 is exact for a velocity linear in t
    calls = []
    refine = characteristics._refine_exit
    monkeypatch.setattr(characteristics, "_refine_exit",
                        lambda *a, **k: calls.append(1) or refine(*a, **k))

    def fn(t, x):
        x = np.atleast_2d(x)
        t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:1])
        return np.stack([1.0 + t, 0.5 * t], axis=1)

    v = VelocityField(fn, lambda t, x: np.zeros(np.atleast_2d(x).shape[0]), sup=4.0)
    domain = Domain(half_lengths=(8.0,), full_lengths=(5.0,))
    t, substeps = 2.0, 16
    x = np.linspace(0.05, 7.95, 80)
    pts = np.column_stack([x, np.linspace(-1.0, 1.0, 80)])
    b = trace_backward(v, t, pts, substeps, domain)
    assert len(calls) == 1

    exits = x < t + t * t / 2
    assert np.array_equal(b.exited, exits)
    a = (1.0 + t) - np.sqrt((1.0 + t) ** 2 - 2.0 * x[exits])
    T = t - a
    # exits fall in many different substeps
    assert len(np.unique(np.floor((t - T) / (t / substeps)))) >= 8
    assert np.allclose(b.exit_time[exits], T, rtol=0.0, atol=1e-10)
    assert np.array_equal(b.exit_face[exits], np.zeros(exits.sum(), dtype=int))
    assert np.all(b.exit_point[exits, 0] == 0.0)
    y_exit = pts[exits, 1] - (t * t - T * T) / 4.0
    assert np.allclose(b.exit_point[exits, 1], y_exit, rtol=0.0, atol=1e-10)
    # rows past an exit hold the exit point; interior traces end at their feet
    past = b.knots[:, :1] < b.exit_time[exits]
    path = b.paths[0][:, exits]
    assert np.array_equal(path[past], np.broadcast_to(b.exit_point[exits], path.shape)[past])
    feet = pts[~exits] - np.column_stack([np.full((~exits).sum(), t + t * t / 2),
                                          np.full((~exits).sum(), t * t / 4)])
    assert np.allclose(b.feet[~exits], feet, rtol=0.0, atol=1e-10)

    trace_backward(v, 0.5, pts[x > 2.0], substeps, domain)
    assert len(calls) == 1


def _assert_stacked_equals_separate(v, domain, starts, substeps, pts, floor=0.0):
    """One call with every start stacked equals one call per start, bit for bit, and each
    knot column holds its own rows only.  Each traces down to ``floor``: from its start
    less the floor, under the field shifted by the floor."""
    n, d = np.shape(pts)
    v, starts = v.shifted(floor), np.subtract(starts, floor)
    b = trace_backward(v, starts, pts, substeps, domain)
    assert b.knots.shape == (max(substeps) + 1, len(starts))
    mask, tk, xk = b.live
    assert len(mask) == sum((k + 1) * n for k in substeps)
    live_at = 0
    for i, (t, k) in enumerate(zip(starts, substeps)):
        one = trace_backward(v, t, pts, k, domain)
        cols = slice(i * n, (i + 1) * n)
        assert b.members[i] == cols
        # knot column i is the separate call's knots and path, unpadded
        assert np.array_equal(b.knots[:k + 1, i], one.knots[:, 0])
        assert b.paths[i].shape == (k + 1, n, d)
        assert np.array_equal(b.paths[i], one.paths[0])
        assert np.array_equal(b.trace_times(i), one.trace_times(0))
        assert np.array_equal(b.widths[b.spans[i]], one.widths)
        assert np.array_equal(mask[b.spans[i]], one.live[0])
        own = np.count_nonzero(one.live[0])
        assert np.array_equal(tk[live_at:live_at + own], one.live[1])
        assert np.array_equal(xk[live_at:live_at + own], one.live[2])
        live_at += own
        assert np.array_equal(b.feet[cols], one.feet)
        assert np.array_equal(b.exited[cols], one.exited)
        assert np.array_equal(b.exit_time[cols], one.exit_time, equal_nan=True)
        assert np.array_equal(b.exit_point[cols], one.exit_point, equal_nan=True)
        assert np.array_equal(b.exit_face[cols], one.exit_face)
    assert live_at == len(tk) == len(xk)
    return b


def test_stacked_starts_equal_separate_calls():
    # half-line, a velocity that varies in t and x: interior feet and inflow exits
    def fn(t, x):
        x = np.atleast_2d(x)
        t = np.broadcast_to(np.asarray(t, dtype=float), x.shape[:1])
        return 1.0 + 0.3 * np.sin(2.0 * x) + 0.2 * t[:, None]

    v = VelocityField(fn, lambda t, x: 0.6 * np.cos(2.0 * np.atleast_2d(x)[:, 0]), sup=1.7)
    b = _assert_stacked_equals_separate(v, HALFLINE, [0.25, 0.5, 0.75, 1.0], [4, 8, 12, 16],
                                        np.linspace(0.05, 2.5, 40)[:, None])
    assert b.exited.any() and not b.exited.all()

    # age x 1-D space with velocity (1, 2): inflow exits through a = 0 and
    # truncation exits through y = -1, from a floor above 0
    v = VelocityField.constant([1.0, 2.0])
    dom = Domain(half_lengths=(2.0,), full_lengths=(1.0,))
    a, y = np.meshgrid(np.linspace(0.05, 1.5, 9), np.linspace(-0.95, 0.95, 7), indexing="ij")
    pts = np.column_stack([a.ravel(), y.ravel()])
    b = _assert_stacked_equals_separate(v, dom, [0.35, 0.6, 0.85], [4, 8, 12], pts, floor=0.1)
    assert set(b.exit_face[b.exited]) == {0, -1}

    # two inflow faces and a truncation face
    v = VelocityField.constant([1.0, 0.6, 2.0])
    dom = Domain(half_lengths=(2.0, 1.5), full_lengths=(1.0,))
    g = np.meshgrid(np.linspace(0.05, 1.5, 5), np.linspace(0.05, 1.2, 5),
                    np.linspace(-0.9, 0.9, 4), indexing="ij")
    pts = np.column_stack([c.ravel() for c in g])
    b = _assert_stacked_equals_separate(v, dom, [0.4, 0.8], [4, 8], pts)
    assert set(b.exit_face[b.exited]) == {0, 1, -1}
    # no start: an empty batch, with no column and no live knot
    b = trace_backward(v, [], pts, [], dom)
    assert b.paths == () and b.feet.shape == (0, 3)
    assert [a.shape for a in b.live] == [(0,), (0,), (0, 3)]
    # a batch is not changed once built
    with pytest.raises(dataclasses.FrozenInstanceError):
        b.feet = np.zeros((0, 3))


def test_stacked_starts_sharing_an_exit_bracket_keep_their_tolerances():
    # unit speed on the half-line: from (t, x) the exit is at t - x.  Start 0.75
    # (3 substeps) and start 1.0 (8 substeps) share the knot 0.25 bit for bit;
    # (0.75, 0.6) leaves in (0, 0.25] and (1.0, 0.8) in (0.125, 0.25].  Halving
    # together, the narrower bracket would run one step past its own tolerance
    assert np.linspace(0.75, 0.0, 4)[2] == np.linspace(1.0, 0.0, 9)[6] == 0.25
    b = _assert_stacked_equals_separate(VelocityField.constant([1.0]), HALFLINE, [0.75, 1.0],
                                        [3, 8], np.array([[0.6], [0.8]]))
    assert b.exited[0] and b.exited[3]
    assert 0.0 < b.exit_time[0] <= 0.25 and 0.125 < b.exit_time[3] <= 0.25


def _loop_trapezoid(g, ts):
    """Running trapezoid of one trace over its own knots, as a Python loop."""
    c = [0.0]
    for r in range(1, len(ts)):
        c.append(c[-1] + 0.5 * (g[r - 1] + g[r]) * (ts[r - 1] - ts[r]))
    return c


def _ragged_columns():
    """Three start times with their own substep counts; inflow exits end some traces
    early, so some knots repeat the knot before them."""
    x = np.linspace(0.05, 2.9, 30)[:, None]
    b = trace_backward(VelocityField.constant([1.0]), [0.5, 1.0, 2.0], x, [2, 4, 8],
                       Domain(half_lengths=(3.0,)))
    mask = b.live[0]
    assert b.exited.any() and not b.exited.all() and not mask.all()
    return b


def _knot_values(b, f):
    """``f(t, x)`` at every live knot of ``b`` in its flat knot order, 0 elsewhere."""
    mask, tk, xk = b.live
    v = np.zeros(mask.shape)
    v[mask] = f(tk, xk[:, 0])
    return v


def test_trapezoid_sums_equal_a_loop_over_each_trace():
    # every column on its own rows: three ragged columns of a stacked call, and one
    # trace longer than numpy's pairwise-summation block of 8
    x = np.array([[2.5]])
    for b in (_ragged_columns(),
              trace_backward(VelocityField.constant([1.0]), 2.0, x, 40, HALFLINE)):
        g = _knot_values(b, lambda t, x: np.sin(3.0 * t) + np.cos(x))
        q = _knot_values(b, lambda t, x: np.cos(t) + x ** 2)
        growth, source = b.trapezoids(g, q.copy())
        assert np.array_equal(b.trapezoids(g)[0], growth) and b.trapezoids(g)[1] is None
        for c, m in enumerate(b.members):
            ts, live = b.trace_times(c), b.live[0][b.spans[c]].reshape(-1, len(b.feet[m]))
            gc, qc = (v[b.spans[c]].reshape(ts.shape) for v in (g, q))
            for p, i in enumerate(np.arange(len(b.feet))[m]):
                n = int(live[:, p].sum())  # the trace's own knots; the rest repeat its last
                log_e = _loop_trapezoid(gc[:n, p], ts[:n, p])
                qe = qc[:n, p] * np.exp(log_e)
                assert growth[i] == np.exp(log_e[-1])
                assert source[i] == _loop_trapezoid(qe, ts[:n, p])[-1]


def test_empty_point_set_integrates_to_empty_arrays():
    b = trace_backward(VelocityField.constant([1.0]), 0.5, np.zeros((0, 1)), 4,
                       Domain(half_lengths=(2.0,)))
    growth, source = b.trapezoids(np.zeros(0), np.zeros(0))
    assert growth.shape == source.shape == (0,) and b.trapezoids(np.zeros(0))[1] is None
    grid = Grid(Domain(half_lengths=(2.0,)), (8,))
    lp = LinearProblem(VelocityField.constant([1.0]), lambda t, x: np.ones(len(x)),
                       lambda t, x: np.ones(len(x)), lambda t, x: np.ones(len(x)),
                       GridFn(grid, np.ones((8, 1))))
    assert evaluate(lp, 0.5, grid, batch=b).shape == (0,)


def _numpy_increments(g, dt):
    inc = g[:-1] + g[1:]
    inc *= 0.5
    inc *= dt
    return inc


def _spread(rng, shape):
    """Values over six decades: a pairwise or reversed sum changes their last bits."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)


def test_running_sums_equal_numpy_cumsum():
    # the running sums make numpy's additions in numpy's order, row by row on wide rows
    # and by np.cumsum on narrow ones, and a total sums the rows in that order, so every
    # result equals np.cumsum(axis=0) bit for bit
    rng = np.random.default_rng(7)
    b = _ragged_columns()
    mask, tk, _ = b.live
    own = []
    for c, at in enumerate(b.spans):
        ts = b.trace_times(c)
        dt, live = b.widths[at].reshape(ts.shape), mask[at].reshape(ts.shape)
        assert np.array_equal(dt[:-1], ts[:-1] - ts[1:]) and not dt[-1].any()
        assert live[0].all() and np.array_equal(live[1:], ts[1:] != ts[:-1])
        own.append(ts[live])
    assert np.array_equal(tk, np.concatenate(own))
    cases = {"single 2-d column": _spread(rng, (40, 1)),
             "one row": _spread(rng, (1, 30)),
             "no row": _spread(rng, (0, 30)),
             "3-d": _spread(rng, (16, 40, 2)),
             "rows wider than np.cumsum pays for": _spread(rng, (8, 300))}
    for c, at in enumerate(b.spans):
        n = len(b.paths[c]) - 1
        g = _spread(rng, (n + 1, b.paths[c].shape[1]))
        cases[f"knot column {c}"] = _numpy_increments(g, b.widths[at].reshape(g.shape)[:-1])
    for name, inc in cases.items():
        ref = np.cumsum(inc, axis=0)
        assert np.array_equal(characteristics._running_sum(inc.copy()), ref), name
        if inc.ndim == 2 and len(inc):
            assert np.array_equal(characteristics._row_total(inc), ref[-1]), name

    # the constant-field path: each knot column of a stacked call on its own rows,
    # one trace of one coordinate, and one row
    vec = np.array([1.0, 0.6])
    dom = Domain(half_lengths=(2.0, 1.5))
    lower, upper = np.array(dom.bounds()).T.copy()
    pts = rng.uniform(0.0, 1.5, (4, 2))
    b = trace_backward(VelocityField.constant(vec), [0.25, 0.5, 1.0], pts, [2, 4, 8], dom)
    cases = [(vec, b.knots[:len(p), c], pts) for c, p in enumerate(b.paths)]
    cases += [(vec[:1], b.knots[:, 2], pts[:1, :1]), (vec, b.knots[:1, 2], pts)]
    for cvec, t, p in cases:
        steps = (np.diff(t) / 6)[:, None, None] * characteristics._rk4_sum(cvec)
        path = np.empty((len(t),) + p.shape)
        path[0] = p
        characteristics._constant_path(steps, path, lower[:len(cvec)], upper[:len(cvec)])
        inc = np.broadcast_to(steps, (len(t) - 1,) + p.shape)
        assert np.array_equal(path, np.cumsum(np.concatenate([p[None], inc]), axis=0))
