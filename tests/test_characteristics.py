import dataclasses

import numpy as np
import pytest

from renewalpde import characteristics
from renewalpde.characteristics import VelocityField, rk4_step, trace_backward
from renewalpde.domain import Domain

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
    # three start columns with their own substep counts: the shorter ones are padded
    # past their own end, and some of their traces exit, some land at feet
    "stacked": ([1.0, 0.6], Domain(half_lengths=(2.0, 1.5)), np.repeat([0.25, 0.5, 1.0], 4),
                np.tile([[0.1, 0.7], [0.4, 0.05], [1.2, 1.4], [0.9, 0.6]], (3, 1)),
                np.repeat([2, 4, 8], 4), 0.0),
    # one start time, a substep count per point, from a floor above 0
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
    loop = VelocityField(v.fn, v.div, v.sup)
    assert loop.vec is None
    reference = trace_backward(loop, t, pts, substeps, domain, t_floor=floor)

    def no_callbacks(self, t, x):
        raise AssertionError("a constant field is traced without its callbacks")

    monkeypatch.setattr(VelocityField, "__call__", no_callbacks)
    got = trace_backward(v, t, pts, substeps, domain, t_floor=floor)
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
    direct = trace_backward(v, t, x, 512, HALFLINE, t_floor=r).feet
    mid = trace_backward(v, t, x, 256, HALFLINE, t_floor=s).feet
    two_leg = trace_backward(v, s, mid, 256, HALFLINE, t_floor=r).feet
    assert abs(direct[0, 0] - two_leg[0, 0]) <= 1e-7


def test_time_derivative_matches_velocity():
    v = wiggly_velocity()
    b = trace_backward(v, 1.0, [[5.0]], 64, HALFLINE)
    ts, path = b.times, b.path[:, 0]
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
    past = b.times[:, exits] < b.exit_time[exits]
    assert np.array_equal(b.path[:, exits][past], np.broadcast_to(
        b.exit_point[exits], b.path[:, exits].shape)[past])
    feet = pts[~exits] - np.column_stack([np.full((~exits).sum(), t + t * t / 2),
                                          np.full((~exits).sum(), t * t / 4)])
    assert np.allclose(b.feet[~exits], feet, rtol=0.0, atol=1e-10)

    trace_backward(v, 0.5, pts[x > 2.0], substeps, domain)
    assert len(calls) == 1


def _assert_stacked_equals_separate(v, domain, starts, substeps, pts, t_floor=0.0):
    """One call with every start stacked equals one call per start, bit for bit."""
    n = len(pts)
    b = trace_backward(v, np.repeat(starts, n), np.tile(pts, (len(starts), 1)),
                       np.repeat(substeps, n), domain, t_floor=t_floor)
    assert b.times.shape == (max(substeps) + 1, n * len(starts))
    for i, (t, k) in enumerate(zip(starts, substeps)):
        one = trace_backward(v, t, pts, k, domain, t_floor=t_floor)
        cols = slice(i * n, (i + 1) * n)
        # knot column i is stored unpadded: the separate call's knots and path
        assert np.array_equal(b.knots[:k + 1, i], one.knots[:, 0])
        assert np.array_equal(b.paths[i], one.path)
        # stacked, the column is the separate call's knots, padded with its last knot
        assert np.array_equal(b.times[:k + 1, cols], one.times)
        assert np.all(b.times[k + 1:, cols] == one.times[-1])
        assert np.array_equal(b.path[:k + 1, cols], one.path)
        assert np.array_equal(b.path[k + 1:, cols],
                              np.broadcast_to(one.path[-1], b.path[k + 1:, cols].shape))
        assert np.array_equal(b.exited[cols], one.exited)
        assert np.array_equal(b.exit_time[cols], one.exit_time, equal_nan=True)
        assert np.array_equal(b.exit_point[cols], one.exit_point, equal_nan=True)
        assert np.array_equal(b.exit_face[cols], one.exit_face)
        assert np.array_equal(b.trace_times[:k + 1, cols], one.trace_times)
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
    b = _assert_stacked_equals_separate(v, dom, [0.35, 0.6, 0.85], [4, 8, 12], pts, t_floor=0.1)
    assert set(b.exit_face[b.exited]) == {0, -1}

    # two inflow faces and a truncation face
    v = VelocityField.constant([1.0, 0.6, 2.0])
    dom = Domain(half_lengths=(2.0, 1.5), full_lengths=(1.0,))
    g = np.meshgrid(np.linspace(0.05, 1.5, 5), np.linspace(0.05, 1.2, 5),
                    np.linspace(-0.9, 0.9, 4), indexing="ij")
    pts = np.column_stack([c.ravel() for c in g])
    b = _assert_stacked_equals_separate(v, dom, [0.4, 0.8], [4, 8], pts)
    assert set(b.exit_face[b.exited]) == {0, 1, -1}
    # no points: an empty batch
    assert trace_backward(v, [], np.zeros((0, 3)), [], dom).path.shape[1:] == (0, 3)


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


def test_trapezoid_sums_equal_a_loop_over_each_trace():
    # ragged, padded columns as a stacked trace makes them: three start times
    # with their own substep counts, inflow exits ending some traces early
    x = np.linspace(0.05, 2.9, 30)[:, None]
    starts, substeps = np.repeat([0.5, 1.0, 2.0], len(x)), np.repeat([2, 4, 8], len(x))
    b = trace_backward(VelocityField.constant([1.0]), starts, np.tile(x, (3, 1)), substeps,
                       Domain(half_lengths=(3.0,)))
    live, _, _ = b.live
    assert b.exited.any() and not b.exited.all() and (~live).any()
    ts = b.trace_times
    dt = ts[:-1] - ts[1:]
    g = np.sin(3.0 * ts) + np.cos(b.path[..., 0])
    running = characteristics.cumulative_trapezoid(g, dt)
    total = characteristics.trapezoid_total(g, dt)
    for p in range(ts.shape[1]):
        n = int(live[:, p].sum())  # the trace's own knots; the rest repeat its last
        ref = _loop_trapezoid(g[:n, p], ts[:n, p])
        assert np.array_equal(running[:n, p], ref)
        assert np.all(running[n:, p] == ref[-1]) and total[p] == ref[-1]
    # one trace, as a 1-D column and as a 2-D single column
    for p in (0, ts.shape[1] - 1):
        ref = _loop_trapezoid(g[:, p], ts[:, p])
        for shape in ((-1,), (-1, 1)):
            gp, dp = g[:, p].reshape(shape), dt[:, p].reshape(shape)
            assert np.array_equal(characteristics.cumulative_trapezoid(gp, dp).ravel(), ref)
            assert np.array_equal(characteristics.trapezoid_total(gp, dp).ravel(), ref[-1:])
    # a single column longer than numpy's pairwise-summation block of 8
    t = np.linspace(2.0, 0.0, 41)
    assert characteristics.trapezoid_total(np.exp(t), t[:-1] - t[1:]) \
        == _loop_trapezoid(np.exp(t), t)[-1]



def _numpy_increments(g, dt):
    inc = g[:-1] + g[1:]
    inc *= 0.5
    inc *= dt
    return inc


def _spread(rng, shape):
    """Values over six decades: a pairwise or reversed sum changes their last bits."""
    return rng.standard_normal(shape) * 10.0 ** rng.uniform(-3, 3, shape)


def test_running_sums_equal_numpy_cumsum():
    # the row-by-row running sums make numpy's additions in numpy's order, so every
    # result equals np.cumsum(axis=0) bit for bit
    rng = np.random.default_rng(7)
    x = np.linspace(0.05, 2.9, 30)[:, None]
    starts, substeps = np.repeat([0.5, 1.0, 2.0], len(x)), np.repeat([2, 4, 8], len(x))
    b = trace_backward(VelocityField.constant([1.0]), starts, np.tile(x, (3, 1)), substeps,
                       Domain(half_lengths=(3.0,)))
    live, tk, _ = b.live
    assert b.exited.any() and not b.exited.all() and (~live).any()
    ts, dt = b.trace_times, b.widths
    assert np.array_equal(dt, ts[:-1] - ts[1:])
    assert np.array_equal(live[1:], ts[1:] != ts[:-1]) and np.array_equal(tk, ts[live])
    g = _spread(rng, ts.shape)
    g3 = _spread(rng, (17, 40, 2))
    cases = {
        "stacked ragged columns": (g, dt),
        "1-d column": (g[:, 5], dt[:, 5]),
        "single 2-d column": (g[:, 5:6], dt[:, 5:6]),
        "one row": (g[:1], dt[:0]),
        "one 1-d row": (g[:1, 5], dt[:0, 5]),
        "3-d": (g3, rng.uniform(0.0, 0.1, (16, 40, 1))),
    }
    for name, (gc, dtc) in cases.items():
        inc = _numpy_increments(gc, dtc)
        ref = np.concatenate([np.zeros((1,) + gc.shape[1:]), np.cumsum(inc, axis=0)])
        assert np.array_equal(characteristics.cumulative_trapezoid(gc, dtc), ref), name
        if gc.ndim == 2:
            assert np.array_equal(characteristics.trapezoid_total(gc, dtc), ref[-1]), name

    # the constant-field path: stacked ragged columns padded past their own end,
    # one trace of one coordinate, and one row
    vec = np.array([1.0, 0.6])
    dom = Domain(half_lengths=(2.0, 1.5))
    lower, upper = np.array(dom.bounds()).T.copy()
    pts = rng.uniform(0.0, 1.5, (12, 2))
    n = np.repeat([2, 4, 8], 4)
    times = trace_backward(VelocityField.constant(vec), np.repeat([0.25, 0.5, 1.0], 4), pts, n,
                           dom).times
    for cvec, t, p, k in ((vec, times, pts, n), (vec[:1], times[:, :1], pts[:1, :1], n[:1]),
                          (vec, times[:1], pts, np.zeros(12, dtype=int))):
        path = np.empty(t.shape + (len(cvec),))
        path[0] = p
        characteristics._constant_path(cvec, path, t, k, lower[:len(cvec)], upper[:len(cvec)])
        inc = np.diff(t, axis=0)[..., None] / 6 * characteristics._rk4_sum(cvec)
        assert np.array_equal(path, np.cumsum(np.concatenate([p[None], inc]), axis=0))
