import dataclasses
import math

import numpy as np
import pytest

from renewalpde import kernels, picard
from renewalpde.analysis import check_hypotheses, entropy_sweep
from renewalpde.characteristics import VelocityField, trace_backward
from renewalpde.config import PRESETS
from renewalpde.domain import Domain, Grid, GridFn, interp_gather, interp_values, l1_norm
from renewalpde.kernels import ScalarComponentKernel, WeightedMassKernel
from renewalpde.models import SIHRParams, build_blowup, build_sihr
from renewalpde.picard import (
    FrozenCoefficients,
    LocalExistenceError,
    PicardConfig,
    SlabPlan,
    Trajectory,
    apply_T,
    dist_X,
    lipschitz_probe,
    norm_X,
    solve,
    solve_slab,
)
from renewalpde.problem import SystemDef
from renewalpde.transport import LinearProblem, evaluate

# a grid-mode frozen field (the state, a dense kernel's integral) folds the time
# blend into its stencil weights; it matches blending two gathers of the knots
# to this many times the largest reference value
FOLD_RTOL = 1e-15
# a dense kernel frozen at every knot in one product (the state weighted by the
# cell volume first) matches its per-knot sum written out in a test to this
# many times the largest reference value; the two sums of up to ~10^3 nodes
# round apart by a few ulps (measured up to 1.7e-15)
DENSE_RTOL = 1e-14


def mass_per_knot(weight, grid, values, comp):
    """A weighted mass kernel's integral, summed one knot state at a time: (n_knots,)."""
    return np.array([np.sum(weight * v[:, comp]) * grid.cell_volume for v in values])


def dense_per_knot(kernel, x, values, grid):
    """A dense kernel's integral at the points ``x``, one knot state at a time: (n_knots, P)."""
    G = kernel.fn(x[:, None], grid.points[None])
    return np.stack([G @ v[:, kernel.comp] * grid.cell_volume for v in values])


def knot_trajectory(times, states):
    """The trajectory with one given grid state per knot."""
    return Trajectory(states[0].grid, times, np.stack([s.values for s in states]))


def constant_trajectory(sys_, grid, times):
    return knot_trajectory(times, [sys_.initial_state(grid)] * len(times))


def test_apply_T_constant_for_decoupled_system():
    # all sources off: p carries only mortality, q and ub vanish, so the
    # frozen problems cannot see w at all
    sys_ = build_sihr(SIHRParams(mu_i=0.3, rho=0.0))
    grid = Grid(sys_.domain, (64,))
    times = np.linspace(0.0, 0.5, 9)
    w1 = constant_trajectory(sys_, grid, times)
    u0 = sys_.initial_state(grid)
    w2 = knot_trajectory(times, [u0 * (1.0 + 0.3 * j) for j in range(9)])
    a = apply_T(sys_, w1)
    b = apply_T(sys_, w2)
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa.values, sb.values)


def test_apply_T_blowup_frozen_exponential():
    sys_, _ = build_blowup("ode")
    grid = Grid(sys_.domain, (400,))
    times = np.linspace(0.0, 0.5, 9)
    w = constant_trajectory(sys_, grid, times)
    u = apply_T(sys_, w)
    # frozen coefficient is the constant initial window mass 1, so the
    # image evolves like e^t times the datum
    for j, t in enumerate(times):
        mass = l1_norm(u.states[j])
        assert mass == pytest.approx(np.exp(t), rel=1e-6)


def test_apply_T_single_sweep_solves_decoupled():
    c = 0.3 + 0.1
    sys_ = build_sihr(SIHRParams(mu_i=0.3, kappa=0.1, rho=0.0))
    grid = Grid(sys_.domain, (128,))
    times = np.linspace(0.0, 1.0, 17)
    u = apply_T(sys_, constant_trajectory(sys_, grid, times))
    m0 = np.sum(np.abs(u.states[0].values[:, 1])) * grid.cell_volume
    mT = np.sum(np.abs(u.states[-1].values[:, 1])) * grid.cell_volume
    assert mT == pytest.approx(m0 * np.exp(-c), rel=0.02)


def test_solve_slab_decoupled_two_iterations():
    sys_ = build_sihr(SIHRParams(mu_i=0.3, rho=0.0))
    grid = Grid(sys_.domain, (64,))
    traj = solve_slab(sys_, sys_.initial_state(grid), 0.0, PicardConfig())
    assert traj.diagnostics[0].iterations <= 2


def test_solve_slab_blowup_mass():
    sys_, _ = build_blowup("ode")
    grid = Grid(sys_.domain, (400,))
    cfg = PicardConfig(slab_length=0.5, ball_mass=4.0)
    traj = solve_slab(sys_, sys_.initial_state(grid), 0.0, cfg)
    # may have halved; chain slabs until t = 0.5 via solve for the value check
    full = solve(sys_, grid, 0.5, PicardConfig(slab_length=0.5))
    assert l1_norm(full.states[-1]) == pytest.approx(2.0, rel=0.02)


def test_solve_blowup_past_singularity_fails_with_bracket():
    sys_, _ = build_blowup("ode")
    grid = Grid(sys_.domain, (100,))
    with pytest.raises(LocalExistenceError) as exc:
        solve(sys_, grid, 1.2, PicardConfig())
    lo, hi = exc.value.bracket
    assert 0.9 <= lo <= hi <= 1.1


def test_non_finite_sweep_halves_the_slab_down_to_a_bracket(monkeypatch):
    # P = inf past t = 0.3: every sweep of a slab past 0.3 evaluates a non-finite
    # value, and the slab halves until it is below min_slab_factor; the bracket
    # then holds 0.3
    sys_ = SystemDef(k=1, domain=Domain(half_lengths=(3.0,)),
                     velocities=(VelocityField.constant([1.0]),),
                     P=(lambda t, pts, eta: np.where(t > 0.3, np.inf, -0.1),), Q=(None,),
                     Ub=(None,), u0=lambda pts: np.exp(-(pts - 1.0) ** 2))
    raised, sweep = [], picard.apply_T

    def counted(*args, **kwargs):
        try:
            return sweep(*args, **kwargs)
        except picard.BlowupError as exc:
            raised.append(str(exc))
            raise

    monkeypatch.setattr(picard, "apply_T", counted)
    cfg = PicardConfig(min_slab_factor=1e-3)
    with pytest.raises(LocalExistenceError) as exc:
        solve(sys_, Grid(sys_.domain, (60,)), 1.0, cfg)
    lo, hi = exc.value.bracket
    assert lo < 0.3 < hi and hi - lo <= 2 * cfg.min_slab_factor * cfg.slab_length
    assert len(raised) >= 2 and all(m.startswith("non-finite solution values") for m in raised)


def test_solve_transport_only():
    sys_ = build_sihr(SIHRParams(rho=0.0))
    grid = Grid(sys_.domain, (128,))
    traj = solve(sys_, grid, 2.0, PicardConfig(slab_length=0.5))
    shifted = sys_.u0(grid.points - np.array([2.0]))
    err = np.sum(np.abs(traj.states[-1].values - shifted)) * grid.cell_volume
    assert err <= 4 * grid.dx[0]


def test_solve_blowup_transport_support():
    sys_, oracle = build_blowup("transport")
    grid = Grid(sys_.domain, (300,))
    traj = solve(sys_, grid, 0.75, PicardConfig())
    final = traj.states[-1].values[:, 0]
    assert l1_norm(traj.states[-1]) == pytest.approx(4.0, rel=0.03)
    x = grid.points[:, 0]
    support = x[final > 0.5 * final.max()]
    midpoint = 0.5 * (support.min() + support.max())
    assert abs(midpoint - (0.75 + 0.5)) <= 2 * grid.dx[0]


def test_lipschitz_probe_identical_zero():
    sys_ = build_sihr(SIHRParams(rho=0.2, kappa=0.1))
    grid = Grid(sys_.domain, (64,))
    u0 = sys_.initial_state(grid)
    probe = lipschitz_probe(sys_, grid, u0, u0, 0.5, PicardConfig())
    assert probe.ratio == 0.0
    assert np.all(probe.distances == 0.0)


def test_lipschitz_probe_transport_isometry():
    sys_ = build_sihr(SIHRParams(rho=0.0))
    grid = Grid(sys_.domain, (128,))
    u0 = sys_.initial_state(grid)
    bump_vals = np.zeros_like(u0.values)
    x = grid.points[:, 0]
    bump_vals[:, 1] = 0.05 * np.exp(-((x - 2.0) / 0.5) ** 2)
    probe = lipschitz_probe(sys_, grid, u0, GridFn(grid, u0.values + bump_vals),
                            1.0, PicardConfig(slab_length=0.5))
    assert probe.ratio == pytest.approx(1.0, abs=0.02)


def test_lipschitz_probe_blowup_linear_response():
    sys_, _ = build_blowup("ode")
    grid = Grid(sys_.domain, (200,))
    u0 = sys_.initial_state(grid)
    ratios = []
    for eps in (0.01, 0.005):
        pert = GridFn(grid, u0.values * (1.0 + eps))
        probe = lipschitz_probe(sys_, grid, u0, pert, 0.5, PicardConfig())
        ratios.append(probe.ratio)
        assert np.isfinite(probe.ratio)
    assert abs(ratios[0] - ratios[1]) <= 0.10 * ratios[1]


def test_contraction_and_ball_diagnostics():
    sys_ = build_sihr(SIHRParams(rho=0.3, kappa=0.2, theta=0.1, eta=0.1))
    grid = Grid(sys_.domain, (96,))
    cfg = PicardConfig(slab_length=0.5)
    traj = solve(sys_, grid, 2.0, cfg)
    for d in traj.diagnostics:
        assert d.theta < cfg.theta_max
        assert d.norm_X <= d.ball
        for r in d.ratios:
            assert r <= cfg.theta_max


def test_fixed_point_residual():
    sys_ = build_sihr(SIHRParams(rho=0.3, kappa=0.2))
    grid = Grid(sys_.domain, (96,))
    cfg = PicardConfig(slab_length=0.5)
    slab = solve_slab(sys_, sys_.initial_state(grid), 0.0, cfg)
    again = apply_T(sys_, slab)
    assert dist_X(again, slab) <= 2 * cfg.eps_fix


@pytest.mark.parametrize("case", [1, 4, "cellgrowth"])
def test_norms_equal_the_per_state_loop(case):
    # the masses, norm_X and dist_X sum every knot state in one pass; the result must
    # equal a sum per state bit for bit.  numpy sums one column pairwise (k = 1) and
    # several row by row (k = 4); values spread over eight decades, or a solved k = 1
    # trajectory against its own knots in reverse
    if case == "cellgrowth":
        sys_ = PRESETS["cellgrowth"].build({})[0]
        a = solve(sys_, Grid(sys_.domain, (192,)), 1.0, PicardConfig())
        b = Trajectory(a.grid, a.times, a.values[::-1])
    else:
        rng = np.random.default_rng(case)
        grid = Grid(Domain(half_lengths=(2.0,)), (300,))
        a, b = (Trajectory(grid, np.arange(9.0), rng.standard_normal((9, grid.n_nodes, case))
                           * 10.0 ** rng.uniform(-4, 4, (9, grid.n_nodes, case)))
                for _ in range(2))
    assert a.values.flags.c_contiguous and b.values.flags.c_contiguous
    vol = a.grid.cell_volume
    per = np.array([np.sum(np.abs(s.values), axis=0) * vol for s in a.states])
    assert np.array_equal(a.component_masses(), per)
    assert norm_X(a) == float(np.sum(np.max(per, axis=0)))
    per = np.array([np.sum(np.abs(x.values - y.values), axis=0) * vol
                    for x, y in zip(a.states, b.states)])
    assert dist_X(a, b) == float(np.sum(np.max(per, axis=0)))


def test_norms_and_sweeps_leave_their_inputs_unchanged():
    # dist_X takes abs in place, which must only ever touch a fresh array; the inputs
    # have negative entries, which an abs in place would flip
    sys_ = build_sihr(SIHRParams(rho=0.1, kappa=0.2))
    grid = Grid(sys_.domain, (32,))
    rng = np.random.default_rng(5)
    a, b = (Trajectory(grid, np.linspace(0.0, 0.25, 5),
                       rng.uniform(-1.0, 1.0, (5, grid.n_nodes, sys_.k))) for _ in range(2))
    kept = a.values.copy(), b.values.copy()
    assert norm_X(a) > 0.0 and dist_X(a, b) > 0.0
    apply_T(sys_, a)
    assert np.array_equal(a.values, kept[0]) and np.array_equal(b.values, kept[1])


def test_slab_restart_consistency():
    sys_ = build_sihr(SIHRParams(mu_i=0.2, rho=0.0))
    grid = Grid(sys_.domain, (128,))
    one = solve(sys_, grid, 1.0, PicardConfig(slab_length=1.0))
    two = solve(sys_, grid, 1.0, PicardConfig(slab_length=0.5))
    d = l1_norm(one.states[-1] - two.states[-1])
    # seam resampling of smooth data costs O(dx^2); allow that plus slack
    assert d <= 5 * PicardConfig().eps_fix + 0.02


def test_age_and_time_since_infection_oracle_with_two_inflow_faces():
    # u(t, a, s) with velocity (1, 1), p = -mu, no source, and renewal data on both
    # faces: b_a(t, s) enters at a = 0 and b_s(t, a) at s = 0.  Back from (t, a, s)
    # the trace reaches t = 0, a = 0 or s = 0 first, at s* = min(t, a, s), so
    #   u = [u0(a - t, s - t), b_a(t - a, s - a) or b_s(t - s, a - s)] * exp(-mu s*).
    # Traces, exits and the growth factor are exact up to rounding; only u0 is
    # interpolated, multilinearly, at the feet.  So a node with a foot agrees within
    # (ha^2 max|u0_aa| + hs^2 max|u0_ss|) / 8 = (ha^2 + hs^2) / 4, except where the
    # foot lies in the half-cell margin and the interpolant is extended as a
    # constant; a node with an exit agrees within 1e-10, the bisection's accuracy
    mu = 0.4
    domain = Domain(half_lengths=(2.0, 1.5))
    grid = Grid(domain, (40, 25))
    ha, hs = grid.dx

    def u0(a, s):
        return np.exp(-(a - 0.8) ** 2 - (s - 0.6) ** 2)

    def b_a(t, s):
        return 1.0 + 0.5 * np.sin(3.0 * t) * np.exp(-s)

    def b_s(t, a):
        return 0.5 + 0.3 * np.cos(2.0 * t + a)

    def ub(t, pts):
        return np.where(pts[:, 0] == 0.0, b_a(t, pts[:, 1]), b_s(t, pts[:, 0]))

    def exact(t, a, s):
        first = np.minimum(np.minimum(t, a), s)
        val = np.where(first == t, u0(a - t, s - t),
                       np.where(first == a, b_a(t - a, s - a), b_s(t - s, a - s)))
        return val * np.exp(-mu * first)

    def check(t, vals):
        a, s = grid.points.T
        # no node sits on a switch between the three cases
        assert min(np.abs(t - a).min(), np.abs(t - s).min(), np.abs(a - s).min()) > 1e-6
        hit = np.minimum(a, s) < t
        margin = ~hit & ((a - t < ha / 2) | (s - t < hs / 2))
        err = np.abs(vals - exact(t, a, s))
        assert err[~hit & ~margin].max() <= (ha * ha + hs * hs) / 4
        assert err[hit].max(initial=0.0) <= 1e-10
        return hit, a < s  # the nodes that exited, and through which face

    vel = VelocityField.constant([1.0, 1.0])
    t_end = 0.77
    lp = LinearProblem(vel, lambda t, pts: np.full(len(pts), -mu), None, ub,
                       GridFn.from_callback(grid, lambda pts: u0(pts[:, 0], pts[:, 1])))
    hit, face_a = check(t_end, evaluate(lp, t_end, grid).values[:, 0])
    # both faces are hit, each by many nodes
    assert (hit & face_a).sum() >= 50 and (hit & ~face_a).sum() >= 50

    # one slab from t = 0: every knot is one trace away from the data, and the
    # coefficients do not see the iterate, so the fixed point is this same formula
    sys_ = SystemDef(k=1, domain=domain, velocities=(vel,),
                     P=(lambda t, pts, eta: np.full(len(pts), -mu),),
                     Q=(lambda t, pts, u, eta: np.zeros(len(pts)),),
                     Ub=(lambda t, pts, eta: ub(t, pts),),
                     u0=lambda pts: u0(pts[:, 0], pts[:, 1])[:, None])
    traj = solve(sys_, grid, t_end, PicardConfig(slab_length=t_end))
    assert len(traj.diagnostics) == 1 and len(traj.times) > 8
    for t, state in zip(traj.times, traj.states):
        check(t, state.values[:, 0])


def test_trajectory_state_interpolation():
    sys_ = build_sihr(SIHRParams(rho=0.0))
    grid = Grid(sys_.domain, (64,))
    traj = solve(sys_, grid, 0.5, PicardConfig())
    mid = traj.state_at(0.5 * (traj.times[3] + traj.times[4]))
    expected = 0.5 * (traj.states[3].values + traj.states[4].values)
    assert np.allclose(mid.values, expected)
    # at and beyond the end knots the end states come back exactly
    for t, end in ((traj.times[0], 0), (traj.times[0] - 0.1, 0),
                   (traj.times[-1], -1), (traj.times[-1] + 0.1, -1)):
        assert np.array_equal(traj.state_at(t).values, traj.states[end].values)


@pytest.mark.parametrize("mode", ["face", "direct"])
def test_frozen_boundary_integral_blends_knot_integrals(mode):
    # the renewal datum Ub = int Ku w at exit points and times must equal
    # the linear-in-t blend of the kernel integrals at the bracketing knots
    if mode == "face":
        # one inflow face, 2-D: exits land anywhere on it, past its outermost nodes too
        domain = Domain(half_lengths=(2.0,), full_lengths=(1.0, 1.0))
        shape = (10, 7, 6)
        vel = VelocityField.constant([1.0, 0.2, -0.1])
    else:
        # two inflow faces
        domain = Domain(half_lengths=(2.0, 1.5))
        shape = (10, 8)
        vel = VelocityField.constant([1.0, 0.6])
    # the kernel depends on the evaluation point, so it is integrated at each exit
    kernel = ScalarComponentKernel(
        lambda x, xp: (1.0 + 0.3 * x[..., 1] - 0.2 * x[..., -1]) * np.exp(-xp[..., 0]))
    sys_ = SystemDef(k=1, domain=domain, velocities=(vel,),
                     P=(lambda t, pts, eta: np.zeros(pts.shape[0]),),
                     Q=(lambda t, pts, u, eta: np.zeros(pts.shape[0]),),
                     Ub=(lambda t, pts, eta: eta[:, 0],), Ku=(kernel,),
                     u0=lambda pts: np.exp(-np.sum(pts ** 2, axis=1))[:, None])
    grid = Grid(domain, shape)
    times = np.linspace(0.0, 0.8, 5)
    u0 = sys_.initial_state(grid).values
    states = [GridFn(grid, u0 * (1.0 + 0.5 * j) + 0.1 * j * grid.points[:, :1])
              for j in range(len(times))]
    frozen = FrozenCoefficients(sys_, knot_trajectory(times, states))

    batch = trace_backward(vel, float(times[-1]), grid.points, 16, domain)
    T, X = batch.exit_time[batch.exited], batch.exit_point[batch.exited]
    if mode == "direct":
        assert set(batch.exit_face[batch.exited]) == {0, 1}
    assert len(T) >= 20

    got = frozen.ub(0, T, X)
    expected = np.empty(len(T))
    for i, (t, x) in enumerate(zip(T, X)):
        j = min(int(np.searchsorted(times, t, side="right")) - 1, len(times) - 2)
        lam = (t - times[j]) / (times[j + 1] - times[j])
        a, b = dense_per_knot(kernel, x[None], [s.values for s in states[j:j + 2]], grid)[:, 0]
        expected[i] = (1.0 - lam) * a + lam * b
    assert np.allclose(got, expected, rtol=1e-12, atol=0.0)


def test_traces_built_once_per_slab_attempt(monkeypatch):
    # three components on two velocity objects, coupled through the mass of
    # component 0, so the slab takes several sweeps
    va, vb = VelocityField.constant([1.0]), VelocityField.constant([0.5])
    mass = WeightedMassKernel(1.0, comp=0)
    sys_ = SystemDef(k=3, domain=Domain(half_lengths=(3.0,)), velocities=(va, vb, va),
                     P=(lambda t, pts, eta: -0.3 * eta[:, 0],) * 3,
                     Q=(lambda t, pts, u, eta: np.zeros(pts.shape[0]),) * 3,
                     Ub=(lambda t, pts, eta: 0.2 * eta[:, 0],) * 3, Kp=(mass,) * 3,
                     Ku=(mass,) * 3,
                     u0=lambda pts: np.exp(-(pts - 1.0) ** 2)[:, :1] * np.ones(3))
    grid = Grid(sys_.domain, (60,))
    traces, sweeps = [], []
    trace = picard.trace_backward
    sweep = picard.apply_T
    monkeypatch.setattr(picard, "trace_backward",
                        lambda *a, **k: traces.append(1) or trace(*a, **k))
    monkeypatch.setattr(picard, "apply_T", lambda *a, **k: sweeps.append(1) or sweep(*a, **k))
    cfg = PicardConfig()
    traj = solve_slab(sys_, sys_.initial_state(grid), 0.0, cfg)
    assert traj.diagnostics[0].halvings == 0
    assert len(sweeps) >= 3
    # one stacked trace of all knots per distinct velocity
    assert len(traces) == 2

    # a prebuilt plan gives the same sweep as a plan built inside it
    times = traj.times
    w = knot_trajectory(times, [s * (1.0 + 0.1 * j) for j, s in enumerate(traj.states)])
    a = sweep(sys_, w, SlabPlan(sys_, w.states[0], times))
    b = sweep(sys_, w)
    for sa, sb in zip(a.states, b.states):
        assert np.array_equal(sa.values, sb.values)


def test_feet_datum_gathered_once_per_slab_attempt(monkeypatch):
    sys_, _ = build_blowup("ode")
    grid = Grid(sys_.domain, (200,))
    cfg = PicardConfig(min_knots=4)
    plans, feet_gathers, sweeps = [], [], []
    plan_cls, gather, sweep = picard.SlabPlan, picard.interp_gather, picard.apply_T

    def record_plan(*a, **k):
        plans.append(None)  # marks the plan under construction
        plans[-1] = plan_cls(*a, **k)
        return plans[-1]

    def record_gather(stencil, *args):
        # a plan gathers nothing but the initial state at its feet
        if plans and plans[-1] is None:
            feet_gathers.append(len(plans))
        return gather(stencil, *args)

    monkeypatch.setattr(picard, "SlabPlan", record_plan)
    monkeypatch.setattr(picard, "interp_gather", record_gather)
    monkeypatch.setattr(picard, "apply_T", lambda *a, **k: sweeps.append(1) or sweep(*a, **k))
    kept = solve_slab(sys_, sys_.initial_state(grid), 0.0, cfg)
    assert len(sweeps) >= 3 * len(plans)
    # one site, one gather of the initial state at its feet per slab attempt
    assert feet_gathers == list(range(1, len(plans) + 1))

    # interpolating the datum in every sweep, as evaluate does without it, gives the same bits
    monkeypatch.setattr(picard, "evaluate", lambda *a, feet_u0, **k: evaluate(*a, **k))
    fresh = solve_slab(sys_, sys_.initial_state(grid), 0.0, cfg)
    assert np.array_equal(kept.times, fresh.times)
    for a, b in zip(kept.states, fresh.states):
        assert np.array_equal(a.values, b.values)


def spy_solve(monkeypatch, sys_, grid, cfg):
    """Run ``solve`` to T = 1.2 or a blow-up; count its traces and record, per slab
    attempt, (relative knots, shapes kept once its plan is built)."""
    traces, plans = [], []
    trace, plan_cls = picard.trace_backward, picard.SlabPlan

    def record_plan(sys_, u0, times, t0, kept):
        plan = plan_cls(sys_, u0, times, t0, kept)
        plans.append((times, len(kept)))
        return plan

    monkeypatch.setattr(picard, "trace_backward", lambda *a, **k: traces.append(1) or trace(*a, **k))
    monkeypatch.setattr(picard, "SlabPlan", record_plan)
    try:
        solve(sys_, grid, 1.2, cfg)
    except LocalExistenceError:
        pass
    return len(traces), plans


@pytest.mark.parametrize("cells, cfg, traced, attempts", [
    (200, PicardConfig(min_knots=4, min_slab_factor=1e-2), 7, 39),  # blowup-cascade, c = 1
    (400, PicardConfig(), 20, 118),  # the default blow-up
])
def test_constant_velocity_traced_once_per_slab_shape(monkeypatch, cells, cfg, traced, attempts):
    sys_, _ = build_blowup("ode")
    n, plans = spy_solve(monkeypatch, sys_, Grid(sys_.domain, (cells,)), cfg)
    shapes = {times.tobytes() for times, _ in plans}
    assert (n, len(plans), len(shapes)) == (traced, attempts, traced)
    assert max(kept for _, kept in plans) == picard._KEPT_SHAPES

    # the same field as a callback is traced on absolute times, once per attempt
    v = sys_.velocities[0]
    twin = dataclasses.replace(sys_, velocities=(VelocityField(v.fn, v.div, v.sup),))
    n, plans = spy_solve(monkeypatch, twin, Grid(sys_.domain, (cells,)), cfg)
    assert (n, len(plans)) == (attempts, attempts)


def test_solve_stops_at_its_slab_budget(monkeypatch):
    # cellgrowth converges on every default slab of 0.25: with a budget of two
    # slabs, solve stops at 0.5 and names the budget, not a blow-up
    monkeypatch.setattr(picard, "_MAX_SLABS", 2)
    sys_ = PRESETS["cellgrowth"].build({})[0]
    with pytest.raises(LocalExistenceError, match="^slab budget exhausted before horizon") as err:
        solve(sys_, Grid(sys_.domain, (48,)), 1.0, PicardConfig())
    assert err.value.bracket == (0.5, 1.0)


def test_slab_lengths_are_exact_halvings(monkeypatch):
    # 0.1 is not dyadic: t1 - t0 rounds away from the slab's length, which the
    # next slab used to double; every attempt is 0.1·2^-n, so its shape recurs
    sys_, _ = build_blowup("ode")
    cfg = PicardConfig(min_knots=4, min_slab_factor=1e-2, slab_length=0.1)
    n, plans = spy_solve(monkeypatch, sys_, Grid(sys_.domain, (200,)), cfg)
    lengths = [float(times[-1]) for times, _ in plans]
    assert all(h == 0.1 * 0.5 ** round(math.log2(0.1 / h)) for h in lengths)
    assert n == len({times.tobytes() for times, _ in plans}) < len(plans)


def test_kept_plan_from_another_start_equals_a_fresh_plan(monkeypatch):
    # an inflow face, a source and coefficients that depend on time: the kept traces
    # serve every start, the coefficients read at the start plus their times, and
    # each plan gathers its own initial state
    mass = WeightedMassKernel(1.0, comp=0)
    sys_ = SystemDef(k=1, domain=Domain(half_lengths=(3.0,)),
                     velocities=(VelocityField.constant([1.0]),),
                     P=(lambda t, pts, eta: -0.3 * eta[:, 0] + np.sin(3.0 * t),),
                     Q=(lambda t, pts, u, eta: np.cos(2.0 * t) * u[:, 0] + pts[:, 0],),
                     Ub=(lambda t, pts, eta: 0.2 * eta[:, 0] * (1.0 + t),), Kp=(mass,),
                     Ku=(mass,), u0=lambda pts: np.exp(-(pts - 1.0) ** 2))
    grid = Grid(sys_.domain, (60,))
    traces, trace = [], picard.trace_backward
    monkeypatch.setattr(picard, "trace_backward", lambda *a, **k: traces.append(1) or trace(*a, **k))
    rel, kept = np.linspace(0.0, 0.5, 9), {}
    u_a = sys_.initial_state(grid)
    SlabPlan(sys_, u_a, rel, 0.25, kept)
    for t0 in (0.75, 1.3):
        u_b = GridFn(grid, u_a.values * (1.0 + t0) + 0.1 * t0)
        w = knot_trajectory(t0 + rel, [u_b * (1.0 + 0.1 * j) for j in range(len(rel))])
        n = len(traces)
        reused = apply_T(sys_, w, SlabPlan(sys_, u_b, rel, t0, kept))
        assert len(traces) == n
        fresh = apply_T(sys_, w, SlabPlan(sys_, u_b, rel, t0))
        assert np.array_equal(reused.values, fresh.values)
    assert len(traces) == 3  # the first plan's and each fresh plan's

    # the last two shapes stay: a third evicts the first, which is then traced again
    for h in (0.25, 0.125, 0.5):
        SlabPlan(sys_, u_a, np.linspace(0.0, h, 9), 0.0, kept)
    assert len(kept) == picard._KEPT_SHAPES and len(traces) == 6


def test_callable_velocity_sweep_does_not_depend_on_the_slab_start():
    # a callable velocity and P/Q/Ub that do not depend on time, on an inflow
    # domain: every slab start traces the same characteristics on the slab's own
    # times, so its exits and its sweep are the t0 = 0 slab's bit for bit.  Traced
    # on absolute times, exits were bisected to 1e-12·t, which moved them by up
    # to 1.6e-12 and the sweep by up to 3.8e-12 at t0 = 5
    def fn(t, x):
        return 1.0 + 0.3 * np.sin(2.0 * np.atleast_2d(x))

    v = VelocityField(fn, lambda t, x: 0.6 * np.cos(2.0 * np.atleast_2d(x)[:, 0]), sup=1.3)
    mass = WeightedMassKernel(1.0, comp=0)
    sys_ = SystemDef(k=1, domain=Domain(half_lengths=(3.0,)), velocities=(v,),
                     P=(lambda t, pts, eta: -0.3 * eta[:, 0] - pts[:, 0],),
                     Q=(lambda t, pts, u, eta: 0.5 * u[:, 0] + pts[:, 0],),
                     Ub=(lambda t, pts, eta: 0.2 * eta[:, 0] + 1.0,), Kp=(mass,),
                     Ku=(mass,), u0=lambda pts: np.exp(-(pts - 1.0) ** 2))
    grid = Grid(sys_.domain, (60,))
    rel, u0 = np.linspace(0.0, 0.5, 9), sys_.initial_state(grid)
    states = [u0 * (1.0 + 0.1 * j) for j in range(len(rel))]

    def sweep(t0):
        plan = SlabPlan(sys_, u0, rel, t0)
        batch = plan.sites[0].batch
        return apply_T(sys_, knot_trajectory(t0 + rel, states), plan), batch

    base, base_batch = sweep(0.0)
    inflow = base_batch.exit_face >= 0
    assert inflow.any() and not base_batch.exited.all()
    for t0 in (0.25, 0.75, 1.3, 5.0):
        u, batch = sweep(t0)
        assert np.array_equal(batch.exit_face, base_batch.exit_face)
        assert np.array_equal(batch.exit_time[inflow], base_batch.exit_time[inflow])
        assert np.array_equal(u.values, base.values)
    # the knots are the slab's own times, from 0; its start is t0
    with pytest.raises(ValueError, match="start at 0"):
        SlabPlan(sys_, u0, 0.25 + rel, 0.25)


def contact_sihr(fn=None):
    """Age x 2-D space SIHR with a dense structured contact kernel frozen on the grid."""
    def drift(t, pts):
        return np.broadcast_to([0.3, 0.0], (np.atleast_2d(pts).shape[0], 2))

    def contact(x, xp):
        dy = x[..., 1:] - xp[..., 1:]
        return 0.08 * np.exp(-np.sum(dy * dy, axis=-1))

    params = SIHRParams(kappa=0.3, theta=0.1, eta=0.2, rho=fn or contact, rho_bound=0.08,
                        spatial=True, vel_s=drift, vel_i=drift, vel_r=drift, age_max=4.0,
                        natality_weight=0.3)
    return build_sihr(params)


def test_plan_sweep_equals_planless_coefficients():
    # 756 nodes: the kernel matrix spans two row blocks
    sys_ = contact_sihr()
    grid = Grid(sys_.domain, (12, 9, 7))
    times = np.linspace(0.0, 0.5, 5)
    u0 = sys_.initial_state(grid)
    states = [GridFn(grid, u0.values * (1.0 + 0.2 * j) + 0.01 * j) for j in range(len(times))]
    w = knot_trajectory(times, states)
    plan = SlabPlan(sys_, states[0], times)

    frozen = FrozenCoefficients(sys_, w)
    for h in range(sys_.k):
        site = plan.sites[h]
        _, tk, xk = site.batch.live
        assert np.array_equal(frozen.p(h, tk, xk, site.knots), frozen.p(h, tk, xk))
        assert np.array_equal(frozen.q(h, tk, xk, site.knots), frozen.q(h, tk, xk))
        assert np.array_equal(frozen.w_at(tk, xk, site.knots), frozen.w_at(tk, xk))
        inflow = site.batch.exit_face >= 0
        T, X = site.batch.exit_time[inflow], site.batch.exit_point[inflow]
        assert len(T) > 0
        assert np.array_equal(frozen.ub(h, T, X, site.exits), frozen.ub(h, T, X))

    # knot j of the sweep is the column block (j-1)N : jN of one stacked
    # evaluate; it equals the planless evaluate at that knot with its own trace.
    # The slab starts at 0, so the planless problems' clock is the plan's
    swept = apply_T(sys_, w, plan)
    planless = [frozen.linear_problem(h) for h in range(sys_.k)]
    for j in range(1, len(times)):
        for h in range(sys_.k):
            substeps = picard._SUBSTEPS_PER_INTERVAL * j
            u = evaluate(planless[h], float(times[j]), grid, substeps=substeps)
            assert np.array_equal(swept.states[j].values[:, h], u.values[:, 0])


def test_sweep_freezes_once_and_integrates_each_kernel_once(monkeypatch):
    # Kp[S] and Kq[I] are one contact kernel: a sweep builds one FrozenCoefficients
    # for all four components and integrates the contact once, at every knot,
    # not once per knot nor once per row that names it
    sys_ = contact_sihr()
    assert sys_.Kp[0] is sys_.Kq[1]
    grid = Grid(sys_.domain, (6, 5, 4))
    times = np.linspace(0.0, 0.25, 5)
    w = constant_trajectory(sys_, grid, times)
    plan = SlabPlan(sys_, w.states[0], times)
    integrals, freezes = [], []
    integrate, init = ScalarComponentKernel.integrate, FrozenCoefficients.__init__
    monkeypatch.setattr(ScalarComponentKernel, "integrate",
                        lambda self, **k: integrals.append(self) or integrate(self, **k))
    monkeypatch.setattr(FrozenCoefficients, "__init__",
                        lambda self, *a: freezes.append(a) or init(self, *a))
    apply_T(sys_, w, plan)
    assert integrals == [sys_.Kp[0]]
    assert len(freezes) == 1


def test_sweep_gathers_each_kernel_field_once_per_site(monkeypatch):
    # S and I share the drift site, and the contact is both S's Kp and I's Kq:
    # a sweep gathers it once for both, and the state once on each of the two
    # sites with a sourced row; 3 gathers, where one per row makes 4
    sys_ = contact_sihr()
    grid = Grid(sys_.domain, (10, 8, 8))
    times = np.linspace(0.0, 0.25, 5)
    w = knot_trajectory(times, [GridFn(grid, sys_.initial_state(grid).values * (1.0 + 0.1 * j))
                                for j in range(len(times))])
    plan = SlabPlan(sys_, w.states[0], times)
    assert plan.sites[0] is plan.sites[1]
    gathers = []
    gather = picard.interp_gather
    monkeypatch.setattr(picard, "interp_gather", lambda *a: gathers.append(1) or gather(*a))
    kept = apply_T(sys_, w, plan)
    assert len(gathers) == 3

    # gathering afresh for every row gives the same bits
    gathers.clear()
    monkeypatch.setattr(FrozenCoefficients, "_field",
                        lambda self, sampler, knots, keep: sampler(knots))
    fresh = apply_T(sys_, w, plan)
    assert len(gathers) == 4
    assert np.array_equal(kept.values, fresh.values)

    # a kept field is read-only: an outer map that writes to it raises
    monkeypatch.undo()

    def writes(t, pts, eta):
        eta *= 2.0
        return -eta[:, 0]

    with pytest.raises(ValueError, match="read-only"):
        apply_T(dataclasses.replace(sys_, P=(writes,) + sys_.P[1:]), w, plan)


def test_kernel_matrix_built_once_per_slab_attempt(monkeypatch):
    calls = []

    def contact(x, xp):
        calls.append(1)
        dy = x[..., 1:] - xp[..., 1:]
        return 0.08 * np.exp(-np.sum(dy * dy, axis=-1))

    sys_ = contact_sihr(contact)
    # fewer nodes than one block of kernel rows: one call builds the matrix
    grid = Grid(sys_.domain, (6, 5, 4))
    sweeps = []
    sweep = picard.apply_T
    monkeypatch.setattr(picard, "apply_T", lambda *a, **k: sweeps.append(1) or sweep(*a, **k))
    traj = solve_slab(sys_, sys_.initial_state(grid), 0.0, PicardConfig(min_knots=4))
    assert len(sweeps) >= 3
    # Kp[S] and Kq[I] are one kernel object: one matrix, kept by the kernel
    assert len(calls) == traj.diagnostics[0].halvings + 1


def test_kernel_matrix_budget_fallback_is_bitwise_equal(monkeypatch):
    # past the budget each freeze rebuilds the kernel's row blocks instead;
    # 756 nodes, so both paths apply two row blocks
    sys_ = contact_sihr()
    grid = Grid(sys_.domain, (12, 9, 7))
    cfg = PicardConfig(slab_length=0.125, min_knots=4)
    dense = solve(sys_, grid, 0.125, cfg)
    monkeypatch.setattr(kernels, "_MATRIX_BUDGET", 0)
    fallback_sys = contact_sihr()
    fallback = solve(fallback_sys, grid, 0.125, cfg)
    kernel = fallback_sys.Kp[0]
    assert kernel._matrix_grid is grid and kernel._matrix is None
    assert np.array_equal(dense.times, fallback.times)
    for a, b in zip(dense.states, fallback.states):
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("kind", ["mass", "dense"])
def test_kernel_node_data_built_once_per_grid(kind, monkeypatch):
    # a kernel builds what it keeps per grid (the mass weight on the nodes, the
    # dense node matrix) once per grid: across slab attempts, sweeps and the
    # audits after a solve
    builds = []
    if kind == "mass":
        def weight(pts):
            builds.append(pts.shape[0])
            return np.exp(-pts[:, 0])

        def system():
            mass = WeightedMassKernel(weight, comp=0)
            return SystemDef(k=1, domain=Domain(half_lengths=(3.0,)),
                             velocities=(VelocityField.constant([1.0]),),
                             P=(lambda t, pts, eta: -0.3 * eta[:, 0],),
                             Q=(lambda t, pts, u, eta: np.zeros(pts.shape[0]),),
                             Ub=(lambda t, pts, eta: 0.2 * eta[:, 0],), Kp=(mass,), Ku=(mass,),
                             u0=lambda pts: np.exp(-(pts - 1.0) ** 2))

        shapes = (60,), (30,)
        rebuild = (WeightedMassKernel, "_node_weights",
                   lambda self, g: np.asarray(self.weight(g.points), dtype=float))
    else:
        def contact(x, xp):
            builds.append(x.shape[0])  # fewer nodes than one block: one call per matrix
            dy = x[..., 1:] - xp[..., 1:]
            return 0.08 * np.exp(-np.sum(dy * dy, axis=-1))

        def system():
            return contact_sihr(contact)

        shapes = (6, 5, 4), (5, 4, 4)
        rebuild = (ScalarComponentKernel, "_node_matrix",
                   lambda self, g: self.matrix(g.points, g.points))

    cfg = PicardConfig(slab_length=0.5, theta_max=0.02, min_knots=4)
    sys_ = system()
    grid, coarse = (Grid(sys_.domain, shape) for shape in shapes)
    sweeps = []
    sweep = picard.apply_T
    monkeypatch.setattr(picard, "apply_T", lambda *a, **k: sweeps.append(1) or sweep(*a, **k))
    kept = solve(sys_, grid, 0.5, cfg)
    assert sum(d.halvings for d in kept.diagnostics) >= 1
    assert len(sweeps) >= 3
    assert builds == [grid.n_nodes]
    audit = entropy_sweep(sys_, kept, n_samples=10)
    FrozenCoefficients(sys_, kept).linear_problem(0)
    assert builds == [grid.n_nodes]
    solve(sys_, coarse, 0.25, cfg)
    assert builds == [grid.n_nodes, coarse.n_nodes]
    # building it at every call, as before, gives the same bits
    monkeypatch.setattr(*rebuild)
    fresh_sys = system()
    kept_sweeps = len(sweeps)
    fresh = solve(fresh_sys, grid, 0.5, cfg)
    assert entropy_sweep(fresh_sys, fresh, n_samples=10) == audit
    # it was built again at every freeze: at least once per sweep, and for the audit
    assert len(builds) - 2 > len(sweeps) - kept_sweeps
    assert np.array_equal(kept.times, fresh.times)
    for a, b in zip(kept.states, fresh.states):
        assert np.array_equal(a.values, b.values)


@pytest.mark.parametrize("n_knots", [5, 1])
@pytest.mark.parametrize("kind", ["mass", "dense"])
def test_frozen_fields_equal_per_point_reference(kind, n_knots):
    # every frozen field against a plain per-point reference: interpolate the
    # state or the kernel integral at the two knots around the point's time,
    # then blend by hand.  "mass" freezes P, Q and Ub in const mode; "dense"
    # freezes P and Q on the grid and integrates Ub at the points (direct)
    domain = Domain(half_lengths=(2.0,), full_lengths=(1.0,))
    grid = Grid(domain, (10, 7))
    if kind == "mass":
        weight = np.exp(-grid.points[:, 0])
        kernel = WeightedMassKernel(lambda pts: np.exp(-pts[:, 0]), comp=1)
    else:
        kernel = ScalarComponentKernel(lambda x, xp: (1.0 + 0.3 * x[..., 1])
                                       * np.exp(-xp[..., 0] - (x[..., 1] - xp[..., 1]) ** 2),
                                       comp=1)
    sys_ = SystemDef(k=2, domain=domain, velocities=(VelocityField.constant([1.0, 0.2]),) * 2,
                     P=(lambda t, pts, eta: eta[:, 0],) * 2,
                     Q=(lambda t, pts, u, eta: eta[:, 0],) * 2,
                     Ub=(lambda t, pts, eta: eta[:, 0],) * 2,
                     Kp=(kernel,) * 2, Kq=(kernel,) * 2, Ku=(kernel,) * 2,
                     u0=lambda pts: np.exp(-np.sum(pts ** 2, axis=1))[:, None] * [1.0, 0.5])
    times = np.linspace(0.2, 0.6, n_knots)
    u0 = sys_.initial_state(grid).values
    states = [GridFn(grid, u0 * (1.0 + 0.5 * j) + 0.1 * j * grid.points[:, :1])
              for j in range(n_knots)]
    frozen = FrozenCoefficients(sys_, knot_trajectory(times, states))

    rng = np.random.default_rng(3)
    n = 60
    pts = np.column_stack([rng.uniform(-0.3, 2.3, n), rng.uniform(-1.2, 1.2, n)])
    ts = rng.uniform(0.1, 0.7, n)  # past both end knots too
    outside = ~domain.contains(pts)
    assert outside.any() and not outside.all()

    values = [s.values for s in states]
    if kind == "mass":
        masses = mass_per_knot(weight, grid, values, 1)
    else:
        nodal = dense_per_knot(kernel, grid.points, values, grid)

    def eta(n_, x):
        return masses[n_] if kind == "mass" else interp_values(grid, nodal[n_], x)[0]

    K = n_knots - 1
    j, lam = np.empty(n, dtype=int), np.zeros(n)
    for i, t in enumerate(ts):
        j[i] = min(max(int(np.searchsorted(times, t, side="right")) - 1, 0), max(K - 1, 0))
        if K:
            lam[i] = min(max((t - times[j[i]]) / (times[j[i] + 1] - times[j[i]]), 0.0), 1.0)
    j1 = np.minimum(j + 1, K)
    if kind == "dense":  # the kernel at the points themselves, at every knot
        at_pts = dense_per_knot(kernel, pts, values, grid)
        direct = at_pts[np.stack([j, j1]), np.arange(n)]

    ref_w, ref_p, ref_ub = np.empty((n, 2)), np.empty(n), np.empty(n)
    for i, x in enumerate(pts[:, None, :]):
        a, b, lm = j[i], j1[i], lam[i]
        ref_w[i] = ((1.0 - lm) * interp_values(grid, states[a].values, x)[0]
                    + lm * interp_values(grid, states[b].values, x)[0])
        ref_p[i] = (1.0 - lm) * eta(a, x) + lm * eta(b, x)
        ref_ub[i] = ref_p[i] if kind == "mass" else (1.0 - lm) * direct[0, i] + lm * direct[1, i]

    # the grid-mode fields fold the time blend into the stencil weights, which
    # rounds differently from blending two gathers: equal within FOLD_RTOL of
    # the largest reference value; a dense kernel's integral adds DENSE_RTOL.
    # The const fields blend as before and equal the reference bit for bit.
    def assert_close(got, ref, rtol):
        assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))
        assert not got[outside].any()

    assert_close(frozen.w_at(ts, pts), ref_w, FOLD_RTOL)
    for got in (frozen.p(1, ts, pts), frozen.q(1, ts, pts)):
        if kind == "dense":
            assert_close(got, ref_p, FOLD_RTOL + DENSE_RTOL)
        else:
            assert np.array_equal(got, ref_p)
    got = frozen.ub(1, ts, pts)  # direct: not zeroed outside the box
    if kind == "dense":
        assert np.max(np.abs(got - ref_ub)) <= DENSE_RTOL * np.max(np.abs(ref_ub))
    else:
        assert np.array_equal(got, ref_ub)


def _two_gather_blend(knots, values):
    """The reference of a folded gather: gather knot j and knot j + 1 (a single knot
    twice) through the shifted stencil, then blend the two in t."""
    pair = (values[:-1], values[1:]) if len(values) > 1 else (values, values)
    a, b = (interp_gather(knots.stencil, v.reshape(-1, values.shape[2])) for v in pair)
    lam = knots.lam[:, None]
    return (1.0 - lam) * a + lam * b


@pytest.mark.parametrize("case", ["sihr", "contact", "single-knot", "halved"])
def test_folded_gather_equals_two_gathers_blended(case):
    # the frozen state and a grid-mode kernel field at a plan site's live knots
    # (1-D sihr, 10x8x8 contact) or along a whole trajectory (one knot; uneven
    # knots as slab halving leaves them), plus points in and beyond the box
    # and times past both end knots
    if case == "sihr":
        sys_ = build_sihr(SIHRParams(rho=0.08, kappa=0.3))
        grid, times = Grid(sys_.domain, (96,)), np.linspace(0.0, 0.25, 9)
    else:
        sys_ = contact_sihr()
        grid = Grid(sys_.domain, (10, 8, 8) if case == "contact" else (6, 5, 4))
        times = {"contact": np.linspace(0.0, 0.25, 5), "single-knot": np.array([0.3]),
                 "halved": np.concatenate([np.linspace(0.0, 0.25, 5),
                                           np.linspace(0.25, 0.3125, 5)[1:]])}[case]
    u0 = sys_.initial_state(grid).values
    rng = np.random.default_rng(len(times))
    w = Trajectory(grid, times, u0 * rng.uniform(0.5, 1.5, (len(times), 1, sys_.k)))
    frozen = FrozenCoefficients(sys_, w)
    lo, hi = np.array(sys_.domain.bounds()).T
    pts = rng.uniform(lo - 0.2 * (hi - lo), hi + 0.2 * (hi - lo), (400, grid.dim))
    ts = rng.uniform(times[0] - 0.05, times[-1] + 0.05, len(pts))
    if len(times) > 1:
        _, tk, xk = SlabPlan(sys_, GridFn(grid, u0), times).sites[1].batch.live
        pts, ts = np.concatenate([xk, pts]), np.concatenate([tk, ts])
    outside = ~sys_.domain.contains(pts)
    assert outside.any() and not outside.all()
    knots = picard._Knots(times, ts, pts, grid)

    kernel = sys_.Kq[1]  # the contact on the grid, the mass kernel of sihr
    if kernel.x_independent:
        mass = mass_per_knot(kernel.weight, grid, w.values, kernel.comp)
        eta = np.repeat(mass[:, None, None], grid.n_nodes, axis=1)
    else:
        eta = dense_per_knot(kernel, grid.points, w.values, grid)[:, :, None]
    fields = [(frozen.w_at, w.values, FOLD_RTOL),
              (lambda t, x, k: interp_gather(k.stencil, eta, k.lam), eta, FOLD_RTOL)]
    if not kernel.x_independent:
        fields.append((lambda t, x, k: frozen._eta_q[1](k), eta, FOLD_RTOL + DENSE_RTOL))
    for read, values, rtol in fields:
        got, ref = read(ts, pts, knots), _two_gather_blend(knots, values)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= rtol * np.max(np.abs(ref))
        assert not got[outside].any()
        assert got.tobytes() == read(ts, pts, knots).tobytes()


def test_knot_stencil_holds_one_index_and_one_weight_array(monkeypatch):
    # a site's stencil is the grid's own, its node indices shifted to each knot
    # interval in place: no shifted copy, and no folded weights kept after a sweep
    sys_ = contact_sihr()
    grid = Grid(sys_.domain, (6, 5, 4))
    times = np.linspace(0.0, 0.25, 5)
    built, stencil = [], Grid.stencil
    monkeypatch.setattr(Grid, "stencil",
                        lambda self, pts: built.append(stencil(self, pts)) or built[-1])
    plan = SlabPlan(sys_, sys_.initial_state(grid), times)
    apply_T(sys_, constant_trajectory(sys_, grid, times), plan)
    knots = plan.sites[1].knots
    s, P = knots.stencil, len(knots.j)
    assert any(b is s for b in built)
    assert s.flat.shape == s.weight.shape == (2 ** grid.dim, P)
    assert s.flat.dtype.kind == "i" and s.weight.dtype.kind == "f"
    assert s.flat.base is None and s.weight.base is None
    assert np.array_equal(s.flat, stencil(grid, knots.pts).flat + knots.j * grid.n_nodes)
    arrays = [a for a in (*vars(knots).values(), *s) if isinstance(a, np.ndarray)]
    assert [a.shape for a in arrays if a.size > grid.dim * P] == [s.flat.shape] * 2


def _zero(t, pts, *rest):
    return np.zeros(np.atleast_2d(pts).shape[0])


def _wrapped_like_a_tracer(sys_):
    """``sys_`` with every P/Q/Ub entry wrapped after construction, None included, as an
    outside tracer wraps them: a wrapped None raises when called, so the solver must read
    ``has_q``/``has_ub`` and not the entries."""
    def wrap(fn):
        return lambda *args: fn(*args)

    for attr in ("P", "Q", "Ub"):
        setattr(sys_, attr, tuple(wrap(fn) for fn in getattr(sys_, attr)))
    return sys_


def _inflow_system(ub):
    """One component on a half-line: fed through its inflow face only by ``ub``."""
    mass = WeightedMassKernel(lambda pts: np.exp(-pts[:, 0]), comp=0)
    return SystemDef(k=1, domain=Domain(half_lengths=(3.0,)),
                     velocities=(VelocityField.constant([1.0]),),
                     P=(lambda t, pts, eta: -0.2 - 0.3 * eta[:, 0],),
                     Q=(lambda t, pts, u, eta: 0.1 * eta[:, 0] * u[:, 0],), Ub=(ub,),
                     Kp=(mass,), Kq=(mass,), u0=lambda pts: np.exp(-(pts - 1.0) ** 2))


@pytest.mark.parametrize("case", ["sihr", "inflow", "blowup-ode"])
def test_none_coefficients_equal_explicit_zero_callbacks(case):
    # sihr: four components on one site, S without a source, H and R without a datum;
    # inflow: one component with an inflow face and no datum; blowup-ode: neither
    if case == "sihr":
        sys_ = build_sihr(SIHRParams(rho=0.08, kappa=0.3, theta=0.1, eta=0.2))
        assert sys_.has_q == (False, True, True, True)
        assert sys_.has_ub == (True, False, False, False)
        cells, horizon = (64,), 0.5
    elif case == "inflow":
        sys_ = _inflow_system(None)
        cells, horizon = (60,), 0.5
    else:
        sys_, _ = build_blowup("ode")
        cells, horizon = (200,), 0.9
    explicit = dataclasses.replace(sys_, Q=[f or _zero for f in sys_.Q],
                                   Ub=[f or _zero for f in sys_.Ub])
    assert all(explicit.has_q) and all(explicit.has_ub)
    assert not (all(sys_.has_q) and all(sys_.has_ub))
    grid = Grid(sys_.domain, cells)
    ref = solve(explicit, grid, horizon, PicardConfig())
    got = solve(_wrapped_like_a_tracer(sys_), grid, horizon, PicardConfig())
    assert np.array_equal(got.times, ref.times)
    assert np.array_equal(got.values, ref.values)
    assert [d.iterations for d in got.diagnostics] == [d.iterations for d in ref.diagnostics]


def test_state_interpolated_only_for_sites_with_a_source(monkeypatch):
    # each site gathers the columns its sourced components read, once per sweep
    calls = []
    w_at = FrozenCoefficients.w_at
    monkeypatch.setattr(FrozenCoefficients, "w_at",
                        lambda self, t, pts, knots=None, rows=None:
                        calls.append((knots, None if rows is None else tuple(rows)))
                        or w_at(self, t, pts, knots, rows))
    # two sites: component 0 (speed 1) has no source, component 1 (speed 2) has one
    # that declares no reads, so it reads both columns
    sys_ = SystemDef(k=2, domain=Domain(half_lengths=(3.0,)),
                     velocities=(VelocityField.constant([1.0]), VelocityField.constant([2.0])),
                     P=(lambda t, pts, eta: np.full(len(pts), -0.1),) * 2,
                     Q=(None, lambda t, pts, u, eta: 0.2 * u[:, 0]),
                     Ub=(lambda t, pts, eta: np.full(len(pts), 0.5), None),
                     u0=lambda pts: np.column_stack([np.exp(-(pts[:, 0] - 1.0) ** 2)] * 2))
    grid = Grid(sys_.domain, (40,))
    times = np.linspace(0.0, 0.5, 5)
    w = constant_trajectory(sys_, grid, times)
    plan = SlabPlan(sys_, w.states[0], times)
    apply_T(sys_, w, plan)
    assert calls == [(plan.sites[1].knots, (0, 1))]
    # a source that declares it reads no column: that site skips the gather
    calls.clear()
    flat = dataclasses.replace(sys_, Q=(None, lambda t, pts, u, eta: np.full(len(pts), 0.2)),
                               q_reads=((), ()))
    u = apply_T(flat, w, plan)
    assert calls == []
    every = dataclasses.replace(flat, q_reads=None)
    assert np.array_equal(u.values, apply_T(every, w, plan).values)
    # sihr: one site shared by the sourced I, H, R and the unsourced S, read once:
    # S for I, I for H, I and H for R
    sihr = build_sihr(SIHRParams(rho=0.08, kappa=0.3))
    sgrid = Grid(sihr.domain, (32,))
    sw = constant_trajectory(sihr, sgrid, times)
    splan = SlabPlan(sihr, sw.states[0], times)
    calls.clear()
    apply_T(sihr, sw, splan)
    assert calls == [(splan.sites[0].knots, (0, 1, 2))]
    # age x 2-D space: the drift site (S, I, R) reads S, I and H; the aging-only
    # site of H reads I
    contact = contact_sihr()
    cgrid = Grid(contact.domain, (10, 8, 8))
    cw = constant_trajectory(contact, cgrid, times[:3])
    cplan = SlabPlan(contact, cw.states[0], times[:3])
    assert cplan.sites[0] is cplan.sites[1] is cplan.sites[3] is not cplan.sites[2]
    calls.clear()
    apply_T(contact, cw, cplan)
    assert calls == [(cplan.sites[0].knots, (0, 1, 2)), (cplan.sites[2].knots, (1,))]
    # no source anywhere: a whole solve never interpolates the frozen state
    calls.clear()
    solve(dataclasses.replace(sys_, Q=(None, None)), grid, 0.5, PicardConfig())
    assert calls == []


@pytest.mark.parametrize("case", ["sihr", "contact"])
def test_declared_reads_equal_reading_every_column(case):
    # the same system gathering every state column is the oracle: the solve, the
    # entropy audit (which gathers through FrozenCoefficients.q) and the hypothesis
    # audit keep every bit when only the declared columns are gathered
    if case == "sihr":
        sys_ = build_sihr(SIHRParams(rho=0.08, kappa=0.3, theta=0.1, eta=0.2))
        grid, horizon, cfg = Grid(sys_.domain, (96,)), 0.5, PicardConfig()
    else:
        sys_ = contact_sihr()
        grid, horizon = Grid(sys_.domain, (10, 8, 8)), 0.25
        cfg = PicardConfig(slab_length=0.25, min_knots=4)
    assert sys_.q_reads == ((), (0,), (1,), (1, 2))
    every = dataclasses.replace(sys_, q_reads=None)
    assert every.q_reads == ((0, 1, 2, 3),) * 4
    got, ref = solve(sys_, grid, horizon, cfg), solve(every, grid, horizon, cfg)
    assert np.array_equal(got.times, ref.times) and np.array_equal(got.values, ref.values)
    assert entropy_sweep(sys_, got, n_samples=20, seed=3) == \
        entropy_sweep(every, ref, n_samples=20, seed=3)
    assert check_hypotheses(sys_, sys_.constants, grid, samples=8) == \
        check_hypotheses(every, every.constants, grid, samples=8)


@pytest.mark.parametrize("weight", [0.7, "callable"])
@pytest.mark.parametrize("shape", [(7,), (201,), (1001,), (5, 3, 3)])
def test_mass_freeze_equals_the_per_knot_integrate_loop(weight, shape):
    # one reduction over every knot gives the bits of summing knot by knot
    dims = dict(half_lengths=(2.0,), full_lengths=(1.0,) * (len(shape) - 1))
    grid = Grid(Domain(**dims), shape)
    assert grid.n_nodes % 2 == 1
    fn = (lambda pts: np.exp(-pts[:, 0]) * (1.0 + 0.1 * pts[:, -1])) \
        if weight == "callable" else weight
    kernel = WeightedMassKernel(fn, comp=1)
    rng = np.random.default_rng(grid.n_nodes)
    times = np.linspace(0.0, 0.5, 9)
    w = Trajectory(grid, times, rng.uniform(-1.0, 2.0, (len(times), grid.n_nodes, 2)))
    loop = mass_per_knot(fn(grid.points) if callable(fn) else fn, grid, w.values, 1)
    assert np.array_equal(kernel.integrate(f=w), loop[:, None])
    # the frozen coefficient reads those values at each knot
    sys_ = SystemDef(k=2, domain=grid.domain,
                     velocities=(VelocityField.constant([1.0] + [0.0] * (grid.dim - 1)),) * 2,
                     P=(lambda t, pts, eta: eta[:, 0],) * 2, Q=(None, None), Ub=(None, None),
                     Kp=(kernel, None), u0=lambda pts: np.ones((len(pts), 2)))
    frozen = FrozenCoefficients(sys_, w)
    pts = np.repeat(grid.points[:1], len(times), axis=0)
    assert np.array_equal(frozen.p(0, times, pts), loop)


@pytest.mark.parametrize("mode", ["grid", "over-budget", "direct"])
def test_dense_freeze_equals_the_per_knot_reference(mode, monkeypatch):
    # one product with the (N, n_knots) matrix of knot states against a sum knot
    # by knot: on the grid nodes from the kept node matrix or, past the budget,
    # from rebuilt row blocks (the same bits), and at points off the grid as the
    # direct mode freezes; 600 nodes and 700 points, so each spans two row blocks
    grid = Grid(Domain(half_lengths=(2.0,), full_lengths=(1.0,)), (30, 20))
    kernel = ScalarComponentKernel(lambda x, xp: (1.0 + 0.3 * x[..., 1])
                                   * np.exp(-xp[..., 0] - (x[..., 1] - xp[..., 1]) ** 2), comp=1)
    rng = np.random.default_rng(7)
    times = np.linspace(0.0, 0.5, 9)
    w = Trajectory(grid, times, rng.uniform(-1.0, 2.0, (len(times), grid.n_nodes, 2)))
    pts = grid.points
    if mode == "direct":
        pts = np.column_stack([rng.uniform(-0.3, 2.3, 700), rng.uniform(-1.2, 1.2, 700)])
    got = kernel.integrate(pts=pts, f=w)
    if mode == "over-budget":
        monkeypatch.setattr(kernels, "_MATRIX_BUDGET", 0)
        kept, kernel = got, ScalarComponentKernel(kernel.fn, comp=1)
        got = kernel.integrate(pts=pts, f=w)
        assert kernel._matrix_grid is grid and kernel._matrix is None
        assert np.array_equal(got, kept)
    ref = dense_per_knot(kernel, pts, w.values, grid)
    assert got.shape == ref.shape == (len(times), len(pts))
    assert np.max(np.abs(got - ref)) <= DENSE_RTOL * np.max(np.abs(ref))


def test_direct_freeze_evaluates_each_exit_row_once():
    # a sweep freezes a dense boundary kernel at the exits themselves, once for
    # every knot: one kernel row per exit serves both knots around its time
    rows = []

    def fn(x, xp):
        rows.append(x.shape[0])
        return (1.0 + 0.3 * x[..., 1]) * np.exp(-xp[..., 0])

    domain = Domain(half_lengths=(2.0, 1.5))  # two inflow faces
    sys_ = SystemDef(k=1, domain=domain, velocities=(VelocityField.constant([1.0, 0.6]),),
                     P=(lambda t, pts, eta: np.zeros(pts.shape[0]),), Q=(None,),
                     Ub=(lambda t, pts, eta: eta[:, 0],), Ku=(ScalarComponentKernel(fn),),
                     u0=lambda pts: np.exp(-np.sum(pts ** 2, axis=1))[:, None])
    grid = Grid(domain, (10, 8))
    times = np.linspace(0.0, 0.8, 5)
    w = constant_trajectory(sys_, grid, times)
    plan = SlabPlan(sys_, w.states[0], times)
    apply_T(sys_, w, plan)
    exits = plan.sites[0].exits
    assert len(np.unique(exits.j)) == len(times) - 1 and len(exits.j) >= 20
    assert sum(rows) == len(exits.j)
