import dataclasses
import math

import numpy as np
import pytest

from renewalpde import analysis
from renewalpde.analysis import (
    TestFunction,
    apriori_l1_certificate,
    apriori_linf_certificate,
    contraction_prediction,
    entropy_residual,
    entropy_sweep,
    entropy_tolerance,
    gronwall_certificate,
    linear_stability_certificate,
)
from renewalpde.characteristics import VelocityField, trapezoid_weights
from renewalpde.config import PRESETS
from renewalpde.domain import Domain, Grid, GridFn, l1_norm
from renewalpde.kernels import ScalarComponentKernel
from renewalpde.models import SIHRParams, build_blowup, build_sihr, bump
from renewalpde.picard import FrozenCoefficients, PicardConfig, Trajectory, solve, solve_slab
from renewalpde.problem import HypothesisConstants, SystemDef
from renewalpde.transport import LinearProblem, solve_series

from fields import const_field, zero_field
from test_picard import contact_sihr

V1 = VelocityField.constant([1.0])


def smooth_u0(grid, center=1.5, width=1.0):
    return GridFn(grid, bump(center, width)(grid.points[:, 0]))


@pytest.fixture(scope="module")
def grid6():
    return Grid(Domain(half_lengths=(6.0,)), (300,))


def test_apriori_l1_pure_transport(grid6):
    lp = LinearProblem(V1, zero_field, zero_field, zero_field, smooth_u0(grid6))
    cert = apriori_l1_certificate(lp, grid6, 1.0)
    assert cert.passed
    assert cert.measured / cert.bound >= 0.95


def test_apriori_l1_growth_saturates(grid6):
    lp = LinearProblem(V1, const_field(0.8), zero_field, zero_field, smooth_u0(grid6))
    cert = apriori_l1_certificate(lp, grid6, 1.0)
    assert cert.passed
    assert 0.95 <= cert.measured / cert.bound <= 1.0 + 1e-9


def test_apriori_l1_boundary_fed(grid6):
    lp = LinearProblem(V1, zero_field, zero_field, const_field(1.0), GridFn.zeros(grid6))
    cert = apriori_l1_certificate(lp, grid6, 1.0)
    assert cert.passed
    assert cert.params["flux"] == pytest.approx(1.0, rel=1e-6)
    assert cert.measured == pytest.approx(1.0, abs=2 * grid6.dx[0])


def test_apriori_l1_decay_is_loose(grid6):
    lp = LinearProblem(V1, const_field(-0.8), zero_field, zero_field, smooth_u0(grid6))
    cert = apriori_l1_certificate(lp, grid6, 1.0)
    assert cert.passed
    assert cert.measured / cert.bound < 0.5


def test_apriori_linf_transport_and_growth(grid6):
    lp = LinearProblem(V1, zero_field, zero_field, zero_field, smooth_u0(grid6))
    cert = apriori_linf_certificate(lp, grid6, 1.0)
    assert cert.passed
    lp2 = LinearProblem(V1, const_field(0.8), zero_field, zero_field, smooth_u0(grid6))
    cert2 = apriori_linf_certificate(lp2, grid6, 1.0)
    assert cert2.passed
    assert 0.95 <= cert2.measured / cert2.bound <= 1.0 + 1e-9


def test_apriori_linf_blowup_frozen():
    # frozen multiplicative coefficient of the quadratic-feedback example:
    # p(t) = 1/(1-t); at t = 0.5 the sup doubles and saturates the bound
    dom = Domain(full_lengths=(1.5,), full_bounds=((-0.5, 1.5),))
    grid = Grid(dom, (400,))
    v0 = VelocityField.constant([0.0])
    ind = GridFn(grid, ((grid.points[:, 0] >= 0) & (grid.points[:, 0] <= 1)).astype(float))

    def p(t, pts):
        pts = np.atleast_2d(pts)
        return np.full(pts.shape[0], 1.0 / (1.0 - np.asarray(t)))

    lp = LinearProblem(v0, p, zero_field, zero_field, ind)
    cert = apriori_linf_certificate(lp, grid, 0.5, n_time=201)
    assert cert.passed
    assert cert.measured == pytest.approx(2.0, rel=0.01)
    assert cert.measured / cert.bound >= 0.95


def test_stability_identical(grid6):
    lp = LinearProblem(V1, const_field(0.2), const_field(0.1), zero_field, smooth_u0(grid6))
    cert = linear_stability_certificate(lp, lp, grid6, 1.0)
    assert cert.passed
    assert cert.measured <= 1e-12


def test_stability_initial_datum_isometry(grid6):
    u0a = smooth_u0(grid6)
    u0b = GridFn(grid6, u0a.values[:, 0] + 0.3 * bump(2.5, 0.7)(grid6.points[:, 0]))
    lp1 = LinearProblem(V1, zero_field, zero_field, zero_field, u0a)
    lp2 = LinearProblem(V1, zero_field, zero_field, zero_field, u0b)
    cert = linear_stability_certificate(lp1, lp2, grid6, 1.0)
    assert cert.passed
    assert 0.95 <= cert.measured / cert.bound <= 1.0 + 1e-9


def test_stability_source_perturbation(grid6):
    def dq(t, pts):
        pts = np.atleast_2d(pts)
        inside = (pts[:, 0] >= 0.0) & (pts[:, 0] <= 1.0) & (np.asarray(t) <= 1.0)
        return np.where(inside, 1.0, 0.0)

    u0 = GridFn.zeros(grid6)
    lp1 = LinearProblem(V1, zero_field, zero_field, zero_field, u0)
    lp2 = LinearProblem(V1, zero_field, dq, zero_field, u0)
    cert = linear_stability_certificate(lp1, lp2, grid6, 1.0)
    assert cert.passed
    assert cert.measured == pytest.approx(cert.params["dq"], rel=0.03)


def test_stability_boundary_perturbation(grid6):
    lp1 = LinearProblem(V1, zero_field, zero_field, zero_field, GridFn.zeros(grid6))
    lp2 = LinearProblem(V1, zero_field, zero_field, const_field(0.5), GridFn.zeros(grid6))
    cert = linear_stability_certificate(lp1, lp2, grid6, 1.0)
    assert cert.passed
    assert cert.measured / cert.bound >= 0.9


def test_stability_requires_common_velocity(grid6):
    lp1 = LinearProblem(V1, zero_field, zero_field, zero_field, smooth_u0(grid6))
    lp2 = LinearProblem(VelocityField.constant([1.0]), zero_field, zero_field,
                        zero_field, smooth_u0(grid6))
    with pytest.raises(ValueError):
        linear_stability_certificate(lp1, lp2, grid6, 1.0)


def test_stability_homogeneous_in_perturbations(grid6):
    u0 = smooth_u0(grid6)
    p = const_field(0.3)
    bounds = []
    for eps in (0.1, 0.2):
        u0b = GridFn(grid6, u0.values[:, 0] * (1.0 + eps))
        lp1 = LinearProblem(V1, p, zero_field, zero_field, u0)
        lp2 = LinearProblem(V1, p, const_field(eps), const_field(eps), u0b)
        cert = linear_stability_certificate(lp1, lp2, grid6, 1.0)
        bounds.append(cert.bound)
    assert bounds[1] == pytest.approx(2.0 * bounds[0], rel=1e-9)


def test_gronwall_sihr_conservative():
    sys_ = build_sihr(SIHRParams(kappa=0.3, theta=0.1, eta=0.2, rho=0.08))
    grid = Grid(sys_.domain, (128,))
    traj = solve(sys_, grid, 2.0, PicardConfig(slab_length=0.5))
    cert = gronwall_certificate(sys_, sys_.constants, traj)
    assert cert.passed


def test_gronwall_growth_saturates():
    dom = Domain(half_lengths=(6.0,))
    c = 0.5
    sys_ = SystemDef(
        k=1, domain=dom, velocities=(V1,),
        P=(lambda t, pts, eta: np.full(np.atleast_2d(pts).shape[0], c),),
        Q=(lambda t, pts, u, eta: np.zeros(np.atleast_2d(pts).shape[0]),),
        Ub=(lambda t, pts, eta: np.zeros(np.atleast_2d(pts).shape[0]),),
        u0=lambda pts: bump(1.5, 1.0)(np.atleast_2d(pts)[:, 0])[:, None],
        constants=HypothesisConstants(P1=c, C1=0.0, C2=c), name="growth")
    grid = Grid(dom, (200,))
    traj = solve(sys_, grid, 1.0, PicardConfig(slab_length=0.5))
    cert = gronwall_certificate(sys_, sys_.constants, traj)
    assert cert.passed
    assert cert.measured / cert.bound >= 0.95


def test_gronwall_zero_solution():
    sys_ = build_sihr(SIHRParams(rho=0.1, s0=lambda a: np.zeros_like(a),
                                 i0=lambda a: np.zeros_like(a)))
    grid = Grid(sys_.domain, (64,))
    traj = solve(sys_, grid, 0.5, PicardConfig())
    cert = gronwall_certificate(sys_, sys_.constants, traj)
    assert cert.passed


def _preset_run(name, cells, horizon, cfg=None):
    sys_, _ = PRESETS[name].build({})
    return sys_, solve(sys_, Grid(sys_.domain, cells), horizon, cfg or PicardConfig())


def test_gronwall_reports_the_worst_knot_after_t0():
    # the sihr preset: every knot after t = 0 has mass below its bound
    sys_, traj = _preset_run("sihr", (192,), 0.5)
    cert = gronwall_certificate(sys_, sys_.constants, traj)
    # at t = 0 mass equals bound; the report names a later knot, where they differ
    assert cert.passed and cert.params["t_worst"] > 0.0
    assert cert.measured < cert.bound
    assert "no knot" not in cert.format()
    one = Trajectory(traj.grid, traj.times[:1], traj.values[:1])
    cert1 = gronwall_certificate(sys_, sys_.constants, one)
    assert cert1.passed and cert1.measured == cert1.bound
    assert cert1.format().endswith("+0.000% (no knot after t = 0)  PASS")


def _gronwall_bound_loop(sys_, hc, grid, t_end, m0):
    """The comparison ODE as one loop that samples the coefficients at every step."""
    b1 = hc.b_l1(grid)
    steps = analysis._GRONWALL_STEPS
    ts = np.linspace(0.0, t_end, steps + 1)
    dt = t_end / steps
    bound_vals = np.empty(steps + 1)
    m = m0
    bound_vals[0] = m
    a_sup = hc.c1_l1(0.0, grid) + sys_.k * b1
    b_sup = hc.c2_at(0.0) + b1
    for i in range(steps):
        a_sup = max(a_sup, hc.c1_l1(ts[i], grid) + sys_.k * b1)
        b_sup = max(b_sup, hc.c2_at(ts[i]) + b1)

        def rhs(y):
            return a_sup + b_sup * y

        k1 = rhs(m)
        k2 = rhs(m + dt / 2 * k1)
        k3 = rhs(m + dt / 2 * k2)
        k4 = rhs(m + dt * k3)
        m = m + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        bound_vals[i + 1] = m
    return ts, bound_vals


@pytest.mark.parametrize("name", ["sihr", "cellgrowth", "sihr-varying"])
def test_gronwall_bound_equals_the_sampling_loop(name):
    # the coefficients are sampled before the steps; the bound keeps every bit.
    # "sihr-varying" gives C1 and C2 non-monotone in t, so the running sups move
    sys_, _ = PRESETS["sihr" if name == "sihr-varying" else name].build({})
    hc = sys_.constants
    if name == "sihr-varying":
        hc = dataclasses.replace(hc, C1=lambda t, pts: 0.1 * np.sin(3.0 * t) * np.exp(-pts[:, 0]),
                                 C2=lambda t: 0.2 + 0.1 * np.sin(5.0 * t))
    grid = Grid(sys_.domain, (96,))
    m0 = float(l1_norm(sys_.initial_state(grid)))
    ts, got = analysis._gronwall_bound(sys_, hc, grid, 1.3, m0)
    ref_ts, ref = _gronwall_bound_loop(sys_, hc, grid, 1.3, m0)
    assert np.array_equal(ts, ref_ts)
    assert np.array_equal(got, ref)


def test_a_pass_within_the_slack_says_so():
    inside = analysis._certificate("c", 1.0, 1.0 + analysis._TOL / 2)
    assert inside.passed
    assert inside.format().endswith("margin -2.500% (within 5% slack)  PASS")
    assert analysis._certificate("c", 1.0, 1.0).format().endswith("margin +0.000%  PASS")
    outside = analysis._certificate("c", 1.0, 1.0 + 2 * analysis._TOL)
    assert outside.format().endswith("margin -10.000%  FAIL")


def test_contraction_prediction_limits():
    sys_, _ = build_blowup("ode")
    grid = Grid(sys_.domain, (100,))
    hc = sys_.constants
    assert contraction_prediction(sys_, hc, 3.0, 1e-9, grid) < 1e-6
    decoupled = HypothesisConstants(P1=1.0, P2=0.0, Q1=0.0, Q3=0.0, B=0.0)
    assert contraction_prediction(sys_, decoupled, 3.0, 0.5, grid) == 0.0


def test_contraction_prediction_bounds_measured_ratio():
    sys_, _ = build_blowup("ode")
    grid = Grid(sys_.domain, (400,))
    cfg = PicardConfig(slab_length=0.1, ball_mass=3.0)
    slab = solve_slab(sys_, sys_.initial_state(grid), 0.0, cfg)
    predicted = contraction_prediction(sys_, sys_.constants, 3.0, 0.1, grid)
    assert predicted < 1.0
    assert slab.diagnostics[0].theta <= predicted * 1.2


def test_contraction_prediction_monotone():
    sys_, _ = build_blowup("ode")
    grid = Grid(sys_.domain, (100,))
    base = dict(P1=0.1, P2=0.5, Q1=0.2, Q3=0.1, B=0.3)
    ref = contraction_prediction(sys_, HypothesisConstants(**base), 2.0, 0.2, grid)
    for key in ("P2", "Q1", "Q3"):
        hc = HypothesisConstants(**{**base, key: base[key] * 2.0})
        assert contraction_prediction(sys_, hc, 2.0, 0.2, grid) > ref
    assert contraction_prediction(sys_, HypothesisConstants(**base), 3.0, 0.2, grid) > ref
    assert contraction_prediction(sys_, HypothesisConstants(**base), 2.0, 0.3, grid) > ref


def test_testfunction_shape_and_derivatives():
    phi = TestFunction(0.5, 0.3, np.array([1.0, 0.0]), np.array([0.5, 0.7]))
    rng = np.random.default_rng(2)
    pts = np.column_stack([rng.uniform(0.2, 1.8, 50), rng.uniform(-0.9, 0.9, 50)])
    for t in (0.3, 0.5, 0.72):
        vals = phi.value(t, pts)
        assert np.all(vals >= 0.0)
        h = 1e-6
        fd_t = (phi.value(t + h, pts) - phi.value(t - h, pts)) / (2 * h)
        assert np.max(np.abs(fd_t - phi.dt(t, pts))) <= 1e-5
        for ax in range(2):
            dp = pts.copy()
            dp[:, ax] += h
            dm = pts.copy()
            dm[:, ax] -= h
            fd_x = (phi.value(t, dp) - phi.value(t, dm)) / (2 * h)
            assert np.max(np.abs(fd_x - phi.grad(t, pts)[:, ax])) <= 1e-5
    # vanishes outside its box
    assert phi.value(0.95, pts).max() == 0.0
    far = pts.copy()
    far[:, 0] += 10.0
    assert phi.value(0.5, far).max() == 0.0


def test_entropy_residual_vanishes_below_range(grid6):
    lp = LinearProblem(V1, zero_field, zero_field, zero_field, smooth_u0(grid6))
    times = np.linspace(0.0, 1.0, 17)
    states = solve_series(lp, times, grid6, substeps=16)
    phi = TestFunction(0.5, 0.4, np.array([2.0]), np.array([1.0]))
    res = entropy_residual(lp, times, states, phi, -0.5, -1)
    assert res == 0.0


def test_entropy_residual_exact_solution_sweep(grid6):
    lp = LinearProblem(V1, const_field(0.3), zero_field, zero_field, smooth_u0(grid6))
    times = np.linspace(0.0, 1.0, 33)
    states = solve_series(lp, times, grid6, substeps=16)
    rng = np.random.default_rng(11)
    for _ in range(25):
        kappa = float(rng.uniform(-0.2, 1.5))
        phi = TestFunction(float(rng.uniform(0.1, 0.6)), float(rng.uniform(0.1, 0.35)),
                           np.array([rng.uniform(0.0, 6.0)]), np.array([rng.uniform(0.3, 2.0)]))
        sign = 1 if rng.uniform() < 0.5 else -1
        res = entropy_residual(lp, times, states, phi, kappa, sign)
        tol = entropy_tolerance(lp, grid6, times, states, kappa)
        assert res >= -tol


def test_entropy_sweep_picard_solution():
    sys_, _ = build_blowup("ode")
    grid = Grid(sys_.domain, (400,))
    traj = solve(sys_, grid, 0.5, PicardConfig())
    results = entropy_sweep(sys_, traj, n_samples=30, seed=7)
    assert all(r["ok"] for r in results)


def test_entropy_detector_fires_on_static_jump():
    # a jump frozen in place under unit velocity violates the inequality
    dom = Domain(half_lengths=(2.0,))
    grid = Grid(dom, (6000,))
    x = grid.points[:, 0]
    jump = GridFn(grid, (x > 0.5).astype(float))
    times = np.linspace(0.0, 2.0, 6001)
    states = [jump] * len(times)
    lp = LinearProblem(V1, zero_field, zero_field, zero_field, jump)
    phi = TestFunction(1.0, 0.9, np.array([0.5]), np.array([0.3]))
    res = entropy_residual(lp, times, states, phi, 0.5, +1)
    tol = entropy_tolerance(lp, grid, times, states, 0.5)
    assert res < -10.0 * tol


def frozen_problems(sys_, traj):
    """Each component's frozen linear problem and its states, one grid function per knot."""
    frozen = FrozenCoefficients(sys_, traj)
    return [(frozen.linear_problem(h), [GridFn(traj.grid, v) for v in traj.values[:, :, h]])
            for h in range(sys_.k)]


def test_frozen_linear_problem_matches_states():
    sys_ = build_sihr(SIHRParams(rho=0.1, kappa=0.2))
    grid = Grid(sys_.domain, (64,))
    traj = solve(sys_, grid, 0.5, PicardConfig())
    frozen = FrozenCoefficients(sys_, traj)
    x, t = grid.points, np.full(grid.n_nodes, 0.3)
    for h in range(sys_.k):
        lp = frozen.linear_problem(h)
        assert lp.velocity is sys_.velocities[h]
        assert np.array_equal(lp.u0.values[:, 0], traj.states[0].values[:, h])
        assert np.array_equal(lp.p(t, x), frozen.p(h, t, x))
        # an undeclared source or datum is None: S has no source, I, H and R no datum
        assert (lp.q is None) == (h == 0) and (lp.ub is None) == (h != 0)
    assert np.array_equal(frozen.linear_problem(1).q(t, x), frozen.q(1, t, x))
    xi = grid.face_grid(0).points
    ti = np.full(len(xi), 0.3)
    assert np.array_equal(frozen.linear_problem(0).ub(ti, xi), frozen.ub(0, ti, xi))


def test_certificates_pass_one_time_per_point(grid6):
    # the callback contract: t has one entry per point, never a scalar
    def per_point(fn):
        def checked(t, pts):
            assert np.shape(t) == (np.atleast_2d(pts).shape[0],)
            return fn(t, pts)

        return checked

    vel = VelocityField(V1.fn, per_point(V1.div), V1.sup)
    lp1 = LinearProblem(vel, per_point(const_field(0.2)), per_point(const_field(0.1)),
                        per_point(const_field(1.0)), smooth_u0(grid6))
    lp2 = LinearProblem(vel, per_point(const_field(0.3)), per_point(const_field(0.1)),
                        per_point(const_field(0.5)), smooth_u0(grid6))
    assert apriori_l1_certificate(lp1, grid6, 0.5).passed
    assert apriori_linf_certificate(lp1, grid6, 0.5).passed
    assert linear_stability_certificate(lp1, lp2, grid6, 0.5).passed
    times = np.linspace(0.0, 0.5, 9)
    states = solve_series(lp1, times, grid6)
    phi = TestFunction(0.25, 0.2, np.array([1.0]), np.array([0.8]))
    res = entropy_residual(lp1, times, states, phi, 0.3, 1)
    assert res >= -entropy_tolerance(lp1, grid6, times, states, 0.3)


@pytest.mark.parametrize("case", ["sihr", "contact"])
def test_entropy_sweep_equals_single_sample_calls(case, monkeypatch):
    # the sweep reads one table per component; single calls sample afresh
    if case == "sihr":
        sys_ = build_sihr(SIHRParams(rho=0.08, kappa=0.3, theta=0.1, eta=0.2))
        traj = solve(sys_, Grid(sys_.domain, (64,)), 0.5, PicardConfig())
    else:
        sys_ = contact_sihr()
        traj = solve(sys_, Grid(sys_.domain, (6, 5, 4)), 0.25,
                     PicardConfig(slab_length=0.25, min_knots=4))
    phis = []
    monkeypatch.setattr(analysis, "TestFunction",
                        lambda *a: phis.append(TestFunction(*a)) or phis[-1])
    results = entropy_sweep(sys_, traj, n_samples=20, seed=3)
    assert len(phis) == len(results) == 20
    frozen = frozen_problems(sys_, traj)
    for r, phi in zip(results, phis):
        lp, states = frozen[r["component"]]
        assert entropy_residual(lp, traj.times, states, phi, r["kappa"], r["sign"]) == r["residual"]
        assert entropy_tolerance(lp, traj.grid, traj.times, states, r["kappa"]) == r["tol"]


def test_entropy_sweep_builds_one_kernel_matrix(monkeypatch):
    calls = []

    def contact(x, xp):
        calls.append(1)
        dy = x[..., 1:] - xp[..., 1:]
        return 0.08 * np.exp(-np.sum(dy * dy, axis=-1))

    # 120 nodes, one block of kernel rows: one call builds the whole matrix
    sys_ = contact_sihr(contact)
    traj = solve(sys_, Grid(sys_.domain, (6, 5, 4)), 0.25,
                 PicardConfig(slab_length=0.25, min_knots=4))
    calls.clear()
    results = entropy_sweep(sys_, traj, n_samples=20, seed=3)
    # the kernel kept the matrix of the solve's grid
    assert len(calls) == 0
    # Kp[S] and Kq[I] are one kernel object, shared by both components
    assert entropy_sweep(contact_sihr(contact), traj, n_samples=20, seed=3) == results
    assert len(calls) == 1
    # rebuilding the kernel's rows, as without the matrix, gives the same results
    monkeypatch.setattr(ScalarComponentKernel, "_node_matrix", lambda self, grid: None)
    calls.clear()
    assert entropy_sweep(sys_, traj, n_samples=20, seed=3) == results
    # Kp[S] and Kq[I] are one kernel object, its rows rebuilt once for every knot
    assert len(calls) == 1


def test_entropy_sweep_samples_each_knot_once():
    sys_ = build_sihr(SIHRParams(rho=0.08, kappa=0.3, theta=0.1, eta=0.2))
    traj = solve(sys_, Grid(sys_.domain, (96,)), 0.5, PicardConfig())
    calls = []

    def counted(fn):
        def wrapped(*args):
            calls.append(1)
            return fn(*args)

        return wrapped

    for attr in ("P", "Q", "Ub"):
        setattr(sys_, attr, tuple(counted(fn) for fn in getattr(sys_, attr)))
    results = entropy_sweep(sys_, traj, n_samples=50)
    assert all(r["ok"] for r in results)
    # P and Q on the grid and Ub on the one inflow face, per component and knot
    assert 0 < len(calls) <= 3 * sys_.k * len(traj.times)


def test_entropy_residual_samples_only_supported_knots(grid6):
    p_times = []

    def p(t, pts):
        p_times.append(np.array(t))
        return np.full(np.atleast_2d(pts).shape[0], 0.3)

    lp = LinearProblem(V1, p, zero_field, zero_field, smooth_u0(grid6))
    times = np.linspace(0.0, 1.0, 17)
    states = solve_series(lp, times, grid6, substeps=16)
    p_times.clear()
    phi = TestFunction(0.5, 0.2, np.array([2.0]), np.array([1.5]))
    entropy_residual(lp, times, states, phi, 0.2, 1)
    bt, _ = phi.time(times)
    assert np.count_nonzero(bt) == 7
    # one call, each supported knot once per grid node
    assert len(p_times) == 1
    assert np.array_equal(p_times[0], np.repeat(times[bt != 0], grid6.n_nodes))


# ---------------------------------------------------------------------------
# Loop oracles: the certificates as one callback call per time, and the
# entropy audit as one sample at a time with one callback call per knot.
# ---------------------------------------------------------------------------

def _at(tau, pts):
    return np.full(np.atleast_2d(pts).shape[0], tau)


def loop_l1(lp, grid, t, n_time=33):
    """(q_l1, p_sup, flux) of the L1 bound, one time per loop step."""
    ts = np.linspace(0.0, t, n_time)
    wts = trapezoid_weights(ts)
    qnorm = pinf = flux = 0.0
    for tau, wt in zip(ts, wts):
        tp = _at(tau, grid.points)
        qnorm += wt * float(np.sum(np.abs(lp.q(tp, grid.points))) * grid.cell_volume)
        pinf = max(pinf, float(np.max(np.abs(lp.p(tp, grid.points)))))
    for ax in range(grid.domain.m):
        fg = grid.face_grid(ax)
        for tau, wt in zip(ts, wts):
            tp = _at(tau, fg.points)
            ub = np.abs(np.asarray(lp.ub(tp, fg.points)))
            vi = np.atleast_2d(lp.velocity(tp, fg.points))[:, ax]
            flux += wt * float(np.sum(ub * vi)) * fg.weight
    return qnorm, pinf, flux


def loop_linf_bound(lp, grid, t, n_time=33):
    ts = np.linspace(0.0, t, n_time)
    expo = q_l1_sup = ub_sup = 0.0
    for tau, wt in zip(ts, trapezoid_weights(ts)):
        tp = _at(tau, grid.points)
        psup = float(np.max(np.abs(lp.p(tp, grid.points))))
        dsup = float(np.max(np.abs(lp.velocity.div(tp, grid.points))))
        expo += wt * (psup + dsup)
        q_l1_sup += wt * float(np.max(np.abs(lp.q(tp, grid.points))))
        for ax in range(grid.domain.m):
            fg = grid.face_grid(ax)
            ub = lp.ub(_at(tau, fg.points), fg.points)
            ub_sup = max(ub_sup, float(np.max(np.abs(ub), initial=0.0)))
    u0_sup = float(np.max(np.abs(lp.u0.values)))
    return (u0_sup + ub_sup + q_l1_sup) * math.exp(expo)


def loop_stability_terms(lp1, lp2, grid, t, n_time=33):
    ts = np.linspace(0.0, t, n_time)
    wts = trapezoid_weights(ts)
    pinf1 = pinf2 = dq = q2n = dp = dub = ub2 = 0.0
    for tau, wt in zip(ts, wts):
        tp = _at(tau, grid.points)
        p1v, p2v = lp1.p(tp, grid.points), lp2.p(tp, grid.points)
        pinf1 = max(pinf1, float(np.max(np.abs(p1v))))
        pinf2 = max(pinf2, float(np.max(np.abs(p2v))))
        dp += wt * float(np.max(np.abs(p1v - p2v)))
        q1v, q2v = lp1.q(tp, grid.points), lp2.q(tp, grid.points)
        dq += wt * float(np.sum(np.abs(q1v - q2v)) * grid.cell_volume)
        q2n += wt * float(np.sum(np.abs(q2v)) * grid.cell_volume)
    for ax in range(grid.domain.m):
        fg = grid.face_grid(ax)
        for tau, wt in zip(ts, wts):
            tp = _at(tau, fg.points)
            b1, b2 = np.asarray(lp1.ub(tp, fg.points)), np.asarray(lp2.ub(tp, fg.points))
            dub += wt * float(np.sum(np.abs(b1 - b2))) * fg.weight
            ub2 += wt * float(np.sum(np.abs(b2))) * fg.weight
    return pinf1, pinf2, dq, q2n, dp, dub, ub2


def test_certificates_equal_a_loop_over_the_times(grid6):
    # varying p, q, ub and velocity; every certificate makes one call per callback
    calls = []

    def counted(name, fn):
        def wrapped(t, pts):
            calls.append(name)
            return fn(t, pts)

        return wrapped

    def varying(a, b, c):
        return lambda t, pts: a + b * np.sin(c * t + np.atleast_2d(pts)[:, 0])

    vel = VelocityField(counted("v", lambda t, x: np.ones_like(np.atleast_2d(x))
                                * (1.0 + 0.3 * np.sin(t))[..., None]),
                        counted("div", lambda t, x: 0.1 * np.cos(3.0 * t)), 1.3)
    lp1 = LinearProblem(vel, counted("p", varying(0.1, 0.3, 2.0)),
                        counted("q", varying(0.2, 0.1, 1.0)),
                        counted("ub", varying(1.0, 0.5, 3.0)), smooth_u0(grid6))
    lp2 = LinearProblem(vel, counted("p", varying(0.2, 0.2, 2.0)),
                        counted("q", varying(0.1, 0.1, 1.5)),
                        counted("ub", varying(0.5, 0.5, 2.0)), smooth_u0(grid6))
    u_t = GridFn(grid6, smooth_u0(grid6).values[:, 0] * 1.1)
    for n_time in (33, 1):
        t = 0.7 if n_time > 1 else 0.0
        calls.clear()
        c1 = apriori_l1_certificate(lp1, grid6, t, u_t=u_t, n_time=n_time)
        assert sorted(calls) == ["p", "q", "ub", "v"]
        qnorm, pinf, flux = loop_l1(lp1, grid6, t, n_time)
        assert (c1.params["q_l1"], c1.params["p_sup"], c1.params["flux"]) == (qnorm, pinf, flux)
        assert c1.bound == (qnorm + l1_norm(lp1.u0) + flux) * math.exp(pinf * t)
        calls.clear()
        c2 = apriori_linf_certificate(lp1, grid6, t, u_t=u_t, n_time=n_time)
        assert sorted(calls) == ["div", "p", "q", "ub"]
        assert c2.bound == loop_linf_bound(lp1, grid6, t, n_time)
        pinf1, pinf2, dq, q2n, dp, dub, ub2 = loop_stability_terms(lp1, lp2, grid6, t, n_time)
        c3 = linear_stability_certificate(lp1, lp2, grid6, t, n_time=n_time)
        assert (c3.params["dq"], c3.params["dp"], c3.params["dub"]) == (dq, dp, dub)
        du0 = l1_norm(lp1.u0 - lp2.u0)
        assert c3.bound == math.exp(t * max(pinf1, pinf2)) * (
            du0 + 1.3 * dub + dq + (l1_norm(lp1.u0) + 1.3 * ub2) * dp + q2n * dp)


def _loop_space(phi, pts):
    """The bump's spatial factor, its derivatives and the others' products, axis by axis."""
    bx, dbx = TestFunction._axis((np.atleast_2d(pts) - phi.x_center) / phi.x_radius)
    d = bx.shape[1]
    others = [np.prod(bx[:, [j for j in range(d) if j != ax]], axis=1) if d > 1 else 1.0
              for ax in range(d)]
    return np.prod(bx, axis=1), dbx / phi.x_radius, others


def _loop_time(phi, ts):
    bt, dbt = TestFunction._axis((np.asarray(ts, dtype=float) - phi.t_center) / phi.t_radius)
    return bt, dbt / phi.t_radius


def or_zero(fn, t, pts):
    """A coefficient of a linear problem at the points; a coefficient of None is 0."""
    return np.zeros(len(pts)) if fn is None else np.asarray(fn(t, pts))


def loop_residual(lp, grid, times, states, phi, kappa, sign):
    """The entropy residual of one sample, knot by knot, with one callback call per knot."""
    vol = grid.cell_volume
    wts = trapezoid_weights(times)
    bt, dbt = _loop_time(phi, times)
    support = np.flatnonzero(bt)
    prod, dbx, others = _loop_space(phi, grid.points)
    total = 0.0
    for j in support:
        phi_v = bt[j] * prod
        if not np.any(phi_v):
            continue
        u = states[j].values[:, 0]
        diff = u - kappa
        if sign > 0:
            up = np.maximum(diff, 0.0)
            sg = (diff > 0).astype(float)
        else:
            up = np.maximum(-diff, 0.0)
            sg = -(diff < 0).astype(float)
        tp = _at(times[j], grid.points)
        p, q = lp.p(tp, grid.points), or_zero(lp.q, tp, grid.points)
        vel = np.atleast_2d(lp.velocity(tp, grid.points))
        divv = lp.velocity.div(tp, grid.points)
        grad = np.empty_like(dbx)
        for ax, prod_others in enumerate(others):
            grad[:, ax] = bt[j] * dbx[:, ax] * prod_others
        term_t = np.sum(up * (dbt[j] * prod)) * vol
        term_x = np.sum(up * np.sum(vel * grad, axis=1)) * vol
        term_g = np.sum(sg * (p * u + q - kappa * divv) * phi_v) * vol
        total += wts[j] * (term_t + term_x + term_g)
    d0 = lp.u0.values[:, 0] - kappa
    up0 = np.maximum(d0, 0.0) if sign > 0 else np.maximum(-d0, 0.0)
    total += float(np.sum(up0 * (_loop_time(phi, [0.0])[0][0] * prod)) * vol)
    lip = lp.velocity.sup
    for ax in range(grid.domain.m):
        fg = grid.face_grid(ax)
        fprod = _loop_space(phi, fg.points)[0]
        for j in support:
            db = or_zero(lp.ub, _at(times[j], fg.points), fg.points) - kappa
            upb = np.maximum(db, 0.0) if sign > 0 else np.maximum(-db, 0.0)
            total += wts[j] * lip * float(np.sum(upb * (bt[j] * fprod))) * fg.weight
    return float(total)


def test_stacked_bump_factors_equal_one_bump_at_a_time():
    rng = np.random.default_rng(4)
    phis = [TestFunction(float(rng.uniform(0.2, 0.8)), float(rng.uniform(0.1, 0.4)),
                         rng.uniform(-1.0, 1.0, 3), rng.uniform(0.3, 1.5, 3)) for _ in range(30)]
    pts = rng.uniform(-1.5, 1.5, (400, 3))
    ts = np.linspace(0.0, 1.0, 41)
    stacked = analysis._stack(phis)
    bt, dbt = stacked.time(ts)
    sp = stacked.space(pts)
    grads = sp.grad(bt[:, 20])
    for i, phi in enumerate(phis):
        prod, dbx, others = _loop_space(phi, pts)
        one_bt, one_dbt = _loop_time(phi, ts)
        assert np.array_equal(bt[i], one_bt) and np.array_equal(dbt[i], one_dbt)
        assert np.array_equal(sp.prod[i], prod) and np.array_equal(sp.dbx[i], dbx)
        for ax, prod_others in enumerate(others):
            assert np.array_equal(grads[i, :, ax], one_bt[20] * dbx[:, ax] * prod_others)
    assert np.count_nonzero(grads) > 1000


def test_entropy_residual_equals_the_loop_with_drift_and_inflow(grid6):
    # velocity 1.3, so the flux Lipschitz constant is not 1; a time-varying inflow
    lp = LinearProblem(VelocityField.constant([1.3]), const_field(0.3), const_field(0.05),
                       lambda t, pts: 0.5 + 0.4 * np.sin(3.0 * np.asarray(t)), smooth_u0(grid6))
    times = np.linspace(0.0, 1.0, 21)
    states = solve_series(lp, times, grid6, substeps=8)
    rng = np.random.default_rng(9)
    for _ in range(30):
        phi = TestFunction(float(rng.uniform(0.0, 0.7)), float(rng.uniform(0.1, 0.45)),
                           np.array([rng.uniform(-1.0, 3.0)]), np.array([rng.uniform(0.5, 3.0)]))
        kappa, sign = float(rng.uniform(-0.2, 1.0)), int(rng.choice([-1, 1]))
        res = entropy_residual(lp, times, states, phi, kappa, sign)
        assert res == loop_residual(lp, grid6, times, states, phi, kappa, sign)
    # a bump after the last knot samples nothing and leaves only the initial layer, 0 here
    late = TestFunction(3.0, 0.5, np.array([1.5]), np.array([1.0]))
    assert entropy_residual(lp, times, states, late, 0.2, 1) == 0.0


def loop_tolerance(lp, grid, times, states, kappa):
    rows = []
    for j in (0, len(times) // 2, len(times) - 1):
        tp = _at(times[j], grid.points)
        rows.append((lp.p(tp, grid.points), or_zero(lp.q, tp, grid.points),
                     lp.velocity.div(tp, grid.points)))
    umax = max(float(np.max(np.abs(s.values))) for s in states)
    pinf, qsup, divsup = (max(0.0, *(float(np.max(np.abs(r[i]))) for r in rows))
                          for i in range(3))
    scale = ((umax + abs(kappa)) * (1.0 + lp.velocity.sup) + pinf * umax + qsup
             + abs(kappa) * divsup)
    dx = float(np.mean(grid.dx))
    dt = float(np.mean(np.diff(times))) if len(times) > 1 else dx
    return 10.0 * (dx + dt) * scale


def loop_sweep(sys_, traj, n_samples, seed):
    """The audit one sample at a time, drawing as :func:`entropy_sweep` does."""
    rng = np.random.default_rng(seed)
    grid = traj.grid
    t_end = float(traj.times[-1])
    bounds = grid.domain.bounds()
    frozen = frozen_problems(sys_, traj)
    levels = [(min(float(np.min(s.values)) for s in states),
               max(float(np.max(s.values)) for s in states)) for _, states in frozen]
    results = []
    for _ in range(n_samples):
        h = int(rng.integers(0, sys_.k))
        lo, hi = levels[h]
        kappa = float(rng.uniform(lo - 0.1 * (hi - lo + 1e-6), hi + 0.1 * (hi - lo + 1e-6)))
        t_rad = float(rng.uniform(0.1, 0.45)) * max(t_end, 1e-6)
        t_c = float(rng.uniform(0.0, max(t_end - t_rad, 1e-9)))
        x_c = np.array([rng.uniform(lo_ax, hi_ax) for lo_ax, hi_ax in bounds])
        x_r = np.array([rng.uniform(0.1, 0.5) * (hi_ax - lo_ax) for lo_ax, hi_ax in bounds])
        sign = 1 if rng.uniform() < 0.5 else -1
        phi = TestFunction(t_c, t_rad, x_c, x_r)
        lp, states = frozen[h]
        res = loop_residual(lp, grid, traj.times, states, phi, kappa, sign)
        tol = loop_tolerance(lp, grid, traj.times, states, kappa)
        results.append({"component": h, "kappa": kappa, "sign": sign,
                        "residual": res, "tol": tol, "ok": res >= -tol})
    return results


@pytest.fixture(scope="module", params=["sihr", "contact", "cellgrowth", "competitive",
                                        "blowup-ode", "blowup-transport"])
def audited_run(request):
    """A solve to audit: 1 to 4 components, with and without an inflow face,
    unit and drifting velocities."""
    if request.param == "sihr":
        sys_ = build_sihr(SIHRParams(rho=0.08, kappa=0.3, theta=0.1, eta=0.2))
        return sys_, solve(sys_, Grid(sys_.domain, (96,)), 0.5, PicardConfig())
    if request.param == "contact":
        sys_ = contact_sihr()
        return sys_, solve(sys_, Grid(sys_.domain, (6, 5, 4)), 0.25,
                           PicardConfig(slab_length=0.25, min_knots=4))
    if request.param.startswith("blowup"):
        return _preset_run(request.param, (120,), 0.5)
    return _preset_run(request.param, (64,), 1.0)


def test_entropy_sweep_equals_the_loop_over_samples_and_knots(audited_run):
    sys_, traj = audited_run
    results = entropy_sweep(sys_, traj, n_samples=40, seed=5)
    assert results == loop_sweep(sys_, traj, 40, 5)
    assert {r["sign"] for r in results} == {-1, 1}


def test_entropy_sweep_calls_each_callback_once_per_component(audited_run):
    sys_, traj = audited_run
    calls = []

    def counted(attr, h, fn):
        def wrapped(*args):
            calls.append((attr, h))
            return fn(*args)

        return wrapped

    saved = {attr: getattr(sys_, attr) for attr in ("P", "Q", "Ub")}
    for attr, fns in saved.items():
        setattr(sys_, attr, tuple(counted(attr, h, fn) for h, fn in enumerate(fns)))
    try:
        results = entropy_sweep(sys_, traj, n_samples=40, seed=5)
    finally:
        for attr, fns in saved.items():
            setattr(sys_, attr, fns)
    audited = {r["component"] for r in results}
    faces = sys_.domain.m
    # a component's Q or Ub declared None is never called
    expected = sorted([("P", h) for h in audited] + [("Q", h) for h in audited if sys_.has_q[h]]
                      + [("Ub", h) for h in audited if sys_.has_ub[h] for _ in range(faces)])
    assert sorted(calls) == expected
