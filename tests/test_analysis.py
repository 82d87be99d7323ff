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
    frozen_component,
    gronwall_certificate,
    linear_stability_certificate,
)
from renewalpde.characteristics import VelocityField
from renewalpde.domain import Domain, Grid, GridFn
from renewalpde.kernels import ScalarComponentKernel
from renewalpde.models import SIHRParams, build_blowup, build_sihr, bump
from renewalpde.picard import PicardConfig, solve, solve_slab
from renewalpde.problem import HypothesisConstants, SystemDef
from renewalpde.transport import LinearProblem, solve_series, zero_field
from test_picard import contact_sihr

V1 = VelocityField.constant([1.0])


def const_field(c):
    def fn(t, pts):
        pts = np.atleast_2d(pts)
        return np.full(pts.shape[0], float(c))

    return fn


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


def test_frozen_component_matches_states():
    sys_ = build_sihr(SIHRParams(rho=0.1, kappa=0.2))
    grid = Grid(sys_.domain, (64,))
    traj = solve(sys_, grid, 0.5, PicardConfig())
    lp, states = frozen_component(sys_, traj, 1)
    assert len(states) == len(traj.times)
    assert np.array_equal(states[3].values[:, 0], traj.states[3].values[:, 1])
    assert np.array_equal(lp.u0.values[:, 0], traj.states[0].values[:, 1])


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
    frozen = [frozen_component(sys_, traj, h) for h in range(sys_.k)]
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
    # integrating the kernel at every knot, as without the matrix, gives the same results
    monkeypatch.setattr(ScalarComponentKernel, "_node_matrix", lambda self, grid: None)
    calls.clear()
    assert entropy_sweep(sys_, traj, n_samples=20, seed=3) == results
    assert len(calls) == 2 * len(traj.times)


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
        p_times.append(np.unique(t))
        return np.full(np.atleast_2d(pts).shape[0], 0.3)

    lp = LinearProblem(V1, p, zero_field, zero_field, smooth_u0(grid6))
    times = np.linspace(0.0, 1.0, 17)
    states = solve_series(lp, times, grid6, substeps=16)
    p_times.clear()
    phi = TestFunction(0.5, 0.2, np.array([2.0]), np.array([1.5]))
    entropy_residual(lp, times, states, phi, 0.2, 1)
    bt, _ = phi.time(times)
    assert np.count_nonzero(bt) == 7
    assert all(len(ts) == 1 for ts in p_times)
    assert np.array_equal(np.concatenate(p_times), times[bt != 0])
