import dataclasses

import numpy as np
import pytest

from renewalpde.characteristics import VelocityField
from renewalpde.domain import Grid, GridFn
from renewalpde.models import (
    CellGrowthParams,
    CompetitiveParams,
    SIHRParams,
    build_blowup,
    build_cell_growth,
    build_competitive,
    build_sihr,
    bump,
)
from renewalpde.picard import PicardConfig, solve

CFG = PicardConfig(slab_length=0.5)


def total_mass_series(traj):
    return traj.component_masses().sum(axis=1)


def test_sihr_trivial_transport():
    sys_ = build_sihr(SIHRParams())
    grid = Grid(sys_.domain, (128,))
    traj = solve(sys_, grid, 1.0, CFG)
    u0 = sys_.initial_state(grid)
    shifted = sys_.u0(grid.points - np.array([1.0]))
    err = np.sum(np.abs(traj.states[-1].values - shifted)) * grid.cell_volume
    assert err <= 4 * grid.dx[0]


def test_sihr_exponential_i_decay():
    c = 0.3 + 0.1 + 0.2
    sys_ = build_sihr(SIHRParams(mu_i=0.3, kappa=0.1, theta=0.2, rho=0.0))
    grid = Grid(sys_.domain, (128,))
    traj = solve(sys_, grid, 2.0, CFG)
    masses = traj.component_masses()
    m0 = masses[0, 1]
    mT = masses[-1, 1]
    assert mT == pytest.approx(m0 * np.exp(-c * 2.0), rel=0.02)


def _sir_ode_oracle(rho, kappa, theta, eta, m0, T, steps=4000):
    """Spatially integrated compartment ODE solved by RK4."""
    y = np.array(m0, dtype=float)

    def rhs(y):
        S, I, H, R = y
        return np.array([
            -rho * I * S,
            rho * I * S - (kappa + theta) * I,
            kappa * I - eta * H,
            theta * I + eta * H,
        ])

    dt = T / steps
    for _ in range(steps):
        k1 = rhs(y)
        k2 = rhs(y + dt / 2 * k1)
        k3 = rhs(y + dt / 2 * k2)
        k4 = rhs(y + dt * k3)
        y = y + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return y


def test_sihr_against_compartment_ode():
    rho, kappa, theta, eta = 0.9, 0.25, 0.15, 0.3
    sys_ = build_sihr(SIHRParams(rho=rho, kappa=kappa, theta=theta, eta=eta))
    grid = Grid(sys_.domain, (160,))
    traj = solve(sys_, grid, 3.0, CFG)
    m0 = traj.component_masses()[0]
    expected = _sir_ode_oracle(rho, kappa, theta, eta, m0, 3.0)
    got = traj.component_masses()[-1]
    assert np.allclose(got, expected, rtol=0.02, atol=1e-4)


def test_sihr_epidemic_threshold():
    kappa, theta = 0.25, 0.15
    sys_lo, grid = None, None
    for rho, grows in ((0.05, False), (1.2, True)):
        sys_ = build_sihr(SIHRParams(rho=rho, kappa=kappa, theta=theta))
        grid = Grid(sys_.domain, (128,))
        s_mass = traj0 = None
        traj = solve(sys_, grid, 0.5, CFG)
        masses = traj.component_masses()
        s0 = masses[0, 0]
        # growth iff contact pressure rho * S-mass beats removal kappa + theta
        expected_grows = rho * s0 > kappa + theta
        assert expected_grows == grows
        assert (masses[-1, 1] > masses[0, 1]) == grows


def test_sihr_conservation_and_positivity():
    sys_ = build_sihr(SIHRParams(kappa=0.3, theta=0.1, eta=0.2, rho=0.08))
    grid = Grid(sys_.domain, (128,))
    traj = solve(sys_, grid, 2.0, CFG)
    total = total_mass_series(traj)
    assert abs(total[-1] - total[0]) <= 0.02 * total[0]
    # non-increasing up to quadrature-level noise
    assert np.diff(total).max() <= 1e-4 * total[0]
    assert min(np.min(s.values) for s in traj.states) >= -1e-12


def test_sihr_quarantine_monotonicity():
    masses = {}
    for kap in (0.1, 0.6):
        sys_ = build_sihr(SIHRParams(rho=0.5, kappa=kap, theta=0.1, eta=0.2))
        grid = Grid(sys_.domain, (96,))
        traj = solve(sys_, grid, 2.0, CFG)
        ts = np.linspace(0.0, 2.0, 9)
        masses[kap] = np.array([
            np.sum(np.abs(traj.state_at(t).values[:, 1])) * grid.cell_volume for t in ts])
    assert np.all(masses[0.6] <= masses[0.1] + 1e-9)


def test_cell_growth_pure_aging():
    sys_ = build_cell_growth(CellGrowthParams(loss=0.0, birth_weight=0.0))
    grid = Grid(sys_.domain, (128,))
    traj = solve(sys_, grid, 1.0, CFG)
    shifted = sys_.u0(grid.points - np.array([1.0]))
    err = np.sum(np.abs(traj.states[-1].values - shifted)) * grid.cell_volume
    assert err <= 4 * grid.dx[0]


def test_cell_growth_loss_decay():
    c = 0.4
    sys_ = build_cell_growth(CellGrowthParams(loss=c, birth_weight=0.0))
    grid = Grid(sys_.domain, (128,))
    traj = solve(sys_, grid, 1.5, CFG)
    m = total_mass_series(traj)
    assert m[-1] == pytest.approx(m[0] * np.exp(-c * 1.5), rel=0.02)


def test_cell_growth_renewal_rate():
    # constant birth weight b0, no loss: total mass eventually grows like
    # exp(r t) with r solving 1 = b0 / r, i.e. r = b0
    b0 = 1.0
    sys_ = build_cell_growth(CellGrowthParams(loss=0.0, birth_weight=b0, age_max=12.0))
    grid = Grid(sys_.domain, (192,))
    traj = solve(sys_, grid, 6.0, CFG)
    ts = traj.times
    window = (ts >= 4.0) & (ts <= 6.0)
    logm = np.log(total_mass_series(traj)[window])
    slope = np.polyfit(ts[window], logm, 1)[0]
    assert slope == pytest.approx(b0, rel=0.10)


def _constant(c):
    """A callable coefficient that is ``c`` at every argument."""
    return lambda *args: np.full(np.broadcast(*args).shape, c)


def test_cell_growth_spatial_callable_growth_equals_no_growth():
    # age x 1-D trait: a growth callable of 0 steps the RK4 loop on the callbacks;
    # the built-in (1, 0) velocity sums its constant steps.  Both trace on the
    # times of each slab less its start, so they agree bit for bit
    runs = []
    for growth in (None, lambda t, pts: np.zeros((len(pts), 1))):
        sys_ = build_cell_growth(CellGrowthParams(loss=0.2, birth_weight=0.5, n=1, growth=growth))
        assert (sys_.velocities[0].vec is None) == (growth is not None)
        runs.append(solve(sys_, Grid(sys_.domain, (24, 8)), 0.5, PicardConfig()).values)
    assert np.array_equal(runs[1], runs[0])
    # growth returns one rate per trait axis, (P, n): a (P,) result does not broadcast
    with pytest.raises(ValueError, match="broadcast"):
        build_cell_growth(CellGrowthParams(n=1, growth=lambda t, pts: np.zeros(len(pts))))


def test_competitive_callable_kernels_equal_constant_ones():
    base = dict(mu1=0.2, mu2=0.3, c1=0.3, c2=0.2, beta1=0.4, beta2=0.3, f1=0.1, f2=0.05)
    calls = {"beta": dict(beta1=_constant(0.4), beta2=_constant(0.3), beta1_bound=0.4,
                          beta2_bound=0.3),
             "c": dict(c1=_constant(0.3), c2=_constant(0.2), c1_bound=0.3, c2_bound=0.2)}

    def run(**over):
        sys_ = build_competitive(CompetitiveParams(**{**base, **over}))
        return solve(sys_, Grid(sys_.domain, (64,)), 0.5, PicardConfig()).values

    ref = run()
    # a natality callback is still a weighted mass, its weights the constant's: same bits
    assert np.array_equal(run(**calls["beta"]), ref)
    # a competition callback is a dense kernel: its product with the knot states sums
    # the nodes in another order than the mass does, a few ulps apart
    assert np.max(np.abs(run(**calls["c"]) - ref)) <= 1e-14 * np.max(np.abs(ref))
    for key, bound in (("c1", "c1_bound"), ("beta2", "beta2_bound")):
        with pytest.raises(ValueError, match="needs a sup bound"):
            build_competitive(CompetitiveParams(**{**base, key: _constant(0.1), bound: None}))


def test_competitive_callable_velocity_equals_constant_one():
    # the same age velocity as a callback: stepped, not summed, on the same times
    sys_ = build_competitive(CompetitiveParams(mu1=0.2, mu2=0.3, c1=0.3, c2=0.2, beta1=0.4,
                                               beta2=0.3, f1=0.1, f2=0.05))
    v = sys_.velocities[0]
    twin = VelocityField(v.fn, v.div, v.sup)
    assert v.vec is not None and twin.vec is None
    runs = [solve(s, Grid(s.domain, (64,)), 2.0, PicardConfig()).values
            for s in (sys_, dataclasses.replace(sys_, velocities=(twin, twin)))]
    assert np.array_equal(runs[1], runs[0])


def test_competitive_decoupled_decay():
    sys_ = build_competitive(CompetitiveParams(mu1=0.3, mu2=0.5))
    grid = Grid(sys_.domain, (96,))
    traj = solve(sys_, grid, 1.0, CFG)
    m = traj.component_masses()
    assert m[-1, 0] == pytest.approx(m[0, 0] * np.exp(-0.3), rel=0.02)
    assert m[-1, 1] == pytest.approx(m[0, 1] * np.exp(-0.5), rel=0.02)


def test_competitive_symmetry_preservation():
    prof = bump(1.0, 0.9, 1.0)
    params = CompetitiveParams(mu1=0.2, mu2=0.2, c1=0.3, c2=0.3, beta1=0.4, beta2=0.4,
                               u0_1=prof, u0_2=prof)
    sys_ = build_competitive(params)
    grid = Grid(sys_.domain, (96,))
    traj = solve(sys_, grid, 1.5, CFG)
    for s in traj.states:
        assert np.allclose(s.values[:, 0], s.values[:, 1], atol=1e-12)


def test_competitive_one_way_coupling():
    base = dict(mu1=0.2, mu2=0.2, beta1=0.3, beta2=0.3)
    sys_off = build_competitive(CompetitiveParams(**base, c1=0.0))
    sys_on = build_competitive(CompetitiveParams(**base, c1=0.8))
    grid = Grid(sys_off.domain, (96,))
    t_off = solve(sys_off, grid, 1.5, CFG)
    t_on = solve(sys_on, grid, 1.5, CFG)
    # population 2 never sees c1; population 1 is strictly suppressed
    ts = np.linspace(0.0, 1.5, 7)
    for t in ts:
        a, b = t_off.state_at(t), t_on.state_at(t)
        assert np.allclose(a.values[:, 1], b.values[:, 1], atol=1e-7)
    m_off = t_off.component_masses()[-1, 0]
    m_on = t_on.component_masses()[-1, 0]
    assert m_on < m_off


def test_competitive_positivity():
    params = CompetitiveParams(mu1=0.2, mu2=0.3, c1=0.4, c2=0.2, beta1=0.5, beta2=0.2,
                               f1=0.1, f2=0.05)
    sys_ = build_competitive(params)
    grid = Grid(sys_.domain, (96,))
    traj = solve(sys_, grid, 1.5, CFG)
    assert min(np.min(s.values) for s in traj.states) >= -1e-12


def test_blowup_oracles_closed_form():
    sys_o, oracle_o = build_blowup("ode")
    grid_o = Grid(sys_o.domain, (200,))
    ind = ((grid_o.points[:, 0] >= 0) & (grid_o.points[:, 0] <= 1)).astype(float)
    assert np.allclose(oracle_o(0.0, grid_o.points), ind)
    assert np.allclose(oracle_o(0.9, grid_o.points), 10.0 * ind)

    sys_t, oracle_t = build_blowup("transport")
    grid_t = Grid(sys_t.domain, (300,))
    x = grid_t.points[:, 0]
    expected = 2.0 * ((x >= 0.5) & (x <= 1.5))
    assert np.allclose(oracle_t(0.5, grid_t.points), expected)


def test_blowup_mass_law_coarse():
    sys_, oracle = build_blowup("ode")
    grid = Grid(sys_.domain, (200,))
    traj = solve(sys_, grid, 0.75, PicardConfig())
    masses = total_mass_series(traj)
    for t, m in zip(traj.times, masses):
        assert m == pytest.approx(1.0 / (1.0 - t), rel=0.02)


def test_sihr_spatial_smoke():
    # age + 2d space mode on a coarse grid: exercises 3d tracing,
    # interpolation and the 2d inflow face end to end
    def drift(t, pts):
        pts = np.atleast_2d(pts)
        out = np.zeros((pts.shape[0], 2))
        out[:, 0] = 0.3
        return out

    params = SIHRParams(kappa=0.2, theta=0.1, eta=0.1, rho=0.05, spatial=True,
                        vel_s=drift, vel_i=drift, vel_r=drift,
                        age_max=4.0, y_max=2.0)
    sys_ = build_sihr(params)
    assert sys_.domain.dim == 3
    grid = Grid(sys_.domain, (12, 8, 8))
    traj = solve(sys_, grid, 0.5, PicardConfig(slab_length=0.25))
    total = total_mass_series(traj)
    assert min(np.min(s.values) for s in traj.states) >= -1e-12
    # zero mortality: conservation up to the coarse-grid tolerance
    assert abs(total[-1] - total[0]) <= 0.05 * total[0]


def test_truncation_mass_report():
    from renewalpde.domain import truncation_mass_report

    sys_ = build_sihr(SIHRParams(rho=0.0, age_max=10.0))
    grid = Grid(sys_.domain, (128,))
    near_face = GridFn(grid, (grid.points[:, 0] > 9.8).astype(float))
    rep = truncation_mass_report(near_face)
    assert rep["axis0-upper"] == pytest.approx(1.0)
    centered = sys_.initial_state(grid)
    rep2 = truncation_mass_report(centered)
    assert rep2["axis0-upper"] == 0.0


def test_sup_estimate_passes_one_time_per_point():
    # the sampled sup bound calls user rates as the solver does: t of shape (P,)
    def mu_i(t, pts):
        n = np.atleast_2d(pts).shape[0]
        assert np.shape(t) == (n,)
        return np.full(n, 0.1)

    sys_ = build_sihr(SIHRParams(mu_i=mu_i))
    assert sys_.constants.P1 == pytest.approx(0.1)
