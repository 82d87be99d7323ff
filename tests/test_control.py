import warnings

import numpy as np
import pytest

from renewalpde.control import (
    ControlSpec,
    cost_deaths,
    cost_peak_infection,
    optimize,
    piecewise_control,
    sihr_kappa_objective,
)
from renewalpde.domain import Grid
from renewalpde.models import SIHRParams, build_sihr
from renewalpde.picard import LocalExistenceError, PicardConfig, solve

CFG = PicardConfig(slab_length=0.5)


@pytest.fixture(scope="module")
def decaying_sihr():
    c = 0.4
    sys_ = build_sihr(SIHRParams(mu_i=c, rho=0.0))
    grid = Grid(sys_.domain, (96,))
    return solve(sys_, grid, 2.0, CFG), c


def test_cost_deaths_zero_rates(decaying_sihr):
    traj, _ = decaying_sihr
    assert cost_deaths(traj, 0.0, 0.0) == 0.0


def test_cost_deaths_decay_closed_form(decaying_sihr):
    traj, c = decaying_sihr
    m0 = traj.component_masses()[0, 1]
    expected = m0 * (1.0 - np.exp(-c * 2.0))
    assert cost_deaths(traj, c, 0.0) == pytest.approx(expected, rel=0.03)


def test_cost_deaths_linear_in_rates(decaying_sihr):
    traj, c = decaying_sihr
    assert cost_deaths(traj, 2 * c, 0.0) == pytest.approx(2.0 * cost_deaths(traj, c, 0.0),
                                                          rel=1e-12)


def test_cost_peak_zero_and_decay(decaying_sihr):
    traj, _ = decaying_sihr
    from renewalpde.picard import Trajectory
    assert cost_peak_infection(Trajectory(traj.grid, traj.times, traj.values * 0.0)) == 0.0
    # monotone decay: the peak is attained at the initial knot
    peak = cost_peak_infection(traj)
    assert peak == pytest.approx(float(np.max(traj.states[0].values[:, 1])), rel=1e-9)


def test_cost_peak_growth_at_final_knot():
    sys_ = build_sihr(SIHRParams(rho=1.2, kappa=0.1, theta=0.05))
    grid = Grid(sys_.domain, (96,))
    traj = solve(sys_, grid, 1.0, CFG)
    peak = cost_peak_infection(traj)
    finals = float(np.max(traj.states[-1].values[:, 1]))
    assert peak == pytest.approx(finals, rel=1e-9)
    assert peak > float(np.max(traj.states[0].values[:, 1]))


def test_piecewise_control_lookup():
    rate = piecewise_control(np.array([0.1, 0.2, 0.3, 0.4]),
                             breakpoints=[0.0, 1.0, 2.0], age_bins=[0.0, 5.0, 10.0])
    pts = np.array([[2.0], [7.0]])
    assert np.allclose(rate(0.5, pts), [0.1, 0.2])
    assert np.allclose(rate(1.5, pts), [0.3, 0.4])
    # vector time argument (needed along exit partials)
    got = rate(np.array([0.5, 1.5]), pts)
    assert np.allclose(got, [0.1, 0.4])


def _monotone_objective():
    base = SIHRParams(mu_i=0.4, mu_h=0.0, theta=0.1, eta=0.3, rho=0.0)
    spec = ControlSpec(bounds=[(0.0, 1.0)], budget=60, breakpoints=None)
    return sihr_kappa_objective(base, spec, cells=64, horizon=2.0,
                                cfg=PicardConfig(slab_length=0.5)), spec


def test_deaths_monotone_in_quarantine():
    objective, _ = _monotone_objective()
    sweep = [objective(np.array([k])) for k in (0.0, 0.25, 0.5, 0.75, 1.0)]
    assert all(a > b for a, b in zip(sweep, sweep[1:]))


def test_optimizer_finds_box_corner():
    objective, spec = _monotone_objective()
    result = optimize(objective, spec)
    assert result.evaluations <= 60
    assert abs(result.best[0] - 1.0) <= max(result.final_step[0], 1e-3)
    assert all(a >= b for a, b in zip(result.trace, result.trace[1:]))


def test_optimizer_constant_objective():
    spec = ControlSpec(bounds=[(0.0, 1.0)], budget=20)
    result = optimize(lambda c: 0.0, spec)
    assert result.cost == 0.0
    assert 0.0 <= result.best[0] <= 1.0


def test_optimizer_two_coefficients_trace():
    spec = ControlSpec(bounds=[(0.0, 1.0), (0.0, 1.0)], budget=40)
    result = optimize(lambda c: float((c[0] - 0.2) ** 2 + (c[1] - 0.9) ** 2), spec)
    assert all(a >= b for a, b in zip(result.trace, result.trace[1:]))
    assert abs(result.best[0] - 0.2) <= 0.05
    assert abs(result.best[1] - 0.9) <= 0.05


def test_empirical_cost_lipschitzness():
    objective, _ = _monotone_objective()
    base = 0.5
    f0 = objective(np.array([base]))
    slopes = []
    for d in (0.2, 0.1, 0.05):
        slopes.append(abs(objective(np.array([base + d])) - f0) / d)
    mid = slopes[1]
    assert all(abs(s - mid) <= 0.30 * mid for s in slopes)


def test_optimizer_deterministic():
    spec = ControlSpec(bounds=[(0.0, 2.0), (-1.0, 1.0)], budget=30)
    obj = lambda c: float(np.cos(3 * c[0]) + (c[1] - 0.4) ** 2)
    a = optimize(obj, spec)
    b = optimize(obj, spec)
    assert np.array_equal(a.best, b.best)
    assert a.trace == b.trace
    assert a.evaluations == b.evaluations


def test_optimizer_discards_a_probe_whose_solve_fails():
    # solves above 0.6 fail: each such probe warns, reads as inf and is never taken
    failed = []

    def objective(c):
        if c[0] > 0.6:
            failed.append(c[0])
            raise LocalExistenceError(0.0, 1.0)
        return float((c[0] - 0.9) ** 2)

    spec = ControlSpec(bounds=[(0.0, 1.0)], budget=30)
    with pytest.warns(UserWarning, match="control probe discarded") as record:
        result = optimize(objective, spec)
    assert failed and len(record) == len(failed)
    assert result.best[0] <= 0.6 and result.cost == (result.best[0] - 0.9) ** 2
    assert np.all(np.isfinite(result.trace))
    assert all(a >= b for a, b in zip(result.trace, result.trace[1:]))
    # a failing start is read as inf too: with every probe failing, nothing improves it
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = optimize(lambda c: objective(c + 1.0), ControlSpec(bounds=[(0.0, 1.0)],
                                                                   budget=5))
    assert result.cost == np.inf and result.trace == [np.inf] * 5 and result.best[0] == 0.5


def test_peak_objective_is_the_peak_of_a_constant_rate_solve():
    base = SIHRParams(rho=1.2, kappa=0.1, theta=0.05)
    spec = ControlSpec(bounds=[(0.0, 1.0)], budget=10, breakpoints=None)
    objective = sihr_kappa_objective(base, spec, cells=64, horizon=1.0, cfg=CFG,
                                     objective="peak")
    sweep = [objective(np.array([k])) for k in (0.0, 0.5, 1.0)]
    # more quarantine, a lower peak of the infective density
    assert all(a > b for a, b in zip(sweep, sweep[1:]))
    sys_ = build_sihr(SIHRParams(rho=1.2, kappa=0.5, theta=0.05))
    traj = solve(sys_, Grid(sys_.domain, (64,)), 1.0, CFG)
    assert sweep[1] == pytest.approx(cost_peak_infection(traj), rel=1e-12)
    with pytest.raises(ValueError, match="'deaths' or 'peak'"):
        sihr_kappa_objective(base, spec, cells=64, horizon=1.0, cfg=CFG, objective="cases")
