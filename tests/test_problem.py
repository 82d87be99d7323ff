import dataclasses

import numpy as np
import pytest

from renewalpde.characteristics import VelocityField
from renewalpde.domain import Domain, Grid, GridFn, l1_norm
from renewalpde.kernels import WeightedMassKernel
from renewalpde.models import SIHRParams, CellGrowthParams, build_cell_growth, build_blowup, build_sihr
from renewalpde.problem import (
    HypothesisConstants,
    SystemDef,
    check_hypotheses,
    eval_p,
    eval_q,
    eval_ub,
)


@pytest.fixture(scope="module")
def sihr_grid():
    sys_ = build_sihr(SIHRParams(mu_s=0.1, kappa=0.3, theta=0.1, eta=0.2, rho=1.0, s_b=1.0))
    return sys_, Grid(sys_.domain, (200,))


def state_with_i_mass(grid, mass):
    vals = np.zeros((grid.n_nodes, 4))
    vals[:, 1] = mass / (grid.cell_volume * grid.n_nodes)
    return GridFn(grid, vals)


def test_eval_p_decoupled_mortality():
    sys_ = build_sihr(SIHRParams(mu_s=0.1, rho=0.0))
    grid = Grid(sys_.domain, (100,))
    w = GridFn.zeros(grid, 4)
    assert eval_p(sys_, 0, 0.0, np.array([1.0]), w) == pytest.approx(-0.1)
    w2 = state_with_i_mass(grid, 5.0)
    assert eval_p(sys_, 0, 0.3, np.array([2.0]), w2) == pytest.approx(-0.1)


def test_eval_p_with_contact_mass(sihr_grid):
    sys_, grid = sihr_grid
    w = state_with_i_mass(grid, 2.0)
    got = eval_p(sys_, 0, 0.0, np.array([1.0]), w)
    # independent quadrature oracle for the contact integral
    lam = np.sum(w.values[:, 1]) * grid.cell_volume
    assert got == pytest.approx(-0.1 - lam, rel=1e-12)
    assert got == pytest.approx(-2.1, rel=1e-9)


def test_eval_p_blowup_window():
    sys_, _ = build_blowup("ode")
    grid = Grid(sys_.domain, (400,))
    w = GridFn.from_callback(grid, lambda pts: ((pts[:, 0] >= 0) & (pts[:, 0] <= 1)).astype(float))
    got = eval_p(sys_, 0, 0.0, np.array([0.2]), w)
    assert abs(got - 1.0) <= 0.005


def test_eval_q_zero_and_sihr(sihr_grid):
    sys_, grid = sihr_grid
    bsys, _ = build_blowup("ode")
    bgrid = Grid(bsys.domain, (64,))
    assert eval_q(bsys, 0, 0.1, np.array([0.5]), np.array([2.0]),
                  GridFn(bgrid, np.ones(64))) == 0.0
    # q for the hospitalized compartment: quarantine inflow kappa * I
    u = np.array([0.0, 2.0, 0.0, 0.0])
    got = eval_q(sys_, 2, 0.0, np.array([1.0]), u, GridFn.zeros(grid, 4))
    assert got == pytest.approx(0.6)
    # q for the infective compartment: contact pressure times S
    w = state_with_i_mass(grid, 1.5)
    u2 = np.array([2.0, 0.0, 0.0, 0.0])
    lam = np.sum(w.values[:, 1]) * grid.cell_volume
    got2 = eval_q(sys_, 1, 0.0, np.array([1.0]), u2, w)
    assert got2 == pytest.approx(lam * 2.0, rel=1e-12)
    assert got2 == pytest.approx(3.0, rel=1e-9)


def test_eval_q_vanishes_at_zero_state(sihr_grid):
    sys_, grid = sihr_grid
    zeros = GridFn.zeros(grid, 4)
    for h in range(4):
        assert eval_q(sys_, h, 0.2, np.array([1.0]), np.zeros(4), zeros) == 0.0


def test_eval_ub_sihr(sihr_grid):
    sys_, grid = sihr_grid
    w = state_with_i_mass(grid, 1.0)
    xi = np.array([0.0])
    assert eval_ub(sys_, 0, 0.0, xi, w) == pytest.approx(1.0)
    for h in (1, 2, 3):
        assert eval_ub(sys_, h, 0.0, xi, w) == 0.0


def test_eval_ub_offface_errors(sihr_grid):
    sys_, grid = sihr_grid
    with pytest.raises(ValueError):
        eval_ub(sys_, 0, 0.0, np.array([0.5]), GridFn.zeros(grid, 4))


def test_eval_ub_cell_growth_total_mass():
    sys_ = build_cell_growth(CellGrowthParams(loss=0.0, birth_weight=1.0))
    grid = Grid(sys_.domain, (200,))
    rng = np.random.default_rng(4)
    w = GridFn(grid, np.abs(rng.normal(size=grid.n_nodes)))
    got = eval_ub(sys_, 0, 0.0, np.array([0.0]), w)
    assert got == pytest.approx(l1_norm(w), rel=1e-9)


def test_check_hypotheses_sihr_passes(sihr_grid):
    sys_, grid = sihr_grid
    report = check_hypotheses(sys_, sys_.constants, grid, samples=40, seed=0)
    assert report.passed, report.format()


def test_check_hypotheses_passes_one_time_per_point(sihr_grid):
    sys_, grid = sihr_grid

    def one_time_per_point(fn):
        def checked(t, pts, *rest):
            assert np.shape(t) == (np.atleast_2d(pts).shape[0],)
            return fn(t, pts, *rest)

        return checked

    strict = dataclasses.replace(sys_, P=[one_time_per_point(f) for f in sys_.P],
                                 Q=[one_time_per_point(f) for f in sys_.Q],
                                 Ub=[one_time_per_point(f) for f in sys_.Ub])
    report = check_hypotheses(strict, strict.constants, grid, samples=10, seed=0)
    assert report.passed, report.format()


def test_check_hypotheses_blowup_passes():
    sys_, _ = build_blowup("ode")
    grid = Grid(sys_.domain, (200,))
    report = check_hypotheses(sys_, sys_.constants, grid, samples=40, seed=1)
    assert report.passed, report.format()


def test_check_hypotheses_detects_quadratic_growth():
    # p(w) = (int_0^1 w)^2 cannot satisfy a linear bound with P2 = 1
    dom = Domain(full_lengths=(1.5,), full_bounds=((-0.5, 1.5),))
    window = WeightedMassKernel(
        lambda pts: ((pts[:, 0] >= 0) & (pts[:, 0] <= 1)).astype(float), comp=0, bound=1.0)
    sys_ = SystemDef(
        k=1, domain=dom, velocities=(VelocityField.constant([0.0]),),
        P=(lambda t, pts, eta: eta[:, 0] ** 2,),
        Q=(lambda t, pts, u, eta: np.zeros(np.atleast_2d(pts).shape[0]),),
        Ub=(lambda t, pts, eta: np.zeros(np.atleast_2d(pts).shape[0]),),
        Kp=(window,),
        u0=lambda pts: ((np.atleast_2d(pts)[:, 0] >= 0) & (np.atleast_2d(pts)[:, 0] <= 1)).astype(float)[:, None],
        name="quadratic")
    grid = Grid(dom, (200,))
    hc = HypothesisConstants(P1=0.0, P2=1.0)
    report = check_hypotheses(sys_, hc, grid, samples=40, seed=2)
    growth = next(c for c in report.checks if c.name == "P")
    assert not growth.passed
    assert growth.worst_ratio > 1.0


def test_eval_p_lipschitz_in_state(sihr_grid):
    sys_, grid = sihr_grid
    rng = np.random.default_rng(8)
    P2 = sys_.constants.P2
    for _ in range(10):
        a = GridFn(grid, rng.normal(size=(grid.n_nodes, 4)))
        b = GridFn(grid, rng.normal(size=(grid.n_nodes, 4)))
        x = grid.points[rng.integers(grid.n_nodes)]
        for h in range(4):
            lhs = abs(eval_p(sys_, h, 0.1, x, a) - eval_p(sys_, h, 0.1, x, b))
            assert lhs <= P2 * l1_norm(a - b) * (1 + 1e-9)


def test_eval_ub_sihr_natality_flag():
    # optional renewal boundary for S: inflow equals a weighted S-mass
    sys_ = build_sihr(SIHRParams(rho=0.0, natality_weight=0.5))
    grid = Grid(sys_.domain, (150,))
    rng = np.random.default_rng(12)
    vals = np.zeros((grid.n_nodes, 4))
    vals[:, 0] = np.abs(rng.normal(size=grid.n_nodes))
    w = GridFn(grid, vals)
    s_mass = np.sum(vals[:, 0]) * grid.cell_volume
    got = eval_ub(sys_, 0, 0.0, np.array([0.0]), w)
    assert got == pytest.approx(0.5 * s_mass, rel=1e-12)
