import dataclasses

import numpy as np
import pytest

from renewalpde import analysis
from renewalpde.analysis import check_hypotheses
from renewalpde.characteristics import VelocityField
from renewalpde.config import PRESETS
from renewalpde.domain import Domain, Grid, GridFn, l1_norm
from renewalpde.kernels import ScalarComponentKernel, WeightedMassKernel
from renewalpde.models import SIHRParams, CellGrowthParams, build_cell_growth, build_blowup, build_sihr
from renewalpde.picard import FrozenCoefficients, Trajectory
from renewalpde.problem import HypothesisConstants, SystemDef

from test_picard import contact_sihr


@pytest.fixture(scope="module")
def sihr_grid():
    sys_ = build_sihr(SIHRParams(mu_s=0.1, kappa=0.3, theta=0.1, eta=0.2, rho=1.0, s_b=1.0))
    return sys_, Grid(sys_.domain, (200,))


def state_with_i_mass(grid, mass):
    vals = np.zeros((grid.n_nodes, 4))
    vals[:, 1] = mass / (grid.cell_volume * grid.n_nodes)
    return GridFn(grid, vals)


def frozen(sys_, w):
    """The coefficients with the state frozen at w on one knot, which serves every
    time: kernels do not read t."""
    return FrozenCoefficients(sys_, Trajectory(w.grid, [0.0], w.values[None]))


def at(t, pts):
    return np.full(len(pts), t)


def test_frozen_p_decoupled_mortality():
    sys_ = build_sihr(SIHRParams(mu_s=0.1, rho=0.0))
    grid = Grid(sys_.domain, (100,))
    x = grid.points
    assert frozen(sys_, GridFn.zeros(grid, 4)).p(0, at(0.0, x), x) == pytest.approx(-0.1)
    w2 = state_with_i_mass(grid, 5.0)
    assert frozen(sys_, w2).p(0, at(0.3, x), x) == pytest.approx(-0.1)


def test_frozen_p_with_contact_mass(sihr_grid):
    sys_, grid = sihr_grid
    w = state_with_i_mass(grid, 2.0)
    got = frozen(sys_, w).p(0, at(0.0, grid.points), grid.points)
    # independent quadrature oracle for the contact integral
    lam = np.sum(w.values[:, 1]) * grid.cell_volume
    assert got == pytest.approx(np.full(grid.n_nodes, -0.1 - lam), rel=1e-12)
    assert got == pytest.approx(-2.1, rel=1e-9)


def test_frozen_p_blowup_window():
    sys_, _ = build_blowup("ode")
    grid = Grid(sys_.domain, (400,))
    w = GridFn.from_callback(grid, lambda pts: ((pts[:, 0] >= 0) & (pts[:, 0] <= 1)).astype(float))
    got = frozen(sys_, w).p(0, at(0.0, grid.points), grid.points)
    assert np.max(np.abs(got - 1.0)) <= 0.005


def test_frozen_q_zero_and_sihr(sihr_grid):
    sys_, grid = sihr_grid
    x = grid.points
    bsys, _ = build_blowup("ode")
    bgrid = Grid(bsys.domain, (64,))
    bq = frozen(bsys, GridFn(bgrid, np.ones(64))).q(0, at(0.1, bgrid.points), bgrid.points,
                                                  w_pt=np.full((64, 1), 2.0))
    assert np.all(bq == 0.0)
    # q for the hospitalized compartment: quarantine inflow kappa * I
    u = np.tile([0.0, 2.0, 0.0, 0.0], (grid.n_nodes, 1))
    got = frozen(sys_, GridFn.zeros(grid, 4)).q(2, at(0.0, x), x, w_pt=u)
    assert got == pytest.approx(0.6)
    # q for the infective compartment: contact pressure times S
    w = state_with_i_mass(grid, 1.5)
    u2 = np.tile([2.0, 0.0, 0.0, 0.0], (grid.n_nodes, 1))
    lam = np.sum(w.values[:, 1]) * grid.cell_volume
    got2 = frozen(sys_, w).q(1, at(0.0, x), x, w_pt=u2)
    assert got2 == pytest.approx(np.full(grid.n_nodes, lam * 2.0), rel=1e-12)
    assert got2 == pytest.approx(3.0, rel=1e-9)


def test_frozen_q_vanishes_at_zero_state(sihr_grid):
    sys_, grid = sihr_grid
    zeros = GridFn.zeros(grid, 4)
    for h in range(4):
        got = frozen(sys_, zeros).q(h, at(0.2, grid.points), grid.points, w_pt=zeros.values)
        assert np.all(got == 0.0)


def test_frozen_ub_sihr(sihr_grid):
    sys_, grid = sihr_grid
    w = state_with_i_mass(grid, 1.0)
    xi = grid.face_grid(0).points
    assert frozen(sys_, w).ub(0, at(0.0, xi), xi) == pytest.approx(1.0)
    for h in (1, 2, 3):
        assert np.all(frozen(sys_, w).ub(h, at(0.0, xi), xi) == 0.0)


def test_frozen_ub_cell_growth_total_mass():
    sys_ = build_cell_growth(CellGrowthParams(loss=0.0, birth_weight=1.0))
    grid = Grid(sys_.domain, (200,))
    rng = np.random.default_rng(4)
    w = GridFn(grid, np.abs(rng.normal(size=grid.n_nodes)))
    xi = grid.face_grid(0).points
    assert frozen(sys_, w).ub(0, at(0.0, xi), xi) == pytest.approx(l1_norm(w), rel=1e-9)


def test_frozen_p_lipschitz_in_state(sihr_grid):
    sys_, grid = sihr_grid
    rng = np.random.default_rng(8)
    P2 = sys_.constants.P2
    x = grid.points
    for _ in range(10):
        a = GridFn(grid, rng.normal(size=(grid.n_nodes, 4)))
        b = GridFn(grid, rng.normal(size=(grid.n_nodes, 4)))
        for h in range(4):
            lhs = np.abs(frozen(sys_, a).p(h, at(0.1, x), x) - frozen(sys_, b).p(h, at(0.1, x), x))
            assert np.all(lhs <= P2 * l1_norm(a - b) * (1 + 1e-9))


def test_frozen_ub_sihr_natality_flag():
    # optional renewal boundary for S: inflow equals a weighted S-mass
    sys_ = build_sihr(SIHRParams(rho=0.0, natality_weight=0.5))
    grid = Grid(sys_.domain, (150,))
    rng = np.random.default_rng(12)
    vals = np.zeros((grid.n_nodes, 4))
    vals[:, 0] = np.abs(rng.normal(size=grid.n_nodes))
    w = GridFn(grid, vals)
    s_mass = np.sum(vals[:, 0]) * grid.cell_volume
    xi = grid.face_grid(0).points
    assert frozen(sys_, w).ub(0, at(0.0, xi), xi) == pytest.approx(0.5 * s_mass, rel=1e-12)


def test_check_hypotheses_sihr_passes(sihr_grid):
    sys_, grid = sihr_grid
    report = check_hypotheses(sys_, sys_.constants, grid, samples=40, seed=0)
    assert report.passed, report.format()


def test_check_hypotheses_passes_one_time_per_point(sihr_grid):
    sys_, grid = sihr_grid

    def one_time_per_point(fn):
        if fn is None:  # a zero source or datum is never called
            return None

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
    # p(w) = (int_0^1 w)^2 cannot satisfy a linear bound with P2 = 1, whether the window
    # integral is a weighted mass (const freezing) or a dense kernel (grid freezing);
    # ub(w) = (int w)^2 through a dense boundary kernel (direct freezing) breaks B = 1
    def window(x):
        return ((x[..., 0] >= 0) & (x[..., 0] <= 1)).astype(float)

    def zero(t, pts, *rest):
        return np.zeros(np.atleast_2d(pts).shape[0])

    def square(t, pts, eta):
        return eta[:, 0] ** 2

    line = Domain(full_lengths=(1.5,), full_bounds=((-0.5, 1.5),))
    still = VelocityField.constant([0.0])
    cases = [
        (line, still, dict(P=square, Kp=WeightedMassKernel(window, comp=0)),
         HypothesisConstants(P1=0.0, P2=1.0), "P"),
        (line, still, dict(P=square, Kp=ScalarComponentKernel(lambda x, xp: window(xp) + 0 * x[..., 0])),
         HypothesisConstants(P1=0.0, P2=1.0), "P"),
        (Domain(half_lengths=(1.0,)), VelocityField.constant([1.0]),
         dict(Ub=square, Ku=ScalarComponentKernel(lambda x, xp: np.exp(-x[..., 0]) + 0 * xp[..., 0])),
         HypothesisConstants(B=1.0), "BD"),
    ]
    for dom, vel, coeffs, hc, check in cases:
        maps = {"P": zero, "Q": zero, "Ub": zero, **coeffs}
        sys_ = SystemDef(
            k=1, domain=dom, velocities=(vel,), P=(maps["P"],), Q=(maps["Q"],), Ub=(maps["Ub"],),
            Kp=(maps.get("Kp"),), Ku=(maps.get("Ku"),),
            u0=lambda pts: window(np.atleast_2d(pts))[:, None], name="quadratic")
        report = check_hypotheses(sys_, hc, Grid(dom, (200,)), samples=40, seed=2)
        growth = next(c for c in report.checks if c.name == check)
        assert not growth.passed, report.format()
        assert growth.worst_ratio > 1.0
        assert all(c.passed for c in report.checks if not c.name.startswith(check)), report.format()


def test_check_hypotheses_fails_on_nan_coefficient(sihr_grid):
    # max(worst, nan) would keep worst: a NaN coefficient must fail its checks instead
    sys_, grid = sihr_grid

    def nan_p(t, pts, eta):
        return np.full(np.atleast_2d(pts).shape[0], np.nan)

    broken = dataclasses.replace(sys_, P=[nan_p, *sys_.P[1:]])
    report = check_hypotheses(broken, broken.constants, grid, samples=10, seed=0)
    assert {c.name for c in report.checks if not c.passed} == {"P", "P-lip"}
    assert "non-finite" in report.format()


@pytest.mark.parametrize("name", [*PRESETS, "contact-sihr-10x8x8"])
def test_check_hypotheses_passes_every_preset(name):
    # const freezing (weighted masses) on every preset at its default cells; grid
    # freezing (a dense contact kernel) on the age x 2-D space SIHR
    if name in PRESETS:
        sys_, cells = PRESETS[name].build({})[0], PRESETS[name].default_cells
    else:
        sys_, cells = contact_sihr(), (10, 8, 8)
    report = check_hypotheses(sys_, sys_.constants, Grid(sys_.domain, cells))
    assert report.passed, report.format()


def test_check_hypotheses_brackets_each_point_set_once(monkeypatch):
    # the grid nodes and each inflow face are bracketed once per audit, so a
    # grid-mode contact builds one stencil per point set; bracketing at every
    # call instead (no knots passed) must give the same report
    sys_ = contact_sihr()
    grid = Grid(sys_.domain, (10, 8, 8))
    builds = []
    stencil = Grid.stencil
    monkeypatch.setattr(Grid, "stencil", lambda self, pts: builds.append(1) or stencil(self, pts))
    report = check_hypotheses(sys_, sys_.constants, grid, samples=12)
    assert 1 <= len(builds) <= 1 + sys_.domain.m
    builds.clear()
    monkeypatch.setattr(analysis, "_Knots", lambda *a: None)
    per_call = check_hypotheses(sys_, sys_.constants, grid, samples=12)
    assert len(builds) > 1 + sys_.domain.m
    assert report.checks == per_call.checks


def test_check_hypotheses_freezes_each_probe_once(monkeypatch):
    # one FrozenCoefficients per probe field serves all four components
    sys_ = contact_sihr()
    grid = Grid(sys_.domain, (6, 5, 4))
    probes, freezes = [], []
    probe_fields, init = analysis._probe_fields, FrozenCoefficients.__init__
    monkeypatch.setattr(analysis, "_probe_fields",
                        lambda *a: probes.extend(probe_fields(*a)) or probes)
    monkeypatch.setattr(FrozenCoefficients, "__init__",
                        lambda self, *a: freezes.append(a[1]) or init(self, *a))
    check_hypotheses(sys_, sys_.constants, grid, samples=6)
    assert len(probes) == 6 + 4
    assert len(freezes) == len(probes)
    assert all(np.array_equal(w.values[0], f.values) for w, f in zip(freezes, probes))


@pytest.mark.parametrize("attr, entry, what", [
    ("P", None, "callable"), ("P", 0.0, "callable"),
    ("Q", 0.0, "callable or None"), ("Ub", "zero", "callable or None")])
def test_system_rejects_a_malformed_coefficient_row(sihr_grid, attr, entry, what):
    # found when the system is built, not deep inside a sweep
    sys_, _ = sihr_grid
    row = list(getattr(sys_, attr))
    row[2] = entry
    with pytest.raises(ValueError, match=rf"^{attr}\[2\] must be {what}, got "):
        dataclasses.replace(sys_, **{attr: row})
    if attr != "P":  # None is a zero source or datum
        row[2] = None
        assert not getattr(dataclasses.replace(sys_, **{attr: row}), f"has_{attr.lower()}")[2]


def _sourced_pair(q_reads, Q=None, labels=None):
    """Two components on a half-line; by default ``Q[1]`` reads column 0 only."""
    return SystemDef(k=2, domain=Domain(half_lengths=(2.0,)),
                     velocities=(VelocityField.constant([1.0]),) * 2,
                     P=(lambda t, pts, eta: np.zeros(len(pts)),) * 2,
                     Q=(None, Q or (lambda t, pts, u, eta: 0.5 * u[:, 0])), Ub=(None, None),
                     u0=lambda pts: np.ones((len(pts), 2)), q_reads=q_reads, labels=labels)


def test_system_accepts_declared_reads():
    assert _sourced_pair(((), (0,))).q_reads == ((), (0,))
    assert _sourced_pair([[], np.array([0, 1])]).q_reads == ((), (0, 1))
    assert _sourced_pair(None).q_reads == ((0, 1), (0, 1))
    assert _sourced_pair(None).labels == ("u0", "u1")
    sihr = build_sihr(SIHRParams(rho=0.08, kappa=0.3))
    assert sihr.q_reads == ((), (0,), (1,), (1, 2)) and sihr.labels == ("S", "I", "H", "R")


@pytest.mark.parametrize("case, match", [
    ("undeclared column", r"^component 1: Q reads a column outside q_reads\[1\]"),
    ("out of range", r"^q_reads\[1\] must name distinct columns in \[0, 2\)"),
    ("negative", r"^q_reads\[1\] must name distinct columns"),
    ("repeated", r"^q_reads\[1\] must name distinct columns"),
    ("rows", r"^q_reads must have one entry per component"),
    ("labels", r"^labels must have one entry per component")])
def test_system_refuses_a_wrong_declaration(case, match):
    # found when the system is built: a NaN read would otherwise surface as a
    # BlowupError and a halving cascade, and short labels as misaligned CSV headers
    kwargs = {"undeclared column": dict(q_reads=((), (1,))),
              "out of range": dict(q_reads=((), (2,))),
              "negative": dict(q_reads=((), (-1,))),
              "repeated": dict(q_reads=((), (0, 0))),
              "rows": dict(q_reads=((0,),)),
              "labels": dict(q_reads=None, labels=("a",))}[case]
    with pytest.raises(ValueError, match=match):
        _sourced_pair(**kwargs)


def test_system_refuses_a_velocity_not_inward_on_an_inflow_face():
    def outward_at_1(t, x):
        return np.full((len(np.atleast_2d(x)), 1), -1.0 if t == 1.0 else 1.0)

    # a velocity is sampled on each inflow face at t = 0, 0.5 and 1: outward at any
    # of them is refused when the system is built
    for v in (VelocityField.constant([-1.0]),
              VelocityField(outward_at_1, lambda t, x: np.zeros(len(np.atleast_2d(x))), 1.0)):
        with pytest.raises(ValueError, match=r"^component 0: velocity not strictly inward on "
                                             r"inflow face 0"):
            SystemDef(k=1, domain=Domain(half_lengths=(2.0,)), velocities=(v,),
                      P=(lambda t, pts, eta: np.zeros(len(pts)),), Q=(None,), Ub=(None,),
                      u0=lambda pts: np.ones((len(pts), 1)))


def test_sihr_refuses_a_source_reading_an_undeclared_column():
    sihr = build_sihr(SIHRParams(rho=0.08, kappa=0.3))

    def reads_r(t, pts, u, eta):
        return 0.1 * u[:, 3]

    with pytest.raises(ValueError, match=r"^component 2: Q reads a column outside"):
        dataclasses.replace(sihr, Q=(*sihr.Q[:2], reads_r, sihr.Q[3]))
    with pytest.raises(ValueError, match=r"^labels must have one entry per component"):
        dataclasses.replace(sihr, labels=("S", "I", "H"))
    assert dataclasses.replace(sihr, Q=(*sihr.Q[:2], reads_r, sihr.Q[3]),
                               q_reads=((), (0,), (3,), (1, 2))).q_reads[2] == (3,)
