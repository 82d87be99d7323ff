"""Quantitative certificates for computed solutions.

Each certificate evaluates one side of a proved estimate from data the
user already has (coefficients, data norms, hypothesis constants) and
compares the solution against it: L1 and Linf a-priori bounds of the
frozen linear problem, the five-term linear stability estimate, the
Gronwall mass bound behind global existence, the predicted contraction
factor of the fixed-point operator, and the one-sided entropy
inequality that characterizes the solution class.  The randomized
entropy audit samples each component's frozen coefficients once per
knot, into one table that all its samples read.

Boundary flux terms integrate |ub| v_i over the whole (face x time)
rectangle rather than the exact exit-map image, which can only enlarge
the bound: certificates stay valid, merely conservative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .characteristics import trapezoid_weights
from .domain import Grid, GridFn, l1_norm
from .picard import FrozenCoefficients, Trajectory
from .problem import HypothesisConstants, SystemDef
from .transport import LinearProblem, evaluate

_GRONWALL_STEPS = 2000  # RK4 steps of the scalar comparison ODE
_TOL = 0.05  # relative slack of measured against bound


@dataclass
class Certificate:
    name: str
    bound: float
    measured: float
    passed: bool
    margin: float
    params: dict = field(default_factory=dict)

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return (f"{self.name}: measured {self.measured:.6g}  bound {self.bound:.6g}  "
                f"margin {self.margin:+.3%}  {status}")


def _certificate(name: str, bound: float, measured: float, **params) -> Certificate:
    ok = measured <= bound * (1.0 + _TOL) + 1e-14
    margin = (bound - measured) / max(abs(bound), 1e-300)
    return Certificate(name, float(bound), float(measured), bool(ok), float(margin), params)


def _space_l1(grid: Grid, vals: np.ndarray) -> float:
    return float(np.sum(np.abs(vals)) * grid.cell_volume)


def _times(tau: float, pts: np.ndarray) -> np.ndarray:
    """``tau`` once per point: callbacks get one time per point."""
    return np.full(pts.shape[0], tau)


def _boundary_flux(lp: LinearProblem, grid: Grid, t: float, n_time: int) -> float:
    """Quadrature of |ub| v_i over every inflow face times [0, t]."""
    ts = np.linspace(0.0, t, n_time)
    wts = trapezoid_weights(ts)
    total = 0.0
    for ax in range(grid.domain.m):
        fg = grid.face_grid(ax)
        for tau, wt in zip(ts, wts):
            tp = _times(tau, fg.points)
            ub = np.abs(np.asarray(lp.ub(tp, fg.points)))
            vi = np.atleast_2d(lp.velocity(tp, fg.points))[:, ax]
            total += wt * float(np.sum(ub * vi)) * fg.weight
    return total


def apriori_l1_certificate(lp: LinearProblem, grid: Grid, t: float,
                           u_t: GridFn | None = None, n_time: int = 33) -> Certificate:
    """L1 bound: (||q||_L1 + ||u0||_L1 + boundary flux) * exp(||p||_inf t)."""
    ts = np.linspace(0.0, t, n_time)
    qnorm = 0.0
    pinf = 0.0
    for tau, wt in zip(ts, trapezoid_weights(ts)):
        tp = _times(tau, grid.points)
        qnorm += wt * _space_l1(grid, lp.q(tp, grid.points))
        pinf = max(pinf, float(np.max(np.abs(lp.p(tp, grid.points)))))
    flux = _boundary_flux(lp, grid, t, n_time)
    bound = (qnorm + l1_norm(lp.u0) + flux) * math.exp(pinf * t)
    if u_t is None:
        u_t = evaluate(lp, t, grid)
    measured = l1_norm(u_t)
    return _certificate("apriori-l1", bound, measured,
                        q_l1=qnorm, u0_l1=l1_norm(lp.u0), flux=flux, p_sup=pinf, t=t)


def apriori_linf_certificate(lp: LinearProblem, grid: Grid, t: float,
                             u_t: GridFn | None = None, n_time: int = 33) -> Certificate:
    """Sup bound: (||u0||_inf + ||ub||_inf + ||q||_L1(sup)) * exp(int ||p|| + ||div v||)."""
    ts = np.linspace(0.0, t, n_time)
    expo = 0.0
    q_l1_sup = 0.0
    ub_sup = 0.0
    for tau, wt in zip(ts, trapezoid_weights(ts)):
        tp = _times(tau, grid.points)
        psup = float(np.max(np.abs(lp.p(tp, grid.points))))
        dsup = float(np.max(np.abs(lp.velocity.div(tp, grid.points))))
        expo += wt * (psup + dsup)
        q_l1_sup += wt * float(np.max(np.abs(lp.q(tp, grid.points))))
        for ax in range(grid.domain.m):
            fg = grid.face_grid(ax)
            ub = lp.ub(_times(tau, fg.points), fg.points)
            ub_sup = max(ub_sup, float(np.max(np.abs(ub), initial=0.0)))
    u0_sup = float(np.max(np.abs(lp.u0.values)))
    bound = (u0_sup + ub_sup + q_l1_sup) * math.exp(expo)
    if u_t is None:
        u_t = evaluate(lp, t, grid)
    measured = float(np.max(np.abs(u_t.values)))
    return _certificate("apriori-linf", bound, measured, t=t)


def linear_stability_certificate(lp1: LinearProblem, lp2: LinearProblem, grid: Grid,
                                 t: float, n_time: int = 33) -> Certificate:
    """Five-term L1 stability bound for two problems sharing a velocity."""
    if lp1.velocity is not lp2.velocity:
        raise ValueError("stability estimate requires a common velocity")
    ts = np.linspace(0.0, t, n_time)
    wts = trapezoid_weights(ts)
    pinf1 = pinf2 = 0.0
    dq = q2n = dp = 0.0
    for tau, wt in zip(ts, wts):
        tp = _times(tau, grid.points)
        p1v = lp1.p(tp, grid.points)
        p2v = lp2.p(tp, grid.points)
        pinf1 = max(pinf1, float(np.max(np.abs(p1v))))
        pinf2 = max(pinf2, float(np.max(np.abs(p2v))))
        dp += wt * float(np.max(np.abs(p1v - p2v)))
        q1v = lp1.q(tp, grid.points)
        q2v = lp2.q(tp, grid.points)
        dq += wt * _space_l1(grid, q1v - q2v)
        q2n += wt * _space_l1(grid, q2v)
    dub = 0.0
    ub2 = 0.0
    for ax in range(grid.domain.m):
        fg = grid.face_grid(ax)
        for tau, wt in zip(ts, wts):
            tp = _times(tau, fg.points)
            b1 = np.asarray(lp1.ub(tp, fg.points))
            b2 = np.asarray(lp2.ub(tp, fg.points))
            dub += wt * float(np.sum(np.abs(b1 - b2))) * fg.weight
            ub2 += wt * float(np.sum(np.abs(b2))) * fg.weight
    grow = math.exp(t * max(pinf1, pinf2))
    vsup = lp1.velocity.sup
    bound = grow * (l1_norm(lp1.u0 - lp2.u0)
                    + vsup * dub
                    + dq
                    + (l1_norm(lp1.u0) + vsup * ub2) * dp
                    + q2n * dp)
    u1 = evaluate(lp1, t, grid)
    u2 = evaluate(lp2, t, grid)
    measured = l1_norm(u1 - u2)
    return _certificate("linear-stability", bound, measured,
                        du0=l1_norm(lp1.u0 - lp2.u0), dq=dq, dub=dub, dp=dp, t=t)


def gronwall_certificate(sys: SystemDef, hc: HypothesisConstants,
                         traj: Trajectory) -> Certificate:
    """Mass inequality m' <= (||C1|| + k ||B||_1) + (||C2|| + ||B||_1) m.

    Integrates the scalar comparison ODE from the initial mass and
    requires the trajectory's total mass to stay below it at every knot.
    """
    grid = traj.grid
    b1 = hc.b_l1(grid)
    t_end = float(traj.times[-1])
    masses = traj.component_masses().sum(axis=1)
    if t_end <= 0:
        return _certificate("gronwall-mass", masses[0], masses[0])
    ts = np.linspace(0.0, t_end, _GRONWALL_STEPS + 1)
    dt = t_end / _GRONWALL_STEPS
    bound_vals = np.empty(_GRONWALL_STEPS + 1)
    m = masses[0]
    bound_vals[0] = m
    a_sup = hc.c1_l1(0.0, grid) + sys.k * b1
    b_sup = hc.c2_at(0.0) + b1
    for i in range(_GRONWALL_STEPS):
        a_sup = max(a_sup, hc.c1_l1(ts[i], grid) + sys.k * b1)
        b_sup = max(b_sup, hc.c2_at(ts[i]) + b1)

        def rhs(y):
            return a_sup + b_sup * y

        k1 = rhs(m)
        k2 = rhs(m + dt / 2 * k1)
        k3 = rhs(m + dt / 2 * k2)
        k4 = rhs(m + dt * k3)
        m = m + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        bound_vals[i + 1] = m
    bounds_at_knots = np.interp(traj.times, ts, bound_vals)
    ratios = masses / np.maximum(bounds_at_knots, 1e-300)
    worst = int(np.argmax(ratios))
    return _certificate("gronwall-mass", float(bounds_at_knots[worst]),
                        float(masses[worst]), t_worst=float(traj.times[worst]))


def contraction_prediction(sys: SystemDef, hc: HypothesisConstants, M: float,
                           T: float, grid: Grid) -> float:
    """Lipschitz constant of the freeze-and-solve operator on the ball.

    Groups the three coefficient-difference estimates (boundary, source,
    multiplicative), each linear in T, under the common growth factor
    exp((P1 + P2 M) T); the factor k accounts for summing the
    per-component estimates in the sum-of-sups norm.
    """
    b1 = hc.b_l1(grid)
    q2_1 = hc.q2_l1(grid)
    vsup = max(v.sup for v in sys.velocities)
    ub_l1_bound = b1 * (M + 1.0) * T
    q_l1_bound = (hc.Q1 + q2_1 + hc.Q3 * M) * T * M
    inner = (vsup * b1
             + (hc.Q1 + 2.0 * M * hc.Q3)
             + (M + vsup * ub_l1_bound + q_l1_bound) * hc.P2)
    return float(sys.k * math.exp((hc.P1 + hc.P2 * M) * T) * inner * T)


# ---------------------------------------------------------------------------
# Semi-entropy inequality
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _SpaceFactor:
    """A bump's spatial factor at fixed points: the product ``prod`` of the axis
    factors, their derivatives ``dbx`` and, per axis, the product of the others."""

    prod: np.ndarray
    dbx: np.ndarray
    others: tuple

    def grad(self, bt) -> np.ndarray:
        out = np.empty_like(self.dbx)
        for ax, prod_others in enumerate(self.others):
            out[:, ax] = bt * self.dbx[:, ax] * prod_others
        return out


@dataclass(frozen=True)
class TestFunction:
    """Nonnegative C1 tensor bump ``prod (1 - s^2)^2``: a time factor times a spatial one."""

    __test__ = False  # not a pytest item

    t_center: float
    t_radius: float
    x_center: np.ndarray
    x_radius: np.ndarray

    @staticmethod
    def _axis(s):
        """``(1 - s^2)^2`` and its derivative in s, both 0 outside |s| < 1."""
        b, db = np.zeros_like(s), np.zeros_like(s)
        mask = np.abs(s) < 1.0
        b[mask] = (1.0 - s[mask] ** 2) ** 2
        db[mask] = -4.0 * s[mask] * (1.0 - s[mask] ** 2)
        return b, db

    def time(self, ts) -> tuple[np.ndarray, np.ndarray]:
        """The time factor and its derivative at each of the times ``ts``."""
        bt, dbt = self._axis((np.asarray(ts, dtype=float) - self.t_center) / self.t_radius)
        return bt, dbt / self.t_radius

    def space(self, pts: np.ndarray) -> _SpaceFactor:
        bx, dbx = self._axis((np.atleast_2d(pts) - self.x_center) / self.x_radius)
        d = bx.shape[1]
        others = tuple(np.prod(bx[:, [j for j in range(d) if j != ax]], axis=1) if d > 1
                       else 1.0 for ax in range(d))
        return _SpaceFactor(np.prod(bx, axis=1), dbx / self.x_radius, others)

    def value(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self.time([t])[0][0] * self.space(pts).prod

    def dt(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self.time([t])[1][0] * self.space(pts).prod

    def grad(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self.space(pts).grad(self.time([t])[0][0])


class _KnotSamples:
    """One component's frozen problem sampled at the knots; with ``keep``, each row once."""

    def __init__(self, lp: LinearProblem, grid: Grid, times, states: Sequence[GridFn],
                 keep: bool):
        self.lp, self.grid, self.states, self.keep = lp, grid, states, keep
        self.times = np.asarray(times, dtype=float)
        self.faces = [grid.face_grid(ax) for ax in range(grid.domain.m)]
        self._rows: dict = {}

    def row(self, j: int, ax: int | None = None):
        """``(p, q, velocity, div v)`` on the grid nodes at knot j, or ``ub`` on face ``ax``."""
        row = self._rows.get((j, ax))
        if row is None:
            lp, t = self.lp, float(self.times[j])
            if ax is None:
                pts = self.grid.points
                tp = _times(t, pts)
                row = (lp.p(tp, pts), lp.q(tp, pts), np.atleast_2d(lp.velocity(tp, pts)),
                       lp.velocity.div(tp, pts))
            else:
                pts = self.faces[ax].points
                row = np.asarray(lp.ub(_times(t, pts), pts))
            if self.keep:
                self._rows[(j, ax)] = row
        return row

    def residual(self, phi: TestFunction, kappa: float, sign: int) -> float:
        """See :func:`entropy_residual`; rows are read only where phi's time factor is not 0."""
        vol = self.grid.cell_volume
        wts = trapezoid_weights(self.times)
        bt, dbt = phi.time(self.times)
        support = np.flatnonzero(bt)
        sp = phi.space(self.grid.points)
        total = 0.0
        for j in support:
            phi_v = bt[j] * sp.prod
            if not np.any(phi_v):
                continue
            u = self.states[j].values[:, 0]
            diff = u - kappa
            if sign > 0:
                up = np.maximum(diff, 0.0)
                sg = (diff > 0).astype(float)
            else:
                up = np.maximum(-diff, 0.0)
                sg = -(diff < 0).astype(float)
            p, q, vel, divv = self.row(j)
            term_t = np.sum(up * (dbt[j] * sp.prod)) * vol
            term_x = np.sum(up * np.sum(vel * sp.grad(bt[j]), axis=1)) * vol
            term_g = np.sum(sg * (p * u + q - kappa * divv) * phi_v) * vol
            total += wts[j] * (term_t + term_x + term_g)
        # initial layer
        d0 = self.lp.u0.values[:, 0] - kappa
        up0 = np.maximum(d0, 0.0) if sign > 0 else np.maximum(-d0, 0.0)
        total += float(np.sum(up0 * (phi.time([0.0])[0][0] * sp.prod)) * vol)
        # boundary layer with the flux Lipschitz constant; knots where phi is 0 add 0
        lip = self.lp.velocity.sup
        for ax, fg in enumerate(self.faces):
            fp = phi.space(fg.points)
            for j in support:
                db = self.row(j, ax) - kappa
                upb = np.maximum(db, 0.0) if sign > 0 else np.maximum(-db, 0.0)
                total += wts[j] * lip * float(np.sum(upb * (bt[j] * fp.prod))) * fg.weight
        return float(total)

    @cached_property
    def sups(self) -> tuple[float, ...]:
        """Sup of |u| over the knots; sups of |p|, |q|, |div v| at the first, middle and last."""
        rows = [self.row(j) for j in (0, len(self.times) // 2, len(self.times) - 1)]
        umax = max(float(np.max(np.abs(s.values))) for s in self.states)
        pinf, qsup, divsup = (max(0.0, *(float(np.max(np.abs(r[i]))) for r in rows))
                              for i in (0, 1, 3))
        return umax, pinf, qsup, divsup

    def tolerance(self, kappa: float) -> float:
        umax, pinf, qsup, divsup = self.sups
        amp = umax + abs(kappa)
        scale = amp * (1.0 + self.lp.velocity.sup) + pinf * umax + qsup + abs(kappa) * divsup
        dx = float(np.mean(self.grid.dx))
        dt = float(np.mean(np.diff(self.times))) if len(self.times) > 1 else dx
        return 10.0 * (dx + dt) * scale


def entropy_residual(lp: LinearProblem, times: np.ndarray, states: Sequence[GridFn],
                     phi: TestFunction, kappa: float, sign: int) -> float:
    """Left-hand side of the one-sided entropy inequality; >= -tol for solutions.

    ``sign=+1`` tests the (u - kappa)^+ family, ``sign=-1`` the negative
    one; the flux is affine (v u), so its Lipschitz constant is ||v||_inf
    and div f(t,x,kappa) = kappa div v.  No knot's samples are kept.
    """
    return _KnotSamples(lp, states[0].grid, times, states, keep=False).residual(phi, kappa, sign)


def entropy_tolerance(lp: LinearProblem, grid: Grid, times: np.ndarray,
                      states: Sequence[GridFn], kappa: float) -> float:
    """Resolution-scaled residual tolerance: 10 (dx + dt) x problem scale.

    The inequality is exact only in the continuum.  Quadrature error
    concentrates where the solution jumps, so it scales with the mesh,
    the solution/level magnitude and the flux Lipschitz constant plus
    the source size; the test function's steepness cancels against its
    shrinking support and is deliberately left out.
    """
    return _KnotSamples(lp, grid, times, states, keep=False).tolerance(kappa)


def frozen_component(sys: SystemDef, traj: Trajectory, h: int) -> tuple[LinearProblem, list[GridFn]]:
    """Scalar frozen problem and states of component h."""
    lp = FrozenCoefficients(sys, h, traj.times, traj.states).linear_problem()
    states = [GridFn(traj.grid, s.values[:, h]) for s in traj.states]
    return lp, states


def entropy_sweep(sys: SystemDef, traj: Trajectory, n_samples: int = 50,
                  seed: int = 0) -> list[dict]:
    """Randomized entropy audit over components, levels, bumps and signs."""
    rng = np.random.default_rng(seed)
    grid = traj.grid
    t_end = float(traj.times[-1])
    bounds = grid.domain.bounds()
    results = []
    tables = [_KnotSamples(lp, grid, traj.times, states, keep=True)
              for lp, states in (frozen_component(sys, traj, h) for h in range(sys.k))]
    levels = [(min(float(np.min(s.values)) for s in ks.states),
               max(float(np.max(s.values)) for s in ks.states)) for ks in tables]
    for _ in range(n_samples):
        h = int(rng.integers(0, sys.k))
        lo, hi = levels[h]
        kappa = float(rng.uniform(lo - 0.1 * (hi - lo + 1e-6), hi + 0.1 * (hi - lo + 1e-6)))
        t_rad = float(rng.uniform(0.1, 0.45)) * max(t_end, 1e-6)
        t_c = float(rng.uniform(0.0, max(t_end - t_rad, 1e-9)))
        x_c = np.array([rng.uniform(lo_ax, hi_ax) for lo_ax, hi_ax in bounds])
        x_r = np.array([rng.uniform(0.1, 0.5) * (hi_ax - lo_ax) for lo_ax, hi_ax in bounds])
        sign = 1 if rng.uniform() < 0.5 else -1
        phi = TestFunction(t_c, t_rad, x_c, x_r)
        res = tables[h].residual(phi, kappa, sign)
        tol = tables[h].tolerance(kappa)
        results.append({"component": h, "kappa": kappa, "sign": sign,
                        "residual": res, "tol": tol, "ok": res >= -tol})
    return results
