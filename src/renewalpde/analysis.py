"""Quantitative certificates for computed solutions.

Each certificate evaluates one side of a proved estimate from data the
user already has (coefficients, data norms, hypothesis constants) and
compares the solution against it: L1 and Linf a-priori bounds of the
frozen linear problem, the five-term linear stability estimate, the
Gronwall mass bound behind global existence, the predicted contraction
factor of the fixed-point operator, and the one-sided entropy
inequality that characterizes the solution class.  Each bound calls
each coefficient callback once, all its times and points stacked; the
randomized entropy audit draws every sample first and evaluates each
component's samples in one pass over the knots, bit for bit as one at a time.
The hypothesis audit checks the declared growth and Lipschitz constants
on random probe states at every grid and inflow-face node, reading the
coefficients through the solver's :class:`FrozenCoefficients`.

Boundary flux terms integrate |ub| v_i over the whole (face x time)
rectangle rather than the exact exit-map image, which can only enlarge
the bound: certificates stay valid, merely conservative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import Sequence

import numpy as np

from .characteristics import trapezoid_weights
from .domain import Grid, GridFn, l1_norm
from .picard import FrozenCoefficients, Trajectory, _Knots
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
    note: str = ""

    def format(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        note = f" ({self.note})" if self.note else ""
        return (f"{self.name}: measured {self.measured:.6g}  bound {self.bound:.6g}  "
                f"margin {self.margin:+.3%}{note}  {status}")


def _certificate(name: str, bound: float, measured: float, note: str = "",
                 **params) -> Certificate:
    """Measured against bound with the relative slack ``_TOL``; a pass that needs it says so."""
    ok = measured <= bound * (1.0 + _TOL) + 1e-14
    if ok and measured > bound:
        note = f"within {_TOL:.0%} slack"
    margin = (bound - measured) / max(abs(bound), 1e-300)
    return Certificate(name, float(bound), float(measured), bool(ok), float(margin), params, note)


def _sample(fn, ts, pts: np.ndarray) -> np.ndarray:
    """``fn`` at every time of ``ts`` on every point, in one call with one time per point
    (the times repeated, the points tiled), as ``(len(ts), len(pts), ...)``; None is 0."""
    ts = np.asarray(ts, dtype=float)
    if fn is None or not len(ts):
        return np.zeros((len(ts), len(pts)))
    out = np.asarray(fn(np.repeat(ts, len(pts)), np.tile(pts, (len(ts), 1))))
    return out.reshape(len(ts), len(pts), *out.shape[1:])


def _space_l1(grid: Grid, vals: np.ndarray) -> np.ndarray:
    """L1 norm in space of each row of ``vals``."""
    return np.sum(np.abs(vals), axis=-1) * grid.cell_volume


def _add_in_order(total: float, terms) -> float:
    """``total`` plus each of ``terms`` in turn, as a loop over the times adds them."""
    return float(np.cumsum(np.concatenate([[total], np.ravel(terms)]))[-1])


def _boundary_flux(lp: LinearProblem, grid: Grid, t: float, n_time: int) -> float:
    """Quadrature of |ub| v_i over every inflow face times [0, t]."""
    ts = np.linspace(0.0, t, n_time)
    wts = trapezoid_weights(ts)
    total = 0.0
    for ax in range(grid.domain.m):
        fg = grid.face_grid(ax)
        ub = np.abs(_sample(lp.ub, ts, fg.points))
        vi = _sample(lp.velocity, ts, fg.points)[..., ax]
        total = _add_in_order(total, wts * np.sum(ub * vi, axis=1) * fg.weight)
    return total


def apriori_l1_certificate(lp: LinearProblem, grid: Grid, t: float,
                           u_t: GridFn | None = None, n_time: int = 33) -> Certificate:
    """L1 bound: (||q||_L1 + ||u0||_L1 + boundary flux) * exp(||p||_inf t)."""
    ts = np.linspace(0.0, t, n_time)
    q_l1 = _space_l1(grid, _sample(lp.q, ts, grid.points))
    qnorm = _add_in_order(0.0, trapezoid_weights(ts) * q_l1)
    pinf = float(np.max(np.abs(_sample(lp.p, ts, grid.points))))
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
    wts = trapezoid_weights(ts)
    psup = np.max(np.abs(_sample(lp.p, ts, grid.points)), axis=1)
    dsup = np.max(np.abs(_sample(lp.velocity.div, ts, grid.points)), axis=1)
    expo = _add_in_order(0.0, wts * (psup + dsup))
    q_l1_sup = _add_in_order(0.0, wts * np.max(np.abs(_sample(lp.q, ts, grid.points)), axis=1))
    ub_sup = max([0.0] + [float(np.max(np.abs(_sample(lp.ub, ts, grid.face_grid(ax).points)),
                                       initial=0.0)) for ax in range(grid.domain.m)])
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
    p1v, p2v = (_sample(lp.p, ts, grid.points) for lp in (lp1, lp2))
    pinf1, pinf2 = float(np.max(np.abs(p1v))), float(np.max(np.abs(p2v)))
    dp = _add_in_order(0.0, wts * np.max(np.abs(p1v - p2v), axis=1))
    q1v, q2v = (_sample(lp.q, ts, grid.points) for lp in (lp1, lp2))
    dq = _add_in_order(0.0, wts * _space_l1(grid, q1v - q2v))
    q2n = _add_in_order(0.0, wts * _space_l1(grid, q2v))
    dub = ub2 = 0.0
    for ax in range(grid.domain.m):
        fg = grid.face_grid(ax)
        b1, b2 = (_sample(lp.ub, ts, fg.points) for lp in (lp1, lp2))
        dub = _add_in_order(dub, wts * np.sum(np.abs(b1 - b2), axis=1) * fg.weight)
        ub2 = _add_in_order(ub2, wts * np.sum(np.abs(b2), axis=1) * fg.weight)
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


def _gronwall_bound(sys: SystemDef, hc: HypothesisConstants, grid: Grid, t_end: float,
                    m0: float) -> tuple[np.ndarray, np.ndarray]:
    """The comparison ODE's solution from ``m0`` on its RK4 step times over ``[0, t_end]``.

    The right-hand side ``a + b m`` takes the running sups of the coefficients
    up to each step's start time, all sampled before the steps.
    """
    b1 = hc.b_l1(grid)
    ts = np.linspace(0.0, t_end, _GRONWALL_STEPS + 1)
    dt = t_end / _GRONWALL_STEPS
    a_sup = np.maximum.accumulate([hc.c1_l1(t, grid) + sys.k * b1 for t in ts[:-1]]).tolist()
    b_sup = np.maximum.accumulate([hc.c2_at(t) + b1 for t in ts[:-1]]).tolist()
    bound_vals = np.empty(_GRONWALL_STEPS + 1)
    m = bound_vals[0] = m0
    for i, (a, b) in enumerate(zip(a_sup, b_sup)):
        k1 = a + b * m
        k2 = a + b * (m + dt / 2 * k1)
        k3 = a + b * (m + dt / 2 * k2)
        k4 = a + b * (m + dt * k3)
        m = m + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
        bound_vals[i + 1] = m
    return ts, bound_vals


def gronwall_certificate(sys: SystemDef, hc: HypothesisConstants,
                         traj: Trajectory) -> Certificate:
    """Mass inequality m' <= (||C1|| + k ||B||_1) + (||C2|| + ||B||_1) m.

    Integrates the scalar comparison ODE from the initial mass and
    requires the trajectory's total mass to stay below it at every knot;
    reports the worst knot after t = 0 (at t = 0 they are equal by construction).
    """
    t_end = float(traj.times[-1])
    masses = traj.component_masses().sum(axis=1)
    if t_end <= 0:
        return _certificate("gronwall-mass", masses[0], masses[0], note="no knot after t = 0")
    ts, bound_vals = _gronwall_bound(sys, hc, traj.grid, t_end, masses[0])
    bounds_at_knots = np.interp(traj.times, ts, bound_vals)
    ratios = masses / np.maximum(bounds_at_knots, 1e-300)
    worst = 1 + int(np.argmax(ratios[1:]))
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
    """A bump's spatial factor at fixed points: the product ``prod`` of the axis factors,
    their derivatives ``dbx`` and, per axis (last), the product ``others`` of the others."""

    prod: np.ndarray
    dbx: np.ndarray
    others: np.ndarray

    def grad(self, bt, sel=slice(None)) -> np.ndarray:
        """The gradient at time factor ``bt`` (one per sample ``sel``): ``(bt dbx) others``."""
        return np.asarray(bt)[..., None, None] * self.dbx[sel] * self.others[sel]


@dataclass(frozen=True)
class TestFunction:
    """Nonnegative C1 tensor bump ``prod (1 - s^2)^2``: a time factor times a spatial one.
    Its fields may carry a leading sample axis (S bumps at once); its factors then do too."""

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
        """The time factor and its derivative at each of the times ``ts`` (last axis)."""
        tc, tr = np.asarray(self.t_center)[..., None], np.asarray(self.t_radius)[..., None]
        bt, dbt = self._axis((np.asarray(ts, dtype=float) - tc) / tr)
        return bt, dbt / tr

    def space(self, pts: np.ndarray) -> _SpaceFactor:
        xc, xr = np.asarray(self.x_center)[..., None, :], np.asarray(self.x_radius)[..., None, :]
        bx, dbx = self._axis((np.atleast_2d(pts) - xc) / xr)
        others = np.stack([np.prod(np.delete(bx, ax, axis=-1), axis=-1)
                           for ax in range(bx.shape[-1])], axis=-1)
        return _SpaceFactor(np.prod(bx, axis=-1), dbx / xr, others)

    def value(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self.time([t])[0][0] * self.space(pts).prod

    def dt(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self.time([t])[1][0] * self.space(pts).prod

    def grad(self, t: float, pts: np.ndarray) -> np.ndarray:
        return self.space(pts).grad(self.time([t])[0][0])


def _stack(phis: Sequence[TestFunction]) -> TestFunction:
    """The bumps ``phis`` as one test function with a leading sample axis."""
    return replace(phis[0], **{f.name: np.array([getattr(phi, f.name) for phi in phis])
                               for f in fields(phis[0])})


class _KnotSamples:
    """One component's frozen problem sampled once for a set of test functions.

    ``p``, ``q``, the velocity and ``div v`` are sampled on the nodes in
    one callback call each, at the knots where some bump's time factor is
    not 0 (``support``) and, with ``ends``, at the first, middle and last
    knot, for the tolerance; knot j is row ``at[j]``.  ``ub`` is sampled
    in one call per inflow face, at the support (row r for ``support[r]``).
    ``u[j]`` holds the component's N node values at knot j: a row of an
    ``(n_knots, N)`` array or an entry of a list.
    """

    def __init__(self, lp: LinearProblem, grid: Grid, times, u: Sequence[np.ndarray],
                 phis: Sequence[TestFunction] = (), ends: bool = False):
        self.lp, self.grid, self.u = lp, grid, u
        self.times = np.asarray(times, dtype=float)
        self.faces = [grid.face_grid(ax) for ax in range(grid.domain.m)]
        n = len(self.times)
        self.ends = [0, n // 2, n - 1] if ends else []
        self.phi = _stack(phis) if phis else None
        self.bt, self.dbt = self.phi.time(self.times) if phis else (np.zeros((0, n)),) * 2
        self.support = np.flatnonzero(np.any(self.bt, axis=0))
        knots = np.union1d(self.support, self.ends).astype(int)
        self.at = np.zeros(n, dtype=int)
        self.at[knots] = np.arange(len(knots))
        self.p, self.q, self.vel, self.divv = (
            _sample(fn, self.times[knots], grid.points)
            for fn in (lp.p, lp.q, lp.velocity, lp.velocity.div))
        self.ub = [_sample(lp.ub, self.times[self.support], fg.points) for fg in self.faces]

    def residuals(self, kappas, signs) -> np.ndarray:
        """:func:`entropy_residual` of each bump, with its level and sign, in one knot-major
        pass: at knot j, the bumps whose time factor is not 0 there add their terms at once,
        each in the order a loop over its own knots adds them."""
        vol = self.grid.cell_volume
        wts = trapezoid_weights(self.times)
        kappa = np.asarray(kappas, dtype=float)[:, None]
        sign = np.asarray(signs, dtype=float)[:, None]
        bt, dbt = self.bt, self.dbt
        sp = self.phi.space(self.grid.points)
        total = np.zeros(len(kappa))
        for j in self.support:
            # a bump whose spatial factor misses every node adds exact zeros
            sel = np.flatnonzero(bt[:, j])
            prod = sp.prod[sel]
            phi_v = bt[sel, j, None] * prod
            u = self.u[j]
            k, s = kappa[sel], sign[sel]
            diff = s * (u - k)
            up, sg = np.maximum(diff, 0.0), (diff > 0) * s
            r = self.at[j]
            term_t = np.sum(up * (dbt[sel, j, None] * prod), axis=1) * vol
            flux = np.sum(self.vel[r] * sp.grad(bt[sel, j], sel), axis=2)
            term_x = np.sum(up * flux, axis=1) * vol
            g = self.p[r] * u + self.q[r] - k * self.divv[r]
            term_g = np.sum(sg * g * phi_v, axis=1) * vol
            total[sel] += wts[j] * (term_t + term_x + term_g)
        # initial layer
        up0 = np.maximum(sign * (self.lp.u0.values[:, 0] - kappa), 0.0)
        total += np.sum(up0 * (self.phi.time([0.0])[0] * sp.prod), axis=1) * vol
        # boundary layer with the flux Lipschitz constant; knots where phi is 0 add 0
        lip = self.lp.velocity.sup
        for ub, fg in zip(self.ub, self.faces):
            fprod = self.phi.space(fg.points).prod
            for r, j in enumerate(self.support):
                sel = np.flatnonzero(bt[:, j])
                upb = np.maximum(sign[sel] * (ub[r] - kappa[sel]), 0.0)
                total[sel] += wts[j] * lip * np.sum(upb * (bt[sel, j, None] * fprod[sel]),
                                                    axis=1) * fg.weight
        return total

    @cached_property
    def scales(self) -> tuple[float, ...]:
        """Sup of |u| over the knots; sups of |p|, |q|, |div v| at the first, middle and
        last; the mean cell width plus the mean knot step."""
        umax = max(float(np.max(np.abs(u))) for u in self.u)
        pinf, qsup, divsup = (max(0.0, *(float(np.max(np.abs(table[self.at[j]])))
                                         for j in self.ends))
                              for table in (self.p, self.q, self.divv))
        dx = float(np.mean(self.grid.dx))
        dt = float(np.mean(np.diff(self.times))) if len(self.times) > 1 else dx
        return umax, pinf, qsup, divsup, dx + dt

    def tolerance(self, kappa: float) -> float:
        umax, pinf, qsup, divsup, mesh = self.scales
        amp = umax + abs(kappa)
        scale = amp * (1.0 + self.lp.velocity.sup) + pinf * umax + qsup + abs(kappa) * divsup
        return 10.0 * mesh * scale


def entropy_residual(lp: LinearProblem, times: np.ndarray, states: Sequence[GridFn],
                     phi: TestFunction, kappa: float, sign: int) -> float:
    """Left-hand side of the one-sided entropy inequality; >= -tol for solutions.

    ``sign=+1`` tests the (u - kappa)^+ family, ``sign=-1`` the negative
    one; the flux is affine (v u), so its Lipschitz constant is ||v||_inf
    and div f(t,x,kappa) = kappa div v.  The coefficients are sampled
    only at the knots where phi's time factor is not 0.
    """
    ks = _KnotSamples(lp, states[0].grid, times, [s.values[:, 0] for s in states], [phi])
    return float(ks.residuals([kappa], [sign])[0])


def entropy_tolerance(lp: LinearProblem, grid: Grid, times: np.ndarray,
                      states: Sequence[GridFn], kappa: float) -> float:
    """Resolution-scaled residual tolerance: 10 (dx + dt) x problem scale.

    The inequality is exact only in the continuum.  Quadrature error
    concentrates where the solution jumps, so it scales with the mesh,
    the solution/level magnitude and the flux Lipschitz constant plus
    the source size; the test function's steepness cancels against its
    shrinking support and is deliberately left out.
    """
    return _KnotSamples(lp, grid, times, [s.values[:, 0] for s in states],
                        ends=True).tolerance(kappa)


def entropy_sweep(sys: SystemDef, traj: Trajectory, n_samples: int = 50, seed: int = 0,
                  frozen: FrozenCoefficients | None = None) -> list[dict]:
    """Randomized entropy audit over components, levels, bumps and signs.

    Draws every sample first, then audits each component's samples at once.
    ``frozen`` is the system frozen at ``traj``, built here when not given.
    """
    rng = np.random.default_rng(seed)
    t_end = float(traj.times[-1])
    bounds = traj.grid.domain.bounds()
    lows, highs = np.min(traj.values, axis=(0, 1)), np.max(traj.values, axis=(0, 1))
    draws = []
    for _ in range(n_samples):
        h = int(rng.integers(0, sys.k))
        lo, hi = float(lows[h]), float(highs[h])
        kappa = float(rng.uniform(lo - 0.1 * (hi - lo + 1e-6), hi + 0.1 * (hi - lo + 1e-6)))
        t_rad = float(rng.uniform(0.1, 0.45)) * max(t_end, 1e-6)
        t_c = float(rng.uniform(0.0, max(t_end - t_rad, 1e-9)))
        x_c = np.array([rng.uniform(lo_ax, hi_ax) for lo_ax, hi_ax in bounds])
        x_r = np.array([rng.uniform(0.1, 0.5) * (hi_ax - lo_ax) for lo_ax, hi_ax in bounds])
        sign = 1 if rng.uniform() < 0.5 else -1
        draws.append((h, kappa, sign, TestFunction(t_c, t_rad, x_c, x_r)))
    results = [{} for _ in draws]
    frozen = frozen or FrozenCoefficients(sys, traj)
    for h in range(sys.k):
        mine = [i for i, d in enumerate(draws) if d[0] == h]
        if not mine:
            continue
        _, kappas, signs, phis = zip(*(draws[i] for i in mine))
        ks = _KnotSamples(frozen.linear_problem(h), traj.grid, traj.times,
                          traj.values[:, :, h], phis, ends=True)
        for i, kappa, sign, res in zip(mine, kappas, signs, ks.residuals(kappas, signs)):
            tol = ks.tolerance(kappa)
            results[i] = {"component": h, "kappa": kappa, "sign": sign,
                          "residual": float(res), "tol": tol, "ok": bool(res >= -tol)}
    return results


# Hypothesis audit
_PROBE_T_MAX = 1.0  # probe times are drawn from [0, _PROBE_T_MAX]
_PROBE_U_CAP = 5.0  # pointwise probe states are drawn from [-cap, cap]^k
_PROBE_MASS_CAP = 10.0  # largest L1 mass of a probe field
_PROBE_RTOL = 1e-7  # a measured value at or below rtol * max(1, |bound|) counts as 0


@dataclass
class HypothesisCheck:
    name: str
    worst_ratio: float
    passed: bool
    detail: str = ""


@dataclass
class HypothesisReport:
    checks: list[HypothesisCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"({c.name})  worst ratio {c.worst_ratio:.6g}  {status}  {c.detail}")
        return "\n".join(lines)


def _probe_fields(sys: SystemDef, grid: Grid, rng: np.random.Generator,
                  samples: int) -> list[GridFn]:
    """Random and data-shaped probe states with a range of masses."""
    probes = []
    u0 = sys.initial_state(grid)
    base = l1_norm(u0)
    if base > 0:
        for target in (0.5, 1.0, 3.0, _PROBE_MASS_CAP):
            probes.append(u0 * (target / base))
    for _ in range(samples):
        vals = rng.uniform(-1.0, 1.0, size=(grid.n_nodes, sys.k))
        if rng.uniform() < 0.5:
            vals = np.abs(vals)
        f = GridFn(grid, vals)
        mass = l1_norm(f)
        target = rng.uniform(0.05, _PROBE_MASS_CAP)
        probes.append(f * (target / mass))
    return probes


def check_hypotheses(sys: SystemDef, hc: HypothesisConstants, grid: Grid,
                     samples: int = 60, seed: int = 0) -> HypothesisReport:
    """Monte-Carlo audit of the declared growth and Lipschitz constants.

    Each trial draws a time, probe fields w, w' and pointwise states u,
    u', and measures each bound's ratio measured/allowed on every grid
    node (P, Q) and inflow-face node (BD).  Each probe field is frozen
    once for all components at one knot, as the solver freezes it;
    kernels do not read ``t``, so the knot serves every time.  The grid
    nodes and each inflow face are bracketed once, one :class:`_Knots`
    each, so a grid-mode field builds one stencil per point set.  Reports the worst
    ratio per hypothesis, and a non-finite coefficient or ratio fails:
    callers decide what a failure means.
    """
    rng = np.random.default_rng(seed)
    probes = _probe_fields(sys, grid, rng, samples)
    frozen = [FrozenCoefficients(sys, Trajectory(grid, [0.0], f.values[None])) for f in probes]
    knot = frozen[0].times
    x, q2x = grid.points, hc.q2_at(grid.points)
    kx = _Knots(knot, 0.0, x, grid)
    faces = [(xi, _Knots(knot, 0.0, xi, grid), hc.b_at(xi))
             for xi in (grid.face_grid(ax).points for ax in range(sys.domain.m))]
    worst = dict.fromkeys(("P", "P-lip", "Q", "Q-lip", "BD", "BD-lip"), 0.0)

    def note(name: str, num: np.ndarray, den) -> None:
        """Raise ``worst[name]`` to the largest non-negligible ``num / den``; nan stays."""
        r = np.where(num <= _PROBE_RTOL * np.maximum(1.0, np.abs(den)), 0.0,
                     num / np.maximum(den, 1e-300))
        worst[name] = float(np.maximum(worst[name], np.max(r)))

    for trial, w in enumerate(probes):
        other = int(rng.integers(0, len(probes)))
        mw, dmass = l1_norm(w), l1_norm(w - probes[other])
        t = float(rng.uniform(0.0, _PROBE_T_MAX))
        u, up = rng.uniform(-_PROBE_U_CAP, _PROBE_U_CAP, size=(2, grid.n_nodes, sys.k))
        nu, nup = np.sum(np.abs(u), axis=1), np.sum(np.abs(up), axis=1)
        du = np.sum(np.abs(u - up), axis=1)
        tx = np.full(grid.n_nodes, t)
        fw, fwp = frozen[trial], frozen[other]
        for h in range(sys.k):
            pv, pvp = fw.p(h, tx, x, kx), fwp.p(h, tx, x, kx)
            note("P", np.abs(pv), hc.P1 + hc.P2 * mw)
            note("P-lip", np.abs(pv - pvp), hc.P2 * dmass)
            qv, qvp = fw.q(h, tx, x, kx, w_pt=u), fwp.q(h, tx, x, kx, w_pt=up)
            note("Q", np.abs(qv), hc.Q1 * nu + q2x * mw + hc.Q3 * nu * mw)
            note("Q-lip", np.abs(qv - qvp), hc.Q1 * du + hc.Q3 * mw * du + hc.Q3 * nup * dmass)
            for xi, kxi, bxi in faces:
                txi = np.full(len(xi), t)
                bv, bvp = fw.ub(h, txi, xi, kxi), fwp.ub(h, txi, xi, kxi)
                note("BD", np.abs(bv), bxi * (1.0 + mw))
                note("BD-lip", np.abs(bv - bvp), bxi * dmass)

    report = HypothesisReport()
    for name, r in worst.items():
        if name.startswith("BD") and not faces:
            continue
        detail = "" if math.isfinite(r) else "non-finite coefficient or ratio"
        report.checks.append(HypothesisCheck(name, r, r <= 1.0 + 1e-6, detail))
    return report
