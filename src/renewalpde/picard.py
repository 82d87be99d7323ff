"""Freeze-and-solve fixed-point iteration with time-slab continuation.

One application of the operator freezes the nonlocal and pointwise
state arguments of every coefficient at the previous iterate w, once
for the whole system (:class:`FrozenCoefficients`), and solves the
resulting k independent linear problems along characteristics.  On a
short enough slab the operator contracts on a ball of radius M in the
sup-in-time L1-in-space norm, so the iteration
converges; the solver measures the contraction factor instead of
trusting an a-priori slab length, and halves the slab whenever the
measured factor exceeds the configured target, the ball is violated or
the iteration refuses to settle.  Chaining slabs, each restarted from
the previous terminal state with a fresh ball, extends the solution
until either the horizon or a genuine blow-up, which surfaces as a slab
cascade shrinking below the minimum length.

Within a slab the iterate is one ``(n_knots, N, k)`` array of states at
uniform time knots, interpolated linearly in t between them; the
per-knot linear solves use trace substeps aligned with the knots, so
time quadrature of coefficients that are linear in the frozen state is
exact.  Only the iterate changes from one sweep to the next.  So each
slab attempt builds one :class:`SlabPlan` (per velocity, the traces of
every grid node from every knot in one batch, the knot brackets of
their live knots and exits, and the initial state at the feet), and
every sweep of the attempt reads it.  Every site traces on the slab's
knot times less its start t0; its velocity and coefficients read t0
plus those times.  So a constant velocity's traces, knot brackets and
feet stencil do not depend on t0: :func:`solve` keeps them for its last
two slab shapes (h, K) and a later attempt of one of them only gathers
its own initial state at the feet.  A sweep reads a frozen field
with one gather per point: the stencil shifted to its knot interval j
weighs ``values[:-1]`` and ``values[1:]`` (knots j and j + 1) by each
corner's weight times 1 - lam and lam, the blend in time folded in.
Kernel integrals are frozen at every knot by one ``integrate`` call per
kernel object and role (interior or boundary), however many rows name
it: a weighted mass in one reduction, a dense kernel in one product with
the matrix of knot states, from the node matrix it keeps.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .characteristics import TraceBatch, trace_backward
from .domain import BlowupError, Grid, GridFn, Stencil, interp_gather, l1_norm
from .problem import SystemDef
from .transport import LinearProblem, evaluate


class LocalExistenceError(RuntimeError):
    """Slab halving cascade hit the minimum length: no local solution.

    Carries the bracket (last solved time, end of the last rejected slab
    attempt).  It records where the solver stopped; it is not a proof
    that the singular time of a blowing-up model lies in it.
    """

    def __init__(self, t_lo: float, t_hi: float, msg: str = "local existence failure"):
        super().__init__(f"{msg}: blow-up bracket [{t_lo:.6g}, {t_hi:.6g}]")
        self.bracket = (t_lo, t_hi)


_MAX_ITERS = 40  # Picard sweeps per slab attempt
_BALL_MARGIN = 2.0  # ball radius: mass + max(margin, rel_margin * mass)
_BALL_REL_MARGIN = 0.5
_DT_TARGET = 1.0 / 16.0  # knot spacing aimed for within a slab
_SUBSTEPS_PER_INTERVAL = 4  # trace substeps per knot interval
_MAX_SLABS = 2000
_KEPT_SHAPES = 2  # slab shapes whose constant-velocity traces solve keeps


@dataclass
class PicardConfig:
    slab_length: float = 0.25
    eps_fix: float = 1e-7
    theta_max: float = 0.5
    ball_mass: float | None = None
    min_knots: int = 8
    min_slab_factor: float = 1e-6

    def __post_init__(self):
        def check(name, ok, what, kind=numbers.Real):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, kind) or not ok(value):
                raise ValueError(f"{name} must be {what}, got {value!r}")

        for name in ("slab_length", "eps_fix", "min_slab_factor"):
            check(name, lambda v: v > 0, "a positive number")
        check("theta_max", lambda v: 0 < v < 1, "a number in (0, 1)")
        check("min_knots", lambda v: v >= 0, "an integer >= 0", numbers.Integral)
        if self.ball_mass is not None:  # the ball must hold the initial mass (>= 0) + 1
            check("ball_mass", lambda v: v > 1, "a number above 1")


@dataclass
class SlabDiagnostics:
    t0: float
    t1: float
    iterations: int
    distances: list[float]
    ratios: list[float]
    theta: float
    ball: float
    halvings: int
    norm_X: float


def _bracket(times: np.ndarray, t):
    """Knot interval ``j`` and weight ``lam`` in [0, 1] of ``t``; knots may be non-uniform."""
    t = np.asarray(t, dtype=float)
    K = len(times) - 1
    if K == 0:
        return np.zeros(t.shape, dtype=int), np.zeros(t.shape)
    j = np.clip(np.searchsorted(times, t, side="right") - 1, 0, K - 1)
    lam = np.clip((t - times[j]) / (times[j + 1] - times[j]), 0.0, 1.0)
    return j, lam


@dataclass
class Trajectory:
    """Knot times, the knot states as one C-contiguous ``(n_knots, N, k)`` array, diagnostics."""

    grid: Grid
    times: np.ndarray
    values: np.ndarray
    diagnostics: list[SlabDiagnostics] = field(default_factory=list)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.values = np.ascontiguousarray(self.values, dtype=float)
        if self.values.shape != (len(self.times), self.grid.n_nodes, self.values.shape[-1]):
            raise ValueError("values must be (n_knots, n_nodes, k), one state per time knot")

    @property
    def states(self) -> list[GridFn]:
        """One read-only grid function per knot, each a view of ``values``."""
        view = self.values.view()
        view.flags.writeable = False
        return [GridFn(self.grid, v) for v in view]

    def state_at(self, t: float) -> GridFn:
        j, lam = _bracket(self.times, t)
        a, b = self.values[int(j)], self.values[min(int(j) + 1, len(self.times) - 1)]
        return GridFn(self.grid, (1 - lam) * a + lam * b)

    def component_masses(self) -> np.ndarray:
        """Per-knot, per-component L1 masses, shape (n_knots, k)."""
        return np.sum(np.abs(self.values), axis=1) * self.grid.cell_volume

    def component_sups(self) -> np.ndarray:
        return np.max(np.abs(self.values), axis=1)


def norm_X(u: Trajectory) -> float:
    """sum_h sup_t ||component h||_L1 - the contraction norm, one sum over every knot."""
    return float(np.sum(np.max(u.component_masses(), axis=0)))


def dist_X(a: Trajectory, b: Trajectory) -> float:
    """norm_X of a - b; the difference is a fresh array, so its abs is taken in place."""
    diff = a.values - b.values
    per = np.sum(np.abs(diff, out=diff), axis=1) * a.grid.cell_volume
    return float(np.sum(np.max(per, axis=0)))


class _Knots:
    """Query points with the knot interval ``j`` and weight ``lam`` of each one's time.

    ``stencil``, made on first use (by :class:`SlabPlan` for a site that a sweep
    gathers through), reads node n of interval j at row ``j·N + n``: the points'
    :meth:`Grid.stencil` with its node indices shifted in place."""

    def __init__(self, times: np.ndarray, t, pts: np.ndarray, grid: Grid):
        self.j, self.lam = _bracket(times, np.broadcast_to(t, pts.shape[:1]))
        self.pts, self.grid = pts, grid

    @cached_property
    def stencil(self) -> Stencil:
        s = self.grid.stencil(self.pts)
        np.add(s.flat, self.j * self.grid.n_nodes, out=s.flat)
        return s


def _blend(a: np.ndarray, b: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """``(1 - lam)·a + lam·b`` of two fresh ``(n, 1)`` arrays, in place."""
    a *= (1.0 - lam)[:, None]
    a += np.multiply(b, lam[:, None], out=b)
    return a


@dataclass(eq=False)
class _Site:
    """One velocity's traces from all knots (knot j: column j - 1, traces ``(j-1)N : jN``).

    ``knots`` and ``exits`` bracket the live knots, in ``batch.live``'s order,
    and the inflow exits; ``feet_u0`` is the attempt's initial state (all
    components) at the feet of the traces that stayed inside.  The coefficients
    read the traces' times plus ``shift``, the slab start.
    """

    batch: TraceBatch
    knots: _Knots
    exits: _Knots
    feet_u0: np.ndarray
    shift: float


def _geometry(v, times: np.ndarray, grid: Grid):
    """All of a site but ``u0``: the traces, the :class:`_Knots` of their live knots
    and inflow exits on ``times``, and the stencil of their interior feet."""
    batch = trace_backward(v, times[1:], grid.points,
                           np.arange(1, len(times)) * _SUBSTEPS_PER_INTERVAL, grid.domain)
    _, tk, xk = batch.live
    inflow = batch.exit_face >= 0
    return (batch, _Knots(times, tk, xk, grid),
            _Knots(times, batch.exit_time[inflow], batch.exit_point[inflow], grid),
            grid.stencil(batch.feet[~batch.exited]))


class SlabPlan:
    """The work of one slab attempt from ``u0`` that does not depend on the iterate.

    Built once per attempt and read by each of its sweeps: ``sites[h]``
    holds component h's traces of every grid node from every knot j >= 1
    (``4j`` substeps) of ``times``, which start at 0, down to 0: one batch
    per velocity, :meth:`~VelocityField.shifted` by the slab start t0.  A
    constant velocity's traces do not depend on t0: ``kept`` (kept by
    :func:`solve`) holds them for the last ``_KEPT_SHAPES`` knot sets ``times``.
    A site's live-knot stencil is built here when a sweep gathers through it:
    a source there reads state columns, or a grid-mode kernel field is sampled.
    """

    def __init__(self, sys: SystemDef, u0: GridFn, times: np.ndarray, t0: float = 0.0,
                 kept: dict | None = None):
        grid = u0.grid
        times = np.asarray(times, dtype=float)
        if times[0] != 0:
            raise ValueError("slab knot times start at 0; t0 is the slab start")
        key = times.tobytes()
        shape = {} if kept is None else kept.pop(key, {})  # constant velocities' traces
        by_velocity = {}
        for v in sys.velocities:
            if v.vec is not None and id(v) not in shape:
                shape[id(v)] = _geometry(v, times, grid)
            if id(v) not in by_velocity:
                *traced, feet = shape.get(id(v)) or _geometry(v.shifted(t0), times, grid)
                by_velocity[id(v)] = _Site(*traced, interp_gather(feet, u0.values), t0)
        if kept is not None:
            kept[key] = shape  # the most recently used last
            if len(kept) > _KEPT_SHAPES:
                del kept[next(iter(kept))]
        self.sites = [by_velocity[id(v)] for v in sys.velocities]
        on_grid = lambda kern: kern is not None and not kern.x_independent
        for h, site in enumerate(self.sites):
            # a sweep gathers through the site's stencil: build it here, so w_at only gathers
            if on_grid(sys.Kp[h]) or sys.has_q[h] and (sys.q_reads[h] or on_grid(sys.Kq[h])):
                site.knots.stencil


class FrozenCoefficients:
    """Coefficient fields of every component with the state frozen at w.

    Each distinct kernel object is frozen once per role (interior for
    ``Kp``/``Kq``, boundary for ``Ku``), whichever rows name it, by one
    ``integrate`` call that covers every knot, in one of three modes:
    const (an x-independent kernel: one mass per knot), grid (on the grid
    nodes, interpolated multilinearly in space) and direct (a boundary
    kernel that depends on the evaluation point: at the query points
    themselves, each point reading the two knots around its time).  Each
    is blended linearly in time; the outer maps P/Q/Ub of component h are
    then applied at the exact query points and times, one time per point;
    an undeclared Q/Ub is 0, and ``linear_problem`` hands None for it.
    Queries may pass the :class:`_Knots` of their points (a plan site's);
    otherwise they bracket them here.
    """

    def __init__(self, sys: SystemDef, w: Trajectory):
        self.sys, self.w = sys, w
        self.times, self.grid = w.times, w.grid
        self.K = len(self.times) - 1
        samplers = {}

        def freeze(kernel, boundary: bool):
            if (kernel, boundary) not in samplers:
                samplers[kernel, boundary] = self._freeze(kernel, boundary)
            return samplers[kernel, boundary]

        self._eta_p, self._eta_q = ([freeze(kern, False) for kern in row]
                                    for row in (sys.Kp, sys.Kq))
        self._eta_u = [freeze(kern, True) for kern in sys.Ku]
        self._kept: dict = {}

    def _freeze(self, kernel, boundary: bool):
        """Sampler ``sample(knots) -> (n, 1)`` of the integral blended linearly in t
        between each point's two knots; zeros when the field is identically zero."""
        if kernel is None or (boundary and self.sys.domain.m == 0):
            return lambda k: np.zeros((len(k.j), 1))
        if kernel.x_independent:
            mass = kernel.integrate(f=self.w)
            lo, hi = (mass[:-1], mass[1:]) if self.K else (mass, mass)
            return lambda k: _blend(np.take(lo, k.j, axis=0), np.take(hi, k.j, axis=0), k.lam)
        if boundary:
            # the integral is linear in the state, so blending it equals
            # integrating the blended state: exact at every exit
            def sample(k):
                eta, at = kernel.integrate(pts=k.pts, f=self.w), np.arange(len(k.j))
                return _blend(eta[k.j, at, None], eta[np.minimum(k.j + 1, self.K), at, None], k.lam)
            return sample
        eta = kernel.integrate(pts=self.grid.points, f=self.w)[:, :, None]
        return lambda k: interp_gather(k.stencil, eta, k.lam)

    def _field(self, sampler, knots: _Knots, keep: bool) -> np.ndarray:
        """``sampler(knots)``.  Given the caller's knots (a plan site's), it is kept,
        read-only, for this object's life: every row that names the kernel on the
        site reads the same values, and an outer map cannot change them for another."""
        if not keep:
            return sampler(knots)
        key = (sampler, knots)
        if key not in self._kept:
            self._kept[key] = eta = sampler(knots)
            eta.flags.writeable = False
        return self._kept[key]

    def w_at(self, t, pts: np.ndarray, knots: _Knots | None = None, rows=None) -> np.ndarray:
        """The frozen state at the points: the columns ``rows`` (all when None), the rest NaN."""
        knots = knots or _Knots(self.times, t, np.atleast_2d(pts), self.grid)
        return interp_gather(knots.stencil, self.w.values, knots.lam, rows)

    def p(self, h: int, t, pts, knots: _Knots | None = None):
        pts = np.atleast_2d(pts)
        eta = self._field(self._eta_p[h], knots or _Knots(self.times, t, pts, self.grid),
                          knots is not None)
        return np.asarray(self.sys.P[h](t, pts, eta), dtype=float)

    def q(self, h: int, t, pts, knots: _Knots | None = None, w_pt: np.ndarray | None = None):
        """``w_pt`` is the frozen state at the points; its ``q_reads[h]`` are gathered if None."""
        pts = np.atleast_2d(pts)
        if not self.sys.has_q[h]:
            return np.zeros(len(pts))
        keep, knots = knots is not None, knots or _Knots(self.times, t, pts, self.grid)
        eta = self._field(self._eta_q[h], knots, keep)
        if w_pt is None:
            w_pt = self.w_at(t, pts, knots, self.sys.q_reads[h])
        return np.asarray(self.sys.Q[h](t, pts, w_pt, eta), dtype=float)

    def ub(self, h: int, t, pts, knots: _Knots | None = None):
        pts = np.atleast_2d(pts)
        if not self.sys.has_ub[h]:
            return np.zeros(len(pts))
        eta = self._field(self._eta_u[h], knots or _Knots(self.times, t, pts, self.grid),
                          knots is not None)
        return np.asarray(self.sys.Ub[h](t, pts, eta), dtype=float)

    def linear_problem(self, h: int, site: _Site | None = None,
                       w_pt: np.ndarray | None = None) -> LinearProblem:
        """The frozen scalar problem of component h.

        Given a plan site, its callbacks read the site's knots and
        ``w_pt``, the frozen state at the site's live knots, and they and
        the velocity add the site's shift to the times they are given.
        """
        knots, exits, shift = ((site.knots, site.exits, site.shift) if site is not None
                               else (None, None, 0.0))
        sys = self.sys
        at = (lambda t: t + shift) if shift else (lambda t: t)  # a shift of 0 copies nothing
        return LinearProblem(
            sys.velocities[h].shifted(shift), lambda t, pts: self.p(h, at(t), pts, knots),
            (lambda t, pts: self.q(h, at(t), pts, knots, w_pt)) if sys.has_q[h] else None,
            (lambda t, pts: self.ub(h, at(t), pts, exits)) if sys.has_ub[h] else None,
            GridFn(self.grid, self.w.values[0, :, h]))


def apply_T(sys: SystemDef, w: Trajectory, plan: SlabPlan | None = None) -> Trajectory:
    """One freeze-and-solve sweep: returns the slab trajectory u = T w.

    ``plan`` is the slab attempt's :class:`SlabPlan` from ``w``'s first knot,
    built here on ``w``'s times less the first when not given.
    """
    grid, times = w.grid, w.times
    if plan is None:
        plan = SlabPlan(sys, w.states[0], times - times[0], float(times[0]))
    frozen = FrozenCoefficients(sys, w)
    vals = np.empty((len(times), grid.n_nodes, sys.k))
    vals[0] = w.values[0]
    w_along = {}  # the frozen state at each site's live knots: the columns its sources read
    for h, site in enumerate(plan.sites):
        if sys.has_q[h] and site not in w_along:
            _, tk, xk = site.batch.live
            rows = sorted({c for g, s in enumerate(plan.sites) if s is site and sys.has_q[g]
                           for c in sys.q_reads[g]})
            w_along[site] = frozen.w_at(tk, xk, site.knots, rows) if rows else \
                np.full((len(tk), sys.k), np.nan)
        lp = frozen.linear_problem(h, site, w_along.get(site))
        vals[1:, :, h] = evaluate(lp, times[1:] - times[0], grid, batch=site.batch,
                                  feet_u0=site.feet_u0[:, h]).reshape(len(times) - 1, grid.n_nodes)
    return Trajectory(grid, times.copy(), vals)


def solve_slab(sys: SystemDef, u_init: GridFn, t0: float, cfg: PicardConfig,
               h_init: float | None = None, kept: dict | None = None) -> Trajectory:
    """Picard iteration on one slab, halving its length until it converges."""
    base_mass = l1_norm(u_init)
    M = cfg.ball_mass
    if M is None:
        M = base_mass + max(_BALL_MARGIN, _BALL_REL_MARGIN * base_mass)
    if base_mass + 1.0 >= M:
        raise ValueError("ball radius must exceed the slab's initial mass + 1")
    h = h_init if h_init is not None else cfg.slab_length
    halvings = 0
    while True:
        if h < cfg.min_slab_factor * cfg.slab_length:
            raise LocalExistenceError(t0, t0 + 2 * h)
        K = max(cfg.min_knots, int(math.ceil(h / _DT_TARGET)))
        rel = np.linspace(0.0, h, K + 1)
        w = Trajectory(u_init.grid, t0 + rel, np.repeat(u_init.values[None], K + 1, axis=0))
        plan = SlabPlan(sys, u_init, rel, t0, kept)
        distances: list[float] = []
        ratios: list[float] = []
        for _ in range(_MAX_ITERS):
            try:
                u = apply_T(sys, w, plan)
            except BlowupError:
                break
            d, norm = dist_X(u, w), norm_X(u)
            if not np.isfinite(d) or norm > M:
                break
            distances.append(d)
            if len(distances) >= 2:
                r = d / max(distances[-2], 1e-300)
                ratios.append(r)
                if r > cfg.theta_max:
                    break
            w = u
            if d <= cfg.eps_fix:
                diag = SlabDiagnostics(t0=t0, t1=t0 + h, iterations=len(distances),
                                       distances=distances, ratios=ratios,
                                       theta=max(ratios) if ratios else 0.0,
                                       ball=M, halvings=halvings, norm_X=norm)
                u.diagnostics = [diag]
                return u
        h *= 0.5
        halvings += 1


def solve(sys: SystemDef, grid: Grid, horizon: float, cfg: PicardConfig,
          u_init: GridFn | None = None) -> Trajectory:
    """Chain converged slabs from 0 to the horizon.

    Each slab restarts from the previous terminal state with a fresh
    ball sized off the current mass; a genuine blow-up surfaces as a
    :class:`LocalExistenceError` carrying the last solved time and the
    end of the last rejected slab attempt.  Slab lengths stay exactly
    ``slab_length·2^-n`` (or the rest of the horizon), so shapes recur and
    their plans share the traces of the constant velocities.
    """
    if horizon < 0:
        raise ValueError("horizon must be nonnegative")
    u = u_init if u_init is not None else sys.initial_state(grid)
    if u.k != sys.k:
        raise ValueError("initial state has wrong component count")
    times, values = [0.0], [u.values[None]]
    diags: list[SlabDiagnostics] = []
    t = 0.0
    h_next = cfg.slab_length
    kept: dict = {}
    while t < horizon - 1e-12:
        if len(diags) >= _MAX_SLABS:
            raise LocalExistenceError(t, horizon, "slab budget exhausted before horizon")
        h_try = min(h_next, horizon - t)
        slab = solve_slab(sys, u, t, cfg, h_init=h_try, kept=kept)
        times.extend(slab.times[1:].tolist())
        values.append(slab.values[1:])
        diags.extend(slab.diagnostics)
        u = GridFn(u.grid, slab.values[-1])
        t = float(slab.times[-1])
        # the exact length: t1 - t0 may round away from it
        h_next = min(cfg.slab_length, 2.0 * h_try * 0.5 ** diags[-1].halvings)
    return Trajectory(u.grid, np.array(times), np.concatenate(values), diags)


@dataclass
class LipschitzProbe:
    ratio: float
    times: np.ndarray
    distances: np.ndarray


def lipschitz_probe(sys: SystemDef, grid: Grid, u0_a: GridFn, u0_b: GridFn,
                    horizon: float, cfg: PicardConfig, n_curve: int = 17) -> LipschitzProbe:
    """Measured L1 amplification of an initial-datum perturbation."""
    tr_a = solve(sys, grid, horizon, cfg, u_init=u0_a)
    tr_b = solve(sys, grid, horizon, cfg, u_init=u0_b)
    ts = np.linspace(0.0, horizon, n_curve)
    curve = np.array([l1_norm(tr_a.state_at(s) - tr_b.state_at(s)) for s in ts])
    d0 = l1_norm(u0_a - u0_b)
    ratio = float(curve[-1] / d0) if d0 > 0 else 0.0
    return LipschitzProbe(ratio, ts, curve)
