"""Backward characteristic tracing, exit times and growth factors.

A characteristic through ``(t, x)`` solves ``dX/ds = v(s, X)`` with
``X(t) = x``.  Tracing backward either reaches ``s = t_floor`` at an
interior foot point, or crosses an inflow face ``x_i = 0`` of a
half-line axis at the exit time ``T(t, x)``, refined here by bisection.
Along the trace the solution of the frozen linear equation picks up the
growth factor ``exp(int (p - div v) ds)`` and a source integral; both
are computed by composite trapezoid on the trace knots.

Velocity callbacks must broadcast: ``fn(t, x)`` with ``x`` of shape
``(P, d)`` and ``t`` a scalar or a length-P vector returns ``(P, d)``.
The divergence is a required callback, never finite-differenced: it
enters an exponential and noise there would not average out.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .domain import Domain

_BISECT_MAX = 80


@dataclass(frozen=True)
class VelocityField:
    """Velocity callback bundled with its exact divergence and sup bound."""

    fn: Callable
    div: Callable
    sup: float

    def __call__(self, t, x):
        return self.fn(t, x)

    @staticmethod
    def constant(vec) -> "VelocityField":
        vec = np.atleast_1d(np.asarray(vec, dtype=float))

        def fn(t, x):
            x = np.atleast_2d(x)
            return np.broadcast_to(vec, x.shape).copy()

        def div(t, x):
            x = np.atleast_2d(x)
            return np.zeros(x.shape[0])

        return VelocityField(fn, div, float(np.linalg.norm(vec)))


def rk4_step(v, t0: float, x: np.ndarray, dt) -> np.ndarray:
    """One classical RK4 step; ``dt`` may vary per point."""
    dt = np.asarray(dt, dtype=float)
    dtc = dt[:, None] if dt.ndim == 1 else dt
    k1 = v(t0, x)
    k2 = v(t0 + dt / 2, x + dtc / 2 * k1)
    k3 = v(t0 + dt / 2, x + dtc / 2 * k2)
    k4 = v(t0 + dt, x + dtc * k3)
    return x + dtc / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


@dataclass
class TraceBatch:
    """All grid characteristics traced at once on shared time knots.

    ``path[j]`` holds positions at ``times[j]``; rows of exited points
    are frozen at their exit point for knots past the exit.  The exit
    time of point p lies in ``(times[j+1], times[j]]`` with
    ``j = exit_interval[p]``.
    """

    times: np.ndarray
    path: np.ndarray
    exited: np.ndarray
    exit_time: np.ndarray
    exit_point: np.ndarray
    exit_face: np.ndarray
    exit_interval: np.ndarray
    truncated: np.ndarray

    @property
    def feet(self) -> np.ndarray:
        return self.path[-1]


def _outside_box(domain: Domain, x: np.ndarray) -> np.ndarray:
    """Escape through an artificial truncation face (not an inflow face)."""
    out = np.zeros(x.shape[0], dtype=bool)
    bounds = domain.bounds()
    for i in range(domain.m):
        out |= x[:, i] > bounds[i][1]
    for ax in range(domain.m, domain.dim):
        lo, hi = bounds[ax]
        out |= (x[:, ax] < lo) | (x[:, ax] > hi)
    return out


def _refine_exit(v, s_hi: float, x_hi: np.ndarray, s_lo: float, m: int, tol: float):
    """Bisect the crossing time of ``min_i X_i`` in ``(s_lo, s_hi]``."""
    npts = x_hi.shape[0]
    lo = np.full(npts, s_lo)
    hi = np.full(npts, s_hi)
    for _ in range(_BISECT_MAX):
        mid = 0.5 * (lo + hi)
        x_mid = rk4_step(v, s_hi, x_hi, mid - s_hi)
        neg = x_mid[:, :m].min(axis=1) < 0.0
        lo[neg] = mid[neg]
        hi[~neg] = mid[~neg]
        if np.max(hi - lo) < tol:
            break
    T = 0.5 * (lo + hi)
    xT = rk4_step(v, s_hi, x_hi, T - s_hi)
    face = np.argmin(xT[:, :m], axis=1)
    xT[np.arange(npts), face] = 0.0
    return T, xT, face


def trace_backward(v, t: float, pts: np.ndarray, substeps: int, domain: Domain,
                   t_floor: float = 0.0) -> TraceBatch:
    """Trace every point of ``pts`` backward from ``t`` to ``t_floor``."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    npts, d = pts.shape
    m = domain.m
    if t < t_floor - 1e-15:
        raise ValueError("cannot trace to a floor above t")
    substeps = max(1, int(substeps))
    if abs(t - t_floor) < 1e-15:
        times = np.array([t])
        return TraceBatch(times, pts[None, :, :].copy(),
                          np.zeros(npts, bool), np.full(npts, np.nan),
                          np.full((npts, d), np.nan), np.full(npts, -1),
                          np.full(npts, -1), np.zeros(npts, bool))

    times = np.linspace(t, t_floor, substeps + 1)
    path = np.empty((substeps + 1, npts, d))
    path[0] = pts
    x = pts.copy()
    exited = np.zeros(npts, dtype=bool)
    exit_time = np.full(npts, np.nan)
    exit_point = np.full((npts, d), np.nan)
    exit_face = np.full(npts, -1, dtype=int)
    exit_interval = np.full(npts, -1, dtype=int)
    truncated = np.zeros(npts, dtype=bool)
    tol = 1e-12 * max(abs(t), 1e-6)

    for j in range(substeps):
        x_new = rk4_step(v, times[j], x, times[j + 1] - times[j])
        if not np.all(np.isfinite(x_new[~exited])):
            raise ValueError("non-finite velocity along characteristic")
        x_new[exited] = x[exited]
        if m > 0:
            newly = (~exited) & (x_new[:, :m].min(axis=1) < 0.0)
            if newly.any():
                T, xT, face = _refine_exit(v, times[j], x[newly], times[j + 1], m, tol)
                exit_time[newly] = T
                exit_point[newly] = xT
                exit_face[newly] = face
                exit_interval[newly] = j
                exited |= newly
                x_new[newly] = xT
        active = ~exited
        if active.any():
            truncated[active] |= _outside_box(domain, x_new[active])
        x = x_new
        path[j + 1] = x
    return TraceBatch(times, path, exited, exit_time, exit_point,
                      exit_face, exit_interval, truncated)


@dataclass(frozen=True)
class CharRecord:
    """Single backward trace: either an interior foot or a boundary hit.

    ``times`` descend from the origin time; for a boundary hit the last
    knot is the refined exit time itself, so the knot range always
    covers exactly the valid span of the trace.
    """

    t: float
    x: np.ndarray
    kind: str
    times: np.ndarray
    path: np.ndarray
    foot: np.ndarray | None = None
    exit_time: float | None = None
    exit_point: np.ndarray | None = None
    exit_face: int | None = None
    truncation_exit: bool = False


def trace_back(v, t: float, x: np.ndarray, domain: Domain, substeps: int = 64,
               t_floor: float = 0.0) -> CharRecord:
    """Trace one point backward; see :class:`CharRecord`."""
    x = np.asarray(x, dtype=float).reshape(1, -1)
    batch = trace_backward(v, t, x, substeps, domain, t_floor)
    if batch.exited[0]:
        j = int(batch.exit_interval[0])
        times = np.append(batch.times[:j + 1], batch.exit_time[0])
        path = np.concatenate([batch.path[:j + 1, 0, :], batch.exit_point[0:1]], axis=0)
        return CharRecord(t=t, x=x[0], kind="boundary-hit", times=times, path=path,
                          exit_time=float(batch.exit_time[0]),
                          exit_point=batch.exit_point[0],
                          exit_face=int(batch.exit_face[0]))
    foot = batch.feet[0]
    if batch.truncated[0]:
        foot = foot.copy()
        for ax, (lo, hi) in enumerate(domain.bounds()):
            foot[ax] = min(max(foot[ax], lo), hi)
    return CharRecord(t=t, x=x[0], kind="interior-foot", times=batch.times,
                      path=batch.path[:, 0, :], foot=foot,
                      truncation_exit=bool(batch.truncated[0]))


def path_point(rec: CharRecord, s: float) -> np.ndarray:
    """Position on the trace at time ``s``, linear between knots."""
    ts = rec.times[::-1]
    lo, hi = ts[0], ts[-1]
    if s < lo - 1e-10 or s > hi + 1e-10:
        raise ValueError("time outside the trace's knot range")
    out = np.empty(rec.path.shape[1])
    for ax in range(rec.path.shape[1]):
        out[ax] = np.interp(s, ts, rec.path[::-1, ax])
    return out


def _knots_between(rec: CharRecord, tau0: float, tau1: float) -> np.ndarray:
    """Trace knots strictly inside (tau0, tau1), bracketed by tau1 and tau0, descending."""
    lo, hi = rec.times[-1], rec.times[0]
    eps = 1e-10 * max(1.0, abs(hi))
    if tau0 > tau1 + eps:
        raise ValueError("need tau0 <= tau1")
    if tau0 < lo - eps or tau1 > hi + eps:
        raise ValueError("time outside the trace's knot range")
    tau0 = min(max(tau0, lo), hi)
    tau1 = min(max(tau1, lo), hi)
    inner = rec.times[(rec.times > tau0 + eps) & (rec.times < tau1 - eps)]
    return np.concatenate([[tau1], inner, [tau0]])


def cumulative_trapezoid(g: np.ndarray, ts: np.ndarray) -> np.ndarray:
    """Running composite-trapezoid integral of ``g`` back from ``ts[0]``.

    ``ts`` descends; axis 0 of ``g`` runs along it, and the result has
    the shape of ``g`` with 0 in its first row.
    """
    dt = (ts[:-1] - ts[1:]).reshape((-1,) + (1,) * (g.ndim - 1))
    c = np.empty(g.shape)
    c[0] = 0.0
    np.cumsum(0.5 * (g[:-1] + g[1:]) * dt, axis=0, out=c[1:])
    return c


def growth_factor(rec: CharRecord, p_along, divv_along, tau0: float, tau1: float) -> float:
    """``exp(int_tau0^tau1 (p - div v) ds)`` along the traced path."""
    ts = _knots_between(rec, tau0, tau1)
    g = np.array([p_along(s) - divv_along(s) for s in ts], dtype=float)
    return float(np.exp(cumulative_trapezoid(g, ts)[-1]))


def growth_profile(rec: CharRecord, p_along, divv_along) -> np.ndarray:
    """Growth factor at every trace knot, measured back from the origin time."""
    ts = rec.times
    g = np.array([p_along(s) - divv_along(s) for s in ts], dtype=float)
    return np.exp(cumulative_trapezoid(g, ts))


def exit_jacobian(rec: CharRecord, v, divv_along, v_floor: float = 0.0) -> float:
    """Change-of-variables factor ``|det DM_i|`` of the exit map.

    Equals ``(1 / v_i(T, X(T))) * exp(int_t^T div v ds)``; this is what
    converts a cell of hit points at time t into a (time x face) cell
    of boundary data, and it feeds the boundary flux term of the L1
    a-priori estimate.
    """
    if rec.kind != "boundary-hit":
        raise ValueError("exit_jacobian needs a boundary-hit record")
    vi = float(np.atleast_2d(v(rec.exit_time, rec.exit_point[None, :]))[0, rec.exit_face])
    if vi <= v_floor:
        raise ValueError("inflow condition violated at exit: v_i <= floor")
    g = np.array([divv_along(s) for s in rec.times], dtype=float)
    integral = float(cumulative_trapezoid(g, rec.times)[-1])
    return float(np.exp(-integral) / vi)
