"""Frozen-coefficient linear transport solved along characteristics.

For the affine scalar problem

    d_t u + div_x(v(t,x) u) = p(t,x) u + q(t,x),   u(t,xi) = ub,  u(0) = u0

the solution at a point is read off its backward characteristic: the
datum at the foot (or the boundary value at the exit time) times the
growth factor, plus the growth-weighted source integral.  Evaluation is
pointwise per grid node, so there is no CFL restriction and no time
stepping: the value at any t is obtained by a single trace from t back
to the initial (or exit) time.

Coefficient callbacks are evaluated in batch, once per trace on all
its knots and once at the exit points: ``p(t, pts)`` with pts of shape
(P, d) returns (P,), and ``t`` is one time per point.  Boundary
callbacks receive face points as full d-dimensional coordinates with
the face coordinate equal to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .characteristics import TraceBatch, VelocityField, cumulative_trapezoid, trace_backward
from .domain import BlowupError, Grid, GridFn, interp_values


@dataclass
class LinearProblem:
    velocity: VelocityField
    p: Callable
    q: Callable
    ub: Callable
    u0: GridFn

    def __post_init__(self):
        if self.u0.k != 1:
            raise ValueError("LinearProblem is scalar; u0 must have k = 1")


def zero_field(t, pts):
    pts = np.atleast_2d(pts)
    return np.zeros(pts.shape[0])


def auto_substeps(grid: Grid, span: float, vsup: float) -> int:
    """Enough RK4 steps that one step moves at most one cell, and at least 16."""
    if span <= 0:
        return 1
    return max(16, int(math.ceil(span * max(vsup, 1e-12) / grid.min_dx)))


def evaluate(lp: LinearProblem, t: float, grid: Grid, substeps: int | None = None,
             t0: float = 0.0, batch: TraceBatch | None = None) -> GridFn:
    """Evaluate the representation formula at every grid node at time t.

    A precomputed :class:`TraceBatch` for the same (t, t0, grid) may be
    passed in; components sharing a velocity then share their traces.
    """
    if t < t0 - 1e-14:
        raise ValueError("evaluation time below the initial time")
    if batch is None:
        if substeps is None:
            substeps = auto_substeps(grid, t - t0, lp.velocity.sup)
        batch = trace_backward(lp.velocity, t, grid.points, substeps, grid.domain, t_floor=t0)
    times, path = batch.times, batch.path
    nknots = len(times)
    if nknots == 1:
        return GridFn(grid, interp_values(grid, lp.u0.values[:, 0], grid.points))

    npts = grid.n_nodes
    tk = np.repeat(times, npts)
    xk = path.reshape(nknots * npts, -1)
    g = (lp.p(tk, xk) - lp.velocity.div(tk, xk)).reshape(nknots, npts)
    qv = lp.q(tk, xk).reshape(nknots, npts)

    with np.errstate(over="ignore", invalid="ignore"):
        dt = times[:-1] - times[1:]
        c = cumulative_trapezoid(g, times)
        E = np.exp(c)
        fq = qv * E

        # Source integral over whole intervals that lie inside the trace's
        # valid span; for exited points the interval containing T gets a
        # partial contribution below.
        include = (~batch.exited)[None, :] | (np.arange(nknots - 1)[:, None] < batch.exit_interval[None, :])
        source = np.sum(0.5 * (fq[:-1] + fq[1:]) * dt[:, None] * include, axis=0)

        data = np.zeros(npts)
        interior = ~batch.exited
        if interior.any():
            u0_feet = interp_values(grid, lp.u0.values[:, 0], batch.feet[interior])
            data[interior] = u0_feet * E[-1, interior]

        if batch.exited.any():
            idx = np.nonzero(batch.exited)[0]
            jstar = batch.exit_interval[idx]
            T = batch.exit_time[idx]
            XT = batch.exit_point[idx]
            gT = lp.p(T, XT) - lp.velocity.div(T, XT)
            span = times[jstar] - T
            cT = c[jstar, idx] + 0.5 * (g[jstar, idx] + gT) * span
            ET = np.exp(cT)
            data[idx] = np.where(batch.truncated[idx], 0.0, lp.ub(T, XT) * ET)
            source[idx] += 0.5 * (fq[jstar, idx] + lp.q(T, XT) * ET) * span

        vals = data + source
    if not np.all(np.isfinite(vals)):
        raise BlowupError("non-finite solution values (coefficients or data blew up)")
    return GridFn(grid, vals)


def solve_series(lp: LinearProblem, times: Sequence[float], grid: Grid,
                 substeps: int | None = None) -> list[GridFn]:
    """Evaluate at each requested time, tracing from t = 0 every time.

    There is no time marching, hence no error accumulation across the
    requested times; each state is exact up to ODE and quadrature error.
    """
    ts = list(times)
    if any(b < a for a, b in zip(ts, ts[1:])) or (ts and ts[0] < 0):
        raise ValueError("times must be ascending and nonnegative")
    return [evaluate(lp, t, grid, substeps) for t in ts]
