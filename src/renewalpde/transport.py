"""Frozen-coefficient linear transport solved along characteristics.

For the affine scalar problem

    d_t u + div_x(v(t,x) u) = p(t,x) u + q(t,x),   u(t,xi) = ub,  u(0) = u0

the solution at a point is read off its backward characteristic: the
datum at the foot (or the boundary value at the exit time) times the
growth factor, plus the growth-weighted source integral.  A ``q`` or
``ub`` of None is 0: its integral or boundary call is skipped.  Evaluation is
pointwise per grid node, so there is no CFL restriction and no time
stepping: the value at any t is obtained by a single trace from t back
to the initial (or exit) time.

Every trace runs on its own knot times (``TraceBatch.trace_times``),
which stop at its exit time, so one composite trapezoid per trace on
its knot widths gives both integrals (``TraceBatch.trapezoids``) and an
exit is the last knot of its trace.  One batch may hold the nodes at
several times, one knot column each, every column summed on its own
rows; a column with no substeps integrates nothing.
A series of output times is one trace batch: all its columns are traced
in one call, and each time is then evaluated on its own column alone,
so every state is still one trace from t = 0.  Coefficient callbacks
are evaluated in batch, once on the live knots of every column, up to
and including the exits: ``p(t, pts)`` with pts of shape (P, d) returns
(P,), and ``t`` is one time per point.  The boundary callback is
evaluated once, at the inflow exits; it receives face points as full
d-dimensional coordinates with the face coordinate equal to 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .characteristics import TraceBatch, VelocityField, trace_backward
from .domain import BlowupError, Grid, GridFn, interp_values


@dataclass
class LinearProblem:
    velocity: VelocityField
    p: Callable
    q: Callable | None
    ub: Callable | None
    u0: GridFn

    def __post_init__(self):
        if self.u0.k != 1:
            raise ValueError("LinearProblem is scalar; u0 must have k = 1")


def auto_substeps(grid: Grid, span: float, vsup: float) -> int:
    """Enough RK4 steps that one step moves at most one cell, and at least 16."""
    if span <= 0:
        return 1
    return max(16, int(math.ceil(span * max(vsup, 1e-12) / grid.min_dx)))


def evaluate(lp: LinearProblem, t, grid: Grid, substeps: int | None = None,
             batch: TraceBatch | None = None, feet_u0: np.ndarray | None = None):
    """Evaluate the representation formula at every grid node at time t, as a GridFn.

    ``t``, counted from ``lp.u0``'s time 0, is one time, unless a :class:`TraceBatch` is
    given: then each of its knot columns traces the grid's nodes from one start, ``t`` holds
    those starts, one per column, and it returns one value per trace; ``feet_u0`` is
    ``lp.u0`` at its interior feet, if known.
    """
    if np.any(np.asarray(t) < -1e-14):
        raise ValueError("evaluation time below the initial time")
    if traced := batch is None:
        if np.ndim(t):
            raise ValueError("several evaluation times need a trace batch")
        if substeps is None:
            substeps = auto_substeps(grid, t, lp.velocity.sup)
        batch = trace_backward(lp.velocity, t, grid.points, substeps, grid.domain)
    # Knots past an exit repeat the exit knot over zero-width intervals;
    # the coefficients there are never sampled and read as 0.
    mask, tk, xk = batch.live
    g = np.zeros(mask.shape)
    qv = None if lp.q is None else np.zeros(mask.shape)
    if len(tk):  # only columns with substeps have live knots; with none, no call
        g[mask] = lp.p(tk, xk) - lp.velocity.div(tk, xk)
        if qv is not None:
            qv[mask] = lp.q(tk, xk)

    datum = np.zeros(len(batch.exited))
    interior = ~batch.exited
    if interior.any():
        datum[interior] = (interp_values(grid, lp.u0.values[:, 0], batch.feet[interior])
                           if feet_u0 is None else feet_u0)
    inflow = batch.exit_face >= 0
    if inflow.any() and lp.ub is not None:
        datum[inflow] = lp.ub(batch.exit_time[inflow], batch.exit_point[inflow])
    with np.errstate(over="ignore", invalid="ignore"):
        growth, source = batch.trapezoids(g, qv)
        vals = datum * growth
        if source is not None:
            vals += source
    if not np.all(np.isfinite(vals)):
        raise BlowupError("non-finite solution values (coefficients or data blew up)")
    return GridFn(grid, vals) if traced else vals


def solve_series(lp: LinearProblem, times: Sequence[float], grid: Grid,
                 substeps: int | None = None) -> list[GridFn]:
    """Evaluate at each requested time, tracing from t = 0 every time.

    One trace call serves every output time: the grid nodes at each distinct
    time form one knot column, all columns step in one RK4 loop, and each is
    then evaluated on its own knots, as :func:`evaluate` would at that time
    alone.  There is no time marching, hence no error accumulation
    across the requested times; each state is exact up to ODE and quadrature
    error.
    """
    ts = list(times)
    if any(b < a for a, b in zip(ts, ts[1:])) or (ts and ts[0] < 0):
        raise ValueError("times must be ascending and nonnegative")
    if not ts:
        return []
    tu, repeat = np.unique(ts, return_inverse=True)
    n = [auto_substeps(grid, t, lp.velocity.sup) if substeps is None else substeps for t in tu]
    # one column per distinct time; the batch is not kept, so each column's
    # arrays go once it is evaluated
    columns = trace_backward(lp.velocity, tu, grid.points, n, grid.domain).split()
    vals = []
    for c, t in enumerate(tu):
        column, columns[c] = columns[c], None
        vals.append(evaluate(lp, t, grid, batch=column))
    return [GridFn(grid, vals[i].copy()) for i in repeat]
