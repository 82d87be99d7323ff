"""Backward characteristic tracing and exit times.

A characteristic through ``(t, x)`` solves ``dX/ds = v(s, X)`` with
``X(t) = x``.  Tracing backward either reaches ``s = t_floor`` at an
interior foot point, or leaves the box at the exit time ``T(t, x)``:
through an inflow face ``x_i = 0`` of a half-line axis, where it picks
up the boundary datum, or through a truncation face, where it carries
0.  Each trace of a call has its own start time and knots.  RK4 steps
only the live traces; a trace that lands outside stops, and after the
last substep one batched bisection refines every exit of the call,
each within its own substep.  A trace's knots are clamped from below
at its exit time, so an exit ends the trace's integrals.  A constant
field needs no steps: each RK4 step adds the same multiple of its
vector, so one running sum along the knots gives every position with
the step loop's bits.  Up to the foot or the exit the trace picks up
the growth factor ``exp(int (p - div v) ds)`` and a source integral,
both by composite trapezoid on its knot widths, which a batch keeps in
place of its knot times (see ``transport.evaluate``).  Running sums
along the knots, of trapezoids and of constant-field steps, add row
r - 1 into row r: ``np.cumsum``'s additions in its order, and so its
bits, a whole row at a time where numpy would go one trace at a time.

Velocity callbacks must broadcast: ``fn(t, x)`` with ``x`` of shape
``(P, d)`` and ``t`` a scalar or a length-P vector returns ``(P, d)``;
``div(t, x)`` gets one time per point and returns ``(P,)``.  The
divergence is a required callback, never finite-differenced: it enters
an exponential and noise there would not average out.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable

import numpy as np

from .domain import Domain

_BISECT_MAX = 80


@dataclass(frozen=True)
class VelocityField:
    """Velocity callback bundled with its exact divergence and sup bound.

    A field built by :meth:`constant` also keeps its vector in ``vec``,
    which is traced without callbacks; ``vec`` is None for any other field.
    """

    fn: Callable
    div: Callable
    sup: float
    vec: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __call__(self, t, x):
        return self.fn(t, x)

    @staticmethod
    def constant(vec) -> "VelocityField":
        vec = np.array(vec, dtype=float, ndmin=1)
        if not np.all(np.isfinite(vec)):
            raise ValueError("constant velocity must be finite")
        vec.flags.writeable = False  # fn returns it: the two cannot come to disagree

        def fn(t, x):
            x = np.atleast_2d(x)
            return np.broadcast_to(vec, x.shape).copy()

        def div(t, x):
            x = np.atleast_2d(x)
            return np.zeros(x.shape[0])

        v = VelocityField(fn, div, float(np.linalg.norm(vec)))
        object.__setattr__(v, "vec", vec)
        return v


def _rk4_sum(c: np.ndarray) -> np.ndarray:
    """``k1 + 2 k2 + 2 k3 + k4`` when every stage is ``c``, summed as :func:`rk4_step` sums."""
    return c + 2 * c + 2 * c + c


def rk4_step(v: VelocityField, t0, x: np.ndarray, dt) -> np.ndarray:
    """One classical RK4 step; ``t0`` and ``dt`` may each be one per point."""
    dt = np.asarray(dt, dtype=float)
    dtc = dt[:, None] if dt.ndim == 1 else dt
    if v.vec is not None:
        return x + dtc / 6 * _rk4_sum(v.vec)
    k1 = v(t0, x)
    k2 = v(t0 + dt / 2, x + dtc / 2 * k1)
    k3 = v(t0 + dt / 2, x + dtc / 2 * k2)
    k4 = v(t0 + dt, x + dtc * k3)
    return x + dtc / 6 * (k1 + 2 * k2 + 2 * k3 + k4)


@dataclass
class TraceBatch:
    """Characteristics traced at once, each from its own start on its own knot times.

    ``times[j, p]`` is knot j of trace p, from its start ``times[0, p]``
    down to the floor and then repeated.  ``path[j, p]`` is the position
    of trace p at knot j, reached at ``trace_times[j, p]``: ``times[j, p]``
    clamped from below at the trace's exit time, so knots past an exit
    repeat the exit point over zero-width intervals.  ``exited`` marks
    traces that left the box through any face.  ``exit_face`` is the
    axis of an inflow face, or -1 for a truncation face, which
    ``truncated`` also marks; the datum there is 0.  Traces that did not
    exit end at a foot.  A batch is not changed once built: its derived
    knot arrays are computed once and shared by every reader.
    """

    times: np.ndarray
    path: np.ndarray
    exited: np.ndarray
    exit_time: np.ndarray
    exit_point: np.ndarray
    exit_face: np.ndarray

    @property
    def feet(self) -> np.ndarray:
        return self.path[-1]

    @property
    def truncated(self) -> np.ndarray:
        return self.exited & (self.exit_face < 0)

    @property
    def trace_times(self) -> np.ndarray:
        """Knot times of every trace, shaped like ``times``; a new array on every read."""
        return np.fmax(self.times, self.exit_time)

    @cached_property
    def _widths_and_live(self) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray, np.ndarray]]:
        ts = self.trace_times
        mask = np.ones(ts.shape, dtype=bool)
        np.not_equal(ts[1:], ts[:-1], out=mask[1:])
        # path[mask], gathered as rows of the flat path: the same points, faster
        xk = np.compress(mask.ravel(), self.path.reshape(-1, self.path.shape[-1]), axis=0)
        live = mask, ts[mask], xk
        # the widths overwrite the times: forward in place, with no second buffer
        return np.subtract(ts[:-1], ts[1:], out=ts[:-1]), live

    @property
    def widths(self) -> np.ndarray:
        """Knot widths ``trace_times[:-1] - trace_times[1:]``, one row fewer than ``times``."""
        return self._widths_and_live[0]

    @property
    def live(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live knots: their mask over ``times``, their trace times and their points.

        The first knot is live; one that repeats the knot before it (width 0) is not.
        """
        return self._widths_and_live[1]


def _outside(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Rows of ``x`` that lie outside the box ``[lower, upper]``."""
    return ((x < lower) | (x > upper)).any(axis=1)


def _refine_exit(v, bracket: np.ndarray, start: np.ndarray, s_hi: np.ndarray, x_hi: np.ndarray,
                 s_lo: np.ndarray, lower: np.ndarray, upper: np.ndarray, m: int):
    """Bisect the time in ``(s_lo, s_hi]`` at which each trace leaves the box.

    Every trace has its own bracket, the substep in which it left: it is
    at ``x_hi`` at ``s_hi`` and outside at ``s_lo``.  Traces with one
    ``bracket`` id (knot column and substep) stop halving together, once
    the widest is below ``1e-12 * max(|start|, 1e-6)``.  The face is the
    bound nearest the exit point: the lower bound of half-line axis ``i``
    is inflow face ``i`` (coordinate pinned to 0), any other -1.
    """
    lo, hi = s_lo.copy(), s_hi.copy()
    _, first, group = np.unique(bracket, return_index=True, return_inverse=True)
    tol = 1e-12 * np.maximum(np.abs(start[first]), 1e-6)
    todo = np.arange(len(lo))
    for _ in range(_BISECT_MAX):
        mid = 0.5 * (lo[todo] + hi[todo])
        out = _outside(rk4_step(v, s_hi[todo], x_hi[todo], mid - s_hi[todo]), lower, upper)
        lo[todo[out]] = mid[out]
        hi[todo[~out]] = mid[~out]
        widest = np.zeros(len(first))
        np.maximum.at(widest, group[todo], hi[todo] - lo[todo])
        todo = todo[(widest >= tol)[group[todo]]]
        if not todo.size:
            break
    T = 0.5 * (lo + hi)
    xT = rk4_step(v, s_hi, x_hi, T - s_hi)
    nearest = np.argmin(np.abs(np.concatenate([xT - lower, xT - upper], axis=1)), axis=1)
    face = np.where(nearest < m, nearest, -1)
    inflow = np.nonzero(face >= 0)[0]
    xT[inflow, face[inflow]] = 0.0
    return T, xT, face


def _constant_path(c: np.ndarray, path: np.ndarray, times: np.ndarray, n: np.ndarray,
                   lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Trace under the constant velocity ``c`` into ``path`` with the step loop's bits, no loop.

    Every RK4 step adds ``dt/6 (c + 2c + 2c + c)``, so one running sum of those
    increments along the knots gives every position, in the loop's order.  Returns
    the substep in which each trace left, from its first row outside the box, or
    its substep count if never; the caller overwrites the rows past an exit.
    """
    np.multiply(np.diff(times, axis=0)[..., None] / 6, _rk4_sum(c), out=path[1:])
    _running_sum(path)  # in place: path is the largest array of a trace
    if not np.all(np.isfinite(path)):
        raise ValueError("non-finite velocity along characteristic")
    rows, npts, d = path.shape
    out = _outside(path.reshape(-1, d), lower, upper).reshape(rows, npts)
    out &= np.arange(rows)[:, None] <= n  # rows past a trace's own substeps are padding
    out[0] = False  # the loop never tests a trace's start
    return np.where(out.any(axis=0), out.argmax(axis=0) - 1, n)


def trace_backward(v: VelocityField, t, pts: np.ndarray, substeps, domain: Domain,
                   t_floor: float = 0.0) -> TraceBatch:
    """Trace every point of ``pts`` backward from its time in ``t`` to ``t_floor``.

    ``t`` and ``substeps`` are scalars or one per point: trace p steps on
    ``np.linspace(t[p], t_floor, substeps[p] + 1)``, padded with its last
    knot to the longest.  A constant field is summed in one pass, any other
    stepped knot by knot; one :func:`_refine_exit` call locates all exits.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    npts, d = pts.shape
    start = np.broadcast_to(np.asarray(t, dtype=float), (npts,))
    if np.any(start < t_floor - 1e-15):
        raise ValueError("cannot trace to a floor above t")
    n = np.where(np.abs(start - t_floor) < 1e-15, 0,
                 np.maximum(1, np.broadcast_to(substeps, (npts,)).astype(int)))
    rows = int(n.max(initial=0)) + 1
    scalar = np.ndim(t) == np.ndim(substeps) == 0  # one knot column, nothing to group
    first, which = ((np.zeros(1, dtype=int), np.zeros(npts, dtype=int)) if scalar else
                    np.unique(start + 1j * n, return_index=True, return_inverse=True)[1:])
    knots = np.array([np.linspace(start[p], t_floor, n[p] + 1)[np.minimum(np.arange(rows), n[p])]
                      for p in first]).reshape(-1, rows).T  # padded with its last knot
    # take, unlike knots[:, which], lays the times out in C order, as every array they meet
    times = (np.take(knots, which, axis=1) if len(first) > 1
             else np.broadcast_to(knots, (rows, npts)))

    path = np.empty((rows, npts, d))
    path[0] = pts
    lower, upper = np.array(domain.bounds()).T.copy()
    if v.vec is not None:
        exit_step = _constant_path(v.vec, path, times, n, lower, upper)
    else:
        x = pts.copy()
        live = np.arange(npts)
        exit_step = n.copy()  # substep in which a trace leaves; its substep count if never
        ends = set(n[first].tolist())  # rows at which some column ends
        for j in range(rows - 1):
            if j in ends:
                live = live[n[live] > j]
            if not live.size:
                path[j + 1:] = x
                break
            # one column: its knots are scalars, which step faster than a time per trace
            s, s_next = ((knots[j, 0], knots[j + 1, 0]) if len(first) == 1
                         else (times[j, live], times[j + 1, live]))
            x_new = rk4_step(v, s, x[live], s_next - s)
            if not np.all(np.isfinite(x_new)):
                raise ValueError("non-finite velocity along characteristic")
            out = _outside(x_new, lower, upper)
            exit_step[live[out]] = j
            live = live[~out]
            x[live] = x_new[~out]
            path[j + 1] = x

    exited = exit_step < n
    exit_time, exit_face = np.full(npts, np.nan), np.full(npts, -1, dtype=int)
    exit_point = np.full((npts, d), np.nan)
    if exited.any():
        # each exited trace, where it was at the start of its exit substep
        e = np.nonzero(exited)[0]
        k = exit_step[e]
        exit_time[e], exit_point[e], exit_face[e] = _refine_exit(
            v, which[e] * rows + k, start[e], times[k, e], path[k, e], times[k + 1, e],
            lower, upper, domain.m)
        past = (np.arange(rows)[:, None] > exit_step) & exited
        path[past] = np.broadcast_to(exit_point, path.shape)[past]
    return TraceBatch(times, path, exited, exit_time, exit_point, exit_face)


def _running_sum(a: np.ndarray) -> np.ndarray:
    """``np.cumsum(a, axis=0)`` in place, with its bits.

    numpy accumulates along axis 0 one column at a time, which is slow on
    wide rows.  Adding row r - 1 into row r makes the same additions in the
    same order, a whole row at a time.  One column keeps ``np.cumsum``.
    """
    if a[:1].size <= 1:
        return np.cumsum(a, axis=0, out=a)
    rows = list(a)
    for prev, row in zip(rows, rows[1:]):
        np.add(row, prev, out=row)
    return a


def _increments(g: np.ndarray, dt: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Composite-trapezoid increments of ``g`` over the knot widths ``dt``, into ``out``."""
    inc = np.add(g[:-1], g[1:], out=out)
    inc *= 0.5
    inc *= dt
    return inc


def cumulative_trapezoid(g: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """Running composite-trapezoid integral of ``g`` back from its first knot.

    ``dt`` holds the knot widths ``ts[:-1] - ts[1:]`` of knot times ``ts``
    that have the shape of ``g`` and descend along axis 0, one column per
    trace for 2-D ``g``.  The result has the shape of ``g`` with 0 in its
    first row.
    """
    c = np.empty(g.shape)
    c[0] = 0.0
    _running_sum(_increments(g, dt, out=c[1:]))
    return c


def trapezoid_total(g: np.ndarray, dt: np.ndarray) -> np.ndarray:
    """The last row of :func:`cumulative_trapezoid`: numpy sums along axis 0 in the same
    order, row by row, when there are several columns; one column it sums pairwise."""
    if g.ndim == 1 or g.shape[1] == 1:
        return cumulative_trapezoid(g, dt)[-1]
    return np.sum(_increments(g, dt), axis=0)


def trapezoid_weights(ts) -> np.ndarray:
    """Composite-trapezoid quadrature weights on the ascending knots ``ts``."""
    w = np.zeros(len(ts))
    if len(ts) > 1:
        dt = np.diff(ts)
        w[:-1] += 0.5 * dt
        w[1:] += 0.5 * dt
    return w
