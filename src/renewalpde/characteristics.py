"""Backward characteristic tracing and exit times.

A characteristic through ``(t, x)`` solves ``dX/ds = v(s, X)`` with
``X(t) = x``.  Tracing backward either reaches ``s = t_floor`` at an
interior foot point, or leaves the box at the exit time ``T(t, x)``:
through an inflow face ``x_i = 0`` of a half-line axis, where it picks
up the boundary datum, or through a truncation face, where it carries
0.  Each trace of a call has its own start time and knots; the traces
that share both form a knot column, the unit of storage: its knots and
its positions in one unpadded ``(n + 1, N, d)`` array.  One RK4 loop
steps the live traces of every column; a trace that lands outside
stops, and after the last substep one batched bisection refines every
exit of the call, each within its own substep.  A reader that takes
every trace at once gets the columns stacked, each padded with its
last knot.  A trace's knots are clamped from below at its exit time,
so an exit ends the trace's integrals.  A constant field needs no
steps: each RK4 step adds the same multiple of its vector, so one
running sum along the knots gives every position with the step loop's
bits.  Up to the foot or the exit the trace picks up
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
    """Characteristics traced at once, grouped in knot columns, one per (start, substeps).

    The knot column is the unit of storage.  Column c holds the traces that
    share a start time and a substep count n_c: ``knots[:n_c + 1, c]`` are
    their knot times, from the start down to the floor (the table pads each
    column with its last knot up to the longest), and ``paths[c]`` their
    positions there, an unpadded ``(n_c + 1, N_c, d)`` array whose axis 1
    takes the column's traces in ascending order.  ``column[p]`` is the
    column of trace p; columns are numbered in ascending order of start,
    then of substeps.  A trace's positions past its exit repeat the exit
    point.  ``exited`` marks traces that left the box through any face.
    ``exit_face`` is the axis of an inflow face, or -1 for a truncation
    face, which ``truncated`` also marks; the datum there is 0.  Traces
    that did not exit end at a foot.

    Readers that take every trace at once see the columns stacked:
    ``times[j, p]`` is knot j of trace p and ``path[j, p]`` its position,
    each column padded with its last knot and position.  A trace is at
    ``path[j, p]`` at ``trace_times[j, p]``: ``times[j, p]`` clamped from
    below at its exit time, so knots past an exit repeat the exit point over
    zero-width intervals.  A batch of one column is its own stack.  A batch
    is not changed once built: its derived knot arrays are computed once and
    shared by every reader.
    """

    knots: np.ndarray
    paths: tuple[np.ndarray, ...]
    column: np.ndarray
    exited: np.ndarray
    exit_time: np.ndarray
    exit_point: np.ndarray
    exit_face: np.ndarray

    @cached_property
    def _members(self) -> list:
        return _column_members(self.column, len(self.paths))

    def split(self) -> list["TraceBatch"]:
        """One batch per knot column, in column order; each shares its column's arrays."""
        return [TraceBatch(self.knots[:len(p), c:c + 1], (p,), np.zeros(len(p[0]), dtype=int),
                           self.exited[m], self.exit_time[m], self.exit_point[m],
                           self.exit_face[m])
                for c, (p, m) in enumerate(zip(self.paths, self._members))]

    @cached_property
    def times(self) -> np.ndarray:
        """Knot times of every trace, ``(rows, traces)``."""
        return _stack(self.knots, self.column)

    @property
    def path(self) -> np.ndarray:
        """Positions of every trace, shaped like ``times`` plus d; a new array on every read
        of a batch of several columns."""
        if len(self.paths) == 1:
            return self.paths[0]
        path = np.empty(self.knots.shape[:1] + self.exit_point.shape)
        for p, m in zip(self.paths, self._members):
            path[:len(p), m] = p
            path[len(p):, m] = p[-1]
        return path

    @property
    def feet(self) -> np.ndarray:
        if len(self.paths) == 1:
            return self.paths[0][-1]
        feet = np.empty(self.exit_point.shape)
        for p, m in zip(self.paths, self._members):
            feet[m] = p[-1]
        return feet

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
        path = self.path
        # path[mask], gathered as rows of the flat path: the same points, faster
        xk = np.compress(mask.ravel(), path.reshape(-1, path.shape[-1]), axis=0)
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


def _stack(knots: np.ndarray, column: np.ndarray) -> np.ndarray:
    """The knot table's column of every trace, ``(rows, traces)``."""
    if knots.shape[1] == 1:
        return np.broadcast_to(knots, (len(knots), len(column)))
    # take, unlike knots[:, column], lays the times out in C order, as every array they meet
    return np.take(knots, column, axis=1)


def _column_members(column: np.ndarray, n_columns: int) -> list:
    """The traces of each knot column, in ascending order: a slice where the columns
    come one after another, as stacked starts lay them out, else an index array."""
    bounds = np.cumsum(np.bincount(column, minlength=n_columns)).tolist()
    order = column if np.all(column[1:] >= column[:-1]) else np.argsort(column, kind="stable")
    return [slice(lo, hi) if order is column else order[lo:hi]
            for lo, hi in zip([0] + bounds, bounds)]


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
    ``np.linspace(t[p], t_floor, substeps[p] + 1)``, and traces that share both
    share a knot column.  A constant field is summed in one pass over the columns
    stacked; any other is stepped knot by knot, every live trace of every column
    in one RK4 loop.  One :func:`_refine_exit` call locates all exits.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    npts, d = pts.shape
    start = np.broadcast_to(np.asarray(t, dtype=float), (npts,))
    if np.any(start < t_floor - 1e-15):
        raise ValueError("cannot trace to a floor above t")
    n = np.where(np.abs(start - t_floor) < 1e-15, 0,
                 np.maximum(1, np.broadcast_to(substeps, (npts,)).astype(int)))
    scalar = np.ndim(t) == np.ndim(substeps) == 0  # one knot column, nothing to group
    first, column = ((np.zeros(1, dtype=int), np.zeros(npts, dtype=int)) if scalar else
                     np.unique(start + 1j * n, return_index=True, return_inverse=True)[1:])
    rows = int(n.max(initial=0)) + 1
    knots = np.array([np.linspace(start[p], t_floor, n[p] + 1)[np.minimum(np.arange(rows), n[p])]
                      for p in first]).reshape(-1, rows).T  # padded with its last knot
    steps = n[first]
    members = _column_members(column, len(first))

    lower, upper = np.array(domain.bounds()).T.copy()
    if v.vec is not None:
        # one running sum over the columns stacked; each column copies out its own rows
        # once the exits are held
        stacked, times = np.empty((rows, npts, d)), _stack(knots, column)
        stacked[0] = pts
        exit_step = _constant_path(v.vec, stacked, times, n, lower, upper)
        x_hi = stacked[exit_step, np.arange(npts)]  # where a trace was as its exit substep began
    else:
        stacked = None
        paths = tuple(np.empty((k + 1,) + pts[m].shape) for k, m in zip(steps, members))
        for path, m in zip(paths, members):
            path[0] = pts[m]
        exit_step = n.copy()  # substep in which a trace leaves; its substep count if never
        x_hi = np.empty((npts, d))  # where each exited trace was at the start of that substep
        # x holds every trace, the live ones compacted in x_live
        x, x_live = pts.copy(), pts.copy()
        live, at = np.arange(npts), column
        running = list(zip(steps, paths, members))
        ends = set(steps.tolist())  # rows at which some column ends
        for j in range(rows - 1):
            if j in ends:
                keep = n[live] > j
                live, at, x_live = live[keep], at[keep], x_live[keep]
                running = [r for r in running if r[0] > j]
            if not live.size:
                break  # the rows left lie past the exit of every trace that has them
            # one column: its knots are scalars, which step faster than a time per trace
            s, s_next = ((knots[j, 0], knots[j + 1, 0]) if len(first) == 1
                         else (np.take(knots[j], at), np.take(knots[j + 1], at)))
            x_new = rk4_step(v, s, x_live, s_next - s)
            if not np.all(np.isfinite(x_new)):
                raise ValueError("non-finite velocity along characteristic")
            out = _outside(x_new, lower, upper)
            if out.any():
                gone = live[out]
                exit_step[gone] = j
                x_hi[gone] = x_live[out]
                keep = ~out
                live, at, x_new = live[keep], at[keep], x_new[keep]
            x_live = x_new
            x[live] = x_live
            for _, path, m in running:
                path[j + 1] = x[m]

    exited = exit_step < n
    exit_time, exit_face = np.full(npts, np.nan), np.full(npts, -1, dtype=int)
    exit_point = np.full((npts, d), np.nan)
    if exited.any():
        e = np.nonzero(exited)[0]
        k, c = exit_step[e], column[e]
        exit_time[e], exit_point[e], exit_face[e] = _refine_exit(
            v, c * rows + k, start[e], knots[k, c], x_hi[e], knots[k + 1, c],
            lower, upper, domain.m)
    if stacked is None:
        for path, m in zip(paths, members):
            _hold_exits(path, exit_step[m], exited[m], exit_point[m])
    else:
        _hold_exits(stacked, exit_step, exited, exit_point)
        paths = (stacked,) if len(first) == 1 else tuple(stacked[:k + 1, m].copy()
                                                         for k, m in zip(steps, members))
    batch = TraceBatch(knots, paths, column, exited, exit_time, exit_point, exit_face)
    batch._members = members  # cached properties this call has computed already
    if stacked is not None:
        batch.times = times
    return batch


def _hold_exits(path: np.ndarray, exit_step: np.ndarray, exited: np.ndarray,
                exit_point: np.ndarray) -> None:
    """Overwrite the positions of each exited trace past its exit substep with its exit point."""
    if exited.any():
        past = (np.arange(len(path))[:, None] > exit_step) & exited
        path[past] = np.broadcast_to(exit_point, path.shape)[past]


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
