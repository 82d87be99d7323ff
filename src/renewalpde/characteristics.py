"""Backward characteristic tracing and exit times.

A characteristic through ``(t, x)`` solves ``dX/ds = v(s, X)`` with
``X(t) = x``.  Every trace runs down to ``s = 0``: a clock that starts
at t0 traces from ``t - t0`` under :meth:`VelocityField.shifted`.
Tracing backward either reaches 0 at an interior foot point, or leaves
the box at the exit time ``T(t, x)``: through an inflow face ``x_i = 0``
of a half-line axis, where it picks up the boundary datum, or through a
truncation face, where it carries 0.  A call traces one point set from
one or more start times, each with its own substep count: the points
from one start form a knot column, the unit of storage: its knots and
its positions in one unpadded ``(n + 1, P, d)`` array.  One RK4 loop
steps the live traces of every column; a trace that lands outside
stops, and after the last substep one batched bisection refines every
exit of the call, each within its own substep.  Every reader takes the
traces column by column, on the column's own rows.  A trace's knots
are clamped from below at its exit time, so an exit ends the trace's
integrals.  A constant field needs no steps: each RK4 step adds the
same multiple of its vector, so one running sum along a column's knots
gives every position with the step loop's bits.  Up to the foot or the
exit the trace picks up the growth factor ``exp(int (p - div v) ds)``
and a source integral, both by composite trapezoid on its knot widths
(``TraceBatch.trapezoids``).  Running sums along the knots, of
trapezoids and of constant-field steps, make ``np.cumsum``'s additions
in its order, and so have its bits: on wide rows they add row r - 1
into row r, a whole row at a time where numpy goes one trace at a time.

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

    def shifted(self, t0: float) -> "VelocityField":
        """The field read at ``t0 + t``: itself when constant or for t0 = 0."""
        if self.vec is not None or t0 == 0:
            return self
        return VelocityField(lambda t, x: self(t0 + t, x), lambda t, x: self.div(t0 + t, x),
                             self.sup)

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


@dataclass(frozen=True, eq=False)
class TraceBatch:
    """Characteristics of one point set traced at once, in knot columns, one per start.

    The knot column is the only layout.  Column c holds the P points traced
    from the c-th start time in n_c substeps, traces ``c·P : (c+1)·P`` of the
    batch (``members[c]``), in the order of the points.
    ``knots[:n_c + 1, c]`` are their knot times, from the start down to
    0 (the small table pads each column with its last knot up to the
    longest), and ``paths[c]`` their positions there, an unpadded
    ``(n_c + 1, P, d)`` array.  A trace's positions past its exit repeat
    the exit point, and ``feet[p]`` is trace p's last position.  ``exited``
    marks traces that left the box through any face.  ``exit_face`` is the
    axis of an inflow face, or -1 for a truncation face, which ``truncated``
    also marks; the datum there is 0.  Traces that did not exit end at a
    foot.

    Column c's traces are at ``paths[c][j]`` at ``trace_times(c)[j]``: the
    knots clamped from below at each trace's exit time, so knots past an
    exit repeat the exit point over zero-width intervals.  ``widths`` and
    ``live`` hold those intervals and the knots the integrals read in one
    flat order: the columns one after another (``spans``), each row by row.
    They and ``trapezoids`` read that order as one ``(rows, P)`` block.  A
    batch is not changed once built; its derived arrays are computed once.
    """

    knots: np.ndarray
    paths: tuple[np.ndarray, ...]
    exited: np.ndarray
    exit_time: np.ndarray
    exit_point: np.ndarray
    exit_face: np.ndarray
    feet: np.ndarray

    @cached_property
    def members(self) -> list[slice]:
        """The traces of each knot column: ``c·P : (c+1)·P``."""
        P = self.paths[0].shape[1] if self.paths else 0
        return [slice(c * P, (c + 1) * P) for c in range(len(self.paths))]

    def split(self) -> list["TraceBatch"]:
        """One batch per knot column, in column order; each shares its column's arrays."""
        return [TraceBatch(self.knots[:len(p), c:c + 1], (p,), self.exited[m], self.exit_time[m],
                           self.exit_point[m], self.exit_face[m], self.feet[m])
                for c, (p, m) in enumerate(zip(self.paths, self.members))]

    @property
    def truncated(self) -> np.ndarray:
        return self.exited & (self.exit_face < 0)

    def trace_times(self, c: int, out: np.ndarray | None = None) -> np.ndarray:
        """Knot times of column c's traces, ``(n_c + 1, P)``, into ``out`` or a new array."""
        return np.fmax(self.knots[:len(self.paths[c]), c, None], self.exit_time[self.members[c]],
                       out=out)

    @cached_property
    def spans(self) -> list[slice]:
        """Where each column's knots lie in the flat knot order of :attr:`live`: column
        after column, the ``(n_c + 1) P`` knots of each row by row."""
        ends = np.cumsum([p.shape[0] * p.shape[1] for p in self.paths], dtype=int).tolist()
        return [slice(lo, hi) for lo, hi in zip([0] + ends, ends)]

    @cached_property
    def _widths_and_live(self):
        P = self.paths[0].shape[1] if self.paths else 0
        n = np.array([len(p) for p in self.paths], dtype=int)  # each column's rows
        first = np.cumsum(n) - n  # each column's first row in the block
        ts = np.empty((int(n.sum()), P))
        for c, (r, k) in enumerate(zip(first.tolist(), n.tolist())):
            self.trace_times(c, out=ts[r:r + k])
        mask = np.empty(ts.shape, dtype=bool)
        np.not_equal(ts[1:], ts[:-1], out=mask[1:])
        mask[first] = (n > 1)[:, None]  # a column's first knot starts its first interval
        tk = ts[mask]
        # the widths overwrite the times: forward in place, with no second buffer
        np.subtract(ts[:-1], ts[1:], out=ts[:-1])
        ts[first + n - 1] = 0.0  # a column's last knot ends no interval
        xk, hi = np.empty((len(tk), self.exit_point.shape[1])), 0
        for path, r, k in zip(self.paths, first.tolist(), n.tolist()):
            live = np.flatnonzero(mask[r:r + k])
            lo, hi = hi, hi + len(live)
            # path[live], taken as rows of the flat path: the same points, faster; "clip"
            # (no index is out of range) writes straight into xk, where "raise" buffers
            np.take(path.reshape(-1, xk.shape[1]), live, axis=0, out=xk[lo:hi], mode="clip")
        return ts.reshape(-1), (mask.reshape(-1), tk, xk)

    @property
    def widths(self) -> np.ndarray:
        """Knot widths in the flat knot order of :attr:`live`: ``trace_times(c)[:-1] -
        trace_times(c)[1:]`` on column c's rows but its last, which holds 0."""
        return self._widths_and_live[0]

    @property
    def live(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The live knots: their mask over the knots of every column (column c's is
        ``mask[spans[c]]``, row by row), then their trace times and their points.

        A live knot ends an interval of nonzero width or starts the first one: a
        knot that repeats the knot before it (width 0) is not live, nor is the only
        knot of a column with no substeps.
        """
        return self._widths_and_live[1]

    def trapezoids(self, g: np.ndarray, q: np.ndarray | None = None):
        """Growth factor ``exp(int g)`` of every trace and, given ``q``, its source
        integral ``int q exp(int g)`` (inner integral from the trace's start), by
        composite trapezoid on its own knots.  ``g`` and ``q`` hold a value at every
        knot in the flat order of :attr:`live`, 0 where not live; ``q`` is overwritten.

        The columns, each P wide, are read as one ``(rows, P)`` array, each on its
        own rows: every step spans them all, and the knot pairs across two columns
        have width 0 and are not read.  Sums add a column's rows in order, with
        ``np.cumsum``'s bits, so the growth, the exponent's total with or without
        ``q``, is also where the running exponent of the source ends."""
        P = self.paths[0].shape[1] if self.paths else 0
        if not P:  # no traces: nothing to integrate
            return np.empty(0), (None if q is None else np.empty(0))
        dt, G = self.widths.reshape(-1, P)[:-1], g.reshape(-1, P)
        rows = [(at.start // P, len(p) - 1, m)
                for at, p, m in zip(self.spans, self.paths, self.members)]
        E, growth = np.empty(G.shape), np.empty(len(self.exited))
        _increments(G, dt, out=E[1:])
        for r, n, m in rows:
            growth[m] = _row_total(E[r + 1:r + n + 1])
        np.exp(growth, out=growth)
        if q is None:
            return growth, None
        for r, n, _ in rows:
            E[r] = 0.0
            _running_sum(E[r + 1:r + n + 1])
        np.exp(E, out=E)
        Q = q.reshape(-1, P)
        Q *= E
        inc, source = _increments(Q, dt), np.empty(len(self.exited))
        for r, n, m in rows:
            source[m] = _row_total(inc[r:r + n])
        return growth, source


def _outside(x: np.ndarray, lower: np.ndarray, upper: np.ndarray) -> np.ndarray:
    """Rows of ``x`` that lie outside the box ``[lower, upper]``."""
    return ((x < lower) | (x > upper)).any(axis=1)


def _refine_exit(v, bracket: np.ndarray, start: np.ndarray, s_hi: np.ndarray, x_hi: np.ndarray,
                 s_lo: np.ndarray, lower: np.ndarray, upper: np.ndarray, m: int):
    """Bisect the time in ``(s_lo, s_hi]`` at which each trace leaves the box.

    Every trace has its own bracket, the substep in which it left: it is
    at ``x_hi`` at ``s_hi`` and outside at ``s_lo``.  Traces with one
    ``bracket`` id (knot column and substep) stop halving together, once
    the widest is below ``1e-12 * max(|start|, 1e-6)``, relative to the span
    down to 0.  The face is the bound nearest the exit point: the lower bound
    of half-line axis ``i`` is inflow face ``i`` (coordinate pinned to 0), any other -1.
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


def _constant_path(steps: np.ndarray, path: np.ndarray, lower: np.ndarray,
                   upper: np.ndarray) -> np.ndarray:
    """Trace one knot column under a constant velocity into ``path`` with the step loop's
    bits, no loop.

    ``steps[r]`` is the column's RK4 step r, ``dt/6 (c + 2c + 2c + c)`` for the
    vector c, so one running sum of the steps along the knots gives every position,
    in the loop's order.  Returns the substep in which each trace left, from its
    first row outside the box, or n if never; the caller overwrites the rows past
    an exit.
    """
    path[1:] = steps
    _running_sum(path)  # in place: path is the largest array of a trace
    if not np.all(np.isfinite(path)):
        raise ValueError("non-finite velocity along characteristic")
    rows, npts, d = path.shape
    out = _outside(path.reshape(-1, d), lower, upper).reshape(rows, npts)
    out[0] = False  # the loop never tests a trace's start
    first = out.argmax(axis=0)  # 0 for a trace that never left
    return np.where(first > 0, first - 1, rows - 1)


def trace_backward(v: VelocityField, t, pts: np.ndarray, substeps, domain: Domain) -> TraceBatch:
    """Trace every point of ``pts`` backward from each time in ``t`` to 0.

    ``t`` and ``substeps`` are scalars or one per knot column: column c steps
    every point on ``np.linspace(t[c], 0, substeps[c] + 1)``, and holds
    traces ``c·P : (c+1)·P`` of the batch, P the number of points.  A constant
    field is summed along each column in place; any other is stepped knot by
    knot, every live trace of every column in one RK4 loop.  One
    :func:`_refine_exit` call locates all exits.
    """
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    P, d = pts.shape
    start, n = np.broadcast_arrays(np.atleast_1d(np.asarray(t, dtype=float)),
                                   np.atleast_1d(substeps))
    if np.any(start < -1e-15):
        raise ValueError("cannot trace back from a negative time")
    n = np.where(np.abs(start) < 1e-15, 0, np.maximum(1, n.astype(int)))
    C, rows = len(n), int(n.max(initial=0)) + 1
    knots = np.array([np.linspace(s, 0.0, k + 1)[np.minimum(np.arange(rows), k)]
                      for s, k in zip(start, n)]).reshape(-1, rows).T  # padded with its last knot
    column = np.arange(C * P) // P

    lower, upper = np.array(domain.bounds()).T.copy()
    paths = tuple(np.empty((k + 1, P, d)) for k in n)
    for path in paths:
        path[0] = pts
    exit_step = n[column]  # substep in which a trace leaves; its substep count if never
    x_hi = np.empty((C * P, d))  # where each exited trace was at the start of that substep
    if v.vec is not None:
        # every RK4 step of every knot column, (rows - 1, columns, 1, d)
        rk4 = (np.diff(knots, axis=0) / 6)[..., None, None] * _rk4_sum(v.vec)
        for c, path in enumerate(paths):
            m = slice(c * P, (c + 1) * P)
            exit_step[m] = k = _constant_path(rk4[:len(path) - 1, c], path, lower, upper)
            x_hi[m] = path[k, np.arange(P)]
    else:
        # x holds every trace, column by column, the live ones compacted in x_live
        x = np.array(np.broadcast_to(pts, (C, P, d))).reshape(-1, d)
        x_live = x.copy()
        live, at = np.arange(C * P), column
        running = list(enumerate(paths))
        ends = set(n.tolist())  # rows at which some column ends
        for j in range(rows - 1):
            if j in ends:
                keep = n[at] > j
                live, at, x_live = live[keep], at[keep], x_live[keep]
                running = [(c, path) for c, path in running if n[c] > j]
            if not live.size:
                break  # the rows left lie past the exit of every trace that has them
            # one column: its knots are scalars, which step faster than a time per trace
            s, s_next = ((knots[j, 0], knots[j + 1, 0]) if C == 1
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
            for c, path in running:
                path[j + 1] = x[c * P:(c + 1) * P]

    exited = exit_step < n[column]
    exit_time, exit_face = np.full(C * P, np.nan), np.full(C * P, -1, dtype=int)
    exit_point = np.full((C * P, d), np.nan)
    if exited.any():
        e = np.nonzero(exited)[0]
        k, c = exit_step[e], column[e]
        exit_time[e], exit_point[e], exit_face[e] = _refine_exit(
            v, c * rows + k, start[c], knots[k, c], x_hi[e], knots[k + 1, c],
            lower, upper, domain.m)
    feet = np.empty((C * P, d))
    for c, path in enumerate(paths):
        m = slice(c * P, (c + 1) * P)
        if exited[m].any():  # past its exit substep, a trace holds its exit point
            past = (np.arange(len(path))[:, None] > exit_step[m]) & exited[m]
            path[past] = np.broadcast_to(exit_point[m], path.shape)[past]
        feet[m] = path[-1]
    return TraceBatch(knots, paths, exited, exit_time, exit_point, exit_face, feet)


def _running_sum(a: np.ndarray) -> np.ndarray:
    """``np.cumsum(a, axis=0)`` in place, with its bits.

    numpy accumulates along axis 0 one column at a time, at a few ns per
    element; adding row r - 1 into row r makes the same additions in the
    same order, a row at a time, at about 1 us per row.  Timed at 5 to 65
    rows (``running_sum_crossover`` in BENCH_21.json), numpy's
    ``add.accumulate`` is faster on rows of up to 128 elements and the row
    loop on rows of 256 or more; between, the faster one changes from run
    to run, and 200 splits the band.
    """
    if a[:1].size < 200:
        return np.add.accumulate(a, axis=0, out=a)
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


def _row_total(a: np.ndarray) -> np.ndarray:
    """The rows of ``a`` summed in order; numpy sums one column pairwise, not in order."""
    if a.shape[1] > 1 or len(a) < 2:
        return np.add.reduce(a, axis=0)
    return np.add.accumulate(a, axis=0)[-1]


def trapezoid_weights(ts) -> np.ndarray:
    """Composite-trapezoid quadrature weights on the ascending knots ``ts``."""
    w = np.zeros(len(ts))
    if len(ts) > 1:
        dt = np.diff(ts)
        w[:-1] += 0.5 * dt
        w[1:] += 0.5 * dt
    return w
