"""Truncated computational domains, tensor grids and L1/Linf machinery.

The state space is a product of ``m`` half-lines (each truncated to
``[0, L]``, with the genuine inflow boundary at coordinate 0) and ``n``
full lines (truncated to ``[-L, L]``).  Axes are ordered half-line axes
first.  Truncation faces are artificial: a characteristic that crosses
one carries the value 0 from the crossing on, with no source or growth
picked up outside the box, so runs must keep the interesting mass away
from them.

Grids are uniform and cell-centered; quadrature is the midpoint rule,
i.e. every node carries the weight ``prod(dx)``.  That is second order
on smooth integrands and first order on indicators, which matches the
L1 setting where data may be discontinuous.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np


class CorruptStateError(RuntimeError):
    """Raised when a grid function contains non-finite values."""


class BlowupError(RuntimeError):
    """Raised when coefficients or solution values become non-finite."""


@dataclass(frozen=True)
class Domain:
    """Truncated box ``prod_i [0, half[i]] x prod_j [-full[j], full[j]]``.

    A full-line axis may instead be truncated to an explicit interval
    via ``full_bounds`` (e.g. to pad a one-sided support); the inflow
    boundary semantics of the half-line axes are unaffected.
    """

    half_lengths: tuple[float, ...] = ()
    full_lengths: tuple[float, ...] = ()
    full_bounds: tuple[tuple[float, float], ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "half_lengths", tuple(float(L) for L in self.half_lengths))
        if self.full_bounds is not None:
            fb = tuple((float(lo), float(hi)) for lo, hi in self.full_bounds)
            object.__setattr__(self, "full_bounds", fb)
            object.__setattr__(self, "full_lengths",
                               tuple(max(abs(lo), abs(hi)) for lo, hi in fb))
        else:
            object.__setattr__(self, "full_lengths", tuple(float(L) for L in self.full_lengths))
        if self.m + self.n < 1:
            raise ValueError("domain needs at least one axis")
        if any(L <= 0 for L in self.half_lengths):
            raise ValueError("truncation lengths must be positive")
        if any(hi <= lo for lo, hi in self.bounds()):
            raise ValueError("empty axis interval")

    @property
    def m(self) -> int:
        return len(self.half_lengths)

    @property
    def n(self) -> int:
        return len(self.full_lengths)

    @property
    def dim(self) -> int:
        return self.m + self.n

    def bounds(self) -> list[tuple[float, float]]:
        """Per-axis (lo, hi) of the truncated box."""
        half = [(0.0, L) for L in self.half_lengths]
        if self.full_bounds is not None:
            full = list(self.full_bounds)
        else:
            full = [(-L, L) for L in self.full_lengths]
        return half + full

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """Boolean mask of points inside the truncated box (closed)."""
        pts = np.atleast_2d(pts)
        ok = np.ones(pts.shape[0], dtype=bool)
        for ax, (lo, hi) in enumerate(self.bounds()):
            ok &= (pts[:, ax] >= lo) & (pts[:, ax] <= hi)
        return ok


class Stencil(NamedTuple):
    """Multilinear interpolation weights of some points on a grid.

    ``flat[c]`` and ``weight[c]`` are the node index and weight of corner
    c of every point's cell; ``inside`` marks the points in the box.
    """

    flat: np.ndarray
    weight: np.ndarray
    inside: np.ndarray


@dataclass(frozen=True)
class Grid:
    """Cell-centered uniform tensor grid on a :class:`Domain`.

    ``shape[i]`` is the number of cells along axis ``i``; node
    coordinates are the cell midpoints, strictly inside the box.
    """

    domain: Domain
    shape: tuple[int, ...]
    axes: tuple[np.ndarray, ...] = field(init=False, repr=False)
    dx: tuple[float, ...] = field(init=False)
    points: np.ndarray = field(init=False, repr=False)
    n_nodes: int = field(init=False)
    cell_volume: float = field(init=False)

    def __post_init__(self):
        shape = tuple(int(s) for s in self.shape)
        object.__setattr__(self, "shape", shape)
        if len(shape) != self.domain.dim:
            raise ValueError("grid shape must match domain dimension")
        if any(s < 1 for s in shape):
            raise ValueError("need at least one cell per axis")
        axes, dx = [], []
        for (lo, hi), s in zip(self.domain.bounds(), shape):
            h = (hi - lo) / s
            axes.append(lo + h * (np.arange(s) + 0.5))
            dx.append(h)
        mesh = np.meshgrid(*axes, indexing="ij")
        pts = np.stack([m.ravel() for m in mesh], axis=-1)
        object.__setattr__(self, "axes", tuple(axes))
        object.__setattr__(self, "dx", tuple(dx))
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "n_nodes", pts.shape[0])
        object.__setattr__(self, "cell_volume", float(np.prod(dx)))

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def min_dx(self) -> float:
        return min(self.dx)

    def stencil(self, pts: np.ndarray) -> Stencil:
        """Corner nodes and weights of multilinear interpolation at ``pts``.

        Inside the box the coordinates are clamped to the node hull, which
        extends the outermost cells as constants over the half-cell margin.
        """
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d = self.dim
        idx0 = []
        frac = []
        for ax in range(d):
            centers = self.axes[ax]
            nc = len(centers)
            if nc == 1:
                idx0.append(np.zeros(pts.shape[0], dtype=int))
                frac.append(np.zeros(pts.shape[0]))
                continue
            u = (pts[:, ax] - centers[0]) / self.dx[ax]
            u = np.clip(u, 0.0, nc - 1.0)
            i0 = np.minimum(u.astype(int), nc - 2)
            idx0.append(i0)
            frac.append(u - i0)

        strides = np.array([int(np.prod(self.shape[ax + 1:], dtype=np.int64)) for ax in range(d)])
        corners = list(itertools.product((0, 1), repeat=d))
        flat = np.zeros((len(corners), pts.shape[0]), dtype=np.int64)
        weight = np.ones((len(corners), pts.shape[0]))
        for n, corner in enumerate(corners):
            for ax, c in enumerate(corner):
                weight[n] = weight[n] * (frac[ax] if c else 1.0 - frac[ax])
                flat[n] = flat[n] + (idx0[ax] + c) * strides[ax]
        return Stencil(flat, weight, self.domain.contains(pts))

    def face_grid(self, axis: int) -> "FaceGrid":
        """Quadrature lattice on the inflow face ``x[axis] = 0``."""
        if axis >= self.domain.m:
            raise ValueError("only half-line axes carry an inflow face")
        return FaceGrid(self, axis)


class FaceGrid:
    """Quadrature nodes and weight on an inflow face of the box.

    The face of a d-dimensional box is (d-1)-dimensional; for a pure
    age axis (d=1) it degenerates to the single point 0 with measure 1.
    Face points are returned as full d-dimensional coordinates with the
    face coordinate pinned to 0, which is what every boundary callback
    expects.  The nodes are those of the grid over the non-face axes.
    """

    def __init__(self, grid: Grid, axis: int):
        dom = grid.domain
        keep = [i for i in range(grid.dim) if i != axis]
        if keep:
            bounds = dom.bounds()
            sub = Domain(half_lengths=[dom.half_lengths[i] for i in keep if i < dom.m],
                         full_bounds=[bounds[i] for i in keep if i >= dom.m])
            lattice = Grid(sub, [grid.shape[i] for i in keep])
            self.points = np.insert(lattice.points, axis, 0.0, axis=1)
            self.weight = lattice.cell_volume
        else:
            self.points = np.zeros((1, grid.dim))
            self.weight = 1.0

    @property
    def measure(self) -> float:
        return self.weight * self.points.shape[0]


@dataclass(frozen=True)
class GridFn:
    """Vector-valued grid function: one R^k value per node."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim == 1:
            v = v[:, None]
        if v.shape[0] != self.grid.n_nodes:
            raise ValueError("value count does not match grid")
        object.__setattr__(self, "values", v)

    @property
    def k(self) -> int:
        return self.values.shape[1]

    def __add__(self, other: "GridFn") -> "GridFn":
        return GridFn(self.grid, self.values + other.values)

    def __sub__(self, other: "GridFn") -> "GridFn":
        return GridFn(self.grid, self.values - other.values)

    def __mul__(self, c: float) -> "GridFn":
        return GridFn(self.grid, self.values * c)

    __rmul__ = __mul__

    @staticmethod
    def zeros(grid: Grid, k: int = 1) -> "GridFn":
        return GridFn(grid, np.zeros((grid.n_nodes, k)))

    @staticmethod
    def from_callback(grid: Grid, fn: Callable[[np.ndarray], np.ndarray], k: int = 1) -> "GridFn":
        """Sample ``fn(points) -> (N,) or (N, k)`` at the grid nodes."""
        vals = np.asarray(fn(grid.points), dtype=float)
        if vals.ndim == 1:
            vals = vals[:, None]
        if vals.shape != (grid.n_nodes, k):
            raise ValueError(f"callback returned shape {vals.shape}, expected ({grid.n_nodes}, {k})")
        return GridFn(grid, vals)


def _ensure_finite(a: np.ndarray) -> None:
    if not np.all(np.isfinite(a)):
        raise CorruptStateError("corrupt state: non-finite value in grid function")


def l1_norm(f: GridFn) -> float:
    """Discrete L1(X; R^k) norm: sum over components and nodes of |f| dx."""
    _ensure_finite(f.values)
    return float(np.sum(np.abs(f.values)) * f.grid.cell_volume)


def linf_norm(f: GridFn) -> float:
    """Discrete system sup norm: max over nodes of sum_h |f^h|."""
    _ensure_finite(f.values)
    return float(np.max(np.sum(np.abs(f.values), axis=1)))


def interp_gather(stencil: Stencil, values: np.ndarray, lam=None, rows=None) -> np.ndarray:
    """Node values interpolated with a :meth:`Grid.stencil`; 0 outside the box.

    ``values`` is (N,) or (N, k); the result matches.  Given ``lam``, ``values`` is the
    ``(K + 1, N, k)`` knot states read at rows ``j·N + n`` of each point's knot interval j,
    and corner c weighs ``values[:-1]`` by ``w_c·(1 - lam)`` and ``values[1:]`` by ``w_c·lam``
    (one knot: ``values`` twice), the time blend folded into the weights.  The sum runs
    component-major, ``(k, P)``, so every multiply spans all P points, each row on its own:
    given ``rows``, only those components are gathered, bit for bit, and the others are NaN.
    """
    vals = np.asarray(values, dtype=float)
    K = max(len(vals) - 1, 1)
    sides = [(vals.reshape(len(vals), -1), None)] if lam is None else \
        [(v.reshape(-1, v.shape[2]), f) for v, f in ((vals[:K], 1.0 - lam), (vals[-K:], lam))]
    k = sides[0][0].shape[1]
    rows = list(range(k) if rows is None else rows)
    sides = [(v.T[rows], f) for v, f in sides]  # a C-contiguous copy of the read rows
    out = np.zeros((len(rows), len(stencil.inside)))
    corner = np.empty_like(out)  # one buffer for every corner: large fresh arrays page-fault
    folded = np.empty(out.shape[1])
    for flat, w in zip(stencil.flat, stencil.weight):
        for v, f in sides:
            np.take(v, flat, axis=1, out=corner, mode="clip")  # "raise" would buffer ``out``
            corner *= w if f is None else np.multiply(w, f, out=folded)
            out += corner
    out[:, ~stencil.inside] = 0.0
    if rows != list(range(k)):  # the buffers go before the padded result is made
        del corner, sides
        read, out = out, np.full((k, out.shape[1]), np.nan)
        out[rows] = read
    return out[0] if vals.ndim == 1 else out.T


def interp_values(grid: Grid, values: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Multilinear interpolation of node values at arbitrary points.

    Points outside the truncated box return 0 (truncation carries no
    data in).  ``values`` is (N,) or (N, k); the result matches.
    """
    return interp_gather(grid.stencil(pts), values)


def truncation_mass_report(f: GridFn, cells: int = 5) -> dict[str, float]:
    """Fraction of |f| mass within a few cells of each truncation face.

    Large values mean the box is too small for the run: characteristics
    crossing an artificial face silently carry value 0 back in, so mass
    parked next to one is about to be lost.  Inflow faces (coordinate 0
    of half-line axes) are genuine boundaries and are not reported.
    """
    grid = f.grid
    total = float(np.sum(np.abs(f.values))) + 1e-300
    report = {}
    bounds = grid.domain.bounds()
    for ax in range(grid.dim):
        lo, hi = bounds[ax]
        margin = cells * grid.dx[ax]
        x = grid.points[:, ax]
        near_hi = x >= hi - margin
        report[f"axis{ax}-upper"] = float(np.sum(np.abs(f.values[near_hi]))) / total
        if ax >= grid.domain.m:
            near_lo = x <= lo + margin
            report[f"axis{ax}-lower"] = float(np.sum(np.abs(f.values[near_lo]))) / total
    return report
