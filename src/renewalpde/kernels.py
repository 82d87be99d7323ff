"""Nonlocal kernels: quadrature-backed evaluation of ``int K(x,x') w(x') dx'``.

Every coefficient map in kernel form reads the unknown through such an
integral.  Kernels do not depend on time; a coefficient that changes
in time does so through its outer map ``P``/``Q``/``Ub``, which gets
``t``.  Two concrete layouts cover all shipped models:

* :class:`WeightedMassKernel` - ``K(x, x') = g(x') e_c``: the integral
  is a weighted mass of one component and does not depend on the
  evaluation point.  This is the fast path (O(N) per state).
* :class:`ScalarComponentKernel` - ``K(x, x') = g(x, x') e_c``: a dense
  (P x N) kernel matrix times the states, built blockwise.

Both expose one ``integrate``, keyword-only, that freezes every knot of
a trajectory ``f`` in one call and returns ``(n_knots, P)``: the
integral is linear in the state, so it is one reduction (mass) or one
product with the ``(N, n_knots)`` matrix of knot states (dense).  The
sup bounds that the quantitative estimates use are declared in the
system's ``HypothesisConstants``, not on the kernels.  Each kernel
keeps what depends only on the last grid it integrated on: the node
weights, or the dense matrix at the grid's own nodes while it fits
``_MATRIX_BUDGET``.  So a solve and the audits after it build it once
per grid.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

_CHUNK = 512  # rows per dense (chunk x N) kernel block
_MATRIX_BUDGET = 256 * 2**20  # bytes of the node matrix a dense kernel may keep


class WeightedMassKernel:
    """Kernel ``g(x')`` applied to a single component; x-independent integral."""

    x_independent = True

    def __init__(self, weight: Callable[[np.ndarray], np.ndarray] | float, comp: int = 0):
        self.weight = weight
        self.comp = comp
        self._weights_grid = None

    def _node_weights(self, grid) -> np.ndarray:
        """The weight on the grid's nodes, kept until the kernel is used on another grid."""
        if self._weights_grid is not grid:
            self._weights = (np.full(grid.n_nodes, float(self.weight)) if np.isscalar(self.weight)
                             else np.asarray(self.weight(grid.points), dtype=float))
            self._weights_grid = grid
        return self._weights

    def integrate(self, *, f) -> np.ndarray:
        """The weighted mass of each knot state of the trajectory ``f``, shape (n_knots, 1):
        one value serves every evaluation point."""
        w = self._node_weights(f.grid)
        return np.sum(w * f.values[:, :, self.comp], axis=1, keepdims=True) * f.grid.cell_volume


class ScalarComponentKernel:
    """Scalar kernel ``g(x, x')`` applied to one component of w.

    ``fn(x, xp)`` must broadcast: it is called with x of shape (P, 1, d)
    and x' of shape (1, N, d) and must return (P, N).
    """

    x_independent = False

    def __init__(self, fn: Callable, comp: int = 0):
        self.fn = fn
        self.comp = comp
        self._matrix_grid = None

    def matrix(self, pts: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """``g(x_p, x'_n)`` for every pair, shape (P, N), built ``_CHUNK`` rows at a time."""
        G = np.empty((pts.shape[0], nodes.shape[0]))
        for lo in range(0, pts.shape[0], _CHUNK):
            G[lo:lo + _CHUNK] = self.fn(pts[lo:lo + _CHUNK, None, :], nodes[None, :, :])
        return G

    def _node_matrix(self, grid) -> np.ndarray | None:
        """The matrix on the grid's nodes, kept per grid; None when it exceeds the budget."""
        if self._matrix_grid is not grid:
            fits = grid.n_nodes ** 2 * 8 <= _MATRIX_BUDGET
            self._matrix = self.matrix(grid.points, grid.points) if fits else None
            self._matrix_grid = grid
        return self._matrix

    def integrate(self, *, pts: np.ndarray, f) -> np.ndarray:
        """The integral at ``pts`` of every knot state of the trajectory ``f``, shape
        (n_knots, P), in blocks of ``_CHUNK`` rows read from the node matrix when
        ``pts is f.grid.points`` and rebuilt otherwise: the same blocks either way."""
        G = self._node_matrix(f.grid) if pts is f.grid.points else None
        pts = np.atleast_2d(pts)
        W = (f.values[:, :, self.comp] * f.grid.cell_volume).T
        out = np.empty((W.shape[1], pts.shape[0]))
        for lo in range(0, pts.shape[0], _CHUNK):
            block = self.matrix(pts[lo:lo + _CHUNK], f.grid.points) if G is None \
                else G[lo:lo + _CHUNK]
            out[:, lo:lo + _CHUNK] = (block @ W).T
        return out


Kernel = WeightedMassKernel | ScalarComponentKernel

