"""System definitions in kernel form, with declared constants.

A k-component system couples scalar transport equations through three
coefficient maps per component, each reading the full state only via a
bounded kernel integral:

    p^h(t, x, w)     = P^h(t, x, int Kp^h(x,x') w(x') dx')
    q^h(t, x, u, w)  = Q^h(t, x, u, int Kq^h(x,x') w(x') dx')
    ub^h(t, xi, w)   = Ub^h(t, xi, int Ku^h(xi,x') w(x') dx')

The kernels do not depend on time; a coefficient changes in time
through its outer map, which receives ``t``.

This is exactly the class whose growth and Lipschitz bounds drive every
quantitative estimate, so the declared constants live next to the
callbacks; ``analysis.check_hypotheses`` audits them on random probes
through the solver's frozen coefficients.  Constants cannot be derived
from black-box callbacks; declaring and auditing is the honest contract.

Outer maps are vectorized over points: ``P(t, pts, eta)`` with pts of
shape (P, d) and eta of shape (P, 1) returns (P,); Q additionally
receives the pointwise state u of shape (P, k).  The solver passes one
time per point, ``t`` of shape (P,), as it does to velocity callbacks.
An entry of ``Q`` or ``Ub`` may be None, a zero that costs no work;
readers test ``SystemDef.has_q``/``has_ub``, not the entries.

``q_reads[h]`` lists the columns of u that ``Q[h]`` reads (None: all k);
only those are interpolated, and the others are NaN.  Construction calls
each Q that reads fewer than k on a few points, NaN in the rest, and
refuses a non-finite result: an undeclared read fails there, not mid-solve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .characteristics import VelocityField
from .domain import Domain, Grid, GridFn
from .kernels import Kernel


def _as_space_field(val) -> Callable:
    if callable(val):
        return val

    c = float(val)

    def fn(pts):
        pts = np.atleast_2d(pts)
        return np.full(pts.shape[0], c)

    return fn


@dataclass
class HypothesisConstants:
    """Declared growth/Lipschitz constants of the coefficient maps.

    ``Q2`` and ``B`` may be constants or space fields; the estimates
    only ever consume their norms.  ``C1``/``C2`` bound the summed right
    hand side for the global mass inequality and stay ``None`` when no
    such bound is claimed (e.g. for genuinely blowing-up models).
    """

    P1: float = 0.0
    P2: float = 0.0
    Q1: float = 0.0
    Q3: float = 0.0
    Q2: float | Callable = 0.0
    B: float | Callable = 0.0
    C1: float | Callable | None = None
    C2: float | Callable | None = None

    def q2_at(self, pts: np.ndarray) -> np.ndarray:
        return _as_space_field(self.Q2)(pts)

    def q2_l1(self, grid: Grid) -> float:
        return float(np.sum(np.abs(self.q2_at(grid.points))) * grid.cell_volume)

    def b_at(self, pts: np.ndarray) -> np.ndarray:
        return _as_space_field(self.B)(pts)

    def b_l1(self, grid: Grid) -> float:
        """L1 norm of B over the union of inflow faces."""
        total = 0.0
        for ax in range(grid.domain.m):
            fg = grid.face_grid(ax)
            total += float(np.sum(np.abs(self.b_at(fg.points))) * fg.weight)
        return total

    def c1_l1(self, t: float, grid: Grid) -> float:
        if self.C1 is None:
            return 0.0
        if callable(self.C1):
            return float(np.sum(np.abs(self.C1(t, grid.points))) * grid.cell_volume)
        return float(abs(self.C1)) * grid.cell_volume * grid.n_nodes

    def c2_at(self, t: float) -> float:
        if self.C2 is None:
            return 0.0
        return float(self.C2(t)) if callable(self.C2) else float(self.C2)


@dataclass
class SystemDef:
    """The k-component problem: velocities, coefficient maps, kernels, data."""

    k: int
    domain: Domain
    velocities: Sequence[VelocityField]
    P: Sequence[Callable]
    Q: Sequence[Callable | None]
    Ub: Sequence[Callable | None]
    Kp: Sequence[Kernel | None] = None
    Kq: Sequence[Kernel | None] = None
    Ku: Sequence[Kernel | None] = None
    u0: Callable = None
    constants: HypothesisConstants | None = None
    name: str = "system"
    labels: Sequence[str] | None = None
    q_reads: Sequence[Sequence[int]] | None = None

    def __post_init__(self):
        for attr, entry in (("Kp", None), ("Kq", None), ("Ku", None), ("q_reads", range(self.k))):
            if getattr(self, attr) is None:
                setattr(self, attr, (entry,) * self.k)
        self.labels = [f"u{h}" for h in range(self.k)] if self.labels is None else self.labels
        for attr in ("velocities", "P", "Q", "Ub", "Kp", "Kq", "Ku", "q_reads", "labels"):
            row = tuple(getattr(self, attr))
            if len(row) != self.k:
                raise ValueError(f"{attr} must have one entry per component")
            setattr(self, attr, row)
        for h, cols in enumerate(self.q_reads):
            if len(set(cols)) != len(cols) or not all(c in range(self.k) for c in cols):
                raise ValueError(f"q_reads[{h}] must name distinct columns in [0, {self.k})")
        self.q_reads = tuple(tuple(int(c) for c in cols) for cols in self.q_reads)
        for attr, what in (("P", "callable"), ("Q", "callable or None"), ("Ub", "callable or None")):
            for h, fn in enumerate(getattr(self, attr)):
                if not (callable(fn) or (fn is None and attr != "P")):
                    raise ValueError(f"{attr}[{h}] must be {what}, got {fn!r}")
        self.has_q, self.has_ub = (tuple(fn is not None for fn in r) for r in (self.Q, self.Ub))
        if self.u0 is None:
            raise ValueError("initial datum callback is required")
        self._check_inflow()
        self._check_q_reads()

    def _check_q_reads(self, n: int = 8) -> None:
        """Call each Q that reads fewer than k columns with NaN in the others."""
        rng = np.random.default_rng(0)
        pts = np.column_stack([rng.uniform(lo, hi, n) for lo, hi in self.domain.bounds()])
        for h, cols in enumerate(self.q_reads):
            if self.has_q[h] and len(cols) < self.k:
                u = np.full((n, self.k), np.nan)
                u[:, list(cols)] = rng.uniform(0.0, 1.0, (n, len(cols)))
                if not np.all(np.isfinite(self.Q[h](np.zeros(n), pts, u, np.ones((n, 1))))):
                    raise ValueError(f"component {h}: Q reads a column outside q_reads[{h}]")

    def _check_inflow(self) -> None:
        """Sample the inflow faces: every v_i^h must point strictly inward."""
        samples = 16
        rng = np.random.default_rng(0)
        d = self.domain.dim
        for ax in range(self.domain.m):
            pts = np.zeros((samples, d))
            for j, (lo, hi) in enumerate(self.domain.bounds()):
                if j != ax:
                    pts[:, j] = rng.uniform(lo, hi, size=samples)
            for t in (0.0, 0.5, 1.0):
                for h in range(self.k):
                    vi = np.atleast_2d(self.velocities[h](t, pts))[:, ax]
                    if np.any(vi <= 0.0):
                        raise ValueError(
                            f"component {h}: velocity not strictly inward on inflow face {ax}")

    def initial_state(self, grid: Grid) -> GridFn:
        return GridFn.from_callback(grid, self.u0, self.k)
