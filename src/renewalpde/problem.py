"""System definitions in kernel form, with declared constants and audits.

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
callbacks and a Monte-Carlo audit checks that they actually hold on
random probes.  Constants cannot be derived from black-box callbacks;
declaring and auditing is the honest contract.

Outer maps are vectorized over points: ``P(t, pts, eta)`` with pts of
shape (P, d) and eta of shape (P, k_out) returns (P,); Q additionally
receives the pointwise state u of shape (P, k).  The solver passes one
time per point, ``t`` of shape (P,), as it does to velocity callbacks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .characteristics import VelocityField
from .domain import Domain, Grid, GridFn, l1_norm
from .kernels import Kernel, kernel_eta


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
    Q: Sequence[Callable]
    Ub: Sequence[Callable]
    Kp: Sequence[Kernel | None] = None
    Kq: Sequence[Kernel | None] = None
    Ku: Sequence[Kernel | None] = None
    u0: Callable = None
    constants: HypothesisConstants | None = None
    name: str = "system"
    labels: Sequence[str] | None = None

    def __post_init__(self):
        none_row = (None,) * self.k
        for attr in ("Kp", "Kq", "Ku"):
            if getattr(self, attr) is None:
                setattr(self, attr, none_row)
        for attr in ("velocities", "P", "Q", "Ub", "Kp", "Kq", "Ku"):
            row = tuple(getattr(self, attr))
            if len(row) != self.k:
                raise ValueError(f"{attr} must have one entry per component")
            setattr(self, attr, row)
        if self.u0 is None:
            raise ValueError("initial datum callback is required")
        self._check_inflow()

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


def eval_p(sys: SystemDef, h: int, t: float, x: np.ndarray, w: GridFn) -> float:
    """Frozen multiplicative coefficient p^h(t, x, w) at one point."""
    pts = np.asarray(x, dtype=float).reshape(1, -1)
    eta = kernel_eta(sys.Kp[h], t, pts, w)
    return float(np.asarray(sys.P[h](np.full(1, t), pts, eta), dtype=float)[0])


def eval_q(sys: SystemDef, h: int, t: float, x: np.ndarray, u: np.ndarray, w: GridFn) -> float:
    """Frozen additive source q^h(t, x, u, w) at one point."""
    pts = np.asarray(x, dtype=float).reshape(1, -1)
    eta = kernel_eta(sys.Kq[h], t, pts, w)
    u = np.asarray(u, dtype=float).reshape(1, -1)
    return float(np.asarray(sys.Q[h](np.full(1, t), pts, u, eta), dtype=float)[0])


def eval_ub(sys: SystemDef, h: int, t: float, xi: np.ndarray, w: GridFn) -> float:
    """Boundary datum ub^h(t, xi, w); xi must lie on an inflow face."""
    xi = np.asarray(xi, dtype=float).reshape(1, -1)
    if not any(abs(xi[0, ax]) <= 1e-12 for ax in range(sys.domain.m)):
        raise ValueError("boundary point is not on an inflow face")
    eta = kernel_eta(sys.Ku[h], t, xi, w)
    return float(np.asarray(sys.Ub[h](np.full(1, t), xi, eta), dtype=float)[0])


@dataclass
class HypothesisCheck:
    name: str
    worst_ratio: float
    passed: bool
    detail: str = ""


@dataclass
class HypothesisReport:
    checks: list[HypothesisCheck] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format(self) -> str:
        lines = []
        for c in self.checks:
            status = "pass" if c.passed else "FAIL"
            lines.append(f"({c.name})  worst ratio {c.worst_ratio:.6g}  {status}  {c.detail}")
        return "\n".join(lines)


def _probe_fields(sys: SystemDef, grid: Grid, rng: np.random.Generator,
                  samples: int, mass_cap: float) -> list[GridFn]:
    """Random and data-shaped probe states with a range of masses."""
    probes = []
    u0 = sys.initial_state(grid)
    base = l1_norm(u0)
    if base > 0:
        for target in (0.5, 1.0, 3.0, mass_cap):
            probes.append(u0 * (target / base))
    for _ in range(samples):
        vals = rng.uniform(-1.0, 1.0, size=(grid.n_nodes, sys.k))
        if rng.uniform() < 0.5:
            vals = np.abs(vals)
        f = GridFn(grid, vals)
        mass = l1_norm(f)
        target = rng.uniform(0.05, mass_cap)
        probes.append(f * (target / mass))
    return probes


def check_hypotheses(sys: SystemDef, hc: HypothesisConstants, grid: Grid,
                     samples: int = 60, seed: int = 0, t_max: float = 1.0,
                     u_cap: float = 5.0, mass_cap: float = 10.0,
                     rtol: float = 1e-7) -> HypothesisReport:
    """Monte-Carlo audit of the declared growth and Lipschitz constants.

    Draws random (t, x, u, w, w') probes, measures each bound's ratio
    measured/allowed and reports the worst case per hypothesis.  A
    report, not an exception: callers decide what a failure means.
    """
    rng = np.random.default_rng(seed)
    fields = _probe_fields(sys, grid, rng, samples, mass_cap)
    tiny = 1e-300

    def ratio(num: float, den: float) -> float:
        if num <= rtol * max(1.0, abs(den)):
            return 0.0
        return num / max(den, tiny)

    worst = {"P": 0.0, "P-lip": 0.0, "Q": 0.0, "Q-lip": 0.0, "BD": 0.0, "BD-lip": 0.0}
    faces = [grid.face_grid(ax) for ax in range(sys.domain.m)]

    for trial in range(len(fields)):
        w = fields[trial]
        wp = fields[rng.integers(0, len(fields))]
        mw = l1_norm(w)
        dmass = l1_norm(w - wp)
        t = float(rng.uniform(0.0, t_max))
        x = grid.points[rng.integers(0, grid.n_nodes)]
        u = rng.uniform(-u_cap, u_cap, size=sys.k)
        up = rng.uniform(-u_cap, u_cap, size=sys.k)
        nu = float(np.sum(np.abs(u)))
        du = float(np.sum(np.abs(u - up)))
        for h in range(sys.k):
            pv = eval_p(sys, h, t, x, w)
            pvp = eval_p(sys, h, t, x, wp)
            worst["P"] = max(worst["P"], ratio(abs(pv), hc.P1 + hc.P2 * mw))
            worst["P-lip"] = max(worst["P-lip"], ratio(abs(pv - pvp), hc.P2 * dmass))
            qv = eval_q(sys, h, t, x, u, w)
            qvp = eval_q(sys, h, t, x, up, wp)
            q2x = float(hc.q2_at(x.reshape(1, -1))[0])
            worst["Q"] = max(worst["Q"], ratio(abs(qv), hc.Q1 * nu + q2x * mw + hc.Q3 * nu * mw))
            nup = float(np.sum(np.abs(up)))
            lip_bound = hc.Q1 * du + hc.Q3 * mw * du + hc.Q3 * nup * dmass
            worst["Q-lip"] = max(worst["Q-lip"], ratio(abs(qv - qvp), lip_bound))
            for fg in faces:
                xi = fg.points[rng.integers(0, fg.points.shape[0])]
                bv = eval_ub(sys, h, t, xi, w)
                bvp = eval_ub(sys, h, t, xi, wp)
                bxi = float(hc.b_at(xi.reshape(1, -1))[0])
                worst["BD"] = max(worst["BD"], ratio(abs(bv), bxi * (1.0 + mw)))
                worst["BD-lip"] = max(worst["BD-lip"], ratio(abs(bv - bvp), bxi * dmass))

    report = HypothesisReport()
    for name, r in worst.items():
        if name.startswith("BD") and not faces:
            continue
        report.checks.append(HypothesisCheck(name, r, r <= 1.0 + 1e-6))
    return report
