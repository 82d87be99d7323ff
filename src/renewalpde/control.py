"""Cost functionals over solutions and a derivative-free control search.

The solution map is Lipschitz in the coefficients, so integral costs
are Lipschitz in a finite-dimensional control vector, which justifies a
plain coordinate pattern search: no gradients exist to exploit, but
descent over a box is well defined.  Controls are piecewise constant in
time (optionally also binned in age); richer parameterizations are out
of scope by design.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .characteristics import trapezoid_weights
from .domain import Grid
from .picard import LocalExistenceError, PicardConfig, Trajectory, solve
from .models import SIHRParams, _rate, build_sihr


def cost_deaths(traj: Trajectory, mu_i, mu_h) -> float:
    """Space-time integral of mu_I I + mu_H H over the whole run."""
    mu_i, mu_h = _rate(mu_i), _rate(mu_h)
    grid = traj.grid
    wts = trapezoid_weights(traj.times)
    total = 0.0
    for j, t in enumerate(traj.times):
        if wts[j] == 0.0:
            continue
        i_vals = np.maximum(traj.values[j, :, 1], 0.0)
        h_vals = np.maximum(traj.values[j, :, 2], 0.0)
        dens = mu_i(t, grid.points) * i_vals + mu_h(t, grid.points) * h_vals
        total += wts[j] * float(np.sum(dens)) * grid.cell_volume
    return total


def cost_peak_infection(traj: Trajectory) -> float:
    """Largest nodal infective density seen at any knot."""
    return float(np.max(np.maximum(traj.values[:, :, 1], 0.0)))


@dataclass
class ControlSpec:
    """Finite-dimensional control box: piecewise-constant coefficients.

    ``breakpoints`` are the time bin edges (first 0, last the horizon);
    ``age_bins``, when given, are age bin edges adding a second index.
    One scalar per (time bin x age bin), each confined to its interval
    in ``bounds``.
    """

    bounds: Sequence[tuple[float, float]]
    budget: int
    breakpoints: Sequence[float] | None = None
    age_bins: Sequence[float] | None = None

    def __post_init__(self):
        if len(self.bounds) < 1:
            raise ValueError("need at least one control coefficient")
        for lo, hi in self.bounds:
            if not (np.isfinite(lo) and np.isfinite(hi) and lo <= hi):
                raise ValueError("control bounds must be finite with lo <= hi")
        if self.budget < 2 * len(self.bounds):
            raise ValueError("budget must allow two probes per coefficient")


def piecewise_control(coeffs: np.ndarray, breakpoints: Sequence[float] | None,
                      age_bins: Sequence[float] | None = None) -> Callable:
    """Piecewise-constant rate kappa(t, a) from a flat coefficient vector."""
    t_edges = np.asarray(breakpoints, dtype=float) if breakpoints is not None else None
    a_edges = np.asarray(age_bins, dtype=float) if age_bins is not None else None
    n_t = (len(t_edges) - 1) if t_edges is not None else 1
    n_a = (len(a_edges) - 1) if a_edges is not None else 1
    table = np.asarray(coeffs, dtype=float).reshape(n_t, n_a)

    def rate(t, pts):
        pts = np.atleast_2d(pts)
        npts = pts.shape[0]
        if t_edges is not None:
            ti = np.clip(np.searchsorted(t_edges, np.asarray(t), side="right") - 1, 0, n_t - 1)
        else:
            ti = 0
        if a_edges is not None:
            ai = np.clip(np.searchsorted(a_edges, pts[:, 0], side="right") - 1, 0, n_a - 1)
        else:
            ai = np.zeros(npts, dtype=int)
        ti = np.broadcast_to(ti, (npts,)) if np.ndim(ti) else np.full(npts, ti)
        return table[ti, ai]

    return rate


@dataclass
class OptimizeResult:
    best: np.ndarray
    cost: float
    trace: list[float] = field(default_factory=list)
    evaluations: int = 0
    final_step: np.ndarray | None = None


def optimize(evaluate_cost: Callable[[np.ndarray], float], spec: ControlSpec) -> OptimizeResult:
    """Deterministic coordinate pattern search within the control box.

    Starts at the box midpoint with steps of a quarter of each range,
    probes +/- step along one coordinate at a time, accepts strict
    improvements immediately, halves every step after a full sweep
    without improvement, and stops at the evaluation budget or once all
    steps drop below 1e-3 of their ranges.  Probes whose solve fails
    are discarded with a warning.
    """
    lo = np.array([b[0] for b in spec.bounds])
    hi = np.array([b[1] for b in spec.bounds])
    rng = np.maximum(hi - lo, 1e-300)
    x = 0.5 * (lo + hi)
    steps = 0.25 * rng

    def safe_eval(pt: np.ndarray) -> float:
        try:
            return float(evaluate_cost(pt))
        except LocalExistenceError as exc:
            warnings.warn(f"control probe discarded (solver failure: {exc})")
            return np.inf

    best = safe_eval(x)
    evals = 1
    trace = [best]
    while evals < spec.budget and np.max(steps / rng) >= 1e-3:
        improved = False
        for i in range(len(x)):
            if evals >= spec.budget:
                break
            for direction in (1.0, -1.0):
                if evals >= spec.budget:
                    break
                cand = x.copy()
                cand[i] = min(max(x[i] + direction * steps[i], lo[i]), hi[i])
                if cand[i] == x[i]:
                    continue
                fc = safe_eval(cand)
                evals += 1
                trace.append(min(trace[-1], fc))
                if fc < best:
                    x, best = cand, fc
                    improved = True
                    break
        if not improved:
            steps = steps / 2.0
    return OptimizeResult(best=x, cost=best, trace=trace, evaluations=evals, final_step=steps)


def sihr_kappa_objective(base: SIHRParams, spec: ControlSpec, cells: int, horizon: float,
                         cfg: PicardConfig, objective: str = "deaths") -> Callable:
    """Cost-of-control map for the quarantine rate of the epidemic model."""
    if objective not in ("deaths", "peak"):
        raise ValueError("objective must be 'deaths' or 'peak'")

    def run(coeffs: np.ndarray) -> float:
        kappa = piecewise_control(coeffs, spec.breakpoints, spec.age_bins)
        params = replace(base, kappa=kappa)
        sys_ = build_sihr(params)
        grid = Grid(sys_.domain, (cells,) * sys_.domain.dim)
        traj = solve(sys_, grid, horizon, cfg)
        if objective == "deaths":
            return cost_deaths(traj, base.mu_i, base.mu_h)
        return cost_peak_infection(traj)

    return run
