"""Acceptance suite: one test per criterion, each printing a PASS line.

Heavy solves are shared through module-scoped fixtures; the stated
runtime budgets are asserted on the timed solve itself.
"""

import time

import numpy as np
import pytest
import yaml

from renewalpde.analysis import (
    TestFunction,
    apriori_l1_certificate,
    apriori_linf_certificate,
    contraction_prediction,
    entropy_residual,
    entropy_sweep,
    entropy_tolerance,
    linear_stability_certificate,
)
from renewalpde.characteristics import VelocityField
from renewalpde.cli import main as cli_main
from renewalpde.control import ControlSpec, optimize, sihr_kappa_objective
from renewalpde.domain import Domain, Grid, GridFn
from renewalpde.models import (
    CellGrowthParams,
    CompetitiveParams,
    SIHRParams,
    build_blowup,
    build_cell_growth,
    build_competitive,
    build_sihr,
    bump,
)
from renewalpde.picard import PicardConfig, lipschitz_probe, solve
from renewalpde.transport import LinearProblem, evaluate

from fields import const_field, zero_field

V1 = VelocityField.constant([1.0])


def report(criterion, ok, detail):
    print(f"[{criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def blowup_ode_run():
    sys_, oracle = build_blowup("ode")
    grid = Grid(sys_.domain, (400,))
    t0 = time.perf_counter()
    traj = solve(sys_, grid, 0.9, PicardConfig())
    elapsed = time.perf_counter() - t0
    return sys_, oracle, grid, traj, elapsed


@pytest.fixture(scope="module")
def blowup_transport_run():
    sys_, oracle = build_blowup("transport")
    grid = Grid(sys_.domain, (600,))
    t0 = time.perf_counter()
    traj = solve(sys_, grid, 0.9, PicardConfig())
    elapsed = time.perf_counter() - t0
    return sys_, oracle, grid, traj, elapsed


@pytest.fixture(scope="module")
def sihr_conservation_run():
    sys_ = build_sihr(SIHRParams(kappa=0.3, theta=0.1, eta=0.2, rho=0.08))
    grid = Grid(sys_.domain, (256,))
    t0 = time.perf_counter()
    traj = solve(sys_, grid, 5.0, PicardConfig(slab_length=0.5))
    elapsed = time.perf_counter() - t0
    return sys_, grid, traj, elapsed


@pytest.fixture(scope="module")
def cellgrowth_run():
    sys_ = build_cell_growth(CellGrowthParams(loss=0.2, birth_weight=0.5))
    grid = Grid(sys_.domain, (192,))
    traj = solve(sys_, grid, 3.0, PicardConfig(slab_length=0.5))
    return sys_, grid, traj


@pytest.fixture(scope="module")
def competitive_run():
    sys_ = build_competitive(CompetitiveParams(
        mu1=0.2, mu2=0.3, c1=0.3, c2=0.2, beta1=0.4, beta2=0.3, f1=0.1, f2=0.05))
    grid = Grid(sys_.domain, (128,))
    traj = solve(sys_, grid, 2.0, PicardConfig(slab_length=0.5))
    return sys_, grid, traj


def oracle_errors(oracle, grid, traj):
    rels = []
    for j, t in enumerate(traj.times):
        exact = oracle(t, grid.points)
        norm = float(np.sum(np.abs(exact))) * grid.cell_volume
        err = float(np.sum(np.abs(traj.states[j].values[:, 0] - exact))) * grid.cell_volume
        rels.append((t, err / norm))
    return rels


def test_c01_blowup_ode_oracle(blowup_ode_run):
    sys_, oracle, grid, traj, elapsed = blowup_ode_run
    rels = oracle_errors(oracle, grid, traj)
    early = max(r for t, r in rels if t <= 0.75 + 1e-9)
    late = max(r for t, r in rels)
    ok = early <= 0.02 and late <= 0.05 and elapsed <= 30.0
    report("criterion 1: blow-up oracle (static)", ok,
           f"rel L1 err {early:.4%} (t<=0.75, cap 2%), {late:.4%} (t<=0.9, cap 5%), "
           f"solve {elapsed:.1f}s (cap 30s)")


def test_c02_blowup_transport_oracle(blowup_transport_run):
    sys_, oracle, grid, traj, elapsed = blowup_transport_run
    rels = oracle_errors(oracle, grid, traj)
    early = max(r for t, r in rels if t <= 0.75 + 1e-9)
    late = max(r for t, r in rels)
    mid_ok = True
    detail_mid = []
    for t_probe in (0.25, 0.5, 0.75, 0.9):
        state = traj.state_at(t_probe).values[:, 0]
        x = grid.points[:, 0]
        supp = x[state > 0.5 * state.max()]
        mid = 0.5 * (supp.min() + supp.max())
        detail_mid.append(abs(mid - (t_probe + 0.5)))
        mid_ok &= abs(mid - (t_probe + 0.5)) <= 2 * grid.dx[0]
    ok = early <= 0.02 and late <= 0.05 and elapsed <= 30.0 and mid_ok
    report("criterion 2: blow-up oracle (drifting)", ok,
           f"rel L1 err {early:.4%}/{late:.4%}, support midpoint off by "
           f"{max(detail_mid):.4f} (cap {2 * grid.dx[0]:.4f}), solve {elapsed:.1f}s")


def test_c03_blowup_detection(tmp_path):
    cfg = {"model": "blowup-ode", "horizon": 1.2, "cells": 200,
           "output": str(tmp_path / "out")}
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    code = cli_main(["run", str(path)])
    reportfile = (tmp_path / "out" / "certificates.txt").read_text()
    nums = reportfile.split("[")[-1].rstrip("]\n").split(",")
    lo, hi = float(nums[0]), float(nums[1])
    ok = code == 3 and 0.9 <= lo <= hi <= 1.1
    report("criterion 3: blow-up detection", ok,
           f"exit code {code}, bracket [{lo:.6f}, {hi:.6f}] within [0.9, 1.1]")


def test_c04_positivity_suite(sihr_conservation_run, cellgrowth_run, competitive_run):
    mins = {}
    _, _, traj, _ = sihr_conservation_run
    mins["sihr"] = min(float(np.min(s.values)) for s in traj.states)
    for name, run in (("cellgrowth", cellgrowth_run), ("competitive", competitive_run)):
        _, _, tr = run
        mins[name] = min(float(np.min(s.values)) for s in tr.states)
    worst = min(mins.values())
    report("criterion 4: positivity suite", worst >= -1e-12,
           f"min value over presets {worst:.3e} (floor -1e-12); per preset {mins}")


def linear_cases():
    grid = Grid(Domain(half_lengths=(6.0,)), (300,))
    u0 = GridFn(grid, bump(1.5, 1.0)(grid.points[:, 0]))
    zeros = GridFn.zeros(grid)
    return grid, [
        ("transport", LinearProblem(V1, zero_field, zero_field, zero_field, u0), False),
        ("growth", LinearProblem(V1, const_field(0.8), zero_field, zero_field, u0), True),
        ("boundary-fed", LinearProblem(V1, zero_field, zero_field, const_field(1.0), zeros), False),
        ("decay", LinearProblem(V1, const_field(-0.6), zero_field, zero_field, u0), False),
        ("source", LinearProblem(V1, zero_field, const_field(0.4), zero_field, zeros), False),
    ]


def test_c05_apriori_certificates():
    grid, cases = linear_cases()
    details = []
    ok = True
    for name, lp, saturating in cases:
        c1 = apriori_l1_certificate(lp, grid, 1.0)
        c2 = apriori_linf_certificate(lp, grid, 1.0)
        ok &= c1.passed and c2.passed
        if saturating:
            r1 = c1.measured / c1.bound
            r2 = c2.measured / c2.bound
            ok &= 0.95 <= r1 <= 1.0 + 1e-9 and 0.95 <= r2 <= 1.0 + 1e-9
            details.append(f"{name}: l1 ratio {r1:.4f}, linf ratio {r2:.4f}")
        else:
            details.append(f"{name}: ok")
    report("criterion 5: a priori certificates", ok, "; ".join(details))


def test_c06_linear_stability_certificate():
    grid = Grid(Domain(half_lengths=(6.0,)), (300,))
    u0 = GridFn(grid, bump(1.5, 1.0)(grid.points[:, 0]))
    zeros = GridFn.zeros(grid)
    du0 = GridFn(grid, u0.values[:, 0] + 0.3 * bump(2.5, 0.7)(grid.points[:, 0]))

    def dq(t, pts):
        pts = np.atleast_2d(pts)
        inside = (pts[:, 0] >= 0.0) & (pts[:, 0] <= 1.0) & (np.asarray(t) <= 1.0)
        return np.where(inside, 1.0, 0.0)

    cases = {
        "u0-only": (LinearProblem(V1, zero_field, zero_field, zero_field, u0),
                    LinearProblem(V1, zero_field, zero_field, zero_field, du0), True),
        "q-only": (LinearProblem(V1, zero_field, zero_field, zero_field, zeros),
                   LinearProblem(V1, zero_field, dq, zero_field, zeros), False),
        "ub-only": (LinearProblem(V1, zero_field, zero_field, zero_field, zeros),
                    LinearProblem(V1, zero_field, zero_field, const_field(0.5), zeros), False),
    }
    ok = True
    details = []
    for name, (lp1, lp2, isometry) in cases.items():
        cert = linear_stability_certificate(lp1, lp2, grid, 1.0)
        ok &= cert.passed
        ratio = cert.measured / cert.bound
        if isometry:
            ok &= 0.95 <= ratio <= 1.0 + 1e-9
        details.append(f"{name}: ratio {ratio:.4f}")
    report("criterion 6: linear stability certificate", ok, "; ".join(details))


def test_c07_contraction(blowup_ode_run, blowup_transport_run, sihr_conservation_run,
                         cellgrowth_run, competitive_run):
    runs = [
        (blowup_ode_run[0], blowup_ode_run[2], blowup_ode_run[3]),
        (blowup_transport_run[0], blowup_transport_run[2], blowup_transport_run[3]),
        (sihr_conservation_run[0], sihr_conservation_run[1], sihr_conservation_run[2]),
        (cellgrowth_run[0], cellgrowth_run[1], cellgrowth_run[2]),
        (competitive_run[0], competitive_run[1], competitive_run[2]),
    ]
    ok = True
    n_slabs = n_checked = 0
    worst_theta = 0.0
    for sys_, grid, traj in runs:
        for d in traj.diagnostics:
            n_slabs += 1
            worst_theta = max(worst_theta, d.theta)
            ok &= d.theta < 1.0
            pred = contraction_prediction(sys_, sys_.constants, d.ball, d.t1 - d.t0, grid)
            if pred < 1.0:
                n_checked += 1
                ok &= d.theta <= 1.2 * pred
    report("criterion 7: contraction", ok,
           f"{n_slabs} slabs, worst measured theta {worst_theta:.4f}, "
           f"{n_checked} slabs checked against prediction x1.2")


def test_c08_lipschitz_dependence():
    sys_ = build_sihr(SIHRParams(kappa=0.3, theta=0.1, eta=0.2, rho=0.08,
                                 mu_i=0.02, mu_h=0.01))
    grid = Grid(sys_.domain, (128,))
    u0 = sys_.initial_state(grid)
    pert = bump(2.0, 0.8)(grid.points[:, 0])
    cfg = PicardConfig(slab_length=0.5)
    ratios = []
    for eps in (1e-2, 5e-3):
        vals = u0.values.copy()
        vals[:, 0] = vals[:, 0] + eps * pert
        probe = lipschitz_probe(sys_, grid, u0, GridFn(grid, vals), 2.0, cfg)
        ratios.append(probe.ratio)
    rel = abs(ratios[0] - ratios[1]) / ratios[1]
    report("criterion 8: Lipschitz dependence", rel <= 0.10,
           f"amplification {ratios[0]:.5f} vs {ratios[1]:.5f}, relative gap {rel:.2%} (cap 10%)")


def test_c09_entropy_sweep(blowup_ode_run, blowup_transport_run, sihr_conservation_run,
                           cellgrowth_run, competitive_run):
    sweeps = {
        "blowup-ode": (blowup_ode_run[0], blowup_ode_run[3]),
        "blowup-transport": (blowup_transport_run[0], blowup_transport_run[3]),
        "sihr": (sihr_conservation_run[0], sihr_conservation_run[2]),
        "cellgrowth": (cellgrowth_run[0], cellgrowth_run[2]),
        "competitive": (competitive_run[0], competitive_run[2]),
    }
    ok = True
    worst = 0.0
    for name, (sys_, traj) in sweeps.items():
        results = entropy_sweep(sys_, traj, n_samples=50, seed=42)
        ok &= all(r["ok"] for r in results)
        worst = min(worst, min(r["residual"] / max(r["tol"], 1e-300) for r in results))
    # corrupted solution: jump frozen in place under unit drift
    dom = Domain(half_lengths=(2.0,))
    grid = Grid(dom, (6000,))
    jump = GridFn(grid, (grid.points[:, 0] > 0.5).astype(float))
    times = np.linspace(0.0, 2.0, 6001)
    states = [jump] * len(times)
    lp = LinearProblem(V1, zero_field, zero_field, zero_field, jump)
    phi = TestFunction(1.0, 0.9, np.array([0.5]), np.array([0.3]))
    res = entropy_residual(lp, times, states, phi, 0.5, +1)
    tol = entropy_tolerance(lp, grid, times, states, 0.5)
    detector = res < -10.0 * tol
    report("criterion 9: entropy residual sweep", ok and detector,
           f"5 presets x 50 samples, worst residual/tol {worst:.4f}; "
           f"detector residual {res:.4f} < -10 tol = {-10 * tol:.4f}")


def test_c10_sihr_conservation(sihr_conservation_run):
    _, _, traj, elapsed = sihr_conservation_run
    total = traj.component_masses().sum(axis=1)
    drift = float(np.max(np.abs(total - total[0]))) / total[0]
    ok = drift <= 0.02 and elapsed <= 60.0
    report("criterion 10: mass conservation", ok,
           f"drift {drift:.4%} over T=5 (cap 2%), solve {elapsed:.1f}s (cap 60s)")


def test_c11_convergence_order():
    t = 1.0 / 3.0
    ratios = {}
    for case in ("shift", "smooth", "fill"):
        errs = []
        for cells, sub in ((400, 16), (800, 32)):
            grid = Grid(Domain(half_lengths=(4.0,)), (cells,))
            x = grid.points[:, 0]
            h = grid.dx[0]
            a, b = x - h / 2, x + h / 2
            if case == "shift":
                u0 = GridFn(grid, ((x >= 0) & (x <= 1)).astype(float))
                lp = LinearProblem(V1, zero_field, zero_field, zero_field, u0)
                exact = np.clip((np.minimum(b, 1 + t) - np.maximum(a, t)) / h, 0.0, 1.0)
            elif case == "smooth":
                prof = lambda y: np.exp(-((y - 1.5) / 0.25) ** 2)
                lp = LinearProblem(V1, const_field(0.7), zero_field, zero_field,
                                   GridFn(grid, prof(x)))
                exact = np.exp(0.7 * t) * prof(x - t)
            else:
                lp = LinearProblem(V1, zero_field, zero_field, const_field(1.0),
                                   GridFn.zeros(grid))
                exact = np.clip((np.minimum(b, t) - a) / h, 0.0, 1.0)
            u = evaluate(lp, t, grid, substeps=sub)
            errs.append(float(np.sum(np.abs(u.values[:, 0] - exact)) * grid.cell_volume))
        ratios[case] = errs[0] / errs[1]
    ok = all(r >= 1.8 for r in ratios.values())
    report("criterion 11: convergence order", ok,
           "error ratios on halving dx: " + ", ".join(f"{k}={v:.2f}" for k, v in ratios.items()))


def test_c12_control_optimizer():
    base = SIHRParams(mu_i=0.4, mu_h=0.0, theta=0.1, eta=0.3, rho=0.0)
    spec = ControlSpec(bounds=[(0.0, 1.0)], budget=60)
    objective = sihr_kappa_objective(base, spec, cells=64, horizon=2.0,
                                     cfg=PicardConfig(slab_length=0.5))
    result = optimize(objective, spec)
    step = float(result.final_step[0])
    monotone = all(a >= b for a, b in zip(result.trace, result.trace[1:]))
    ok = (result.evaluations <= 60 and abs(result.best[0] - 1.0) <= step + 1e-9 and monotone)
    report("criterion 12: control search", ok,
           f"best kappa {result.best[0]:.4f} (corner 1.0, final step {step:.2e}), "
           f"{result.evaluations} evaluations, trace monotone: {monotone}")
