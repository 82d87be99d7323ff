"""Batch front end: run a config, write CSV artifacts and a certificate report.

Exit codes: 0 all requested certificates pass, 1 a certificate failed,
2 the config does not parse or validate, 3 the solver hit a blow-up
(the report then carries the bracket).  Outputs are plain CSV with a
header row, LF endings and 17-significant-digit floats, so state files
round-trip exactly; nothing in the output depends on wall-clock time,
which makes reruns byte-identical.
"""

from __future__ import annotations

import argparse
import sys as _sys
from pathlib import Path

import numpy as np
import yaml

from .analysis import (
    Certificate,
    apriori_l1_certificate,
    apriori_linf_certificate,
    contraction_prediction,
    entropy_sweep,
    gronwall_certificate,
)
from .config import (PRESETS, SIHR_DEFAULTS, ConfigError, RunConfig, control_spec,
                     effective_config_dict, load_config)
from .control import optimize, sihr_kappa_objective
from .domain import Grid, GridFn, truncation_mass_report
from .models import SIHRParams
from .picard import FrozenCoefficients, LocalExistenceError, Trajectory, solve


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def _save_states(outdir: Path, traj: Trajectory, sys_, n_save: int) -> None:
    grid = traj.grid
    idx = np.unique(np.linspace(0, len(traj.times) - 1, n_save).round().astype(int))
    coord_names = [f"x{i}" for i in range(grid.dim)]
    sdir = outdir / "states"
    sdir.mkdir(parents=True, exist_ok=True)
    index_rows = []
    for rank, j in enumerate(idx):
        fname = f"state_{rank:04d}.csv"
        rows = np.column_stack([grid.points, traj.values[j]])
        _write_csv(sdir / fname, coord_names + list(sys_.labels), rows)
        index_rows.append((rank, traj.times[j]))
    with open(sdir / "index.csv", "w", newline="\n") as fh:
        fh.write("index,t,file\n")
        for rank, t in index_rows:
            fh.write(f"{rank},{_fmt(t)},state_{rank:04d}.csv\n")


def _save_series(outdir: Path, traj: Trajectory, sys_) -> None:
    labels = sys_.labels
    masses = traj.component_masses()
    sups = traj.component_sups()
    slab_end = np.array([d.t1 for d in traj.diagnostics]) if traj.diagnostics else np.array([np.inf])
    header = (["t"] + [f"mass_{l}" for l in labels] + [f"sup_{l}" for l in labels]
              + ["slab", "slab_iterations", "slab_theta"])
    rows = []
    for j, t in enumerate(traj.times):
        s = int(np.searchsorted(slab_end, t - 1e-12))
        s = min(s, len(traj.diagnostics) - 1) if traj.diagnostics else 0
        diag = traj.diagnostics[s] if traj.diagnostics else None
        rows.append(list(np.concatenate([[t], masses[j], sups[j]]))
                    + [s, diag.iterations if diag else 0, diag.theta if diag else 0.0])
    _write_csv(outdir / "series.csv", header, rows)


def _positivity_certificate(traj: Trajectory) -> Certificate:
    worst = float(np.min(traj.values))
    measured = max(0.0, -worst)
    ok = worst >= -1e-12
    return Certificate("positivity", 1e-12, measured, ok,
                       (1e-12 - measured) / 1e-12, {"min_value": worst})


def _contraction_certificate(sys_, traj: Trajectory, grid: Grid) -> Certificate:
    worst_theta = 0.0
    ok = True
    checked = 0
    for d in traj.diagnostics:
        worst_theta = max(worst_theta, d.theta)
        if d.theta >= 1.0:
            ok = False
        if sys_.constants is not None:
            pred = contraction_prediction(sys_, sys_.constants, d.ball, d.t1 - d.t0, grid)
            if pred < 1.0:
                checked += 1
                if d.theta > 1.2 * pred:
                    ok = False
    return Certificate("contraction", 1.0, worst_theta, ok, 1.0 - worst_theta,
                       {"slabs": len(traj.diagnostics), "predicted_lt_1": checked})


def _entropy_certificate(frozen: FrozenCoefficients, samples: int, seed: int) -> Certificate:
    results = entropy_sweep(frozen.sys, frozen.w, n_samples=samples, seed=seed, frozen=frozen)
    ratios = [r["residual"] / max(r["tol"], 1e-300) for r in results]
    measured = max(0.0, -min(ratios))
    ok = all(r["ok"] for r in results)
    return Certificate("entropy", 1.0, measured, ok, 1.0 - measured,
                       {"samples": len(results)})


def _apriori_certificates(frozen: FrozenCoefficients, grid: Grid) -> list[Certificate]:
    out = []
    t_end = float(frozen.times[-1])
    for h, label in enumerate(frozen.sys.labels):
        lp, u_t = frozen.linear_problem(h), GridFn(frozen.grid, frozen.w.values[-1, :, h])
        c1 = apriori_l1_certificate(lp, grid, t_end, u_t=u_t)
        c2 = apriori_linf_certificate(lp, grid, t_end, u_t=u_t)
        c1.name = f"apriori-l1[{label}]"
        c2.name = f"apriori-linf[{label}]"
        out.extend([c1, c2])
    return out


def _mass_drift_certificate(traj: Trajectory) -> Certificate:
    total = traj.component_masses().sum(axis=1)
    drift = float(np.max(np.abs(total - total[0])))
    bound = 0.02 * total[0]
    return Certificate("mass-drift", bound, drift, drift <= bound,
                       (bound - drift) / max(bound, 1e-300), {"initial_mass": total[0]})


def _oracle_certificate(traj: Trajectory, oracle) -> Certificate:
    grid = traj.grid
    worst = 0.0
    for j, t in enumerate(traj.times):
        exact = oracle(t, grid.points)
        norm = float(np.sum(np.abs(exact))) * grid.cell_volume
        err = float(np.sum(np.abs(traj.values[j, :, 0] - exact))) * grid.cell_volume
        allowed = 0.02 if t <= 0.75 + 1e-9 else 0.05
        worst = max(worst, (err / max(norm, 1e-300)) / allowed)
    return Certificate("oracle", 1.0, worst, worst <= 1.0, 1.0 - worst, {})


def run_certificates(sys_, traj: Trajectory, grid: Grid, cfg: RunConfig, oracle) -> list[Certificate]:
    certs: list[Certificate] = []
    frozen = (FrozenCoefficients(sys_, traj)  # one freeze for the entropy and a-priori lines
              if {"entropy", "apriori"} & set(cfg.certificates) else None)
    for name in cfg.certificates:
        if name == "positivity":
            certs.append(_positivity_certificate(traj))
        elif name == "gronwall":
            certs.append(gronwall_certificate(sys_, sys_.constants, traj))
        elif name == "contraction":
            certs.append(_contraction_certificate(sys_, traj, grid))
        elif name == "entropy":
            certs.append(_entropy_certificate(frozen, cfg.entropy_samples, cfg.seed))
        elif name == "apriori":
            certs.extend(_apriori_certificates(frozen, grid))
        elif name == "mass-drift":
            certs.append(_mass_drift_certificate(traj))
        elif name == "oracle":
            certs.append(_oracle_certificate(traj, oracle))
    return certs


def _run_control(cfg: RunConfig, outdir: Path) -> list[str]:
    cc = cfg.control
    preset_params = dict(SIHR_DEFAULTS)
    preset_params.update(cfg.params)
    base = SIHRParams(**preset_params)
    spec = control_spec(cc)
    objective = sihr_kappa_objective(base, spec, cells=cc.cells, horizon=cc.horizon,
                                     cfg=cfg.picard, objective=cc.objective)
    result = optimize(objective, spec)
    _write_csv(outdir / "control_trace.csv", ["evaluation", "incumbent"],
               [(i, v) for i, v in enumerate(result.trace)])
    best = ", ".join(_fmt(v) for v in result.best)
    return [f"control: objective={cc.objective}  best=[{best}]  cost={_fmt(result.cost)}  "
            f"evaluations={result.evaluations}"]


def run(cfg: RunConfig) -> int:
    """Execute one configured run; returns the process exit code."""
    outdir = cfg.output
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "effective_config.yaml").write_text(
        yaml.safe_dump(effective_config_dict(cfg), sort_keys=True))

    preset = PRESETS[cfg.model]
    sys_, oracle = preset.build(cfg.params)
    if len(cfg.cells) not in (1, sys_.domain.dim):
        raise ConfigError(f"field 'cells' needs 1 or {sys_.domain.dim} entries for '{cfg.model}'")
    hc = sys_.constants
    if "gronwall" in cfg.certificates and (hc is None or (hc.C1 is None and hc.C2 is None)):
        raise ConfigError("certificates: model declares no global growth bound "
                          "('gronwall' not applicable)")
    cells = cfg.cells if len(cfg.cells) == sys_.domain.dim else cfg.cells * sys_.domain.dim
    grid = Grid(sys_.domain, cells)

    report_lines = [f"model: {cfg.model}", f"grid: {'x'.join(str(c) for c in cells)}",
                    f"horizon: {_fmt(cfg.horizon)}"]
    try:
        traj = solve(sys_, grid, cfg.horizon, cfg.picard)
    except LocalExistenceError as exc:
        lo, hi = exc.bracket
        report_lines += ["status: solver blow-up",
                         f"blow-up bracket: [{_fmt(lo)}, {_fmt(hi)}]"]
        (outdir / "certificates.txt").write_text("\n".join(report_lines) + "\n")
        print("\n".join(report_lines[-2:]), file=_sys.stderr)
        return 3

    _save_states(outdir, traj, sys_, cfg.save_states)
    _save_series(outdir, traj, sys_)

    edge = truncation_mass_report(traj.states[-1])
    worst_face = max(edge, key=edge.get)
    report_lines.append(
        f"truncation check: worst face {worst_face} holds {edge[worst_face]:.3%} of final mass")

    certs = run_certificates(sys_, traj, grid, cfg, oracle)
    report_lines += [c.format() for c in certs]
    if cfg.control is not None:
        report_lines += _run_control(cfg, outdir)
    n_pass = sum(c.passed for c in certs)
    verdict = "PASS" if n_pass == len(certs) else "FAIL"
    report_lines.append(f"VERDICT: {verdict} ({n_pass}/{len(certs)} certificates)")
    (outdir / "certificates.txt").write_text("\n".join(report_lines) + "\n")
    print("\n".join(report_lines))
    return 0 if verdict == "PASS" else 1


def list_presets() -> str:
    width = max(len(name) for name in PRESETS)
    lines = [f"{name:<{width}}  {p.description}" for name, p in sorted(PRESETS.items())]
    return "\n".join(lines)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="renewalpde",
                                     description="solve renewal transport systems and "
                                                 "certify the results")
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run", help="execute a YAML run configuration")
    p_run.add_argument("config", help="path to the run file")
    p_run.add_argument("--output", default=None, help="override the output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the probe seed")
    sub.add_parser("list-presets", help="show the available model presets")

    args = parser.parse_args(argv)
    if args.command == "list-presets":
        print(list_presets())
        return 0
    try:
        cfg = load_config(args.config)
        if args.output is not None:
            cfg.output = Path(args.output)
        if args.seed is not None:
            cfg.seed = args.seed
        return run(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=_sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
