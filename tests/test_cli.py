import dataclasses
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

from renewalpde.analysis import apriori_l1_certificate, apriori_linf_certificate
from renewalpde.cli import list_presets, main, run, run_certificates
from renewalpde.config import PRESETS, ConfigError, config_from_dict, load_config
from renewalpde.domain import Grid, GridFn
from renewalpde.picard import FrozenCoefficients, solve


def write_config(tmp_path, name="run.yaml", **overrides):
    cfg = {"model": "blowup-ode", "horizon": 0.5, "cells": 200,
           "output": str(tmp_path / "out")}
    cfg.update(overrides)
    path = tmp_path / name
    path.write_text(yaml.safe_dump(cfg))
    return path


def read_series(outdir):
    lines = (outdir / "series.csv").read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


def test_list_presets_contains_models():
    text = list_presets()
    for name in ("sihr", "blowup-ode", "blowup-transport", "competitive", "cellgrowth"):
        assert name in text


def test_run_blowup_short_horizon_exit0(tmp_path):
    path = write_config(tmp_path, horizon=0.5)
    code = main(["run", str(path)])
    assert code == 0
    header, rows = read_series(tmp_path / "out")
    assert header[0] == "t"
    # final mass tracks the closed form 1/(1-t)
    assert rows[-1, 0] == pytest.approx(0.5)
    assert rows[-1, 1] == pytest.approx(2.0, rel=0.05)
    report = (tmp_path / "out" / "certificates.txt").read_text()
    assert "VERDICT: PASS" in report


def test_run_blowup_past_singularity_exit3(tmp_path):
    path = write_config(tmp_path, horizon=1.2, cells=100)
    code = main(["run", str(path)])
    assert code == 3
    report = (tmp_path / "out" / "certificates.txt").read_text()
    assert "blow-up bracket" in report
    nums = report.split("[")[-1].rstrip("]\n").split(",")
    lo, hi = float(nums[0]), float(nums[1])
    assert 0.9 <= lo <= hi <= 1.1


def test_run_sihr_conservation_exit0(tmp_path):
    cfg = {"model": "sihr-conservation", "horizon": 1.0, "cells": 96,
           "output": str(tmp_path / "out"),
           "picard": {"slab_length": 0.5}, "entropy_samples": 10}
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["run", str(path)]) == 0
    report = (tmp_path / "out" / "certificates.txt").read_text()
    assert "mass-drift" in report
    assert "VERDICT: PASS" in report


def test_parse_error_exit2(tmp_path):
    bad = tmp_path / "bad.yaml"
    bad.write_text("model: [unbalanced")
    assert main(["run", str(bad)]) == 2
    missing_field = tmp_path / "bad2.yaml"
    missing_field.write_text(yaml.safe_dump({"model": "no-such-model"}))
    assert main(["run", str(missing_field)]) == 2


# (field the error names, malformed value), each a traceback (exit 1) before it was validated
MALFORMED = [
    ("entropy_samples", {"entropy_samples": 0}),
    ("seed", {"seed": "abc"}),
    ("horizon", {"horizon": "abc"}),
    ("cells", {"cells": ["abc"]}),
    ("save_states", {"save_states": "x"}),
    ("control", {"control": {"budget": 1}}),
    ("min_knots", {"picard": {"min_knots": "abc"}}),
    ("ball_mass", {"picard": {"ball_mass": "abc"}}),
    ("ball_mass", {"picard": {"ball_mass": -1}}),
    ("min_slab_factor", {"picard": {"min_slab_factor": "abc"}}),
    ("control.cells", {"control": {"cells": "abc"}}),
]


def test_validation_errors_name_the_field():
    with pytest.raises(ConfigError, match="cells"):
        config_from_dict({"model": "blowup-ode", "cells": 2})
    with pytest.raises(ConfigError, match="horizon"):
        config_from_dict({"model": "blowup-ode", "horizon": -1.0})
    with pytest.raises(ConfigError, match="params.badname"):
        config_from_dict({"model": "sihr", "params": {"badname": 1.0}})
    with pytest.raises(ConfigError, match="certificates"):
        config_from_dict({"model": "sihr", "certificates": ["no-such-cert"]})
    for field, raw in MALFORMED:
        with pytest.raises(ConfigError, match=field):
            config_from_dict({"model": "sihr", **raw})


def test_malformed_scalars_exit2(tmp_path):
    # rejected before the solve, with the exit code of a config error
    for field, raw in MALFORMED:
        path = write_config(tmp_path, model="sihr", **raw)
        assert main(["run", str(path)]) == 2, field


def test_oracle_and_mass_drift_only_for_presets_that_list_them(tmp_path, capsys):
    # mass-drift needs conserved mass and oracle a closed form; elsewhere they cannot pass
    for model, cert in (("cellgrowth", "mass-drift"), ("competitive", "mass-drift"),
                        ("sihr", "oracle")):
        path = write_config(tmp_path, model=model, certificates=[cert])
        assert main(["run", str(path)]) == 2, (model, cert)
        err = capsys.readouterr().err
        assert f"'{cert}'" in err and f"'{model}'" in err
    for model, cert in (("sihr-conservation", "mass-drift"), ("blowup-ode", "oracle"),
                        ("blowup-transport", "oracle")):
        assert config_from_dict({"model": model, "certificates": [cert]}).certificates == (cert,)


# sihr on a coarse grid and short horizon; cellgrowth at its default grid and horizon
@pytest.mark.parametrize("model, cells, horizon", [("sihr", 64, 0.5), ("cellgrowth", 192, 3.0)])
def test_apriori_certificates_equal_the_frozen_problems(tmp_path, model, cells, horizon):
    # one apriori-l1 and one apriori-linf line per component, each the certificate of
    # the component's frozen linear problem at the final state of the same solve
    path = write_config(tmp_path, model=model, cells=cells, horizon=horizon,
                        certificates=["apriori"])
    assert main(["run", str(path)]) == 0
    lines = (tmp_path / "out" / "certificates.txt").read_text().splitlines()
    cfg = load_config(path)
    sys_, _ = PRESETS[model].build(cfg.params)
    grid = Grid(sys_.domain, cfg.cells)
    traj = solve(sys_, grid, horizon, cfg.picard)
    frozen = FrozenCoefficients(sys_, traj)
    labels = sys_.labels or [f"u{h}" for h in range(sys_.k)]
    for h, label in enumerate(labels):
        u_t = GridFn(grid, traj.values[-1, :, h])
        for kind, certify in (("l1", apriori_l1_certificate), ("linf", apriori_linf_certificate)):
            cert = certify(frozen.linear_problem(h), grid, horizon, u_t=u_t)
            cert.name = f"apriori-{kind}[{label}]"
            assert [ln for ln in lines if ln.startswith(cert.name + ":")] == [cert.format()]
    assert sum(ln.startswith("apriori-") for ln in lines) == 2 * sys_.k


def test_entropy_and_apriori_freeze_the_final_trajectory_once(monkeypatch):
    # one FrozenCoefficients serves both kinds of line, which read as when run alone
    cfg = config_from_dict({"model": "sihr", "cells": 64, "horizon": 0.5,
                            "certificates": ["entropy", "apriori"]})
    sys_, _ = PRESETS["sihr"].build(cfg.params)
    grid = Grid(sys_.domain, cfg.cells)
    traj = solve(sys_, grid, cfg.horizon, cfg.picard)
    alone = [c.format() for name in cfg.certificates for c in run_certificates(
        sys_, traj, grid, dataclasses.replace(cfg, certificates=(name,)), None)]
    frozen, init = [], FrozenCoefficients.__init__
    monkeypatch.setattr(FrozenCoefficients, "__init__",
                        lambda self, *a: frozen.append(a) or init(self, *a))
    both = [c.format() for c in run_certificates(sys_, traj, grid, cfg, None)]
    assert len(frozen) == 1 and frozen[0][1] is traj
    assert both == alone


@pytest.mark.parametrize("model", ["blowup-ode", "blowup-transport"])
def test_blowup_presets_refuse_params(tmp_path, capsys, model):
    path = write_config(tmp_path, model=model, params={"rate": 1.0})
    assert main(["run", str(path)]) == 2
    assert "takes no parameter overrides" in capsys.readouterr().err


@pytest.mark.parametrize("model", ["blowup-ode", "blowup-transport"])
def test_gronwall_is_refused_before_the_solve(tmp_path, capsys, model, monkeypatch):
    # the blow-up presets declare no growth bound: the run stops at the config
    # check, before any solve, and writes neither states nor series
    monkeypatch.setattr("renewalpde.cli.solve", lambda *a, **k: pytest.fail("solved"))
    path = write_config(tmp_path, model=model, certificates=["gronwall"])
    assert main(["run", str(path)]) == 2
    assert "'gronwall' not applicable" in capsys.readouterr().err
    out = tmp_path / "out"
    assert not (out / "states").exists() and not (out / "series.csv").exists()


def test_state_csv_roundtrip(tmp_path):
    path = write_config(tmp_path, horizon=0.25, cells=64, save_states=3)
    assert main(["run", str(path)]) == 0
    sdir = tmp_path / "out" / "states"
    text = (sdir / "state_0002.csv").read_text()
    lines = text.splitlines()
    assert lines[0] == "x0,u0"
    vals = np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])
    # 17 significant digits round-trip doubles exactly
    rendered = "\n".join(",".join(f"{v:.17g}" for v in row) for row in vals)
    assert rendered == "\n".join(lines[1:])


def test_deterministic_outputs(tmp_path):
    p1 = write_config(tmp_path, name="a.yaml", horizon=0.4, cells=100,
                      output=str(tmp_path / "out_a"), seed=7)
    p2 = write_config(tmp_path, name="b.yaml", horizon=0.4, cells=100,
                      output=str(tmp_path / "out_b"), seed=7)
    assert main(["run", str(p1)]) == 0
    assert main(["run", str(p2)]) == 0
    # every file, effective_config.yaml included: nothing records where the directory is
    a, b = tmp_path / "out_a", tmp_path / "out_b"
    files = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    assert files == sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    assert Path("effective_config.yaml") in files and Path("states/index.csv") in files
    for rel in files:
        assert (a / rel).read_bytes() == (b / rel).read_bytes(), rel


def test_control_run_writes_trace(tmp_path):
    cfg = {"model": "sihr", "horizon": 0.5, "cells": 48,
           "params": {"rho": 0.0, "mu_i": 0.4, "mu_h": 0.0, "theta": 0.1, "eta": 0.3},
           "certificates": ["positivity"],
           "control": {"objective": "deaths", "bounds": [[0.0, 1.0]], "budget": 14,
                       "cells": 48, "horizon": 0.5},
           "output": str(tmp_path / "out")}
    path = tmp_path / "run.yaml"
    path.write_text(yaml.safe_dump(cfg))
    assert main(["run", str(path)]) == 0
    trace = (tmp_path / "out" / "control_trace.csv").read_text().splitlines()
    assert trace[0] == "evaluation,incumbent"
    incumbents = [float(ln.split(",")[1]) for ln in trace[1:]]
    assert all(a >= b for a, b in zip(incumbents, incumbents[1:]))
    assert "control:" in (tmp_path / "out" / "certificates.txt").read_text()


def test_console_entrypoint_smoke(tmp_path):
    out = subprocess.run([sys.executable, "-m", "renewalpde.cli", "list-presets"],
                         capture_output=True, text=True)
    assert out.returncode == 0
    assert "sihr" in out.stdout


def test_effective_config_written(tmp_path):
    path = write_config(tmp_path, horizon=0.25, cells=64)
    assert main(["run", str(path)]) == 0
    eff = yaml.safe_load((tmp_path / "out" / "effective_config.yaml").read_text())
    assert eff["model"] == "blowup-ode"
    assert eff["picard"]["slab_length"] == 0.25
    assert eff["cells"] == [64]


def test_run_blowup_to_09_mass(tmp_path):
    path = write_config(tmp_path, horizon=0.9, cells=400)
    assert main(["run", str(path)]) == 0
    header, rows = read_series(tmp_path / "out")
    assert rows[-1, 0] == pytest.approx(0.9)
    assert rows[-1, 1] == pytest.approx(10.0, rel=0.05)
