"""Record the stored reference outputs or the baseline numbers.

    python3 perfbench/record.py reference   # writes perfbench/reference.json
    python3 perfbench/record.py baseline    # writes perfbench/baseline.json

Run from the repository root.  ``reference`` solves every workload once
at the default seed and stores the outputs that later runs of that
seed are compared against.  Re-record it only when a change is meant
to alter the numerical results, and say so in the change.  ``baseline``
runs ``run.py`` on every workload, untraced and traced, at the default
seed and records the results with the machine facts next to them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np

import run

HERE = Path(__file__).resolve().parent


def record_reference(root: Path) -> None:
    work = root / ".perfbench_work" / "reference"
    work.mkdir(parents=True, exist_ok=True)
    args = argparse.Namespace(seed=run.DEFAULT_SEED)
    refs = {}
    spec = json.loads((root / "BENCHMARK.json").read_text())
    try:
        for name in (w["name"] for w in spec["workloads"]):
            args.workload = name
            res = run.run_child(args, root, work, 0, 0, False, run.RUN_CAP_S)
            if "error" in res or res["problems"]:
                raise SystemExit(f"{name}: {res.get('error') or res['problems']}")
            refs[name] = res["ref"]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    (HERE / "reference.json").write_text(json.dumps(refs) + "\n")


def machine_facts(root: Path) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    src = sorted((root / "src").rglob("*.py"))
    return {
        "nproc": os.cpu_count(),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1,
        "src_lines": sum(len(p.read_text().splitlines()) for p in src),
    }


def record_baseline(root: Path) -> None:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    out = {"machine": machine_facts(root), "seed": run.DEFAULT_SEED,
           "run_seconds": spec["run_seconds"], "workloads": {}}
    for w in spec["workloads"]:
        entry = {}
        for trace in (0, 1):
            cmd = spec["command"][1:] + ["--workload", w["name"], "--seed", str(run.DEFAULT_SEED),
                                         "--seconds", str(spec["run_seconds"]),
                                         "--trace", str(trace)]
            proc = subprocess.run([sys.executable] + cmd, cwd=root, capture_output=True,
                                  text=True, check=True)
            res = json.loads(proc.stdout.strip().splitlines()[-1])
            entry["end_to_end" if trace == 0 else "per_layer"] = {
                k: v["value"] for k, v in res["metrics"].items()}
            entry[f"fail_frac_trace{trace}"] = res["failed"] / res["attempted"]
            entry[f"correct_trace{trace}"] = res["correct"]
        out["workloads"][w["name"]] = entry
        print(w["name"], json.dumps(entry["end_to_end"]))
    (HERE / "baseline.json").write_text(json.dumps(out, indent=1) + "\n")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("what", choices=("reference", "baseline"))
    root = Path.cwd()
    if ap.parse_args().what == "reference":
        record_reference(root)
    else:
        record_baseline(root)


if __name__ == "__main__":
    main()
