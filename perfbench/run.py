"""renewalpde benchmark: one workload, repeated in fresh processes.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Each repetition is a new process
(``child.py``) with one BLAS thread, so set-up is paid every time and
no state leaks between repetitions.  Repetitions start while the next
one is expected to end within ``--seconds`` (at least three untraced,
or one untraced plus two traced with ``--trace 1``).

The inputs of a repetition come from the seed and a draw number
(``workloads.Draw``).  Untraced, the first two repetitions use draw 0
and every later one the next draw.  The draws step through each input
factor's range along a low-discrepancy sequence, so the medians average
over the whole range and input-dependent work (the blow-up cascade)
spreads little from seed to seed.  Traced, every repetition uses draw 0, so the counters and the
tracing overhead compare like with like.

``--trace 0`` reports the end-to-end metrics as medians over the
repetitions.  ``--trace 1`` reports the per-layer metrics of the traced
repetitions (medians of the times; the work counters must repeat
exactly) and the tracing overhead against the untraced one.

Every repetition is checked: the workload's own output checks, equal
output digests across the repetitions of one draw, and, for draw 0 of
the default seed, the stored reference in ``reference.json`` at 1e-12
relative.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from layers import COUNTERS, METRICS as LAYER_METRICS

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
REF_RTOL = 1e-12
MIN_PLAIN = 3
MIN_TRACED = 2
RUN_CAP_S = 170.0  # a run must end within 180 s
ONE_THREAD = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
END_TO_END = ("wall_s", "solve_s", "setup_s", "peak_rss_mb")
OVERHEAD = "trace.overhead_s"


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in ONE_THREAD})
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(args, root: Path, work: Path, rep: int, draw: int, traced: bool,
              timeout: float) -> dict:
    out = work / f"rep{rep}.json"
    spans = root / ".perfbench_work" / "spans" / f"{args.workload}-seed{args.seed}-rep{rep}.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--draw", str(draw), "--trace", str(int(traced)),
           "--work", str(work.relative_to(root)), "--out", str(out)]
    if traced:
        spans.parent.mkdir(parents=True, exist_ok=True)
        cmd += ["--spans", str(spans)]
    spawned = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root), stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"traced": traced, "draw": draw, "elapsed": time.perf_counter() - spawned,
                "error": f"repetition {rep} timed out after {timeout:.0f} s"}
    elapsed = time.perf_counter() - spawned
    if proc.returncode != 0 or not out.exists():
        return {"traced": traced, "draw": draw, "elapsed": elapsed,
                "error": f"repetition {rep} exited {proc.returncode}: {proc.stderr[-2000:]}"}
    res = json.loads(out.read_text())
    res.update(traced=traced, draw=draw, elapsed=elapsed)
    if "t_first_solve" in res:
        res["setup_s"] = res["t_first_solve"] - spawned
    return res


def repeat(args, root: Path, work: Path) -> list[dict]:
    """Run repetitions until the next one would overrun ``--seconds``."""
    start = time.perf_counter()
    reps: list[dict] = []
    while True:
        n_plain = sum(not r["traced"] for r in reps)
        traced = bool(args.trace) and n_plain >= 1
        same = [r["elapsed"] for r in reps if r["traced"] == traced]
        done = time.perf_counter() - start
        need = n_plain < MIN_PLAIN if not args.trace else \
            (n_plain < 1 or len(reps) - n_plain < MIN_TRACED)
        if not need and (not same or done + statistics.median(same) > args.seconds):
            return reps
        if done > RUN_CAP_S - 10.0:
            return reps
        draw = 0 if args.trace else max(0, len(reps) - 1)
        reps.append(run_child(args, root, work, len(reps), draw, traced, RUN_CAP_S - done))


def _rel_err(a, b) -> float:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    if a.shape != b.shape:
        return float("inf")
    scale = float(np.max(np.abs(b), initial=0.0)) or 1.0
    return float(np.max(np.abs(a - b), initial=0.0)) / scale


def judge(reps: list[dict], args) -> list[str]:
    """Mark failed repetitions in place; returns the run-level findings."""
    findings = []
    ref = None
    if args.seed == DEFAULT_SEED:
        path = HERE / "reference.json"
        ref = json.loads(path.read_text()).get(args.workload) if path.exists() else None
        if ref is None:
            findings.append(f"no stored reference for {args.workload}")
    first_digest: dict[int, str] = {}
    counters = None
    for r in reps:
        if "error" in r:
            continue
        why = list(r["problems"])
        if r["digest"] != first_digest.setdefault(r["draw"], r["digest"]):
            why.append("outputs differ from the first repetition of this draw")
        if ref is not None and r["draw"] == 0:
            for key, want in ref.items():
                err = _rel_err(r["ref"].get(key, []), want)
                if not err <= REF_RTOL:
                    why.append(f"{key} differs from the reference by {err:.3g} relative")
        if r["traced"]:
            got = {k: r["layers"][k] for k in COUNTERS}
            if counters is None:
                counters = got
            elif got != counters:
                diff = sorted(k for k in got if got[k] != counters[k])
                why.append("work counters differ between traced repetitions: " + ", ".join(diff))
        if why:
            r["error"] = "; ".join(why)
    return findings


def median_of(reps, key):
    vals = [r[key] for r in reps if key in r]
    return statistics.median(vals) if vals else None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = Path.cwd()
    if not (root / "src" / "renewalpde" / "__init__.py").is_file():
        print("perfbench: src/renewalpde not found; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    want = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in want}

    work = root / ".perfbench_work" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        reps = repeat(args, root, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    findings = judge(reps, args)
    for r in reps:
        if "error" in r:
            print(f"FAILED ({'traced' if r['traced'] else 'untraced'}): {r['error']}",
                  file=sys.stderr)
    for f in findings:
        print(f"FAILED: {f}", file=sys.stderr)

    measured = [r for r in reps if "wall_s" in r]
    plain = [r for r in measured if not r["traced"]]
    traced = [r for r in measured if r["traced"]]
    if not plain or (args.trace and not traced):
        print("perfbench: no repetition completed; nothing to report", file=sys.stderr)
        return 1
    metrics = {}
    absent = {}
    if args.trace:
        for name in LAYER_METRICS:
            vals = [r["layers"][name] for r in traced]
            metrics[name] = vals[0] if name in COUNTERS else statistics.median(vals)
        metrics[OVERHEAD] = median_of(traced, "wall_s") - median_of(plain, "wall_s")
        absent = traced[0]["absent"]
    else:
        metrics = {name: median_of(plain, name) for name in END_TO_END}
    if set(metrics) != set(units):
        raise SystemExit(f"perfbench: metrics {sorted(set(metrics) ^ set(units))} "
                         "do not match BENCHMARK.json")

    failed = sum("error" in r for r in reps)
    print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions "
          f"({len(traced)} traced), fail_frac {failed / len(reps):.3g}")
    for kind, group in (("untraced", plain), ("traced", traced)):
        if group:
            print(f"  {kind} wall_s per repetition: "
                  + " ".join(f"{r['wall_s']:.3f}" for r in group))
    for name, value in metrics.items():
        note = f"  [absent: {absent[name]}]" if name in absent else ""
        print(f"  {name} = {value:.6g} {units[name]}{note}")
    print(json.dumps({
        "correct": failed == 0 and not findings,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
