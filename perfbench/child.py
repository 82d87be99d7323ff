"""One repetition of one workload, in a fresh process.

Started by ``run.py`` with the repository's ``src`` on ``PYTHONPATH``
and one BLAS thread.  Untraced, it wraps only the solver entry to take
the timestamps of set-up and solve time.  Traced, it installs the
layer tracer, writes the spans to ``--spans`` and reports the layer
metrics.  It writes one JSON result to ``--out``; checks run after
timing and their failures are reported, not raised.
"""

from __future__ import annotations

import argparse
import functools
import importlib
import json
import resource
import time
import traceback
from pathlib import Path


import layers
import tracer as tracing
import workloads


def _solver_stamps(module: str, attr: str):
    """Wrap the solver entry (and its aliases) to record call start and end."""
    stamps: list = []
    mod = importlib.import_module(f"{tracing.PACKAGE}.{module}")
    orig = getattr(mod, attr)

    @functools.wraps(orig)
    def timed(*args, **kwargs):
        start = time.perf_counter()
        try:
            return orig(*args, **kwargs)
        finally:
            stamps.append((start, time.perf_counter()))

    tracing.rebind(attr, orig, timed)
    return stamps


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--draw", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--work", type=Path, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    args = ap.parse_args()
    if args.trace and args.spans is None:
        ap.error("--trace 1 needs --spans")

    wl = workloads.WORKLOADS[args.workload]
    inp = wl.inputs(workloads.Draw(args.seed, args.draw), args.work)
    stamps: list = []
    tr = None
    if args.trace:
        tr = tracing.Tracer(args.spans.stem)
        tr.install()
        user_callback = tr.user_callback
    else:
        stamps = _solver_stamps(*wl.solver)
        user_callback = lambda fn: fn  # noqa: E731

    start = time.perf_counter()
    result = wl.run(inp, user_callback)
    wall = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    dump = None
    if tr is not None:
        tr.uninstall()
        dump = tr.dump()
    try:
        problems, digest, ref = wl.check(inp, result)
    except Exception:  # a check that cannot run is a failed check
        problems, digest, ref = [traceback.format_exc()], "", {}

    out = {"wall_s": wall, "peak_rss_mb": rss_mb, "problems": problems, "digest": digest,
           "ref": ref}
    if stamps:
        out["t_first_solve"] = stamps[0][0]
        out["solve_s"] = sum(end - begin for begin, end in stamps)
    if dump is not None:
        out["layers"], out["absent"] = layers.layer_metrics(dump, wl.facts(inp))
        args.spans.write_text(json.dumps(dump))
    args.out.write_text(json.dumps(out))


if __name__ == "__main__":
    main()
