"""Per-layer metrics computed from the spans of one traced run.

A span's self time is its duration minus the durations of its child
spans; calls are single-threaded, so children never overlap.  Every
metric names the spans it needs.  When the tracer could not wrap one of
them the metric is absent, with the tracer's reason; when the workload
never called the layer it is absent as "not exercised".  A metric without
enough samples (the sweep tail) is absent too.  Absent metrics still
carry a number (0, nothing was measured) so that the output keeps one
fixed set of keys.
"""

from __future__ import annotations

import statistics

import numpy as np

TRACE = "characteristics.trace_backward"
RK4 = "characteristics.rk4_step"
BISECT = "characteristics._refine_exit"
EVALUATE = "transport.evaluate"
SOLVE = "picard.solve"
SLAB = "picard.solve_slab"
SWEEP = "picard.apply_T"
FREEZE = "picard.freeze"
W_AT = "picard.w_at"
COEFF = "picard.coeff"
INTERP = "domain.interp_values"
INTEGRATE = "kernels.integrate"
CALLBACK = "models.callback"
CERTS = "analysis.run_certificates"
ENTROPY = "analysis.entropy_sweep"
GRONWALL = "analysis.gronwall_certificate"
OUTPUT = "cli.output"
LOAD = "config.load_config"

TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


class SpanTable:
    """Index of one run's spans by name, with self times and ancestry."""

    def __init__(self, spans: list):
        n = len(spans)
        self.spans = spans
        self.dur = [s[2] - s[1] for s in spans]
        child = [0.0] * n
        for i, s in enumerate(spans):
            if s[3] >= 0:
                child[s[3]] += self.dur[i]
        self.self_time = [d - c for d, c in zip(self.dur, child)]
        self.by_name: dict[str, list[int]] = {}
        for i, s in enumerate(spans):
            self.by_name.setdefault(s[0], []).append(i)

    def idx(self, name: str) -> list[int]:
        return self.by_name.get(name, [])

    def count(self, name: str) -> int:
        return len(self.idx(name))

    def total(self, name: str) -> float:
        return sum(self.dur[i] for i in self.idx(name))

    def self_total(self, *names: str) -> float:
        return sum(self.self_time[i] for n in names for i in self.idx(n))

    def work(self, name: str) -> int:
        return sum(self.spans[i][4] for i in self.idx(name))

    def nearest(self, name: str) -> list[int]:
        """For each span, the index of its closest ancestor-or-self called ``name``."""
        out = [-1] * len(self.spans)
        for i, s in enumerate(self.spans):
            out[i] = i if s[0] == name else (out[s[3]] if s[3] >= 0 else -1)
        return out


def _bisect_steps(t: SpanTable) -> int:
    inside = t.nearest(BISECT)
    return sum(1 for i in t.idx(RK4) if inside[i] >= 0)


def _attempts(t: SpanTable) -> dict:
    """Slab attempts from the sweeps: one slab call, one window per attempt.

    Each attempt of ``solve_slab`` iterates on its own time window, and
    a halving changes the window, so consecutive sweeps over one window
    are one attempt.  An attempt is useful only when it is the last of
    a slab call that returned.
    """
    slab_of = t.nearest(SLAB)
    per_slab: dict[int, list] = {}
    for i in t.idx(SWEEP):
        groups = per_slab.setdefault(slab_of[i], [])
        window = tuple(t.spans[i][4])
        if groups and groups[-1][0] == window:
            groups[-1][1] += 1
        else:
            groups.append([window, 1])
    sweeps = t.count(SWEEP)
    attempts = sum(len(g) for g in per_slab.values())
    useful = 0
    accepted = 0
    for slab, groups in per_slab.items():
        if slab >= 0 and t.spans[slab][5]:
            useful += groups[-1][1]
            accepted += 1
    return {"attempts": attempts, "wasted": sweeps - useful, "halvings": attempts - accepted,
            "ratio": useful / sweeps if sweeps else 0.0}


def _sweep_tail(t: SpanTable) -> tuple:
    """Highest percentile with at least ten sweeps beyond it, and that percentile.

    ``(None, None)`` when there are too few sweeps for any of them.
    """
    durs = [t.dur[i] for i in t.idx(SWEEP)]
    for pct in TAIL_PERCENTILES:
        if len(durs) * (1.0 - pct / 100.0) >= 10.0:
            return float(np.percentile(durs, pct)), pct
    return None, None


# name -> (unit, better, spans it needs, value from the span table and run facts)
METRICS = {
    "characteristics.trace_s": ("s", "lower", (TRACE,), lambda t, f: t.total(TRACE)),
    "characteristics.traces": ("count", "lower", (TRACE,), lambda t, f: t.count(TRACE)),
    "characteristics.trace_points": ("count", "lower", (TRACE,), lambda t, f: t.work(TRACE)),
    "characteristics.rk4_steps": ("count", "lower", (RK4,), lambda t, f: t.count(RK4)),
    "characteristics.rk4_point_steps": ("count", "lower", (RK4,), lambda t, f: t.work(RK4)),
    "characteristics.bisect_s": ("s", "lower", (BISECT,), lambda t, f: t.total(BISECT)),
    "characteristics.bisect_calls": ("count", "lower", (BISECT,), lambda t, f: t.count(BISECT)),
    "characteristics.bisect_steps": ("count", "lower", (BISECT, RK4),
                                     lambda t, f: _bisect_steps(t)),
    "transport.evaluate_s": ("s", "lower", (EVALUATE,), lambda t, f: t.self_total(EVALUATE)),
    "transport.evaluate_calls": ("count", "lower", (EVALUATE,), lambda t, f: t.count(EVALUATE)),
    "picard.sweeps": ("count", "lower", (SWEEP,), lambda t, f: t.count(SWEEP)),
    "picard.sweeps_wasted": ("count", "lower", (SWEEP, SLAB),
                             lambda t, f: _attempts(t)["wasted"]),
    "picard.useful_sweep_ratio": ("ratio", "higher", (SWEEP, SLAB),
                                  lambda t, f: _attempts(t)["ratio"]),
    "picard.slab_attempts": ("count", "lower", (SWEEP, SLAB),
                             lambda t, f: _attempts(t)["attempts"]),
    "picard.halvings": ("count", "lower", (SWEEP, SLAB), lambda t, f: _attempts(t)["halvings"]),
    "picard.sweep_s_p50": ("s", "lower", (SWEEP,),
                           lambda t, f: statistics.median(t.dur[i] for i in t.idx(SWEEP))),
    "picard.sweep_s_tail": ("s", "lower", (SWEEP,), lambda t, f: _sweep_tail(t)[0]),
    "picard.sweep_tail_pct": ("%", "higher", (SWEEP,), lambda t, f: _sweep_tail(t)[1]),
    "picard.freeze_s": ("s", "lower", (FREEZE,), lambda t, f: t.total(FREEZE)),
    "picard.w_at_s": ("s", "lower", (W_AT,), lambda t, f: t.total(W_AT)),
    "picard.w_at_calls": ("count", "lower", (W_AT,), lambda t, f: t.count(W_AT)),
    "picard.coeff_s": ("s", "lower", (COEFF,), lambda t, f: t.self_total(COEFF)),
    "picard.self_s": ("s", "lower", (SOLVE,), lambda t, f: t.self_total(SOLVE, SLAB, SWEEP)),
    "domain.interp_s": ("s", "lower", (INTERP,), lambda t, f: t.total(INTERP)),
    "domain.interp_calls": ("count", "lower", (INTERP,), lambda t, f: t.count(INTERP)),
    "domain.interp_points": ("count", "lower", (INTERP,), lambda t, f: t.work(INTERP)),
    "kernels.integrate_s": ("s", "lower", (INTEGRATE,), lambda t, f: t.total(INTEGRATE)),
    "kernels.integrate_calls": ("count", "lower", (INTEGRATE,),
                                lambda t, f: t.count(INTEGRATE)),
    "kernels.pair_evals": ("count", "lower", (INTEGRATE,), lambda t, f: t.work(INTEGRATE)),
    "models.callback_s": ("s", "lower", (CALLBACK,), lambda t, f: t.total(CALLBACK)),
    "models.callback_calls": ("count", "lower", (CALLBACK,), lambda t, f: t.count(CALLBACK)),
    "models.callback_points": ("count", "lower", (CALLBACK,), lambda t, f: t.work(CALLBACK)),
    "analysis.cert_s": ("s", "lower", (CERTS,), lambda t, f: t.total(CERTS)),
    "analysis.entropy_s": ("s", "lower", (ENTROPY,), lambda t, f: t.total(ENTROPY)),
    "analysis.gronwall_s": ("s", "lower", (GRONWALL,), lambda t, f: t.total(GRONWALL)),
    "cli.output_s": ("s", "lower", (OUTPUT,), lambda t, f: t.total(OUTPUT)),
    "cli.bytes_written": ("bytes", "lower", (OUTPUT,), lambda t, f: f.get("bytes_written", 0)),
    "config.load_s": ("s", "lower", (LOAD,), lambda t, f: t.total(LOAD)),
}

COUNTERS = tuple(name for name, spec in METRICS.items() if spec[0] in ("count", "bytes"))


def layer_metrics(dump: dict, facts: dict) -> tuple[dict, dict]:
    """Metric values of one traced run, and the absent ones with reasons."""
    table = SpanTable(dump["spans"])
    missing = dump["missing"]
    values: dict = {}
    absent: dict = {}
    for name, (_, _, needs, value) in METRICS.items():
        gone = [missing[s] for s in needs if s in missing]
        idle = [s for s in needs if not table.count(s)]
        v = None
        if gone:
            absent[name] = "; ".join(gone)
        elif idle:
            absent[name] = "not exercised: no call to " + ", ".join(idle)
        else:
            v = value(table, facts)
            if v is None:
                absent[name] = "too few samples"
        values[name] = 0 if v is None else v
    return values, absent
