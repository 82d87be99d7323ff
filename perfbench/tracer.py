"""Outside-in layer tracer for renewalpde.

The tracer wraps public entry points of the package's modules from the
outside: nothing under ``src/`` knows it exists.  A wrapped function
records one span per call (name, start, end, parent span, a small work
figure taken from its arguments, and whether it returned normally).
Spans stay in memory until the run ends.

A module-level function is rebound in every ``renewalpde`` module that
holds the same object under the same name, which catches the aliases
made by ``from .x import f``.  A target that no longer exists is not an
error: it is recorded in ``missing`` with the reason, and the metrics
that need it are reported as absent.  Later refactors may delete or
move a target and the benchmark still runs.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

import numpy as np

PACKAGE = "renewalpde"


def _arg(args, kwargs, pos, name):
    if name in kwargs:
        return kwargs[name]
    return args[pos] if len(args) > pos else None


def _rows(x) -> int:
    return int(np.atleast_2d(np.asarray(x)).shape[0])


def rebind(attr: str, orig, new) -> list:
    """Point every package module's ``attr`` that is ``orig`` at ``new``.

    Returns ``(owner, attr, old)`` triples that undo the change.
    """
    undo = []
    for mname, mod in list(sys.modules.items()):
        if (mname == PACKAGE or mname.startswith(PACKAGE + ".")) and mod is not None \
                and mod.__dict__.get(attr) is orig:
            undo.append((mod, attr, orig))
            setattr(mod, attr, new)
    return undo


def _rows_at(pos, name):
    return lambda *a, **k: _rows(_arg(a, k, pos, name))


def _slab_window(*a, **k):
    times = _arg(a, k, 1, "w").times
    return (float(times[0]), float(times[-1]))


def _dense_pairs(*a, **k):
    return _rows(_arg(a, k, 2, "pts")) * int(_arg(a, k, 3, "f").grid.n_nodes)


def _mass_pairs(*a, **k):
    return int(_arg(a, k, 3, "f").grid.n_nodes)


# (span name, module, attribute, class or None, work figure from the arguments)
TARGETS = [
    ("characteristics.trace_backward", "characteristics", "trace_backward", None,
     _rows_at(2, "pts")),
    ("characteristics.rk4_step", "characteristics", "rk4_step", None, _rows_at(2, "x")),
    ("characteristics._refine_exit", "characteristics", "_refine_exit", None, None),
    ("transport.evaluate", "transport", "evaluate", None, None),
    ("transport.solve_series", "transport", "solve_series", None, None),
    ("picard.solve", "picard", "solve", None, None),
    ("picard.solve_slab", "picard", "solve_slab", None, None),
    ("picard.apply_T", "picard", "apply_T", None, _slab_window),
    ("picard.freeze", "picard", "__init__", "FrozenCoefficients", None),
    ("picard.w_at", "picard", "w_at", "FrozenCoefficients", None),
    ("picard.coeff", "picard", "p", "FrozenCoefficients", None),
    ("picard.coeff", "picard", "q", "FrozenCoefficients", None),
    ("picard.coeff", "picard", "ub", "FrozenCoefficients", None),
    ("domain.interp_values", "domain", "interp_values", None, _rows_at(2, "pts")),
    ("kernels.integrate", "kernels", "integrate", "WeightedMassKernel", _mass_pairs),
    ("kernels.integrate", "kernels", "integrate", "ScalarComponentKernel", _dense_pairs),
    ("analysis.run_certificates", "cli", "run_certificates", None, None),
    ("analysis.entropy_sweep", "analysis", "entropy_sweep", None, None),
    ("analysis.gronwall_certificate", "analysis", "gronwall_certificate", None, None),
    ("cli.output", "cli", "_save_states", None, None),
    ("cli.output", "cli", "_save_series", None, None),
    ("config.load_config", "config", "load_config", None, None),
]

MODEL_CALLBACKS = "models.callback"


class Tracer:
    """Span recorder plus the patches that feed it; see the module docstring."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.missing: dict[str, str] = {}  # span name -> why it cannot be recorded
        self._stack: list[int] = []
        self._restore: list = []

    def wrap(self, name: str, fn, work=None):
        """Return ``fn`` recording one span per call under ``name``."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            figure = work(*args, **kwargs) if work is not None else None
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            ok = False
            start = clock()
            try:
                out = fn(*args, **kwargs)
                ok = True
                return out
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, figure, ok)

        return traced

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        for name, mod_name, attr, cls_name, work in TARGETS:
            where = f"{PACKAGE}.{mod_name}.{cls_name + '.' if cls_name else ''}{attr}"
            try:
                mod = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.missing[name] = f"module {PACKAGE}.{mod_name} does not exist"
                continue
            owner = getattr(mod, cls_name, None) if cls_name else mod
            if owner is None or attr not in vars(owner):
                self.missing[name] = f"{where} does not exist"
                continue
            orig = vars(owner)[attr]
            new = self.wrap(name, orig, work)
            if cls_name:
                self._set(owner, attr, new)
            else:
                self._restore.extend(rebind(attr, orig, new))
        self._hook_system_callbacks()

    def _hook_system_callbacks(self) -> None:
        """Wrap the P/Q/Ub tuples of every SystemDef built while installed."""
        where = f"{PACKAGE}.problem.SystemDef.__post_init__"
        try:
            cls = importlib.import_module(f"{PACKAGE}.problem").SystemDef
        except (ImportError, AttributeError):
            self.missing[MODEL_CALLBACKS] = f"{PACKAGE}.problem.SystemDef does not exist"
            return
        if "__post_init__" not in vars(cls):
            self.missing[MODEL_CALLBACKS] = f"{where} does not exist"
            return
        orig = vars(cls)["__post_init__"]
        tracer = self

        def post_init(obj):
            orig(obj)
            for attr in ("P", "Q", "Ub"):
                row = getattr(obj, attr, None)
                if row is not None:
                    setattr(obj, attr, tuple(tracer.user_callback(fn) for fn in row))

        self._set(cls, "__post_init__", post_init)

    def user_callback(self, fn):
        """Span wrapper for a coefficient callback ``fn(t, pts, ...)``."""
        return self.wrap(MODEL_CALLBACKS, fn, _rows_at(1, "pts"))

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    def dump(self) -> dict:
        """Spans as plain lists: [name, start, end, parent, work, ok]."""
        return {"run_id": self.run_id, "missing": self.missing,
                "fields": ["name", "start", "end", "parent", "work", "ok"],
                "spans": [list(s) for s in self.spans]}
