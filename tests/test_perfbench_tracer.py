"""The benchmark tracer's contract with the package, checked in-process.

``perfbench/tracer.py`` wraps entry points by name and reads its work figures
from their arguments.  A renamed entry point is recorded in ``missing``; an
argument layout it cannot read fails inside the wrapper.  One sweep of the
contact SIHR reaches both kernel classes.
"""

from pathlib import Path

import numpy as np

from renewalpde.domain import Grid
from renewalpde.picard import SlabPlan, Trajectory, apply_T

from test_picard import contact_sihr

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_wraps_every_target_and_reads_the_kernel_work(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracer

    sys_ = contact_sihr()
    grid = Grid(sys_.domain, (6, 5, 4))
    times = np.linspace(0.0, 0.25, 5)
    u0 = sys_.initial_state(grid)
    w = Trajectory(grid, times, np.repeat(u0.values[None], len(times), axis=0))
    plan = SlabPlan(sys_, u0, times)
    t = tracer.Tracer("contract")
    t.install()
    try:
        apply_T(sys_, w, plan)
    finally:
        t.uninstall()
    assert t.missing == {}
    work = [s[4] for s in t.spans if s[0] == "kernels.integrate"]
    # the contact (dense, every node against every node) and the natality mass
    assert sorted(work) == [grid.n_nodes, grid.n_nodes ** 2]
    assert all(type(x) is int for x in work)
    assert all(s[5] for s in t.spans)
