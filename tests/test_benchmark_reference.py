"""The benchmark's stored outputs, checked in-process as ``perfbench/run.py`` checks them.

Draw 0 of the default seed must reproduce ``perfbench/reference.json`` to
the benchmark's own relative tolerance on every workload, so a change that
moves output bits is caught by the test suite and not only by a benchmark run.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"
WORKLOADS = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]


@pytest.mark.parametrize("name", WORKLOADS)
def test_default_seed_matches_the_stored_reference(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import run
    import workloads

    wl = workloads.WORKLOADS[name]
    inp = wl.inputs(workloads.Draw(run.DEFAULT_SEED, 0), tmp_path)
    problems, _, got = wl.check(inp, wl.run(inp, lambda fn: fn))
    assert problems == []
    want = json.loads((PERFBENCH / "reference.json").read_text())[name]
    assert want
    for key, value in want.items():
        assert run._rel_err(got.get(key, []), value) <= run.REF_RTOL, key
