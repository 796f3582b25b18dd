"""Smoke test of the benchmark's ``census`` workload.

One set-up, two passes and the benchmark's own check, which takes an
oracle census of each sub-table by its own GF(2) elimination and
exact-one search, run in process on the package under test: a library
change that would make that check fail, or make the second pass's
outputs differ from the first's, shows up here.  ``bench/census.py`` and
``bench/oracles.py`` are imported read-only, with no bytecode written
next to them.
"""

import importlib
import sys
from pathlib import Path

import ksparity
import ksparity.reproduce  # the set-up reads ks.reproduce

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_census_pass_passes_its_check(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("census", "oracles"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    workload = importlib.import_module("census").Census()
    inputs = workload.setup(ksparity, seed=1)
    out = workload.run_pass(inputs, None)
    assert workload.check(inputs, out) == (0, [])
    again = workload.run_pass(inputs, None)
    assert workload.summary(again) == workload.summary(out)
