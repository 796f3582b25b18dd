"""Smoke test of the benchmark's ``paradox`` workload.

One set-up, two passes and the benchmark's own checks, run in process on
the package under test: a library change that would make the benchmark's
check fail, or make the second pass's outputs differ from the first's
(the benchmark requires every pass to repeat the first exactly), shows up
here.  ``bench/paradox.py`` and ``bench/oracles.py`` are imported
read-only, with no bytecode written next to them.
"""

import importlib
import sys
from pathlib import Path

import ksparity

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_paradox_pass_passes_its_check(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("paradox", "oracles"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    workload = importlib.import_module("paradox").Paradox()
    inputs = workload.setup(ksparity, seed=1)
    out = workload.run_pass(inputs, None)
    assert workload.check(inputs, out) == (0, [])
    again = workload.run_pass(inputs, None)
    assert workload.summary(again) == workload.summary(out)
