"""Smoke test of the benchmark's ``queries`` workload.

One set-up, the request stream, two rounds and the benchmark's own check,
which holds each response to an expectation built without the command
line (dense projectors, exact covers, slot counts and the like), run in
process on the package under test: a library or command-line change that
would make a request fail its check, or make the second round's responses
differ from the first's, shows up here.  ``bench/queries.py`` and the
benchmark modules it imports are imported read-only, with no bytecode
written next to them, and its work files go to a temporary directory.
"""

import importlib
import sys
from pathlib import Path

import ksparity
import ksparity.cli  # the requests run ks.cli.main
import ksparity.reproduce  # the set-up reads ks.reproduce

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_queries_round_passes_its_check(monkeypatch, tmp_path):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(BENCH))
    for name in ("queries", "paradox", "oracles"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    queries = importlib.import_module("queries")
    monkeypatch.setattr(queries, "WORKDIR", tmp_path)
    workload = queries.Queries()
    inputs = workload.setup(ksparity, seed=1)
    try:
        workload.prepare(inputs)
        out = workload.run_pass(inputs, None)
        assert workload.check(inputs, out) == (0, [])
        again = workload.run_pass(inputs, None)
        assert workload.summary(again) == workload.summary(out)
    finally:
        workload.cleanup(inputs)
