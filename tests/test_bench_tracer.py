"""Smoke test of the benchmark's traced mode (``bench/run.py --trace 1``).

A child process imports the package afresh from ``src/``, wraps it with
``bench/tracer.Tracer`` and runs the empty two-qubit completion search,
the census of one square table and one ``paradox`` pass: a library change
that leaves the tracer's result hooks nothing to count, or that the
wrapped package no longer passes the ``paradox`` check with, shows up
here.  The child runs with bytecode writing off, so nothing is written
under ``bench/``, and the wrapping never reaches this session's modules.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCH = ROOT / "bench"

CHILD = """
import json, sys
sys.path[:0] = [{src!r}, {bench!r}]
import ksparity, ksparity.cli
from paradox import Paradox
from tracer import Tracer
tracer = Tracer()
tracer.install(ksparity)
empty = ksparity.ContextSystem(2, (), ())
result = ksparity.search_completions(empty, [3] * 6)
table = ksparity.enumerate_bases(ksparity.projectors_of(result.systems[0]))
ksparity.enumerate_parity_proofs(table)
workload = Paradox()
inputs = workload.setup(ksparity, seed=1)
check = workload.check(inputs, workload.run_pass(inputs, tracer))
print(json.dumps({{
    "package": ksparity.__file__,
    "counters": tracer.snapshot("setup")["counters"],
    "check": check,
}}))
"""


def test_traced_run_counts_and_passes_its_check():
    before = sorted(BENCH.rglob("*"))
    child = subprocess.run(
        [sys.executable, "-B", "-c",
         CHILD.format(src=str(ROOT / "src"), bench=str(BENCH))],
        capture_output=True, text=True, timeout=300,
    )
    assert child.returncode == 0, child.stderr
    report = json.loads(child.stdout)
    assert Path(report["package"]).parent == ROOT / "src" / "ksparity"
    counters = report["counters"]
    for name in ("search.nodes", "parity.subset_survivors", "parity.critical"):
        assert counters.get(name, 0) > 0, (name, counters)
    assert report["check"] == [0, []]
    assert sorted(BENCH.rglob("*")) == before
