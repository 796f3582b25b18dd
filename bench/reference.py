#!/usr/bin/env python3
"""Reference figures quoted in bench/README.md, from the root of a checkout:

    python3 bench/reference.py

1. ``ksparity reproduce-paper`` wall time (a child process, untraced);
2. the full 36-basis kite census under the tracer, with its stage split:
   the drop-one filter is the time in ``assignment_satisfiable``, symbol
   rendering the time in ``proof_symbol``, and the subset-criticality
   filter the rest of the census (kernel spans, restricted nullspaces and
   the loop around them).

Takes about six minutes on a 2-core 2.1 GHz host.  Writes
``bench/out/reference.json`` and prints it.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import run


def reproduce_paper_seconds() -> dict:
    env = dict(os.environ, PYTHONPATH=str(run.SRC))
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", "from ksparity.cli import main; main()", "reproduce-paper"],
        cwd=run.ROOT, env=env, capture_output=True, text=True,
    )
    return {
        "seconds": time.perf_counter() - start,
        "exit": proc.returncode,
        "checks": proc.stderr.strip().splitlines(),
    }


def traced_kite_census() -> dict:
    from tracer import Tracer

    tracer = Tracer()
    package = run.import_package()
    tracer.install(package)
    start = time.perf_counter()
    table = package.parity.enumerate_bases(
        package.projectors.projectors_of(package.reproduce.kite_completion())
    )
    setup = time.perf_counter() - start
    tracer.use("pass")
    start = time.perf_counter()
    census = package.parity.enumerate_parity_proofs(table)
    wall = time.perf_counter() - start
    snap = tracer.snapshot("pass")
    seconds = {k: v["seconds"] for k, v in snap["stats"].items()}
    drop = seconds.get("parity.assignment_satisfiable", 0.0)
    symbols = seconds.get("parity.proof_symbol", 0.0)
    total = seconds["parity.enumerate_parity_proofs"]
    return {
        "setup_seconds": setup,
        "census_seconds": wall,
        "stages": {
            "subset_filter_s": total - drop - symbols,
            "drop_filter_s": drop,
            "symbols_s": symbols,
        },
        "total": census.total,
        "subset_critical_total": census.subset_critical_total,
        "kernel_dimension": census.kernel_dimension,
        "symbol_types": len(census.symbol_counts),
        "trace": snap,
    }


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    figures = {"reproduce_paper": reproduce_paper_seconds(), "kite_census": traced_kite_census()}
    run.OUT.mkdir(exist_ok=True)
    text = json.dumps(figures, indent=1)
    (run.OUT / "reference.json").write_text(text + "\n")
    print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
