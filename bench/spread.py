#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, from the root of a checkout:

    python3 bench/spread.py --workload census --seeds 1-10 [--seconds 30]

Runs ``bench/run.py`` once per seed, one run at a time, and prints each
run's metrics, then per metric the median and the distance between the
first and third quartiles as a share of the median
(``statistics.quantiles(values, n=4)``), and the share of failed
operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, required=True, help="e.g. 1-10")
    parser.add_argument("--seconds", default="30")
    args = parser.parse_args()
    values: dict = {}
    shares = set()
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", args.seconds, "--trace", "0"],
            capture_output=True, text=True, check=True,
        )
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        shares.add(result["failed"] / result["attempted"])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(seed, result["correct"], result["attempted"], result["failed"],
              {k: round(v["value"], 4) for k, v in result["metrics"].items()}, flush=True)
    for name, vals in values.items():
        median = statistics.median(vals)
        if len(vals) < 2:
            print(f"{name}: median {median:.4f}")
            continue
        q1, _, q3 = statistics.quantiles(vals, n=4)
        print(f"{name}: median {median:.4f} spread {(q3 - q1) / median:.3f}")
    print("failed shares:", sorted(shares))
    return 0


if __name__ == "__main__":
    sys.exit(main())
