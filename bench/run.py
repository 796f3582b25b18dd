#!/usr/bin/env python3
"""Benchmark of the ksparity package, run from the root of a checkout.

    python3 bench/run.py --workload census|paradox|queries \
        --seed N --seconds S --trace 0|1

The package is imported from the checkout's ``src/`` tree.  Each run sets
the workload up several times (import plus input construction through the
public API), then repeats timed passes over the workload's operations for
about ``--seconds`` seconds, checking every pass's outputs against the
benchmark's own oracles.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1`` the
public functions are wrapped and the per-layer ones are reported instead.
Raw results and traces go to ``bench/out/``.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from pathlib import Path
from typing import List

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = BENCH_DIR / "out"

EXIT_USAGE = 2

# the reference loop runs in chunks of about 1 ms (on a 2.1 GHz core),
# one every SAMPLE_PERIOD seconds of a timed block, so even a 0.7 s queries
# pass holds about 30 samples of the host's speed
REF_ITERS = 2_000
SAMPLE_PERIOD = 0.025
# times are reported in reference seconds: raw seconds scaled to a host on
# which one reference chunk takes REF_CHUNK_S, about the median chunk time
# on the 2-core 2.1 GHz host of the reference figures
REF_CHUNK_S = 0.00117


def reference_loop(iters: int = REF_ITERS) -> int:
    """Fixed pure-Python work (xorshift, list stores, popcounts) whose time
    tracks the interpreter speed the host gives this process right now."""
    mask = (1 << 64) - 1
    x = 0x2545F4914F6CDD1D
    acc = 0
    table = [0] * 256
    for _ in range(iters):
        x ^= (x << 13) & mask
        x ^= x >> 7
        x ^= (x << 17) & mask
        table[x & 255] ^= x
        acc += (x & 0xFFFF).bit_count()
    return acc + sum(table) % 7


class HostTimer:
    """Times a block and samples the host's speed over the same seconds.

    A SIGALRM handler runs a reference chunk every SAMPLE_PERIOD seconds
    while the block runs, in the block's own thread, and one more chunk runs
    just before and just after it, so even a short block is sampled.  The
    time spent in chunks inside the block is taken off its time.  A shared
    host's speed can swing by 1.7x from one second to the next (it did on
    the 2-core host of the reference figures), so the chunk time measured
    alongside the block is what turns its raw time into reference seconds
    (``reference_seconds``).
    """

    def __enter__(self):
        self.chunk_seconds = 0.0
        self.chunks = 0
        self._chunk()
        signal.signal(signal.SIGALRM, self._chunk)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        self._inside = self.chunk_seconds
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        elapsed = time.perf_counter() - self._start
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.seconds = elapsed - (self.chunk_seconds - self._inside)
        self._chunk()
        self.chunk = self.chunk_seconds / self.chunks

    def _chunk(self, signum=None, frame=None):
        start = time.perf_counter()
        reference_loop()
        self.chunk_seconds += time.perf_counter() - start
        self.chunks += 1


def reference_seconds(raw: List[float], chunks: List[float]) -> float:
    """Median over timed blocks of raw seconds scaled to the reference host."""
    return statistics.median(r * REF_CHUNK_S / c for r, c in zip(raw, chunks))


def package_modules() -> dict:
    return {n: m for n, m in sys.modules.items() if n == "ksparity" or n.startswith("ksparity.")}


def import_package():
    """Import ``ksparity`` afresh from the checkout's source tree."""
    for name in package_modules():
        del sys.modules[name]
    package = importlib.import_module("ksparity")
    importlib.import_module("ksparity.cli")
    if Path(package.__file__).resolve().parent != SRC / "ksparity":
        raise RuntimeError(f"imported ksparity from {package.__file__}, not {SRC}")
    return package


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def measure(workload, seed: int, seconds: float, tracer) -> dict:
    """Set-ups and passes of one run.

    Set-up repetitions are spread over the run (one more each time another
    ``seconds / setup_repeats`` of passes has gone by) so that their median
    samples the host over the whole run, not over one moment of it.  Peak
    memory is read after the last pass, before the oracles run; the first
    pass's outputs are checked in full, later passes must reproduce them.
    """
    setups: List[float] = []
    setup_chunks: List[float] = []

    def set_up():
        if tracer is not None:
            tracer.use("setup")
        with HostTimer() as timer:
            package = import_package()
            if tracer is not None:
                tracer.install(package)
            inputs = workload.setup(package, seed)
        setups.append(timer.seconds)
        setup_chunks.append(timer.chunk)
        if tracer is not None:
            tracer.use("pass")
        return inputs

    def set_up_again():
        # the passes go on with the first set-up's package (the program
        # imports some modules inside functions, which would otherwise mix in
        # the modules of a later set-up), and the repeat's package is freed
        # at once, not at some later collection inside a pass; so peak memory
        # does not depend on where in the run the repeats fall
        workload.cleanup(set_up())
        sys.modules.update(modules)
        gc.collect()

    inputs = set_up()
    modules = package_modules()
    try:
        workload.prepare(inputs)
        period = seconds / workload.setup_repeats
        passes: List[float] = []
        pass_chunks: List[float] = []
        first = first_digest = None
        differing = []
        while True:
            with HostTimer() as timer:
                results = workload.run_pass(inputs, tracer)
            passes.append(timer.seconds)
            pass_chunks.append(timer.chunk)
            digest = hashlib.sha256(repr(workload.summary(results)).encode()).hexdigest()
            if first is None:
                first, first_digest = results, digest
            elif digest != first_digest:
                differing.append(results)
            del results
            owed = min(workload.setup_repeats, 1 + int(sum(passes) / period))
            while len(setups) < owed:
                set_up_again()
            if sum(passes) + passes[-1] > seconds:
                break
        while len(setups) < workload.setup_repeats:
            set_up_again()
        peak = peak_rss_mb()
        failed, problems = workload.check(inputs, first)
        failed *= len(passes) - len(differing)
        for results in differing:
            pass_failed, pass_problems = workload.check(inputs, results)
            failed += pass_failed
            problems += ["a pass differs from the first"] + pass_problems
    finally:
        workload.cleanup(inputs)
    return {
        "setups": setups,
        "setup_chunks": setup_chunks,
        "passes": passes,
        "pass_chunks": pass_chunks,
        "attempted": workload.ops_per_pass * len(passes),
        "failed": failed,
        "problems": problems,
        "setup_trace": tracer.snapshot("setup") if tracer is not None else None,
        "pass_trace": tracer.snapshot("pass") if tracer is not None else None,
        "requests": tracer.requests if tracer is not None else None,
        "peak_rss_mb": peak,
    }


def end_to_end(raw: dict) -> dict:
    return {
        "setup_s": {"value": reference_seconds(raw["setups"], raw["setup_chunks"]),
                    "unit": "s"},
        "pass_s": {"value": reference_seconds(raw["passes"], raw["pass_chunks"]),
                   "unit": "s"},
        "pass_norm": {"value": statistics.median(
            p / c for p, c in zip(raw["passes"], raw["pass_chunks"])), "unit": "x"},
        "peak_rss_mb": {"value": raw["peak_rss_mb"], "unit": "MB"},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still removes the files it wrote
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (SRC / "ksparity" / "__init__.py").is_file():
        print(f"error: no ksparity source tree under {ROOT}; "
              "run from the root of a repository checkout", file=sys.stderr)
        return EXIT_USAGE
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    # numpy's BLAS runs on this thread only: with a worker thread per core
    # its timings would follow whatever else runs on the other cores
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    # the package's dependencies load once, before any timed set-up
    import click  # noqa: F401
    import numpy  # noqa: F401

    from census import Census
    from layers import per_layer
    from paradox import Paradox
    from queries import Queries
    from tracer import Tracer

    workloads = {w.name: w for w in (Census, Paradox, Queries)}

    if args.workload not in workloads:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {', '.join(workloads)}", file=sys.stderr)
        return EXIT_USAGE
    workload = workloads[args.workload]()
    tracer = Tracer() if args.trace else None
    raw = measure(workload, args.seed, args.seconds, tracer)
    metrics = per_layer(raw, workload) if args.trace else end_to_end(raw)
    result = {
        "correct": not raw["problems"],
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(raw | {"result": result}, indent=1, default=str) + "\n")
    for problem in raw["problems"][:20]:
        print("problem:", problem, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
