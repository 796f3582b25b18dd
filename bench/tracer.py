"""Per-layer tracing by wrapping ksparity's public functions from outside.

Every public function of the traced modules is replaced by a wrapper that
times it and counts its calls.  Modules import each other's functions by
name (``from .pauli import multiply``), so every module global bound to a
wrapped function is rebound, which makes calls between layers pass through
the wrappers too.  Nothing under ``src/`` is edited.

Spans are aggregated in memory per name: calls, inclusive seconds (the
outermost call only, so recursion is not counted twice) and self seconds
(inclusive minus the time covered by wrapped children).  Generator
functions only count the items they yield.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Callable, Dict, List

TRACED_MODULES = (
    "pauli", "gf2", "systems", "states", "projectors", "parity",
    "search", "reproduce", "dot",
)


class Stat:
    __slots__ = ("calls", "seconds", "self_seconds", "depth")

    def __init__(self):
        self.calls = 0
        self.seconds = 0.0
        self.self_seconds = 0.0
        self.depth = 0


class Tracer:
    def __init__(self):
        self._phases: Dict[str, tuple] = {}
        self._stack: List[list] = []  # [name, child seconds]
        self.requests: List[dict] = []
        self.use("setup")

    def use(self, phase: str) -> None:
        """Record into the stats of ``phase`` ("setup" or "pass") from now."""
        self.stats, self.counters = self._phases.setdefault(phase, ({}, {}))

    # -- bookkeeping ------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def span(self, name: str, fn: Callable, /, *args, **kwargs):
        """Run ``fn`` inside a span named ``name``.

        Returns (result, frame) with frame = [name, seconds covered by
        child spans, seconds elapsed].
        """
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        frame = [name, 0.0]
        self._stack.append(frame)
        stat.depth += 1
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs), frame
        finally:
            elapsed = time.perf_counter() - start
            self._stack.pop()
            stat.depth -= 1
            stat.calls += 1
            if stat.depth == 0:
                stat.seconds += elapsed
            stat.self_seconds += elapsed - frame[1]
            frame.append(elapsed)
            if self._stack:
                self._stack[-1][1] += elapsed

    def snapshot(self, phase: str) -> dict:
        stats, counters = self._phases.get(phase, ({}, {}))
        return {
            "stats": {
                k: {"calls": s.calls, "seconds": s.seconds, "self_seconds": s.self_seconds}
                for k, s in sorted(stats.items())
            },
            "counters": dict(sorted(counters.items())),
        }

    # -- installation -----------------------------------------------------

    def wrap(self, name: str, fn: Callable) -> Callable:
        hook = RESULT_HOOKS.get(name)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(name, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result, _ = self.span(name, fn, *args, **kwargs)
            if hook is not None:
                hook(self, result)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn: Callable) -> Callable:
        # generators are counted, not timed: the caller's work between two
        # yields is not theirs, and their own work per item is a few
        # bytecodes, which a span per resumption would cost several times
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = 0
            try:
                for value in fn(*args, **kwargs):
                    items += 1
                    yield value
            finally:
                self.count(name + ".yields", items)

        return wrapper

    def _counted(self, name: str, fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.count(name)
            return fn(*args, **kwargs)

        return wrapper

    def install(self, package) -> None:
        """Wrap the public functions of each traced module of a freshly
        imported ``ksparity`` and rebind every global that names them,
        in those modules, in ``cli`` and in the package itself."""
        modules = [getattr(package, m) for m in TRACED_MODULES]
        replaced: Dict[int, Callable] = {}
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[1]
            for attr, value in list(vars(mod).items()):
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                ):
                    replaced[id(value)] = self.wrap(f"{short}.{attr}", value)
        # the census tests each odd kernel vector it scans with this one
        # private helper, so its calls count the vectors actually scanned
        # (parity.odd_vectors reads 0 if the helper is gone)
        helper = getattr(package.parity, "_subset_critical", None)
        if helper is not None:
            replaced[id(helper)] = self._counted("parity.odd_vectors", helper)
        for mod in modules + [package.cli, package]:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in replaced:
                    setattr(mod, attr, replaced[id(value)])


def _search_nodes(tracer: Tracer, result) -> None:
    tracer.count("search.nodes", result.nodes)


def _census_counts(tracer: Tracer, census) -> None:
    tracer.count("parity.subset_survivors", census.subset_critical_total)
    tracer.count("parity.critical", census.total)


def _sat_true(tracer: Tracer, result) -> None:
    if result:
        tracer.count("parity.assignment_satisfiable.true")


RESULT_HOOKS = {
    "search.search_completions": _search_nodes,
    "parity.enumerate_parity_proofs": _census_counts,
    "parity.assignment_satisfiable": _sat_true,
}
