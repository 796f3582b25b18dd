"""Per-layer metrics from a traced run.

Each metric is the cost of one set-up plus one pass: set-up spans are
averaged over the set-up repetitions, pass spans over the passes, and the
two are added.  So ``search.search_completions.s`` is the completion
search of one set-up and ``parity.enumerate_parity_proofs.s`` the census
time of one pass.  Ratios are formed from those per-round counts.
"""

from __future__ import annotations

import statistics
from typing import Dict, List, Tuple

VERBS = (
    "verify", "projectors", "bases", "symbol", "ghz-check", "state", "bell",
    "measure", "multipartite", "parity-census", "export-graph",
)

# (metric, unit, better, source) where source is ("s" | "calls", span name)
# or ("count", counter name)
SPAN_METRICS: List[Tuple[str, str, str, Tuple[str, str]]] = [
    ("search.search_completions.s", "s", "lower", ("s", "search.search_completions")),
    ("search.nodes", "count", "lower", ("count", "search.nodes")),
    ("reproduce.kite_completion.s", "s", "lower", ("s", "reproduce.kite_completion")),
    ("projectors.projectors_of.s", "s", "lower", ("s", "projectors.projectors_of")),
    ("parity.enumerate_bases.s", "s", "lower", ("s", "parity.enumerate_bases")),
    ("parity.enumerate_parity_proofs.s", "s", "lower", ("s", "parity.enumerate_parity_proofs")),
    ("parity.odd_vectors", "count", "lower", ("count", "parity.odd_vectors")),
    ("parity.subset_survivors", "count", "lower", ("count", "parity.subset_survivors")),
    ("parity.critical", "count", "higher", ("count", "parity.critical")),
    ("gf2.nullspace.calls", "count", "lower", ("calls", "gf2.nullspace")),
    ("gf2.nullspace.s", "s", "lower", ("s", "gf2.nullspace")),
    ("gf2.enumerate_span.vectors", "count", "lower", ("count", "gf2.enumerate_span.yields")),
    ("parity.assignment_satisfiable.calls", "count", "lower", ("calls", "parity.assignment_satisfiable")),
    ("parity.assignment_satisfiable.s", "s", "lower", ("s", "parity.assignment_satisfiable")),
    ("parity.proof_symbol.calls", "count", "lower", ("calls", "parity.proof_symbol")),
    ("parity.proof_symbol.s", "s", "lower", ("s", "parity.proof_symbol")),
    ("systems.ghz_infeasible.s", "s", "lower", ("s", "systems.ghz_infeasible")),
    ("systems.count_ghz_assignments.calls", "count", "lower", ("calls", "systems.count_ghz_assignments")),
    ("systems.count_ghz_assignments.s", "s", "lower", ("s", "systems.count_ghz_assignments")),
    ("systems.find_proper_subproof.s", "s", "lower", ("s", "systems.find_proper_subproof")),
    ("gf2.left_nullspace.calls", "count", "lower", ("calls", "gf2.left_nullspace")),
    ("gf2.solvable.calls", "count", "lower", ("calls", "gf2.solvable")),
    ("states.joint_eigenstate.s", "s", "lower", ("s", "states.joint_eigenstate")),
    ("states.bell_decompose.s", "s", "lower", ("s", "states.bell_decompose")),
    ("states.bell_product_vector.calls", "count", "lower", ("calls", "states.bell_product_vector")),
    ("states.measure_computational.s", "s", "lower", ("s", "states.measure_computational")),
    ("states.classify_residual.s", "s", "lower", ("s", "states.classify_residual")),
    ("states.reduced_spectrum.calls", "count", "lower", ("calls", "states.reduced_spectrum")),
    ("pauli.multiply.calls", "count", "lower", ("calls", "pauli.multiply")),
]

RATIO_METRICS = [
    # (metric, numerator metric, denominator metric)
    ("parity.subset_yield", "parity.subset_survivors", "parity.odd_vectors"),
    ("parity.drop_yield", "parity.critical", "parity.subset_survivors"),
    ("parity.assignment_satisfiable.true_ratio", "parity.assignment_satisfiable.true",
     "parity.assignment_satisfiable.calls"),
]


def _per_round(raw: dict, workload) -> Dict[str, float]:
    """Span seconds, calls and counters of one set-up plus one pass."""
    values: Dict[str, float] = {}
    for snap, times in ((raw["setup_trace"], workload.setup_repeats),
                        (raw["pass_trace"], len(raw["passes"]))):
        for name, stat in snap["stats"].items():
            for field, key in (("seconds", "s"), ("calls", "calls")):
                values[f"{name}.{key}"] = values.get(f"{name}.{key}", 0) + stat[field] / times
        for name, amount in snap["counters"].items():
            values[name] = values.get(name, 0) + amount / times
    return values


def per_layer(raw: dict, workload) -> Dict[str, dict]:
    values = _per_round(raw, workload)
    metrics: Dict[str, dict] = {}
    for metric, unit, _, (kind, source) in SPAN_METRICS:
        key = source if kind == "count" else f"{source}.{kind}"
        metrics[metric] = {"value": values.get(key, 0.0), "unit": unit}
    extra = dict(values)
    extra.update({m: v["value"] for m, v in metrics.items()})
    for metric, num, den in RATIO_METRICS:
        base = extra.get(den, 0.0)
        metrics[metric] = {
            "value": extra.get(num, 0.0) / base if base else 0.0,
            "unit": "ratio",
        }
    requests = raw["requests"] or []
    passes = len(raw["passes"])
    metrics["cli.requests"] = {"value": len(requests) / passes, "unit": "count"}
    request_s = sum(r["seconds"] for r in requests)
    for verb in VERBS:
        times = [r["seconds"] for r in requests if r["verb"] == verb]
        metrics[f"cli.{verb}.calls"] = {"value": len(times) / passes, "unit": "count"}
        metrics[f"cli.{verb}.p50_ms"] = {
            "value": 1000 * statistics.median(times) if times else 0.0,
            "unit": "ms",
        }
        metrics[f"cli.{verb}.share"] = {
            "value": sum(times) / request_s if request_s else 0.0, "unit": "ratio",
        }
    # request time spent building projector pools and basis tables
    pass_stats = raw["pass_trace"]["stats"]
    build_s = sum(
        pass_stats[name]["seconds"]
        for name in ("projectors.projectors_of", "parity.enumerate_bases")
        if name in pass_stats
    )
    metrics["cli.table_build.share"] = {
        "value": build_s / request_s if request_s else 0.0, "unit": "ratio",
    }
    metrics["cli.self.s"] = {
        "value": sum(r["self_seconds"] for r in requests) / passes, "unit": "s",
    }
    metrics["cli.output_bytes"] = {
        "value": sum(r["output_bytes"] for r in requests) / passes, "unit": "bytes",
    }
    return metrics
