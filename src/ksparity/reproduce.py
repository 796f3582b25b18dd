"""End-to-end reproduction checks tying every module together.

Each check reproduces one headline property of the source tables and
census numbers: table products, GHZ infeasibility, eigenstate structure,
the kite basis table and its parity-proof census, and the oracle
equivalence suite.  The same checks back both the command-line
``reproduce-paper`` verb and the acceptance test suite.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Tuple

import numpy as np

from .pauli import PauliWord, all_words, commutes, multiply, product_of, to_dense
from .systems import (
    Context,
    ContextSystem,
    anticommuting_pairs,
    build_star_table,
    builtin_fixtures,
    check_eigenvalue_dependencies,
    count_ghz_assignments,
    default_eigenvalues,
    ghz_infeasible,
    is_genuinely_multipartite,
    verify_system,
)
from .states import (
    DenseState,
    apply_pauli,
    bell_product_vector,
    bell_support,
    classify_residual,
    joint_eigenstate,
    measure_computational,
)
from .projectors import ProjectorPool, projectors_of
from .parity import (
    BASIS_CAP_DEFAULT,
    KERNEL_CAP_DEFAULT,
    compare_with_brute_force,
    enumerate_bases,
    enumerate_parity_proofs,
    is_saturated,
    two_power_h_report,
)
from .search import SearchResult, search_completions

# seed of the random Pauli pairs that the oracle suite checks
ORACLE_SEED = 20240817


@dataclass
class CheckResult:
    number: int
    name: str
    status: str  # "pass" | "fail"
    seconds: float
    detail: dict = field(default_factory=dict)


def _check_four_qubit_table() -> Tuple[bool, dict]:
    sys = builtin_fixtures()["table1-left"]
    report = verify_system(sys)
    ctx = sys.contexts[0]
    return report.ok and ctx.sign == -1, {
        "observables": len(sys.observables),
        "product_sign": ctx.sign,
        "violations": report.violations,
    }


def _check_four_qubit_ghz() -> Tuple[bool, dict]:
    sys = builtin_fixtures()["table1-left"]
    ev = default_eigenvalues(sys)
    check_eigenvalue_dependencies(sys, ev)
    satisfying, total = count_ghz_assignments(sys, ev)
    infeasible = satisfying == 0
    return infeasible and total == 256, {
        "eigenvalues": ev,
        "satisfying": satisfying,
        "total_assignments": total,
        "gf2_infeasible": infeasible,
    }


def _check_star_family() -> Tuple[bool, dict]:
    detail: Dict[str, dict] = {}
    ok = True
    for N in range(2, 9):
        sys = build_star_table(N)
        rows_ok = len(sys.observables) == 2 * N + 1
        rep = verify_system(sys)
        sign_ok = sys.contexts[0].sign == -1
        col_ok = True
        for pos in range(sys.n):
            xs = sum(1 for ob in sys.observables if ob.letter(pos) == "X")
            zs = sum(1 for ob in sys.observables if ob.letter(pos) == "Z")
            if xs % 2 or zs % 2:
                col_ok = False
        infeasible = ghz_infeasible(sys, default_eigenvalues(sys))
        this = rows_ok and rep.ok and sign_ok and col_ok and infeasible
        ok = ok and this
        detail[f"N={N}"] = {
            "rows": len(sys.observables),
            "verified": rep.ok,
            "columns_even": col_ok,
            "ghz_infeasible": infeasible,
        }
    return ok, detail


def _check_multipartite() -> Tuple[bool, dict]:
    detail: Dict[str, object] = {}
    ok = True
    for N in (2, 3, 4, 5):
        genuine = is_genuinely_multipartite(build_star_table(N))
        detail[f"{2 * N}-qubit"] = genuine
        ok = ok and genuine
    return ok, detail


def four_qubit_eigenstate() -> DenseState:
    sys = builtin_fixtures()["table1-left"]
    return joint_eigenstate(sys, default_eigenvalues(sys))


def _check_four_qubit_state() -> Tuple[bool, dict]:
    psi = four_qubit_eigenstate()
    s = 1 / math.sqrt(2)
    formula = DenseState.from_vector(
        s * bell_product_vector(4, [(1, 2, "Φ+"), (3, 4, "Φ-")])
        - s * bell_product_vector(4, [(1, 2, "Ψ-"), (3, 4, "Ψ-")])
    )
    formula_ok = psi.isclose(formula, tol=1e-10)
    bell_cases = 0
    for pair in itertools.combinations(range(1, 5), 2):
        for outcome in ("00", "01", "10", "11"):
            prob, residual = measure_computational(psi, pair, outcome)
            if residual is not None and classify_residual(residual) == "bell-state":
                bell_cases += 1
    return formula_ok and bell_cases == 24, {
        "matches_bell_formula": formula_ok,
        "bell_residual_cases": bell_cases,
        "expected_cases": 24,
    }


def _check_six_qubit_state() -> Tuple[bool, dict]:
    sys = build_star_table(3)
    ev = default_eigenvalues(sys)
    psi = joint_eigenstate(sys, ev)
    half = 0.5
    # first printed form: Bell pairs on (1,2)(3,4)(5,6)
    first = DenseState.from_vector(
        half * bell_product_vector(6, [(1, 2, "Φ+"), (3, 4, "Φ-"), (5, 6, "Φ+")])
        + half * bell_product_vector(6, [(1, 2, "Φ+"), (3, 4, "Ψ-"), (5, 6, "Ψ+")])
        - half * bell_product_vector(6, [(1, 2, "Ψ-"), (3, 4, "Φ-"), (5, 6, "Ψ+")])
        - half * bell_product_vector(6, [(1, 2, "Ψ-"), (3, 4, "Ψ-"), (5, 6, "Φ+")])
    )
    # second printed form: computational bits on qubits 1 and 3, Bell pairs
    # on (2,4) and (5,6)
    second_vec = np.zeros(1 << 6, dtype=complex)
    for b1, b3, pairs, sgn in (
        (0, 0, [("Φ-", "Φ+"), ("Ψ-", "Ψ+")], 1),
        (0, 1, [("Ψ-", "Φ+"), ("Φ-", "Ψ+")], -1),
        (1, 0, [("Ψ+", "Φ+"), ("Φ+", "Ψ+")], 1),
        (1, 1, [("Φ+", "Φ+"), ("Ψ+", "Ψ+")], -1),
    ):
        for l24, l56 in pairs:
            second_vec += (sgn * half / math.sqrt(2)) * bell_product_vector(
                6,
                [(2, 4, l24), (5, 6, l56)],
                computational=[(1, b1), (3, b3)],
            )
    second = DenseState.from_vector(second_vec)
    eigen_ok = True
    for m, s in zip(sys.contexts[0].members, ev):
        word = sys.observables[m]
        resid = apply_pauli(word, psi.amplitudes) - s * psi.amplitudes
        if np.linalg.norm(resid) > 1e-10:
            eigen_ok = False
    agree = first.isclose(second, tol=1e-10)
    matches = psi.isclose(first, tol=1e-10)
    return agree and matches and eigen_ok, {
        "decompositions_agree": agree,
        "eigenstate_matches": matches,
        "all_seven_eigen_equations": eigen_ok,
    }


def _check_eight_qubit_support() -> Tuple[bool, dict]:
    sys = build_star_table(4)
    psi = joint_eigenstate(sys, default_eigenvalues(sys))
    count, mags = bell_support(psi, [(1, 2), (3, 4), (5, 6), (7, 8)])
    target = 1 / math.sqrt(8)
    equal = all(abs(m - target) < 1e-10 for m in mags)
    return count == 8 and equal, {
        "terms": count,
        "magnitudes": [round(m, 12) for m in mags],
        "expected_magnitude": target,
    }


def _check_economical_tables() -> Tuple[bool, dict]:
    fixtures = builtin_fixtures()
    detail = {}
    ok = True
    for name, obs_count in (("table2-left", 5), ("table2-right", 6)):
        sys = fixtures[name]
        rep = verify_system(sys)
        infeasible = ghz_infeasible(sys, default_eigenvalues(sys))
        counts_ok = len(sys.observables) == obs_count
        this = rep.ok and infeasible and counts_ok
        ok = ok and this
        detail[name] = {
            "observables": len(sys.observables),
            "qubits": sys.n,
            "verified": rep.ok,
            "ghz_infeasible": infeasible,
        }
    return ok, detail


def _check_kite_quadruples() -> Tuple[bool, dict]:
    sys = builtin_fixtures()["kite-quadruples"]
    rep = verify_system(sys)
    signs = [c.sign for c in sys.contexts]
    return rep.ok and signs == [-1, 1], {
        "verified": rep.ok,
        "context_signs": signs,
    }


def kite_completion() -> ContextSystem:
    """First search-derived completion of the kite quadruples."""
    seed = builtin_fixtures()["kite-quadruples"]
    result = search_completions(seed, [3, 3, 3, 3])
    if not result.systems:
        raise RuntimeError("kite completion search found no system")
    return result.systems[0]


def _check_kite_census(
    sys: ContextSystem, basis_cap: int, kernel_cap: int
) -> Tuple[bool, dict]:
    pool = projectors_of(sys)
    table = enumerate_bases(pool, cap=basis_cap)
    census = enumerate_parity_proofs(table, kernel_cap=kernel_cap)
    smallest = census.smallest()
    small_projs = smallest.num_projectors if smallest is not None else None
    brute_ok, truncated = compare_with_brute_force(table)
    saturated = is_saturated(table)
    structure_ok = (
        len(pool) == 32
        and len(table.bases) == 36
        and table.pure_count() == 6
        and table.hybrid_count() == 30
        and saturated
    )
    census_ok = (
        census.total == 33152
        and len(census.symbol_counts) == 33
        and sorted(census.basis_count_histogram) == [9, 11, 13, 15, 17]
        and smallest is not None
        and small_projs == 24
        and smallest.num_bases == 9
        and smallest.symbol_ascii == "12^2_2 12^4_2 - 4_4 4_6 1_8"
    )
    detail = {
        "projectors": len(pool),
        "bases": len(table.bases),
        "pure": table.pure_count(),
        "hybrid": table.hybrid_count(),
        "saturated": saturated,
        "total_critical_proofs": census.total,
        "subset_critical_proofs": census.subset_critical_total,
        "symbol_types": len(census.symbol_counts),
        "basis_count_histogram": dict(sorted(census.basis_count_histogram.items())),
        "smallest": None
        if smallest is None
        else {
            "projectors": small_projs,
            "bases": smallest.num_bases,
            "symbol": smallest.symbol,
        },
        "brute_force_truncated": truncated,
        "brute_force_agrees": brute_ok,
    }
    return structure_ok and census_ok and brute_ok, detail


def mermin_square_search() -> SearchResult:
    """Two-qubit systems of six three-member contexts with a parity witness."""
    seed = ContextSystem(2, (), ())
    return search_completions(seed, [3] * 6)


def _check_mermin_square(
    result: SearchResult, basis_cap: int, kernel_cap: int
) -> Tuple[bool, dict]:
    found = None
    for sys in result.systems:
        if len(sys.observables) != 9:
            continue
        neg = sum(1 for c in sys.contexts if c.sign == -1)
        if neg % 2 == 0:
            continue
        pool = projectors_of(sys)
        table = enumerate_bases(pool, cap=basis_cap)
        census = enumerate_parity_proofs(table, kernel_cap=kernel_cap)
        for proof in census.proofs:
            if proof.num_projectors != 18 or proof.num_bases != 9:
                continue
            ranks = {
                table.pool.projectors[pid].rank
                for b in proof.basis_ids
                for pid in table.bases[b].projector_ids
            }
            if ranks == {1}:
                found = {
                    "observables": len(sys.observables),
                    "contexts": len(sys.contexts),
                    "negative_contexts": neg,
                    "proof_symbol": proof.symbol,
                    "projectors_in_proof": proof.num_projectors,
                    "bases_in_proof": proof.num_bases,
                }
                break
        if found:
            break
    return found is not None, {
        "candidate_systems": len(result.systems),
        "witness": found,
    }


# Pauli pairs the oracle suite multiplies as dense matrices at a time: a
# stack of 512 four-qubit matrices takes 2 MB.
_DENSE_PAIR_CHUNK = 512


def _dense_pair_mismatches(pairs: List[Tuple[PauliWord, PauliWord]]) -> int:
    """How often ``multiply`` and ``commutes`` disagree with dense matrix
    products, over pairs of words on equal qubit counts.

    Pairs are stacked by qubit count.  Each word's letter matrix (phase
    +1) is built once by ``to_dense`` and the phase applied afterwards, as
    ``to_dense`` does; the dense side never calls ``multiply``.  Each
    pair's verdict is that of ``np.allclose`` with the same tolerances.
    """
    mismatches = 0
    by_n: Dict[int, List[Tuple[PauliWord, PauliWord]]] = {}
    for a, b in pairs:
        by_n.setdefault(a.n, []).append((a, b))
    for n, group in by_n.items():
        side = 1 << n
        letters = np.stack([
            to_dense(PauliWord(n, x, z).unsigned())
            for x in range(side) for z in range(side)
        ])

        def dense(words: List[PauliWord]) -> np.ndarray:
            index = [w.x * side + w.z for w in words]
            phases = np.array([w.phase for w in words])
            return phases[:, None, None] * letters[index]

        for start in range(0, len(group), _DENSE_PAIR_CHUNK):
            chunk = group[start:start + _DENSE_PAIR_CHUNK]
            a = dense([x for x, _ in chunk])
            b = dense([y for _, y in chunk])
            ab = a @ b
            products = dense([multiply(x, y) for x, y in chunk])
            same = np.isclose(ab, products, atol=1e-12).all(axis=(1, 2))
            mismatches += np.count_nonzero(~same)
            commuting = np.isclose(ab, b @ a, atol=1e-12).all(axis=(1, 2))
            mismatches += np.count_nonzero(
                commuting != np.array([commutes(x, y) for x, y in chunk])
            )
    return int(mismatches)


def _check_oracles(
    kite: ContextSystem, square: SearchResult
) -> Tuple[bool, dict]:
    # product/commutation versus dense matrices: every pair for n <= 2,
    # random pairs for n = 3, 4
    pairs = [
        (a, b)
        for n in (1, 2)
        for a in all_words(n)
        for b in all_words(n)
    ]
    rng = random.Random(ORACLE_SEED)
    for _ in range(10_000):
        n = rng.choice((3, 4))
        a = PauliWord(
            n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4)
        )
        b = PauliWord(
            n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4)
        )
        pairs.append((a, b))
    pair_cases = len(pairs)
    mismatches = _dense_pair_mismatches(pairs)
    # the orthogonality graph the basis search reads, both bits of each
    # pair, versus trace(PQ) = 0 on fixture pools, n <= 4
    orth_pairs = 0
    pools: List[ProjectorPool] = []
    for name, sys in builtin_fixtures().items():
        if sys.n <= 4 and sys.contexts:
            pools.append(projectors_of(sys))
    pools.append(projectors_of(kite))
    for pool in pools:
        dense = [p.to_dense() for p in pool.projectors]
        graph = pool.orthogonality
        for i, j in itertools.combinations(range(len(pool)), 2):
            zero = abs(np.trace(dense[i] @ dense[j])) < 1e-9
            if zero != graph[i] >> j & 1 or zero != graph[j] >> i & 1:
                mismatches += 1
            orth_pairs += 1
    # kernel enumeration versus brute force on the square tables and the
    # four-qubit table
    kernel_systems = [*square.systems, builtin_fixtures()["table1-left"]]
    for sys in kernel_systems:
        table = enumerate_bases(projectors_of(sys))
        agrees, _ = compare_with_brute_force(table)
        mismatches += not agrees
    return mismatches == 0, {
        "pauli_pair_cases": pair_cases,
        "orthogonality_pairs": orth_pairs,
        "kernel_vs_brute_tables": len(kernel_systems),
        "mismatches": mismatches,
    }


def reconstructed_single_table_contexts(sys: ContextSystem) -> ContextSystem:
    """Re-express a single-context table over its maximal commuting subsets.

    The basis-table pipeline needs explicit commuting sets; for a plain
    table the maximal pairwise-commuting subsets of its observables are
    used.  Flagged as a reconstruction in reports.
    """
    words = list(sys.observables)
    count = len(words)
    maximal: List[Tuple[int, ...]] = []
    for size in range(count, 1, -1):
        for combo in itertools.combinations(range(count), size):
            if any(set(combo) <= set(m) for m in maximal):
                continue
            members = [words[i] for i in combo]
            if next(anticommuting_pairs(members), None) is None:
                maximal.append(combo)
    contexts = []
    for combo in maximal:
        p = product_of([words[i] for i in combo])
        if not p.is_identity_letters or p.sigma % 2:
            continue  # only identity-product subsets form contexts
        contexts.append(Context(combo, p.sign))
    return ContextSystem(sys.n, sys.observables, tuple(contexts))


def _check_two_power_h(basis_cap: int, kernel_cap: int) -> Tuple[bool, dict]:
    base = builtin_fixtures()["table1-left"]
    sys = reconstructed_single_table_contexts(base)
    pool = projectors_of(sys)
    table = enumerate_bases(pool, cap=basis_cap)
    census = enumerate_parity_proofs(table, kernel_cap=kernel_cap)
    report = two_power_h_report(table, census)
    produced = (
        report.get("H") is not None
        and report.get("holds") is not None
        and not census.partial
        and not table.partial
    )
    return produced, {
        "reconstruction": "maximal commuting subsets of the table rows",
        "projectors": len(pool),
        "bases": len(table.bases),
        "pure": table.pure_count(),
        "hybrid": table.hybrid_count(),
        "total_proofs": census.total,
        "H": report["H"],
        "two_power_H": report["two_power_H"],
        "holds": report["holds"],
        "H_listed_elsewhere": 12,
        "agreement_with_listed_H": report["H"] == 12,
    }


def run_all(
    basis_cap: int = BASIS_CAP_DEFAULT,
    kernel_cap: int = KERNEL_CAP_DEFAULT,
) -> List[CheckResult]:
    # checks 10-12 share these two searches; each runs at most once, in the
    # first check that needs it
    kite = functools.cache(kite_completion)
    square = functools.cache(mermin_square_search)
    checks: List[Tuple[int, str, Callable[[], Tuple[bool, dict]]]] = [
        (1, "four-qubit table product is -identity", _check_four_qubit_table),
        (2, "four-qubit GHZ infeasibility (256 assignments)", _check_four_qubit_ghz),
        (3, "star family N=2..8 structure and infeasibility",
         _check_star_family),
        (4, "genuine multipartiteness at 4, 6, 8, 10 qubits",
         _check_multipartite),
        (5, "four-qubit eigenstate Bell formula and residuals",
         _check_four_qubit_state),
        (6, "six-qubit eigenstate: both decompositions agree",
         _check_six_qubit_state),
        (7, "eight-qubit eigenstate: eight equal Bell terms",
         _check_eight_qubit_support),
        (8, "economical six- and eight-qubit tables", _check_economical_tables),
        (9, "kite quadruple product signs", _check_kite_quadruples),
        (10, "kite census: 32/36 table and 33152 critical proofs",
         lambda: _check_kite_census(kite(), basis_cap, kernel_cap)),
        (11, "two-qubit square pipeline: 18-projector/9-basis proof",
         lambda: _check_mermin_square(square(), basis_cap, kernel_cap)),
        (12, "oracle equivalence suite",
         lambda: _check_oracles(kite(), square())),
        (13, "2^H report for the reconstructed four-qubit table",
         lambda: _check_two_power_h(basis_cap, kernel_cap)),
    ]
    results: List[CheckResult] = []
    for number, name, fn in checks:
        start = time.perf_counter()
        try:
            ok, detail = fn()
            status = "pass" if ok else "fail"
        except Exception as exc:  # honest failure, not a crash
            status = "fail"
            detail = {"error": f"{type(exc).__name__}: {exc}"}
        results.append(
            CheckResult(number, name, status, time.perf_counter() - start, detail)
        )
    return results
