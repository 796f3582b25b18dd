"""Tests of the benchmark's oracles on tiny inputs.

    python3 -m pytest bench/test_oracles.py
"""

import itertools
import random
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import oracles  # noqa: E402
from paradox import control_eigenvalues, control_rows  # noqa: E402

STAR4 = ["ZZZZ", "XXZZ", "ZXXI", "XZIX", "IIXX"]


def random_cols(rng, ncols, nrows):
    return [rng.getrandbits(nrows) for _ in range(ncols)]


def brute_kernel(cols):
    return [
        v for v in range(1 << len(cols))
        if not _combine(cols, v)
    ]


def _combine(cols, v):
    acc = 0
    for j, c in enumerate(cols):
        if v >> j & 1:
            acc ^= c
    return acc


@pytest.mark.parametrize("seed", range(20))
def test_kernel_and_rank_match_brute_force(seed):
    rng = random.Random(seed)
    cols = random_cols(rng, rng.randrange(1, 9), rng.randrange(1, 7))
    kernel = oracles.gf2_kernel(cols)
    assert sorted(oracles.span(kernel)) == brute_kernel(cols)
    assert oracles.gf2_rank(cols) == len(cols) - len(kernel)


@pytest.mark.parametrize("seed", range(20))
def test_solvable_matches_brute_force(seed):
    rng = random.Random(seed)
    ncols, nrows = rng.randrange(1, 7), rng.randrange(1, 7)
    rows = [rng.getrandbits(ncols) for _ in range(nrows)]
    rhs = [rng.getrandbits(1) for _ in range(nrows)]
    brute = any(
        all((r & v).bit_count() % 2 == b for r, b in zip(rows, rhs))
        for v in range(1 << ncols)
    )
    assert oracles.gf2_solvable(rows, rhs) == brute


@pytest.fixture(scope="module")
def square_tables():
    from ksparity.parity import enumerate_bases
    from ksparity.projectors import projectors_of
    from ksparity.reproduce import mermin_square_search

    return [
        [b.projector_ids for b in enumerate_bases(projectors_of(s)).bases]
        for s in mermin_square_search().systems
    ]


def odd_kernel_sets(bases):
    kernel = oracles.gf2_kernel([sum(1 << p for p in b) for b in bases])
    return [v for v in oracles.span(kernel) if v.bit_count() % 2]


def test_exact_one_matches_brute_force_on_square_tables(square_tables):
    rng = random.Random(7)
    for bases in square_tables:
        for _ in range(30):
            subset = rng.sample(bases, rng.randrange(1, 6))
            want = oracles.exact_one_brute_force(subset)
            assert oracles.exact_one_satisfiable(subset) == want
        # a proof is unsatisfiable, and so critical that any drop fixes it
        proof_vec = rng.choice(odd_kernel_sets(bases))
        proof = [b for j, b in enumerate(bases) if proof_vec >> j & 1]
        assert oracles.even_incidence(proof)
        assert not oracles.exact_one_brute_force(proof)
        assert not oracles.exact_one_satisfiable(proof)
        drop = rng.randrange(len(proof))
        rest = proof[:drop] + proof[drop + 1:]
        assert oracles.exact_one_brute_force(rest)
        assert oracles.exact_one_satisfiable(rest)


def test_square_proofs_are_critical(square_tables):
    # every odd kernel vector of a two-qubit square table is a critical proof
    odd = odd_kernel_sets(square_tables[0])
    assert len(odd) == 512
    for vec in odd[:40]:
        proof = [b for j, b in enumerate(square_tables[0]) if vec >> j & 1]
        assert oracles.is_critical(proof)


def test_slot_parity_on_the_four_qubit_table():
    ev = [1, 1, 1, 1, -1]
    assert oracles.slot_parity_infeasible(STAR4, ev)
    eqs, rhs = oracles.ghz_equations(STAR4, ev)
    assert oracles.slot_count(STAR4) == 8
    assert not any(
        all((v & r).bit_count() % 2 == b for r, b in zip(eqs, rhs))
        for v in range(1 << 8)
    )
    # an odd slot count breaks the argument
    assert not oracles.slot_parity_infeasible(STAR4[:-1] + ["IIXZ"], ev)


@pytest.mark.parametrize("n", range(1, 6))
def test_kron_apply_matches_dense_matrix(n):
    rng = np.random.default_rng(n)
    vec = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    for _ in range(5):
        word = "".join(rng.choice(list("IXYZ"), size=n))
        word = ("-" if rng.random() < 0.5 else "") + word
        assert np.allclose(oracles.kron_apply(word, vec), oracles.kron_matrix(word) @ vec)


def test_eigen_equations_of_a_ghz_state():
    ghz = np.zeros(16, dtype=complex)
    ghz[0] = ghz[15] = 2 ** -0.5
    assert oracles.eigen_residual(["ZZII", "IZZI", "XXXX"], [1, 1, 1], ghz) < 1e-12
    assert oracles.eigen_residual(["XXXX"], [-1], ghz) > 1


def test_product_sign_and_commutation():
    assert oracles.product_sign(STAR4) == -1
    assert oracles.product_sign(["XX", "ZZ", "YY"]) == -1
    assert oracles.product_sign(["XI", "IX", "XX"]) == 1
    assert oracles.product_sign(["XI", "ZI"]) is None
    assert oracles.commute("XX", "ZZ") and not oracles.commute("XI", "ZI")


def test_subproof_witness_validator():
    rng = random.Random(3)
    rows = control_rows(rng, STAR4)
    star_cols = [q for q in range(6) if any(rows[i][q] != "I" for i in range(5))]
    assert oracles.validate_subproof(rows, star_cols, range(5))
    # the whole table is not a proper witness, a non-proof row set is not one
    assert not oracles.validate_subproof(STAR4, range(4), range(5))
    assert not oracles.validate_subproof(rows, star_cols, range(4))
    assert oracles.slot_parity_infeasible(rows, control_eigenvalues(rng))


def test_bell_products_and_measurement():
    phi = oracles.bell_product(2, [(1, 2, "Φ+")])
    assert np.allclose(phi, [2 ** -0.5, 0, 0, 2 ** -0.5])
    # Φ+ on qubits (1,3) and Ψ- on (2,4), built by hand
    vec = np.zeros(16, dtype=complex)
    for a, b in itertools.product((0, 1), repeat=2):
        sign = -1 if b else 1
        vec[a << 3 | b << 2 | a << 1 | (1 - b)] += 0.5 * sign
    assert np.allclose(oracles.bell_product(4, [(1, 3, "Φ+"), (2, 4, "Ψ-")]), vec)
    prob, residual = oracles.measure(vec, [1], "0")
    assert abs(prob - 0.5) < 1e-12
    assert oracles.residual_verdict(oracles.measure(vec, [1, 3], "00")[1], None) == "bell-state"
    assert np.allclose(oracles.reduced_eigenvalues(phi, [1]), [0.5, 0.5])


def test_projector_matrices_are_orthogonal_eigenspaces():
    plus = oracles.projector_matrix(["ZZ", "XX"])
    minus = oracles.projector_matrix(["ZZ", "-XX"])
    assert abs(np.trace(plus) - 1) < 1e-12
    assert oracles.matrices_orthogonal(plus, minus)
    assert not oracles.matrices_orthogonal(plus, oracles.projector_matrix(["ZI"]))


@pytest.mark.parametrize("seed", range(10))
def test_oracle_census_matches_brute_force(seed):
    from types import SimpleNamespace

    from census import oracle_census

    rng = random.Random(seed)
    # five projectors in ten bases: some survivors are not critical
    ids = [tuple(sorted(rng.sample(range(5), rng.randrange(2, 4)))) for _ in range(10)]
    kdim, survivors, critical = oracle_census([SimpleNamespace(projector_ids=b) for b in ids])
    odd = [v for v in brute_kernel([sum(1 << p for p in b) for b in ids]) if v.bit_count() % 2]
    assert kdim == len(ids) - oracles.gf2_rank([sum(1 << p for p in b) for b in ids])
    want = [v for v in odd if not any(u != v and u & ~v == 0 for u in odd)]
    assert sorted(survivors) == sorted(want)
    assert sorted(critical) == sorted(
        v for v in want
        if all(
            oracles.exact_one_brute_force(
                [b for j, b in enumerate(ids) if v >> j & 1 and j != drop]
            )
            for drop in range(len(ids)) if v >> drop & 1
        )
    )
