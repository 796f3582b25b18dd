import itertools
import math
import random
import sys
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import census_oracles
from ksparity import gf2, parity
from ksparity.search import _assemble, search_completions, three_member_contexts
from ksparity.systems import (
    ContextSystem,
    build_star_table,
    builtin_fixtures,
    system_from_rows,
)
from ksparity.projectors import ProjectorPool, projectors_of
from ksparity.parity import (
    Basis,
    KERNEL_CAP_MAX,
    BasisTable,
    _CoverIndex,
    _coefficient_columns,
    _scan_subsets,
    _span_blocks,
    _subset_survivors,
    compare_with_brute_force,
    enumerate_bases,
    enumerate_parity_proofs,
    is_critical,
    is_saturated,
    kernel_parity_sets,
    proof_symbol,
    render_symbol,
    satisfying_assignment,
    two_power_h_report,
    verify_proof,
)
from ksparity.reproduce import kite_completion, mermin_square_search

# kite bases left out of the kite sub-table: kernel dimension 11, with 384
# of its 1024 odd kernel vectors subset-critical and 356 of those critical
# (the same counts as the oracle census in bench/census.py)
KITE_SUB_DROP = (0, 2, 3, 9, 15, 17, 31, 32, 35)

# most choices of one projector per basis the brute-force oracle will try
BRUTE_FORCE_CHOICES = 3_000_000


@pytest.fixture(scope="module")
def square_tables():
    return [
        enumerate_bases(projectors_of(sys))
        for sys in mermin_square_search().systems
    ]


@pytest.fixture(scope="module")
def square_table(square_tables):
    return square_tables[0]


@pytest.fixture(scope="module")
def square_censuses(square_tables):
    return [enumerate_parity_proofs(table) for table in square_tables]


@pytest.fixture(scope="module")
def square_census(square_censuses):
    return square_censuses[0]


@pytest.fixture(scope="module")
def kite_table():
    return enumerate_bases(projectors_of(kite_completion()))


@pytest.fixture(scope="module")
def kite_images(kite_table):
    """The kite's basis permutations under the 256 Pauli operators."""
    return sorted(census_oracles.pauli_basis_images(kite_table))


@pytest.fixture(scope="module")
def kite_sub_ids(kite_table):
    """Kite basis ids kept in the kite sub-table, in sub-table order."""
    return [j for j in range(len(kite_table.bases)) if j not in KITE_SUB_DROP]


@pytest.fixture(scope="module")
def kite_sub_table(kite_table, kite_sub_ids):
    return BasisTable(
        kite_table.pool, tuple(kite_table.bases[j] for j in kite_sub_ids)
    )


@pytest.fixture(scope="module")
def kite_sub_census(kite_sub_table):
    return enumerate_parity_proofs(kite_sub_table)


class TestBasisTable:
    def test_single_complete_context(self):
        pool = projectors_of(system_from_rows(["ZI", "IZ", "ZZ"], 1))
        table = enumerate_bases(pool)
        assert len(table.bases) == 1
        assert table.bases[0].kind == "pure"
        assert table.bases[0].size == 4
        assert is_saturated(table)

    def test_square_counts(self, square_table):
        assert len(square_table.pool) == 24
        assert len(square_table.bases) == 24
        assert square_table.pure_count() == 6
        assert square_table.hybrid_count() == 18
        assert is_saturated(square_table)
        assert not square_table.partial

    def test_rank_sums(self, square_table):
        for basis in square_table.bases:
            total = sum(
                square_table.pool.projectors[i].rank
                for i in basis.projector_ids
            )
            assert total == 1 << square_table.n

    def test_incidence_rows(self, square_table):
        rows = square_table.incidence_rows()
        for j, basis in enumerate(square_table.bases):
            for pid in range(len(square_table.pool)):
                bit = bool(rows[pid] >> j & 1)
                assert bit == (pid in basis.projector_ids)

    @pytest.mark.parametrize("name", ["table2-right", "star3"])
    def test_single_context_has_one_pure_basis(self, name):
        # 32 projectors of rank 8 and 64 of rank 1: the search once tried
        # every set of mutually orthogonal projectors and never returned
        system = (build_star_table(3) if name == "star3"
                  else builtin_fixtures()[name])
        pool = projectors_of(system)
        table = enumerate_bases(pool)
        assert [b.kind for b in table.bases] == ["pure"]
        assert table.bases[0].projector_ids == tuple(range(len(pool)))
        assert not table.partial

    def test_basis_longer_than_the_recursion_limit(self):
        # the search once recursed once per projector it added to a basis,
        # so the 64 projectors of the star3 basis needed 64 nested calls
        pool = projectors_of(build_star_table(3))
        depth, frame = 0, sys._getframe()
        while frame is not None:
            depth, frame = depth + 1, frame.f_back
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(depth + 40)
        try:
            table = enumerate_bases(pool)
        finally:
            sys.setrecursionlimit(limit)
        assert [b.size for b in table.bases] == [64]

    def test_star5_basis_of_1024_projectors(self):
        # one projector per level of the search: 1,024 levels, past the
        # default recursion limit
        pool = projectors_of(build_star_table(5))
        table = enumerate_bases(pool)
        assert [(b.kind, b.size) for b in table.bases] == [("pure", 1024)]
        assert table.bases[0].projector_ids == tuple(range(1024))
        assert not table.partial

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_bases_of_sub_pools_match_oracle(self, square_tables, kite_table,
                                             data):
        tables = square_tables + [kite_table]
        pool = data.draw(st.sampled_from(tables), label="table").pool
        keep = sorted(data.draw(
            st.sets(st.integers(0, len(pool) - 1), min_size=1),
            label="keep",
        ))
        new_id = {old: new for new, old in enumerate(keep)}
        sub = ProjectorPool(
            pool.n,
            tuple(pool.projectors[i] for i in keep),
            tuple(
                tuple(new_id[i] for i in fam if i in new_id)
                for fam in pool.context_families
            ),
        )
        table = enumerate_bases(sub)
        assert [b.projector_ids for b in table.bases] == (
            census_oracles.exact_covers(sub)
        )
        cap = data.draw(st.integers(0, 6), label="cap")
        capped = enumerate_bases(sub, cap=cap)
        # the search finds each basis once, whichever it stops at
        for found in (table, capped):
            assert len(set(found.bases)) == len(found.bases)
        assert set(capped.bases) <= set(table.bases)
        assert len(capped.bases) == min(cap, len(table.bases))
        assert capped.partial == (len(table.bases) > cap)

    def test_cap_marks_partial(self, square_table):
        table = enumerate_bases(square_table.pool, cap=3)
        assert table.partial
        with pytest.raises(ValueError):
            enumerate_parity_proofs(table)

    def test_deleting_a_unique_cover_breaks_saturation(self, square_table):
        covered = {}
        for j, basis in enumerate(square_table.bases):
            for pair in itertools.combinations(basis.projector_ids, 2):
                covered.setdefault(pair, []).append(j)
        unique = next(
            js[0] for js in covered.values() if len(js) == 1
        )
        rest = tuple(
            b for j, b in enumerate(square_table.bases) if j != unique
        )
        assert not is_saturated(BasisTable(square_table.pool, rest))


class TestCensus:
    def test_square_census_totals(self, square_census):
        assert square_census.total == 512
        assert square_census.subset_critical_total == 512
        assert square_census.kernel_dimension == 10
        assert sorted(square_census.basis_count_histogram.items()) == [
            (9, 16), (11, 240), (13, 240), (15, 16)
        ]

    def test_square_has_nine_basis_proof(self, square_table, square_census):
        small = square_census.smallest()
        assert small.num_bases == 9
        projector_ids = {
            pid
            for b in small.basis_ids
            for pid in square_table.bases[b].projector_ids
        }
        assert len(projector_ids) == 18
        assert all(
            square_table.pool.projectors[p].rank == 1 for p in projector_ids
        )

    def test_two_power_h(self, square_table, square_census):
        report = two_power_h_report(square_table, square_census)
        assert report["H"] == 9
        assert report["two_power_H"] == 512
        assert report["holds"] is True

    def test_odd_hybrid_count_reported(self, square_table, square_census):
        drop = next(
            j for j, b in enumerate(square_table.bases) if b.kind == "hybrid"
        )
        shrunk = BasisTable(
            square_table.pool,
            tuple(b for j, b in enumerate(square_table.bases) if j != drop),
        )
        assert shrunk.hybrid_count() % 2 == 1
        report = two_power_h_report(shrunk, square_census)
        assert report["H"] is None and "note" in report

    def test_kernel_cap_marks_partial(self, square_table):
        census = enumerate_parity_proofs(square_table, kernel_cap=5)
        assert census.partial
        assert census.kernel_dimension == 10
        assert census.total == 0

    def test_empty_kernel(self, square_table):
        for bases in ((), square_table.bases[:1]):
            census = enumerate_parity_proofs(BasisTable(square_table.pool, bases))
            assert (census.kernel_dimension, census.total) == (0, 0)
            assert census.subset_critical_total == 0 and not census.partial

    @pytest.mark.parametrize("cap", [-1, KERNEL_CAP_MAX + 1, 1 << 70])
    def test_kernel_cap_outside_the_lane_raises(self, square_table, cap):
        # a coefficient vector over the kernel basis is one uint64 lane
        assert KERNEL_CAP_MAX == 63
        with pytest.raises(ValueError, match="kernel_cap"):
            enumerate_parity_proofs(square_table, kernel_cap=cap)
        assert enumerate_parity_proofs(
            square_table, kernel_cap=KERNEL_CAP_MAX
        ).total == 512

    def test_every_proof_verifies(self, square_table, square_census):
        for proof in square_census.proofs[::37]:
            assert verify_proof(proof.basis_ids, square_table)

    def test_criticality_by_direct_deletion(self, square_table, square_census):
        for proof in square_census.proofs[::101]:
            ids = proof.basis_ids
            # the proof itself admits no exactly-one assignment
            assert satisfying_assignment(ids, square_table) is None
            # dropping any one basis restores satisfiability
            assert is_critical(ids, square_table)
            # with one more basis, dropping that one leaves the proof
            extra = min(set(range(len(square_table.bases))) - set(ids))
            assert not is_critical(ids + (extra,), square_table)
            for drop in ids:
                rest = tuple(j for j in ids if j != drop)
                assert satisfying_assignment(rest, square_table) is not None
            # no proper odd sub-collection is itself a parity proof
            for size in range(1, len(ids), 2):
                if size > 5:
                    break
                for sub in itertools.combinations(ids, size):
                    assert not verify_proof(sub, square_table)

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_is_critical_matches_oracle(
        self, square_table, square_census, kite_table, kite_sub_ids,
        kite_sub_census, data
    ):
        # random lists (mostly satisfiable sets, whose first witness holds
        # every listed basis), and proofs with ids repeated or one basis
        # added; empty and one-basis lists, where no cover exists yet
        table, proofs = data.draw(st.sampled_from([
            (square_table, [p.basis_ids for p in square_census.proofs]),
            (kite_table, [tuple(kite_sub_ids[j] for j in p.basis_ids)
                          for p in kite_sub_census.proofs]),
        ]), label="table")
        basis = st.integers(0, len(table.bases) - 1)
        ids = data.draw(
            st.lists(basis, max_size=12)
            | st.sampled_from(proofs).map(list),
            label="ids",
        )
        ids += data.draw(st.lists(basis, max_size=1), label="extra")
        if ids:
            ids += data.draw(st.lists(st.sampled_from(ids), max_size=2),
                             label="repeated")
        assert is_critical(ids, table) == census_oracles.is_critical(
            ids, table
        )

    def test_kernel_equals_brute_force(self, square_table):
        assert compare_with_brute_force(square_table) == (True, True)
        # cut down to 20 bases so the full subset scan stays exact
        sub_table = BasisTable(square_table.pool, square_table.bases[:20])
        brute = _scan_subsets(sub_table)
        assert brute
        assert set(kernel_parity_sets(sub_table)) == set(brute)
        assert compare_with_brute_force(sub_table) == (True, False)

    def test_kernel_parity_sets_follow_enumerate_span(
        self, square_tables, kite_sub_table, kite_table
    ):
        # the census's block walk gives the odd vectors of the one-vector
        # walk, in its order
        window = BasisTable(kite_table.pool, kite_table.bases[:20])
        empty = BasisTable(kite_table.pool, ())
        for table in (*square_tables, kite_sub_table, window, empty):
            assert kernel_parity_sets(table) == (
                census_oracles.kernel_parity_sets(table)
            )
        assert len(kernel_parity_sets(kite_sub_table)) == 1024

    def test_brute_force_window_catches_a_short_kernel(
        self, kite_table, square_tables, monkeypatch
    ):
        # the first 20 bases of the kite and of square table 2 hold no
        # parity set, so a comparison there could never disagree
        for table in (kite_table, square_tables[2]):
            assert compare_with_brute_force(table) == (True, True)
        nullspace = gf2.nullspace
        monkeypatch.setattr(
            gf2, "nullspace", lambda rows, ncols: nullspace(rows, ncols)[:-1]
        )
        for table in (kite_table, square_tables[2]):
            assert compare_with_brute_force(table) == (False, True)
        # an empty kernel cannot choose a window without parity sets either
        monkeypatch.setattr(gf2, "nullspace", lambda rows, ncols: [])
        assert compare_with_brute_force(kite_table) == (False, True)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_brute_force_scan_matches_loop_oracle(self, kite_table, data):
        # bases built from a few independent atoms have many parity sets;
        # pools of more than 64 projectors take more than one limb
        copies = data.draw(st.integers(1, 5))
        pool = ProjectorPool(
            kite_table.pool.n, kite_table.pool.projectors * copies, ()
        )
        size = len(pool)
        atoms = [
            data.draw(st.integers(0, (1 << size) - 1)) | 1 << (size - 1 - a)
            for a in range(4)
        ]
        bases = []
        for _ in range(data.draw(st.integers(0, 12))):
            mask = 0
            for a in data.draw(st.sets(st.sampled_from(atoms), min_size=1)):
                mask ^= a
            ids = tuple(p for p in range(size) if mask >> p & 1)
            bases.append(Basis(ids, "pure"))
        table = BasisTable(pool, tuple(bases))
        # small blocks make the scan cross block boundaries
        bits = data.draw(st.integers(0, 13), label="block bits")
        with mock.patch.object(parity, "_SPAN_BLOCK_BITS", bits):
            assert _scan_subsets(table) == (
                census_oracles.brute_force_parity_proofs(table)
            )

    def test_brute_force_catches_a_fault_in_the_shared_walk(
        self, square_table
    ):
        # the kernel route and the scan walk their spans with one helper;
        # a walk that loses its last block must still be caught
        def short_walk(rows, width):
            return list(span_blocks(rows, width))[:-1]

        span_blocks = parity._span_blocks
        with mock.patch.object(parity, "_span_blocks", short_walk):
            agrees, _ = compare_with_brute_force(square_table)
        assert not agrees

    def test_symbol_totals_consistent(self, square_census):
        assert sum(square_census.symbol_counts.values()) == square_census.total


def _odd_kernel_vectors(table):
    nb = len(table.bases)
    kernel = gf2.nullspace(table.incidence_rows(), nb)
    odd = [
        v for v in census_oracles.enumerate_span(kernel)
        if v.bit_count() % 2 == 1
    ]
    return gf2.rref(kernel, nb)[0], odd


def _choices(basis_ids, table):
    return math.prod(table.bases[j].size for j in basis_ids)


def _choices_satisfiable(basis_ids, table):
    """Brute force: try every choice of one projector per basis and see
    whether some choice gives each basis exactly one chosen projector."""
    chosen = np.zeros(1, dtype=np.uint64)
    for j in basis_ids:
        bits = np.array(
            [1 << p for p in table.bases[j].projector_ids], dtype=np.uint64
        )
        chosen = (chosen[:, None] | bits[None, :]).ravel()
    ok = np.ones(len(chosen), dtype=bool)
    for j in basis_ids:
        hit = chosen & np.uint64(
            sum(1 << p for p in table.bases[j].projector_ids)
        )
        ok &= (hit != 0) & ((hit & (hit - np.uint64(1))) == 0)
    return bool(ok.any())


def _batched_survivors(kernel, nb):
    """The census's subset filter over the span of ``kernel``, a basis in
    the form ``gf2.nullspace`` returns, block by block, as basis sets
    (bit j = basis j) in walk order."""
    odd_rows, columns = _coefficient_columns(kernel, nb)
    found = []
    for coefs, vecs in _span_blocks(kernel, nb):
        found += census_oracles.from_limbs(
            vecs[_subset_survivors(coefs, odd_rows, columns)]
        )
    return found


class TestFilters:
    def _assert_subset_filter_matches_definition(self, table):
        echelon, odd = _odd_kernel_vectors(table)
        outcomes = set()
        expected = []
        for vec in odd:
            inside = any(u != vec and u & ~vec == 0 for u in odd)
            assert census_oracles.subset_critical(vec, echelon) == (not inside)
            outcomes.add(inside)
            if not inside:
                expected.append(vec)
        nb = len(table.bases)
        kernel = gf2.nullspace(table.incidence_rows(), nb)
        # the nullspace rows are the echelon form with pivots from the top
        assert census_oracles.msb_first_rref(kernel, nb) == kernel[::-1]
        assert _batched_survivors(kernel, nb) == expected
        return outcomes

    def test_subset_filter_on_square_tables(self, square_tables):
        for table in square_tables:
            self._assert_subset_filter_matches_definition(table)

    def test_subset_filter_on_kite_sub_table(self, kite_sub_table):
        outcomes = self._assert_subset_filter_matches_definition(
            kite_sub_table
        )
        assert outcomes == {True, False}

    def test_kite_sub_table_counts(self, kite_sub_census):
        census = kite_sub_census
        assert census.kernel_dimension == 11
        assert census.subset_critical_total == 384
        assert census.total == 356

    def test_brute_force_oracle_on_a_proof(self, square_table, square_census):
        ids = square_census.smallest().basis_ids
        assert not _choices_satisfiable(ids, square_table)
        assert _choices_satisfiable(ids[1:], square_table)

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_exact_one_search_matches_brute_force(
        self, square_tables, square_censuses, kite_table, kite_sub_ids,
        kite_sub_census, data,
    ):
        # random small subsets of these tables are all satisfiable, so a
        # draw may start from a critical proof, drop some of its bases and
        # add others
        if data.draw(st.booleans(), label="kite"):
            table = kite_table
            proofs = [
                tuple(kite_sub_ids[j] for j in p.basis_ids)
                for p in kite_sub_census.proofs
            ]
        else:
            k = data.draw(st.integers(0, len(square_tables) - 1), label="square")
            table = square_tables[k]
            proofs = [p.basis_ids for p in square_censuses[k].proofs]
        proofs = [p for p in proofs if _choices(p, table) <= BRUTE_FORCE_CHOICES]
        ids = list(
            data.draw(st.one_of(st.just(()), st.sampled_from(proofs)), label="proof")
        )
        for _ in range(data.draw(st.integers(0, min(2, len(ids))), label="drops")):
            ids.remove(data.draw(st.sampled_from(ids), label="dropped"))
        extra = data.draw(
            st.lists(st.integers(0, len(table.bases) - 1), unique=True, max_size=8),
            label="extra",
        )
        for j in extra:
            if j not in ids and _choices(ids + [j], table) <= BRUTE_FORCE_CHOICES:
                ids.append(j)
        ones = satisfying_assignment(ids, table)
        if _choices_satisfiable(ids, table):
            assert ones is not None
            for j in ids:
                assert (table.bases[j].mask & ones).bit_count() == 1
        else:
            assert ones is None


def _assert_census_matches_oracle(table, census=None):
    if census is None:
        census = enumerate_parity_proofs(table)
    oracle = census_oracles.enumerate_parity_proofs(table)
    # ParityProof equality compares basis ids, both symbols and the
    # projector count
    assert census.proofs == oracle.proofs
    # the tallies in the same insertion order too
    assert list(census.symbol_counts.items()) == list(
        oracle.symbol_counts.items()
    )
    assert list(census.basis_count_histogram.items()) == list(
        oracle.basis_count_histogram.items()
    )
    assert (
        census.total, census.subset_critical_total, census.kernel_dimension
    ) == (oracle.total, oracle.subset_critical_total, oracle.kernel_dimension)
    # every proof verifies and is drop-critical, and the tallies sum
    for proof in census.proofs:
        assert verify_proof(proof.basis_ids, table)
        assert satisfying_assignment(proof.basis_ids, table) is None
        assert is_critical(proof.basis_ids, table)
    assert census.total == len(census.proofs)
    assert sum(census.symbol_counts.values()) == census.total
    assert sum(census.basis_count_histogram.values()) == census.total


class TestCensusAgainstOracle:
    def test_square_tables(self, square_tables, square_censuses):
        for table, census in zip(square_tables, square_censuses):
            _assert_census_matches_oracle(table, census)

    def test_kite_sub_table(self, kite_sub_table, kite_sub_census):
        _assert_census_matches_oracle(kite_sub_table, kite_sub_census)

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_random_sub_tables(
        self, square_tables, kite_table, kite_sub_ids, kite_sub_census, data
    ):
        # a kite sub-table keeps the bases of a few critical proofs plus
        # some others, so that it holds proofs, in a random order; a
        # square sub-table drops a few bases of one square table
        if data.draw(st.booleans(), label="kite"):
            table = kite_table
            proofs = [
                tuple(kite_sub_ids[j] for j in p.basis_ids)
                for p in kite_sub_census.proofs
            ]
            seeds = data.draw(
                st.lists(st.sampled_from(proofs), min_size=1, max_size=3),
                label="proofs",
            )
            keep = sorted({j for p in seeds for j in p})
            extra = data.draw(
                st.lists(st.integers(0, len(table.bases) - 1), max_size=12),
                label="extra",
            )
            keep += sorted(set(extra) - set(keep))
        else:
            k = data.draw(st.integers(0, len(square_tables) - 1), label="square")
            table = square_tables[k]
            keep = list(range(len(table.bases)))
            for _ in range(data.draw(st.integers(0, 4), label="drops")):
                keep.remove(data.draw(st.sampled_from(keep), label="dropped"))
        order = data.draw(st.permutations(keep), label="order")
        sub = BasisTable(table.pool, tuple(table.bases[j] for j in order))
        assume(len(gf2.nullspace(sub.incidence_rows(), len(order))) <= 12)
        _assert_census_matches_oracle(sub)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_kite_less_random_bases(self, kite_table, data):
        # the kite has kernel dimension 20; dropping bases at random down
        # to dimension 12 or less gives sub-tables with and without proofs
        nb = len(kite_table.bases)
        drop = data.draw(
            st.sets(st.integers(0, nb - 1), min_size=8, max_size=20),
            label="drop",
        )
        sub = BasisTable(
            kite_table.pool,
            tuple(b for j, b in enumerate(kite_table.bases) if j not in drop),
        )
        assume(len(gf2.nullspace(sub.incidence_rows(), len(sub.bases))) <= 12)
        _assert_census_matches_oracle(sub)


@st.composite
def gf2_kernels(draw):
    """(independent vectors of nb bits, nb): kdim up to 12 and nb up to 130,
    each vector a random subset of a few shared positions, so that the
    span has vectors inside others and reaches past one 64-bit limb."""
    nb = draw(st.integers(1, 130), label="nb")
    positions = draw(
        st.lists(st.integers(0, nb - 1), min_size=1, max_size=16, unique=True),
        label="positions",
    )
    kernel = []
    for _ in range(draw(st.integers(0, 12), label="draws")):
        picked = draw(st.sets(st.sampled_from(positions)), label="vector")
        vec = sum(1 << p for p in picked)
        if gf2.rank(kernel + [vec]) > len(kernel):
            kernel.append(vec)
    return kernel, nb


class TestBatchedFilters:
    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_span_blocks_follow_enumerate_span(self, data):
        kernel, nb = data.draw(gf2_kernels())
        bits = data.draw(st.integers(0, 13), label="block bits")
        with mock.patch.object(parity, "_SPAN_BLOCK_BITS", bits):
            blocks = list(_span_blocks(kernel, nb))
        size = 1 << min(bits, len(kernel))
        assert all(len(c) == len(v) == size for c, v in blocks)
        span = list(census_oracles.enumerate_span(kernel))
        assert [
            v for _, vecs in blocks for v in census_oracles.from_limbs(vecs)
        ] == span
        # each coefficient vector picks the kernel rows summing to its set
        decoded = []
        for coefs, _ in blocks:
            for c in coefs.tolist():
                vec = 0
                for i, row in enumerate(kernel):
                    if c >> i & 1:
                        vec ^= row
                decoded.append(vec)
        assert decoded == span

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_subset_survivors_match_oracle(self, data):
        kernel, nb = data.draw(gf2_kernels())
        # the oracle reads its own echelon form, the filter the nullspace form
        echelon, _ = gf2.rref(kernel, nb)
        basis = census_oracles.msb_first_rref(kernel, nb)
        expected = [
            vec for vec in census_oracles.enumerate_span(basis)
            if vec.bit_count() % 2 and census_oracles.subset_critical(vec, echelon)
        ]
        bits = data.draw(st.integers(0, 13), label="block bits")
        with mock.patch.object(parity, "_SPAN_BLOCK_BITS", bits):
            assert _batched_survivors(basis, nb) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_cover_prefilter_matches_loop(self, data):
        # covers near the vectors: each a vector with a few bits cleared
        # and a few others set, so all three outcomes of a cover occur
        nb = data.draw(st.integers(1, 130), label="nb")
        bit = st.integers(0, nb - 1)
        vecs = data.draw(
            st.lists(
                st.integers(0, (1 << nb) - 1) | bit.map(lambda b: 1 << b),
                max_size=40,
            ),
            label="vecs",
        )
        covers = []
        for _ in range(data.draw(st.integers(0, 40), label="covers")):
            cover = data.draw(
                st.sampled_from(vecs) if vecs else st.just(0), label="near"
            )
            for b in data.draw(st.lists(bit, max_size=2), label="cleared"):
                cover &= ~(1 << b)
            for b in data.draw(st.lists(bit, max_size=3), label="set"):
                cover |= 1 << b
            covers.append(cover)
        index = _CoverIndex(nb)
        for cover in covers:
            index.add(cover)
        undecided = [index.undecided(gf2.bits(vec)) for vec in vecs]
        assert [sum(1 << j for j in drops) for drops in undecided] == [
            census_oracles.cover_undecided(vec, covers) for vec in vecs
        ]
        # the drops come highest first, the order they are searched in
        assert all(drops == sorted(drops, reverse=True) for drops in undecided)


def _identity_group(table):
    return [tuple(range(len(table.bases)))]


class _Filed(dict):
    """A dict of pending verdicts that also keeps every verdict filed in
    it."""

    def __init__(self):
        super().__init__()
        self.filed = {}

    def update(self, verdicts):
        self.filed.update(verdicts)
        super().update(verdicts)


def _recorded_census(table):
    """The census of the table, the cover list its drop-one test ended
    with, every verdict it filed by basis bitset, and the verdicts still
    pending at its end."""
    held = {"covers": _CoverIndex(0)}
    made = []
    drops_satisfiable = parity._drops_satisfiable

    def spy(ids, table, covers):
        held["covers"] = covers
        return drops_satisfiable(ids, table, covers)

    class Recorded(parity._SharedVerdicts):
        def __init__(self, table):
            super().__init__(table)
            self.pending = _Filed()
            made.append(self)

    with mock.patch.object(parity, "_drops_satisfiable", spy), \
            mock.patch.object(parity, "_SharedVerdicts", Recorded):
        census = enumerate_parity_proofs(table)
    # cover c holds basis j iff bit c of holders[j] is set
    index = held["covers"]
    covers = [
        sum(1 << j for j, h in enumerate(index.holders) if h >> c & 1)
        for c in range(index.found.bit_length())
    ]
    return census, covers, made[0].pending.filed, dict(made[0].pending)


@pytest.fixture(scope="module")
def search_tables():
    """Basis tables of systems that ``search_completions`` finds: the
    three 2-qubit squares from an empty seed, and 3-qubit systems
    completed from seeds of two random triples."""
    systems = list(mermin_square_search().systems)
    rng = random.Random(11)
    triples = three_member_contexts(3)
    empty = ContextSystem(3, (), ())
    for _ in range(6):
        seed = _assemble(empty, rng.sample(triples, 2))
        systems += search_completions(seed, [3] * 4, budget=20_000).systems
    assert len(systems) >= 6
    return [enumerate_bases(projectors_of(sys)) for sys in systems]


class TestSharedFailures:
    def test_kite_searches_and_covers(self, kite_table):
        shared, covers, filed, left = _recorded_census(kite_table)
        with mock.patch.object(parity, "_pauli_automorphisms", _identity_group):
            alone, alone_covers, alone_filed, alone_left = _recorded_census(
                kite_table
            )
        # one survivor of each of the 1440 Pauli orbits is decided and the
        # other 40,032 read its verdict; with the identity alone every
        # survivor is decided
        assert (shared.searches, alone.searches) == (511, 8744)
        assert (shared.shared_verdicts, alone.shared_verdicts) == (40032, 0)
        assert (len(covers), len(alone_covers)) == (247, 424)
        # each survivor has a verdict filed, and each verdict is read
        for census, verdicts, pending in (
            (shared, filed, left), (alone, alone_filed, alone_left)
        ):
            assert len(verdicts) == census.subset_critical_total == 41472
            assert sum(verdicts.values()) == census.total == 33152
            assert pending == {}
        assert filed == alone_filed
        # the same proofs in the same order
        assert shared.proofs == alone.proofs
        assert list(shared.symbol_counts.items()) == list(
            alone.symbol_counts.items()
        )
        assert len(shared.symbol_counts) == 33
        # the counters stay out of the payloads
        summary = shared.summary_dict(kite_table)
        assert "searches" not in summary and "shared_verdicts" not in summary

    def test_group_built_at_the_first_decision(self, kite_table):
        # the star-3 table has one basis and an empty kernel, so its census
        # decides nothing and never needs the group; the kite's builds it
        # once
        star = enumerate_bases(projectors_of(build_star_table(3)))
        with mock.patch.object(
            parity, "_pauli_automorphisms", wraps=parity._pauli_automorphisms
        ) as group:
            census = enumerate_parity_proofs(star)
            assert (census.searches, group.call_count) == (0, 0)
            census = enumerate_parity_proofs(kite_table)
            assert (census.searches, group.call_count) == (511, 1)

    def test_kite_group_matches_every_pauli(self, kite_table, kite_images):
        assert len(kite_images) == 32
        assert parity._pauli_automorphisms(kite_table) == kite_images
        assert kite_images[0] == tuple(range(len(kite_table.bases)))

    def test_trivial_group_outside_a_closed_pool(self, kite_table):
        n, projectors = kite_table.n, kite_table.pool.projectors
        # without its last projector the pool is not closed under the
        # single-qubit Pauli images
        last = len(projectors) - 1
        bases = tuple(b for b in kite_table.bases if last not in b.projector_ids)
        table = BasisTable(ProjectorPool(n, projectors[:-1], ()), bases)
        assert parity._pauli_automorphisms(table) == _identity_group(table)
        # projectors or bases given twice
        doubled = BasisTable(ProjectorPool(n, projectors * 2, ()), kite_table.bases)
        assert parity._pauli_automorphisms(doubled) == _identity_group(doubled)
        twice = BasisTable(kite_table.pool, kite_table.bases * 2)
        assert parity._pauli_automorphisms(twice) == _identity_group(twice)

    @pytest.mark.parametrize("cap, elements", [(31, 1), (32, 32)])
    def test_group_cap(self, kite_table, cap, elements):
        # the kite pool's single-qubit Pauli images generate a group of 32
        # projector permutations, each an automorphism of the table
        with mock.patch.object(parity, "_AUTOMORPHISM_CAP", cap):
            assert len(parity._pauli_automorphisms(kite_table)) == elements

    @settings(max_examples=100, deadline=None)
    @given(st.data())
    def test_images_map_each_basis(self, data):
        # partial maps on up to 130 bases, three 64-bit limbs; a map that
        # sends every basis out of the table, applied to the set of every
        # basis, gives the largest count of bases sent out
        nb = data.draw(st.integers(1, 130), label="nb")
        every = set(range(nb))
        perms = [tuple(range(nb))]
        for _ in range(data.draw(st.integers(0, 4), label="maps")):
            perm = data.draw(st.permutations(range(nb)), label="perm")
            gone = data.draw(
                st.sets(st.integers(0, nb - 1)) | st.just(every), label="gone"
            )
            perms.append(
                tuple(-1 if j in gone else t for j, t in enumerate(perm))
            )
        full = (1 << nb) - 1
        vecs = data.draw(
            st.lists(st.integers(0, full) | st.just(full), min_size=1,
                     max_size=10),
            label="vecs",
        )
        selections = np.array(
            [[vec >> j & 1 for j in range(nb)] for vec in vecs], dtype=np.uint8
        )
        expected = []
        for vec in vecs:
            held = gf2.bits(vec)
            expected.append([
                sum(1 << perm[j] for j in held)
                for perm in perms if all(perm[j] >= 0 for j in held)
            ])
        assert parity._BasisImages(perms, nb)(selections) == expected
        # the limb rows of the sets read back as the sets
        rows = parity._to_limbs(vecs, -(-nb // 64))
        assert parity._from_limbs(rows) == vecs == census_oracles.from_limbs(
            rows
        )

    @settings(max_examples=15, deadline=None)
    @given(st.data())
    def test_pauli_image_kite_sub_tables(self, kite_table, kite_images, data):
        # a sub-table closed under one Pauli image g and missing the images
        # of a few bases under another, h: the group is abelian and g its
        # own inverse, so g maps the sub-table onto itself
        nb = len(kite_table.bases)
        g = data.draw(st.sampled_from(kite_images), label="g")
        h = data.draw(st.sampled_from(kite_images), label="h")
        seeds = data.draw(
            st.sets(st.integers(0, nb - 1), min_size=4, max_size=8),
            label="seeds",
        )
        drop = {h[j] for j in seeds | {g[j] for j in seeds}}
        kept = data.draw(
            st.permutations(sorted(set(range(nb)) - drop)), label="order"
        )
        sub = BasisTable(
            kite_table.pool, tuple(kite_table.bases[j] for j in kept)
        )
        kernel = gf2.nullspace(sub.incidence_rows(), len(kept))
        assume(len(kernel) <= 12)
        group = parity._pauli_automorphisms(sub)
        assert group[0] == tuple(range(len(kept)))
        assert len(set(group)) == len(group)
        assert set(group) == census_oracles.pauli_basis_images(sub)
        where = {j: i for i, j in enumerate(kept)}
        assert tuple(where[g[j]] for j in kept) in group
        census, _, filed, pending = _recorded_census(sub)
        _assert_census_matches_oracle(sub, census)
        # every survivor has a verdict filed, each verdict is read, and
        # each of a sample of at most 40 is that of the oracle's drop-one
        # test on a subset survivor
        assert len(filed) == census.subset_critical_total
        assert pending == {}
        echelon, _ = gf2.rref(kernel, len(kept))
        keys = sorted(filed)
        for key in keys[::max(1, len(keys) // 40)]:
            ids = gf2.bits(key)
            assert verify_proof(ids, sub)
            assert census_oracles.subset_critical(key, echelon)
            assert filed[key] == census_oracles.is_critical(ids, sub)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_search_completion_sub_tables(self, search_tables, data):
        table = data.draw(st.sampled_from(search_tables), label="table")
        keep = list(range(len(table.bases)))
        for _ in range(data.draw(st.integers(0, 5), label="drops")):
            keep.remove(data.draw(st.sampled_from(keep), label="dropped"))
        order = data.draw(st.permutations(keep), label="order")
        sub = BasisTable(table.pool, tuple(table.bases[j] for j in order))
        group = parity._pauli_automorphisms(sub)
        assert group[0] == tuple(range(len(order)))
        assert len(set(group)) == len(group)
        assert set(group) == census_oracles.pauli_basis_images(sub)
        _assert_census_matches_oracle(sub)


class TestSymbols:
    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_symbol_and_verify_match_multiplicity_oracle(
        self, square_tables, kite_table, data
    ):
        table = data.draw(
            st.sampled_from([kite_table, *square_tables]), label="table"
        )
        # repeats allowed: multiplicities then reach well past 4
        ids = data.draw(
            st.lists(st.integers(0, len(table.bases) - 1), max_size=40),
            label="ids",
        )
        assert proof_symbol(ids, table) == census_oracles.proof_symbol(
            ids, table
        )
        mult = census_oracles.proof_multiplicities(ids, table)
        assert verify_proof(ids, table) == (
            len(ids) % 2 == 1 and all(m % 2 == 0 for m in mult.values())
        )

    def test_multiplicity_at_the_code_width(self, square_tables, kite_table):
        # a basis listed m times gives its projectors multiplicity m, the
        # largest a list of m ids can reach
        single = BasisTable(kite_table.pool, kite_table.bases[:1])
        for table in (kite_table, *square_tables, single):
            nb = len(table.bases)
            for ids in ([], [0], [nb - 1] * 2, [0] * nb, [nb - 1] * (nb + 5),
                        list(range(nb)), [0, nb - 1] * nb):
                assert proof_symbol(ids, table) == (
                    census_oracles.proof_symbol(ids, table)
                )

    def test_one_tally_across_id_list_lengths(self, kite_table, monkeypatch):
        # a fresh table builds its tally at the first call and keeps it;
        # its keys compare across calls whatever the lists' lengths, so a
        # list past 255 ids and a shorter one after it share its renderings
        built = []
        init = parity._ProofTally.__init__

        def counted(self, table):
            built.append(table)
            init(self, table)

        monkeypatch.setattr(parity._ProofTally, "__init__", counted)
        table = BasisTable(kite_table.pool, kite_table.bases)
        nb = len(table.bases)
        for ids in ([0], [0] * 3, list(range(nb)), [1, 2],
                    [nb - 1] * (nb + 300), [0, 0], []):
            assert proof_symbol(ids, table) == (
                census_oracles.proof_symbol(ids, table)
            )
        assert built == [table]

    def test_census_renders_each_symbol_once(self, kite_table):
        # a key fixes its symbol and the reverse, so a fresh table's census
        # renders one key per symbol type; a basis listed 300 times after
        # it still gets its own symbol
        table = BasisTable(kite_table.pool, kite_table.bases)
        census = enumerate_parity_proofs(table)
        assert len(census.symbol_counts) == 33
        assert len(table._tally.rendered) == 33
        ids = [len(table.bases) - 1] * 300
        assert proof_symbol(ids, table) == census_oracles.proof_symbol(
            ids, table
        )

    def test_square_smallest_symbol(self, square_table, square_census):
        utf8, ascii_form = proof_symbol(
            square_census.smallest().basis_ids, square_table
        )
        assert utf8 == "18¹₂−9₄"
        assert ascii_form == "18^1_2 - 9_4"

    def test_render_known_forms(self):
        utf8, ascii_form = render_symbol(
            {(2, 2): 12, (4, 2): 12}, {4: 4, 6: 4, 8: 1}
        )
        assert utf8 == "12²₂12⁴₂−4₄4₆1₈"
        assert ascii_form == "12^2_2 12^4_2 - 4_4 4_6 1_8"

    def test_render_seven_qubit_form(self):
        utf8, ascii_form = render_symbol(
            {(8, 2): 24, (32, 2): 12}, {4: 4, 10: 4, 16: 1}
        )
        assert utf8 == "24⁸₂12³²₂−4₄4₁₀1₁₆"
        assert ascii_form == "24^8_2 12^32_2 - 4_4 4_10 1_16"


class TestVerifyProof:
    def test_even_basis_count_rejected(self, square_table, square_census):
        ids = square_census.smallest().basis_ids
        assert not verify_proof(ids[:-1], square_table)

    def test_odd_incidence_rejected(self, square_table):
        assert not verify_proof((0,), square_table)
