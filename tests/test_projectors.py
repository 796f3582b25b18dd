import ast
import functools
import itertools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import census_oracles
from ksparity import projectors
from ksparity.pauli import commutes, parse_word
from ksparity.parity import BasisTable, enumerate_bases, is_saturated
from ksparity.reproduce import (
    kite_completion,
    mermin_square_search,
    reconstructed_single_table_contexts,
)
from ksparity.systems import (
    Context,
    ContextSystem,
    build_star_table,
    builtin_fixtures,
    system_from_rows,
)
from ksparity.projectors import (
    orthogonal,
    projector_from_signed_words,
    projectors_of,
)


def signed(text, sign=1):
    w = parse_word(text)
    return w if sign == 1 else w.negate()


class TestProjectorConstruction:
    def test_single_z(self):
        plus = projector_from_signed_words([signed("Z")])
        minus = projector_from_signed_words([signed("Z", -1)])
        assert plus.rank == minus.rank == 1
        assert np.allclose(plus.to_dense(), [[1, 0], [0, 0]])
        assert np.allclose(minus.to_dense(), [[0, 0], [0, 1]])

    def test_dense_is_projector(self):
        p = projector_from_signed_words(
            [signed("IXXZ"), signed("YYIX", -1), signed("XIYY")]
        )
        mat = p.to_dense()
        assert np.allclose(mat @ mat, mat, atol=1e-12)
        assert np.allclose(mat, mat.conj().T)
        assert np.trace(mat).real == pytest.approx(p.rank)

    def test_dependent_generator_consistent(self):
        # ZZ = Z1 * Z2, so feeding it redundantly is fine
        p = projector_from_signed_words(
            [signed("ZI"), signed("IZ"), signed("ZZ")]
        )
        assert p.rank == 1

    def test_dependent_generator_conflict(self):
        with pytest.raises(ValueError, match="inconsistent sign"):
            projector_from_signed_words(
                [signed("ZI"), signed("IZ"), signed("ZZ", -1)]
            )

    def test_non_hermitian_rejected(self):
        with pytest.raises(ValueError):
            projector_from_signed_words([parse_word("iXX")])

    def test_canonical_form_is_generator_order_independent(self):
        a = projector_from_signed_words([signed("XX"), signed("ZZ", -1)])
        b = projector_from_signed_words([signed("ZZ", -1), signed("XX")])
        c = projector_from_signed_words(
            [signed("XX"), signed("YY")]  # YY = -(XX)(ZZ)
        )
        assert a == b == c

    @given(st.data())
    def test_generators_are_the_top_bit_first_reduced_rows(self, data):
        # the least group element per leading bit of x << n | z, highest
        # bit first, against reduced row echelon form by elimination, each
        # signed as the product of the signed words that gives it
        n = data.draw(st.integers(1, 5), label="n")
        words = []
        for text in data.draw(st.lists(
            st.text("IXYZ", min_size=n, max_size=n), max_size=6
        ), label="words"):
            word = parse_word(text)
            if all(commutes(word, w) for w in words):
                words.append(word)
        assume(words)
        independent = census_oracles.independent_words(words)
        negated = data.draw(st.integers(0, (1 << len(independent)) - 1),
                            label="negated")
        signs = census_oracles.group_signs([
            w.negate() if negated >> i & 1 else w
            for i, w in enumerate(independent)
        ])
        # every word, dependent ones too, with the sign its group gives it
        proj = projector_from_signed_words([
            w.with_sigma(1 - signs[(w.x, w.z)]) for w in words
        ])
        rows = census_oracles.msb_first_rref(
            [(w.x << n) | w.z for w in words], 2 * n
        )
        assert [(g.x << n) | g.z for g in proj.generators] == rows
        assert all(signs[(g.x, g.z)] == g.sign for g in proj.generators)
        assert proj.elements == tuple(sorted(signs.items()))


class TestProjectorsOf:
    def test_members_that_do_not_commute(self):
        # the message names the context and its first pair that does not
        # commute, not the imaginary phase of their product
        words = tuple(parse_word(w) for w in ("XX", "YY", "ZZ", "XI", "ZI"))
        system = ContextSystem(
            2, words, (Context((0, 1, 2), -1), Context((3, 4), 1))
        )
        with pytest.raises(
            ValueError, match="^context 1: members XI and ZI do not commute$"
        ):
            projectors_of(system)
        with pytest.raises(
            ValueError, match="^members XI and -ZI do not commute$"
        ):
            projector_from_signed_words([signed("XI"), signed("ZI", -1)])

    def test_single_complete_context(self):
        sys = system_from_rows(["ZI", "IZ", "ZZ"], 1)
        pool = projectors_of(sys)
        assert len(pool) == 4
        assert all(p.rank == 1 for p in pool.projectors)

    def test_kite_thick_context(self):
        sys = builtin_fixtures()["kite-quadruples"]
        pool = projectors_of(sys)
        # each four-member context has 3 independent members: 8 projectors
        # of rank 2; the two contexts share none
        assert len(pool.context_families[0]) == 8
        assert len(pool.context_families[1]) == 8
        for fam in pool.context_families:
            for idx in fam:
                assert pool.projectors[idx].rank == 2

    def test_three_member_dependent_context(self):
        # {XX, YY, ZZ} multiplies to -identity: 2 independent generators
        sys = system_from_rows(["XX", "YY", "ZZ"], -1)
        pool = projectors_of(sys)
        assert len(pool) == 4
        assert all(p.rank == 1 for p in pool.projectors)

    def test_four_qubit_dependent_context(self):
        # three members with dependent product on 4 qubits: rank 4 each
        sys = system_from_rows(["XXII", "YYII", "ZZII"], -1)
        pool = projectors_of(sys)
        assert len(pool) == 4
        assert all(p.rank == 4 for p in pool.projectors)

    def test_all_identity_context_refused(self):
        # it verifies, but has no independent member to sign; the message
        # names the context
        words = tuple(parse_word(w) for w in ("XX", "YY", "ZZ", "II"))
        system = ContextSystem(
            2, words, (Context((0, 1, 2), -1), Context((3,), 1))
        )
        with pytest.raises(ValueError, match="context 1: every member is "
                                             "the identity"):
            projectors_of(system)
        with pytest.raises(ValueError, match="at least one signed word"):
            projector_from_signed_words([])


class TestOrthogonality:
    def test_opposite_sign_z(self):
        plus = projector_from_signed_words([signed("Z")])
        minus = projector_from_signed_words([signed("Z", -1)])
        assert orthogonal(plus, minus)

    def test_z_vs_x_not_orthogonal(self):
        pz = projector_from_signed_words([signed("Z")])
        px = projector_from_signed_words([signed("X")])
        assert not orthogonal(pz, px)

    def test_mismatched_qubit_counts(self):
        with pytest.raises(ValueError):
            orthogonal(
                projector_from_signed_words([signed("Z")]),
                projector_from_signed_words([signed("ZZ")]),
            )

    def test_agrees_with_trace_oracle_on_kite(self):
        pool = projectors_of(builtin_fixtures()["kite-quadruples"])
        dense = [p.to_dense() for p in pool.projectors]
        for i, j in itertools.combinations(range(len(pool)), 2):
            tr = abs(np.trace(dense[i] @ dense[j]))
            assert orthogonal(pool.projectors[i], pool.projectors[j]) == (
                tr < 1e-9
            )


# every fixture, the kite completion, the three squares, the stars N = 2..4
# and the reconstructed four-qubit table
ORACLE_SYSTEMS = sorted(builtin_fixtures()) + [
    "kite", "square0", "square1", "square2", "star2", "star3", "star4",
    "table1-left-reconstructed",
]


@functools.cache
def oracle_system(name):
    fixtures = builtin_fixtures()
    if name in fixtures:
        return fixtures[name]
    if name == "kite":
        return kite_completion()
    if name.startswith("square"):
        return mermin_square_search().systems[int(name[-1])]
    if name.startswith("star"):
        return build_star_table(int(name[-1]))
    return reconstructed_single_table_contexts(fixtures["table1-left"])


class TestAgainstPerPatternOracle:
    @pytest.mark.parametrize("name", ORACLE_SYSTEMS)
    def test_pool_and_table_match_field_by_field(self, name):
        sys = oracle_system(name)
        pool = projectors_of(sys)
        expected, tables = census_oracles.projectors_of(sys)
        assert len(pool) == len(expected)
        for p, q, elements in zip(pool.projectors, expected.projectors,
                                  tables):
            assert [(g.x, g.z, g.lam) for g in p.generators] == [
                (g.x, g.z, g.lam) for g in q.generators
            ]
            assert p.elements == elements
        assert pool.context_families == expected.context_families
        table = enumerate_bases(pool)
        oracle_table = enumerate_bases(expected)
        assert [(b.projector_ids, b.kind) for b in table.bases] == [
            (b.projector_ids, b.kind) for b in oracle_table.bases
        ]
        assert table.partial == oracle_table.partial
        assert is_saturated(table) == census_oracles.is_saturated(oracle_table)

    @pytest.mark.parametrize("name", ORACLE_SYSTEMS)
    def test_orthogonality_graph_is_the_relation(self, name):
        pool = projectors_of(oracle_system(name))
        graph = pool.orthogonality
        for i, p in enumerate(pool.projectors):
            assert not graph[i] >> i & 1
            for j, q in enumerate(pool.projectors):
                assert graph[i] >> j & 1 == graph[j] >> i & 1
                assert bool(graph[i] >> j & 1) == orthogonal(p, q)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_orthogonality_graph_on_sub_pools(self, data):
        # the graph comes from group signatures, never from the families,
        # so a pool may mix groups freely and carry no families at all
        name = data.draw(st.sampled_from(ORACLE_SYSTEMS), label="system")
        pool = projectors_of(oracle_system(name))
        keep = data.draw(st.lists(
            st.integers(0, len(pool) - 1), min_size=1, max_size=40,
            unique=True,
        ), label="keep")
        families = data.draw(st.sampled_from(
            [(), (tuple(range(len(keep))),)]
        ), label="families")
        sub = projectors.ProjectorPool(
            pool.n, tuple(pool.projectors[i] for i in keep), families
        )
        graph = sub.orthogonality
        for i, p in enumerate(sub.projectors):
            assert graph[i] == sum(
                1 << j for j, q in enumerate(sub.projectors)
                if orthogonal(p, q)
            )

    @pytest.mark.parametrize(
        "name", ["kite", "square0", "square1", "square2"]
    )
    def test_saturation_matches_pair_loop_on_sub_tables(self, name):
        table = enumerate_bases(projectors_of(oracle_system(name)))
        rng = random.Random(name)
        subsets = [table.bases]
        subsets += [table.bases[:j] + table.bases[j + 1:]
                    for j in range(len(table.bases))]
        subsets += [
            tuple(b for b in table.bases if rng.random() < 0.7)
            for _ in range(20)
        ]
        verdicts = set()
        for bases in subsets:
            sub = BasisTable(table.pool, bases)
            verdict = is_saturated(sub)
            assert verdict == census_oracles.is_saturated(sub)
            verdicts.add(verdict)
        assert verdicts == {True, False}

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_random_systems(self, data):
        # contexts of commuting words on 1-3 qubits that share observables,
        # so one pool mixes groups and deduplicates across contexts
        n = data.draw(st.integers(1, 3), label="n")
        texts = data.draw(st.lists(
            st.text("IXYZ", min_size=n, max_size=n).filter(
                lambda t: t != "I" * n
            ), min_size=1, max_size=8, unique=True,
        ), label="observables")
        words = tuple(parse_word(t) for t in texts)
        contexts = []
        for _ in range(data.draw(st.integers(1, 4), label="contexts")):
            members = []
            for m in data.draw(st.lists(
                st.integers(0, len(words) - 1), min_size=1, max_size=4
            ), label="members"):
                if all(commutes(words[m], words[k]) for k in members):
                    members.append(m)
            contexts.append(Context(tuple(members), 1))
        system = ContextSystem(n, words, tuple(contexts))
        pool = projectors_of(system)
        expected, tables = census_oracles.projectors_of(system)
        assert pool.projectors == expected.projectors
        assert [p.generators for p in pool.projectors] == [
            q.generators for q in expected.projectors
        ]
        assert [p.elements for p in pool.projectors] == tables
        assert pool.context_families == expected.context_families
        assert pool.orthogonality == tuple(
            sum(1 << j for j, q in enumerate(pool.projectors)
                if orthogonal(p, q))
            for p in pool.projectors
        )


class TestConjugated:
    @pytest.mark.parametrize("name", ["kite", "square0"])
    def test_flips_the_anticommuting_elements(self, name):
        # as bench/census.py:pauli_image flips them, and twice is no change
        pool = projectors_of(oracle_system(name))
        for px in range(1 << pool.n):
            for pz in range(1 << pool.n):
                for p in pool.projectors:
                    q = p.conjugated(px, pz)
                    assert q.elements == tuple(
                        ((x, z), -s if ((x & pz).bit_count()
                                        + (z & px).bit_count()) % 2 else s)
                        for (x, z), s in p.elements
                    )
                    assert q.conjugated(px, pz) == p


def test_only_projectors_reads_the_group_elements():
    # the projector format is known to projectors.py alone: no other
    # module of the package reads a projector's elements, key or signs
    found = []
    for path in sorted(Path(projectors.__file__).parent.glob("*.py")):
        if path.name == "projectors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and node.attr in (
                "elements", "key", "signs"
            ):
                found.append(f"{path.name}:{node.lineno} .{node.attr}")
    assert found == []
