import functools

import pytest
from hypothesis import given, settings, strategies as st

import search_oracles
from ksparity.pauli import PauliWord, parse_word, product_of
from ksparity.systems import (
    Context,
    ContextSystem,
    builtin_fixtures,
    parity_witness,
    verify_system,
)
from ksparity.search import (
    SEARCH_QUBIT_CAP,
    SEARCH_SHAPE_CAP,
    SearchCapError,
    canonical_form,
    search_completions,
    three_member_contexts,
)
from ksparity.reproduce import mermin_square_search


@functools.lru_cache(maxsize=None)
def _completions():
    """Kite completions, Mermin squares and the four-member kite seed."""
    kite = builtin_fixtures()["kite-quadruples"]
    found = search_completions(kite, [3, 3, 3, 3]).systems
    return tuple(found) + tuple(mermin_square_search().systems) + (kite,)


@st.composite
def relabeled_completions(draw):
    systems = _completions()
    sys = systems[draw(st.integers(0, len(systems) - 1))]
    qperm = draw(st.permutations(range(sys.n)))
    lperm = dict(zip("XYZ", draw(st.permutations("XYZ"))))
    return sys, search_oracles.transform_system(sys, qperm, lperm)


@st.composite
def small_systems(draw):
    """Random 2- and 3-qubit systems whose contexts need not be ±identity."""
    n = draw(st.integers(2, 3))
    keys = draw(st.lists(
        st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1)),
        min_size=2, max_size=6, unique=True,
    ))
    obs = tuple(PauliWord(n, x, z).unsigned() for x, z in keys)
    members = st.lists(
        st.integers(0, len(obs) - 1), min_size=1, max_size=4, unique=True
    )
    contexts = tuple(
        Context(tuple(ms), draw(st.sampled_from((1, -1))))
        for ms in draw(st.lists(members, min_size=1, max_size=3))
    )
    return ContextSystem(n, obs, contexts)


class TestAgainstOracles:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_triple_table(self, n):
        assert three_member_contexts(n) == search_oracles.three_member_contexts(n)

    @settings(max_examples=40, deadline=None)
    @given(relabeled_completions())
    def test_canonical_form_matches_oracle(self, pair):
        _, sys = pair
        assert canonical_form(sys) == search_oracles.canonical_form(sys)

    @settings(max_examples=40, deadline=None)
    @given(relabeled_completions())
    def test_canonical_form_is_relabeling_invariant(self, pair):
        sys, relabeled = pair
        assert canonical_form(relabeled) == canonical_form(sys)

    @settings(max_examples=100, deadline=None)
    @given(small_systems())
    def test_canonical_form_matches_oracle_off_identity(self, sys):
        # products that are not ±identity, or not Hermitian at all
        try:
            expected = search_oracles.canonical_form(sys)
        except ValueError:
            with pytest.raises(ValueError):
                canonical_form(sys)
        else:
            assert canonical_form(sys) == expected


def seed_of(n, picks):
    """The system of the triples ``picks`` of the n-qubit triple table."""
    triples = [three_member_contexts(n)[i] for i in picks]
    obs = sorted({key for t in triples for key in t.members})
    index = {key: j for j, key in enumerate(obs)}
    return ContextSystem(
        n,
        tuple(PauliWord(n, x, z).unsigned() for x, z in obs),
        tuple(Context(tuple(index[key] for key in t.members), t.sign)
              for t in triples),
    )


@st.composite
def search_cases(draw):
    """Seeds of 0-2 table triples on 1-3 qubits, with shapes of 0-4 triples."""
    n = draw(st.integers(1, 3))
    size = len(three_member_contexts(n))
    picks = draw(st.lists(
        st.integers(0, size - 1), max_size=min(2, size), unique=True,
    )) if size else []
    return seed_of(n, picks), [3] * draw(st.integers(0, 4))


def _outcome(result):
    return (result.nodes, result.complete,
            [sys.to_json() for sys in result.systems])


class TestSearchAgainstOracle:
    # the library counts dead children in batches; the oracle visits each
    @settings(max_examples=60, deadline=None)
    @given(search_cases(), st.integers(0, 200_000))
    def test_matches_node_for_node(self, case, budget):
        seed, shape = case
        expected = search_oracles.search_completions(seed, shape, budget)
        assert _outcome(search_completions(seed, shape, budget)) == _outcome(
            expected)
        if expected.complete and expected.nodes <= 300:
            # exhaustion at every node, inside runs of dead children too
            for b in range(expected.nodes + 2):
                assert _outcome(search_completions(seed, shape, b)) == (
                    _outcome(search_oracles.search_completions(seed, shape, b))
                ), b

    @pytest.mark.parametrize("n, picks, size", [
        # chosen triples through the pivot precede live children that
        # are looked up by their masks
        (3, [2, 77], 2),
        (3, [314], 3),
    ])
    def test_every_budget(self, n, picks, size):
        seed, shape = seed_of(n, picks), [3] * size
        total = search_oracles.search_completions(seed, shape, 10 ** 6).nodes
        for budget in range(total + 2):
            assert _outcome(search_completions(seed, shape, budget)) == (
                _outcome(search_oracles.search_completions(seed, shape, budget))
            ), budget

    # 3,339 ends on the leaf that accepts the first completion, after a
    # chosen triple through its pivot: a rank that counts that triple
    # stops before the leaf
    @pytest.mark.parametrize(
        "budget", [1_000, 3_339, 100_000, 291_900, 291_901]
    )
    def test_kite_budgets(self, budget):
        seed = builtin_fixtures()["kite-quadruples"]
        shape = [3, 3, 3, 3]
        assert _outcome(search_completions(seed, shape, budget)) == _outcome(
            search_oracles.search_completions(seed, shape, budget))


class TestTripleEnumeration:
    def test_two_qubit_triples(self):
        triples = three_member_contexts(2)
        # every triple is commuting with identity-letter product
        for t in triples:
            words = [parse_word_from_masks(2, m) for m in t.members]
            prod = product_of(words)
            assert prod.is_identity_letters
            assert prod.sign == t.sign
        keys = {t.members for t in triples}
        assert len(keys) == len(triples)

    def test_classic_negative_triple_present(self):
        triples = three_member_contexts(2)
        target = frozenset(
            (w.x, w.z) for w in map(parse_word, ("XX", "YY", "ZZ"))
        )
        match = [t for t in triples if frozenset(t.members) == target]
        assert len(match) == 1 and match[0].sign == -1


def parse_word_from_masks(n, key):
    return PauliWord(n, key[0], key[1]).unsigned()


class TestMerminSearch:
    def test_finds_three_inequivalent_squares(self):
        result = mermin_square_search()
        assert result.complete
        assert result.nodes == 586
        assert len(result.systems) == 3
        forms = {canonical_form(s) for s in result.systems}
        assert len(forms) == 3
        for sys in result.systems:
            assert len(sys.observables) == 9
            assert len(sys.contexts) == 6
            assert verify_system(sys).ok
            assert parity_witness(sys)
            neg = sum(1 for c in sys.contexts if c.sign == -1)
            assert neg % 2 == 1

    def test_every_observable_in_two_contexts(self):
        for sys in mermin_square_search().systems:
            counts = [0] * len(sys.observables)
            for ctx in sys.contexts:
                for m in ctx.members:
                    counts[m] += 1
            assert all(c == 2 for c in counts)


class TestKiteSearch:
    def test_kite_completions(self):
        seed = builtin_fixtures()["kite-quadruples"]
        result = search_completions(seed, [3, 3, 3, 3])
        assert result.complete
        assert result.nodes == 291_901
        assert len(result.systems) == 32
        for sys in result.systems[:4]:
            assert len(sys.observables) == 10
            assert len(sys.contexts) == 6
            assert verify_system(sys).ok
            assert parity_witness(sys)


class TestApiEdges:
    def test_non_triple_shape_unsupported(self):
        seed = builtin_fixtures()["kite-quadruples"]
        with pytest.raises(NotImplementedError):
            search_completions(seed, [4, 3])

    def test_invalid_seed_gives_empty_result(self):
        bad = ContextSystem(
            1,
            (parse_word("X"), parse_word("Z")),
            (Context((0, 1), 1),),
        )
        result = search_completions(bad, [3])
        assert result.systems == [] and result.complete

    def test_budget_exhaustion_flagged(self):
        seed = ContextSystem(2, (), ())
        result = search_completions(seed, [3] * 6, budget=50)
        assert not result.complete
        assert result.nodes == 51

    def test_qubit_cap(self, monkeypatch):
        import ksparity.search

        def no_enumeration(n):
            raise AssertionError("triple table built above the cap")

        monkeypatch.setattr(
            ksparity.search, "three_member_contexts", no_enumeration
        )
        seed = ContextSystem(SEARCH_QUBIT_CAP + 1, (), ())
        with pytest.raises(SearchCapError):
            search_completions(seed, [3])

    def test_shape_cap(self, monkeypatch):
        # the search recurses once per added context: a shape of 1,000
        # once ended in RecursionError.  At the cap, 300 nodes on an
        # empty 4-qubit seed already reach a depth of about 200
        import ksparity.search

        seed = ContextSystem(4, (), ())
        result = search_completions(seed, [3] * SEARCH_SHAPE_CAP, budget=300)
        assert (result.complete, result.nodes) == (False, 301)

        def no_enumeration(n):
            raise AssertionError("triple table built above the cap")

        monkeypatch.setattr(
            ksparity.search, "three_member_contexts", no_enumeration
        )
        for size in (SEARCH_SHAPE_CAP + 1, 1000):
            with pytest.raises(SearchCapError, match=f"the shape has {size}"):
                search_completions(seed, [3] * size)


class TestCanonicalForm:
    def test_invariant_under_qubit_swap(self):
        sys = builtin_fixtures()["kite-quadruples"]
        swapped_obs = tuple(
            parse_word(str(ob)[::-1]) for ob in sys.observables
        )
        swapped = ContextSystem(4, swapped_obs, sys.contexts)
        assert canonical_form(sys) == canonical_form(swapped)

    def test_distinguishes_signs(self):
        a = ContextSystem(
            2,
            tuple(map(parse_word, ("XX", "YY", "ZZ"))),
            (Context((0, 1, 2), -1),),
        )
        b = ContextSystem(
            2,
            tuple(map(parse_word, ("XX", "YY", "ZI"))),
            (Context((0, 1), 1),),
        )
        assert canonical_form(a) != canonical_form(b)
