import collections
import functools
import json
import random

import pytest
from hypothesis import assume, given, settings, strategies as st

import ghz_oracles
from ksparity import reproduce
from ksparity.cli import MULTIPARTITE_MEMBER_CAP
from ksparity.pauli import PauliWord, parse_word
from ksparity.systems import (
    Context,
    ContextSystem,
    InconsistentEigenvaluesError,
    anticommuting_pairs,
    build_star_table,
    builtin_fixtures,
    commutation_violations,
    count_ghz_assignments,
    default_eigenvalues,
    find_proper_subproof,
    gf2_infeasible,
    ghz_infeasible,
    is_genuinely_multipartite,
    parity_witness,
    system_from_rows,
    verify_system,
)


def control_table(seed):
    """Star table on four of six qubits next to {L I, I L, L L} on the
    other two, at seeded positions: not genuinely multipartite, and its
    rows have two independent dependencies."""
    rng = random.Random(seed)
    letter = rng.choice("XYZ")
    pair = sorted(rng.sample(range(6), 2))
    others = [q for q in range(6) if q not in pair]
    rows = []
    for row in (str(ob) for ob in build_star_table(2).observables):
        word = ["I"] * 6
        for q, ch in zip(others, row):
            word[q] = ch
        rows.append("".join(word))
    for a, b in ((letter, "I"), ("I", letter), (letter, letter)):
        word = ["I"] * 6
        word[pair[0]], word[pair[1]] = a, b
        rows.append("".join(word))
    return system_from_rows(rows, -1)


@st.composite
def single_context_tables(draw, max_qubits, max_rows):
    """Random distinct non-identity words in one context of any sign, with
    up to two members repeated, in a random member order."""
    n = draw(st.integers(1, max_qubits))
    keys = draw(st.lists(
        st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
        .filter(lambda k: k != (0, 0)),
        min_size=1, max_size=max_rows, unique=True,
    ))
    obs = tuple(PauliWord(n, x, z).unsigned() for x, z in keys)
    members = tuple(range(len(obs)))
    members += tuple(draw(st.lists(st.sampled_from(members), max_size=2)))
    members = tuple(draw(st.permutations(members)))
    sign = draw(st.sampled_from((1, -1)))
    return ContextSystem(n, obs, (Context(members, sign),))


@st.composite
def tables_holding_a_star(draw):
    """The four-qubit star table on a random choice of 4..6 qubits, plus up
    to three random rows, in a random row order: most have a sub-proof.
    Some extra rows are idle on the star's qubits, so they drop out of the
    star's restriction."""
    n = draw(st.integers(4, 6))
    place = draw(st.permutations(range(n)))[:4]
    rows = []
    for ob in build_star_table(2).observables:
        word = ["I"] * n
        for q, ch in zip(place, str(ob)):
            word[q] = ch
        rows.append("".join(word))
    for _ in range(draw(st.integers(0, 3))):
        word = list(draw(st.text("IXYZ", min_size=n, max_size=n)))
        if draw(st.booleans()):
            for q in place:
                word[q] = "I"
        rows.append("".join(word))
    rows = [r for r in dict.fromkeys(rows) if r != "I" * n]
    order = draw(st.permutations(range(len(rows))))
    obs = tuple(parse_word(rows[i]) for i in order)
    return ContextSystem(n, obs, (Context(tuple(range(len(obs))), -1),))


@st.composite
def tables_with_coinciding_members(draw):
    """Members whose restricted words coincide on many column subsets.

    A core of rows (the four-qubit star table with the letters X, Y, Z
    permuted per qubit, which keeps the slot counts and commutation and
    may flip the product's sign, or up to three random words), up to two
    near copies that differ from a core row in one letter, core columns
    copied onto up to two extra qubits, at will an all-identity member and
    up to two repeated members, in a random member order."""
    if draw(st.booleans()):
        names = [dict(zip("XYZI", draw(st.permutations("XYZ")) + ["I"]))
                 for _ in range(4)]
        rows = ["".join(names[p][c] for p, c in enumerate(str(ob)))
                for ob in build_star_table(2).observables]
    else:
        base = draw(st.integers(1, 4))
        rows = draw(st.lists(st.text("IXYZ", min_size=base, max_size=base),
                             min_size=1, max_size=3))
    base = len(rows[0])
    for _ in range(draw(st.integers(0, 2))):
        row = draw(st.sampled_from(rows))
        p = draw(st.integers(0, base - 1))
        rows.append(row[:p] + draw(st.sampled_from("IXYZ")) + row[p + 1:])
    if draw(st.booleans()):
        rows.append("I" * base)
    copies = draw(st.lists(st.integers(0, base - 1), max_size=2))
    rows = [r + "".join(r[c] for c in copies) for r in dict.fromkeys(rows)]
    obs = tuple(parse_word(r) for r in rows)
    members = list(range(len(obs)))
    members += draw(st.lists(st.sampled_from(members), max_size=2))
    members = draw(st.permutations(members))
    sign = draw(st.sampled_from((1, -1)))
    return ContextSystem(
        base + len(copies), obs, (Context(tuple(members), sign),)
    )


@st.composite
def star_products(draw):
    """MULTIPARTITE_MEMBER_CAP members drawn, with repeats, from the
    products of a star table's rows (N = 2 or 3), in one context of
    either sign: they commute, and their restricted words coincide on
    many column subsets."""
    star = build_star_table(draw(st.integers(2, 3)))
    rows = star.observables
    picks = draw(st.lists(st.integers(1, (1 << len(rows)) - 1),
                          min_size=MULTIPARTITE_MEMBER_CAP,
                          max_size=MULTIPARTITE_MEMBER_CAP))
    keys = []
    for pick in picks:
        x = z = 0
        for i, row in enumerate(rows):
            if pick >> i & 1:
                x, z = x ^ row.x, z ^ row.z
        keys.append((x, z))
    index = {key: i for i, key in enumerate(dict.fromkeys(keys))}
    obs = tuple(PauliWord(star.n, x, z).unsigned() for x, z in index)
    members = tuple(index[key] for key in keys)
    sign = draw(st.sampled_from((1, -1)))
    return ContextSystem(star.n, obs, (Context(members, sign),))


@functools.cache
def squares_and_kite():
    """The three Mermin squares and the kite completion."""
    return (tuple(reproduce.mermin_square_search().systems)
            + (reproduce.kite_completion(),))


@st.composite
def context_subsets(draw):
    """A subset of the contexts of one of the three Mermin squares or the
    kite completion, plus up to two contexts drawn from its observables
    with a member repeated, in a random order and with random signs."""
    base = draw(st.sampled_from(squares_and_kite()))
    contexts = list(draw(st.lists(
        st.sampled_from(base.contexts), max_size=len(base.contexts),
        unique=True,
    )))
    nobs = len(base.observables)
    for _ in range(draw(st.integers(0, 2))):
        members = draw(st.lists(st.integers(0, nobs - 1), min_size=1,
                                max_size=4))
        members.append(draw(st.sampled_from(members)))
        contexts.append(Context(tuple(draw(st.permutations(members))), 1))
    contexts = [Context(c.members, draw(st.sampled_from((1, -1))))
                for c in draw(st.permutations(contexts))]
    return ContextSystem(base.n, base.observables, tuple(contexts))


class TestContextSystem:
    def test_json_roundtrip(self):
        sys = builtin_fixtures()["kite-quadruples"]
        again = ContextSystem.from_json(sys.to_json())
        assert again == sys

    def test_qubit_count_not_negative(self):
        doc = {"n": -1, "observables": [], "contexts": []}
        with pytest.raises(ValueError, match="n must not be negative"):
            ContextSystem.from_json_dict(doc)
        # no qubits and no observables is a system, if an empty one
        assert ContextSystem.from_json_dict({**doc, "n": 0}).n == 0

    def test_wire_format_shape(self):
        doc = json.loads(build_star_table(2).to_json())
        assert doc["n"] == 4
        assert doc["observables"][0] == "ZZZZ"
        assert doc["contexts"] == [{"members": [0, 1, 2, 3, 4], "sign": -1}]

    def test_rejects_signed_observable(self):
        with pytest.raises(ValueError):
            ContextSystem(1, (parse_word("-Z"),), ())

    def test_rejects_duplicate_observable(self):
        with pytest.raises(ValueError):
            system_from_rows(["XX", "XX"], 1)

    def test_member_out_of_range(self):
        with pytest.raises(ValueError):
            ContextSystem(1, (parse_word("Z"),), (Context((1,), 1),))

    def test_duplicate_member_index_is_allowed(self):
        # a context may use the same observable twice (product = identity)
        sys = ContextSystem(1, (parse_word("Z"),), (Context((0, 0), 1),))
        assert verify_system(sys).ok


class TestVerification:
    def test_fixtures_all_verify(self):
        for name, sys in builtin_fixtures().items():
            report = verify_system(sys)
            assert report.ok, (name, report.violations)

    def test_noncommuting_context_reported(self):
        sys = ContextSystem(
            1,
            (parse_word("X"), parse_word("Z")),
            (Context((0, 1), 1),),
        )
        report = verify_system(sys)
        assert not report.ok
        assert "do not commute" in report.violations[0]

    def test_anticommuting_pairs_in_combinations_order(self):
        rows = ["XI", "ZI", "IZ", "YI"]
        pairs = [(str(a), str(b)) for a, b in
                 anticommuting_pairs([parse_word(r) for r in rows])]
        assert pairs == [("XI", "ZI"), ("XI", "YI"), ("ZI", "YI")]
        sys = system_from_rows(rows, 1)
        lines = [f"context 0: members {a} and {b} do not commute"
                 for a, b in pairs]
        assert commutation_violations(sys, 0) == lines
        assert verify_system(sys).violations[:3] == lines

    def test_wrong_sign_reported(self):
        sys = ContextSystem(
            1, (parse_word("Z"),), (Context((0, 0), -1),)
        )
        report = verify_system(sys)
        assert not report.ok
        assert "sign mismatch" in report.violations[0]

    def test_parity_witness_on_kite(self):
        # kite quadruples: one negative context but odd incidence, no witness
        assert not parity_witness(builtin_fixtures()["kite-quadruples"])

    @settings(max_examples=150, deadline=None)
    @given(context_subsets())
    def test_infeasible_matches_oracle(self, sys):
        members = [m for c in sys.contexts for m in c.members]
        for granularity in ("observable", "single-qubit"):
            if granularity == "observable":
                names = set(members)
            else:
                names = {s for m in members
                         for s in ghz_oracles.word_slots(sys.observables[m])}
            assume(len(names) <= 16)
            assert gf2_infeasible(sys, granularity) == (
                ghz_oracles.gf2_infeasible(sys, granularity)
            )
        negative = sum(1 for c in sys.contexts if c.sign == -1)
        even = all(k % 2 == 0 for k in collections.Counter(members).values())
        assert parity_witness(sys) == (negative % 2 == 1 and even)
        if parity_witness(sys):
            assert gf2_infeasible(sys, "observable")


class TestStarTables:
    def test_four_qubit_rows(self):
        rows = [str(ob) for ob in build_star_table(2).observables]
        assert rows == ["ZZZZ", "XXZZ", "ZXXI", "XZIX", "IIXX"]

    def test_six_qubit_rows(self):
        rows = [str(ob) for ob in build_star_table(3).observables]
        assert rows == [
            "ZZZZZZ", "XXZZZZ", "ZXXIII", "XZIXII", "IIIXXI", "IIIIXX",
            "IIXIIX",
        ]

    def test_structure_for_all_sizes(self):
        for N in range(2, 9):
            sys = build_star_table(N)
            assert len(sys.observables) == 2 * N + 1
            assert sys.contexts[0].sign == -1
            assert verify_system(sys).ok
            for pos in range(sys.n):
                letters = [ob.letter(pos) for ob in sys.observables]
                assert letters.count("X") % 2 == 0
                assert letters.count("Z") % 2 == 0

    def test_too_small(self):
        with pytest.raises(ValueError):
            build_star_table(1)

    def test_check_3_reads_odd_x_and_z_columns(self, monkeypatch):
        # XX.YY.ZZ = -II verifies, with one X, Y and Z letter per column;
        # the star tables never have an odd column
        table = system_from_rows(["XX", "YY", "ZZ"], -1)
        monkeypatch.setattr(reproduce, "build_star_table", lambda N: table)
        ok, detail = reproduce._check_star_family()
        assert not ok
        assert all(d["columns_even"] is False for d in detail.values())

    def test_check_3_ignores_y_letters(self, monkeypatch):
        # column 0 holds one Y and two X letters, column 1 two Z letters
        table = system_from_rows(["YZ", "XZ", "XI"], -1)
        monkeypatch.setattr(reproduce, "build_star_table", lambda N: table)
        _, detail = reproduce._check_star_family()
        assert all(d["columns_even"] is True for d in detail.values())


class TestGhzChecks:
    def test_four_qubit_count_matches_oracle(self):
        sys = build_star_table(2)
        ev = (1, 1, 1, 1, -1)
        assert count_ghz_assignments(sys, ev) == (0, 256)
        assert ghz_oracles.count_ghz_assignments(sys, ev) == (0, 256)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_count_matches_oracle(self, data):
        sys = data.draw(single_context_tables(max_qubits=6, max_rows=7))
        words = sys.context_words(sys.contexts[0])
        slots = {s for w in words for s in ghz_oracles.word_slots(w)}
        assume(len(slots) <= 16)
        ev = data.draw(st.lists(
            st.sampled_from((1, -1)), min_size=len(words), max_size=len(words)
        ))
        expected = ghz_oracles.count_ghz_assignments(sys, ev)
        assert count_ghz_assignments(sys, ev) == expected
        try:
            infeasible = ghz_infeasible(sys, ev)
        except InconsistentEigenvaluesError:
            return
        assert infeasible == (expected[0] == 0)

    def test_sixteen_qubit_count_is_closed_form(self):
        sys = build_star_table(8)
        assert count_ghz_assignments(sys, default_eigenvalues(sys)) == (
            0, 1 << 32
        )

    def test_infeasible_methods_agree(self):
        for name in ("table1-left", "table2-left"):
            sys = builtin_fixtures()[name]
            assert ghz_infeasible(sys, default_eigenvalues(sys))

    def test_signature_independent(self):
        # infeasibility does not depend on which row carries the -1
        sys = build_star_table(2)
        assert ghz_infeasible(sys, (-1, 1, 1, 1, 1))
        assert ghz_infeasible(sys, (-1, -1, -1, 1, 1))

    def test_inconsistent_signature_rejected(self):
        sys = build_star_table(2)
        with pytest.raises(InconsistentEigenvaluesError):
            ghz_infeasible(sys, (1, 1, 1, 1, 1))

    def test_second_dependency_rejected(self):
        # the last three rows (L I, I L, L L on two qubits) multiply to
        # +identity on their own, so their eigenvalues must multiply to +1
        # as well as all eight to -1
        sys = control_table(0)
        with pytest.raises(InconsistentEigenvaluesError):
            ghz_infeasible(sys, [1, 1, 1, 1, 1, 1, 1, -1])
        assert ghz_infeasible(sys, [1, 1, 1, 1, -1, 1, -1, -1])

    def test_repeated_member_needs_one_eigenvalue(self):
        base = build_star_table(2)
        sys = ContextSystem(4, base.observables,
                            (Context(tuple(range(5)) + (0, 0), -1),))
        with pytest.raises(InconsistentEigenvaluesError):
            ghz_infeasible(sys, [1, 1, 1, 1, -1, -1, -1])
        assert ghz_infeasible(sys, [1, 1, 1, 1, -1, 1, 1])

    def test_feasible_case(self):
        sys = system_from_rows(["XX", "YY", "ZZ"], -1)
        assert verify_system(sys).ok
        assert not ghz_infeasible(sys, (1, 1, -1))
        satisfying, _ = count_ghz_assignments(sys, (1, 1, -1))
        assert satisfying > 0

    def test_observable_granularity(self):
        # at whole-observable granularity one equation per context is
        # trivially satisfiable for a single context
        sys = build_star_table(2)
        assert not gf2_infeasible(sys, granularity="observable")
        assert gf2_infeasible(sys, granularity="single-qubit")
        with pytest.raises(ValueError):
            gf2_infeasible(sys, granularity="letters")


class TestMultipartite:
    def test_star_tables_are_genuine(self):
        # up to 14 qubits, the CLI's qubit cap: the whole walk
        for N in (2, 3, 6, 7):
            assert is_genuinely_multipartite(build_star_table(N))

    def test_padded_table_is_not_genuine(self):
        # append idle qubits: the original columns carry a proper sub-proof
        rows = [str(ob) + "II" for ob in build_star_table(2).observables]
        sys = system_from_rows(rows, -1)
        witness = find_proper_subproof(sys)
        assert witness is not None
        assert not is_genuinely_multipartite(sys)

    def test_duplicated_rows_are_not_genuine(self):
        # repeating two identical row occurrences forms a trivial sub-proof
        base = build_star_table(2)
        obs = base.observables
        members = tuple(range(5)) + (0, 0)
        sys = ContextSystem(4, obs, (Context(members, -1),))
        assert verify_system(sys).ok
        assert not is_genuinely_multipartite(sys)


class TestMultipartiteOracle:
    def _same_witness(self, sys):
        assert find_proper_subproof(sys) == ghz_oracles.find_proper_subproof(sys)

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_star_tables(self, N):
        self._same_witness(build_star_table(N))

    def test_padded_and_duplicated_tables(self):
        star = build_star_table(2)
        self._same_witness(
            system_from_rows([str(ob) + "II" for ob in star.observables], -1)
        )
        self._same_witness(ContextSystem(
            4, star.observables, (Context(tuple(range(5)) + (0, 0), -1),)
        ))
        # the repeats come first: the witness takes a later occurrence
        self._same_witness(ContextSystem(
            4, star.observables, (Context((0, 0) + tuple(range(5)), -1),)
        ))
        # a first row idle on the star's qubits must not join the witness
        self._same_witness(system_from_rows(
            ["IIIIX"] + [str(ob) + "I" for ob in star.observables], -1
        ))

    @pytest.mark.parametrize("seed", range(6))
    def test_control_tables(self, seed):
        sys = control_table(seed)
        assert find_proper_subproof(sys) is not None
        self._same_witness(sys)

    def test_repeated_member_in_the_canonical_span(self):
        # words of one stabilizer group, ZIZ at rows 0 and 3: the first
        # vector of the canonical span that commutes and multiplies to
        # -identity holds both rows, so the witness step must pass it
        # over for one with distinct words
        obs = tuple(parse_word(w) for w in
                    ("XYX", "ZIZ", "IZZ", "XXY", "ZZI", "YYY", "YXX"))
        sys = ContextSystem(3, obs, (Context((1, 2, 6, 1, 0, 5, 3, 4), 1),))
        self._same_witness(sys)

    def test_identity_observable(self):
        # an all-identity row is idle on every column subset
        star = build_star_table(2)
        self._same_witness(system_from_rows(
            [str(ob) for ob in star.observables] + ["IIII"], -1
        ))

    def test_search_builds_no_words(self, monkeypatch):
        def refuse(self):
            raise AssertionError("find_proper_subproof built a PauliWord")

        tables = [build_star_table(3), control_table(0)]
        monkeypatch.setattr(PauliWord, "__post_init__", refuse)
        assert find_proper_subproof(tables[0]) is None
        assert find_proper_subproof(tables[1]) is not None

    @settings(max_examples=200, deadline=None)
    @given(st.one_of(
        single_context_tables(max_qubits=6, max_rows=8),
        tables_holding_a_star(),
    ))
    def test_random_tables(self, sys):
        self._same_witness(sys)

    @settings(max_examples=200, deadline=None)
    @given(tables_with_coinciding_members())
    def test_tables_with_coinciding_members(self, sys):
        self._same_witness(sys)

    @settings(max_examples=50, deadline=None)
    @given(star_products())
    def test_star_products_at_the_member_cap(self, sys):
        # 15 commuting members: the widest pair-matrix blocks the CLI
        # lets through, with many equal restricted words
        assert not any(anticommuting_pairs(sys.context_words(sys.contexts[0])))
        self._same_witness(sys)


class TestFixtures:
    def test_economical_tables(self):
        fx = builtin_fixtures()
        assert [str(ob) for ob in fx["table2-left"].observables] == [
            "ZZZZZZ", "XXXXXX", "ZXZXII", "XZIIZX", "IIXZXZ"
        ]
        assert [str(ob) for ob in fx["table2-right"].observables] == [
            "ZZZZZZZI", "XXXXXXIZ", "ZXZXIIZZ", "XZIIIIXX",
            "IIXZZXII", "IIIIXZXX",
        ]

    def test_kite_context_signs(self):
        sys = builtin_fixtures()["kite-quadruples"]
        assert [c.sign for c in sys.contexts] == [-1, 1]
        assert len(sys.observables) == 6
