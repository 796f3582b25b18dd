import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ksparity.pauli import (
    DenseCapError,
    DimensionMismatchError,
    PauliParseError,
    PauliWord,
    all_words,
    commutes,
    multiply,
    parse_word,
    product_of,
    to_dense,
)


def random_word(rng, n):
    return PauliWord(n, rng.getrandbits(n), rng.getrandbits(n), rng.randrange(4))


class TestParsing:
    def test_plain_letters(self):
        w = parse_word("IXYZ")
        assert w.letters() == "IXYZ"
        assert w.sigma == 0
        assert str(w) == "IXYZ"

    @pytest.mark.parametrize(
        "text,sigma",
        [("-ZZ", 2), ("iXX", 1), ("-iYX", 3), ("+XI", 0), ("+iZZ", 1)],
    )
    def test_sign_prefixes(self, text, sigma):
        assert parse_word(text).sigma == sigma

    def test_bad_character_names_position(self):
        with pytest.raises(PauliParseError, match="position 3"):
            parse_word("XXQZ")

    def test_empty(self):
        with pytest.raises(PauliParseError):
            parse_word("-")

    @given(st.lists(st.sampled_from("IXYZ"), min_size=1, max_size=8),
           st.sampled_from(["", "i", "-", "-i"]))
    def test_roundtrip(self, letters, prefix):
        text = prefix + "".join(letters)
        assert str(parse_word(text)) == text


class TestPhases:
    def test_y_is_i_xz(self):
        # Y = i X Z per qubit, so X^x Z^z needs lam = number of Y letters
        w = parse_word("YY")
        assert w.lam == 2 and w.sigma == 0

    def test_negate(self):
        w = parse_word("XZ")
        assert w.negate().sign == -1
        assert w.negate().negate() == w

    def test_sign_of_non_hermitian_raises(self):
        w = parse_word("iXX")
        assert not w.is_hermitian
        with pytest.raises(ValueError):
            w.sign

    def test_unsigned(self):
        assert parse_word("-iYXZ").unsigned() == parse_word("YXZ")

    def test_mask_bounds(self):
        with pytest.raises(ValueError):
            PauliWord(2, 4, 0)


class TestProduct:
    def test_single_qubit_table(self):
        X, Y, Z = parse_word("X"), parse_word("Y"), parse_word("Z")
        assert multiply(X, Y) == parse_word("iZ")
        assert multiply(Y, X) == parse_word("-iZ")
        assert multiply(Z, X) == parse_word("iY")
        assert multiply(X, X) == PauliWord.identity(1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            multiply(parse_word("X"), parse_word("XX"))
        with pytest.raises(DimensionMismatchError):
            commutes(parse_word("X"), parse_word("XX"))

    def test_product_of_empty(self):
        with pytest.raises(ValueError):
            product_of([])

    def test_exhaustive_against_dense_n2(self):
        words = [PauliWord(2, x, z, lam)
                 for x in range(4) for z in range(4) for lam in range(4)]
        for a in words[::7]:
            for b in words[::5]:
                prod = multiply(a, b)
                assert np.allclose(
                    to_dense(a) @ to_dense(b), to_dense(prod), atol=1e-12
                )

    def test_randomized_against_dense(self):
        import random

        rng = random.Random(7)
        for _ in range(2000):
            n = rng.choice((3, 4))
            a, b = random_word(rng, n), random_word(rng, n)
            dense = to_dense(a) @ to_dense(b)
            assert np.allclose(dense, to_dense(multiply(a, b)), atol=1e-12)
            anti = to_dense(b) @ to_dense(a)
            assert commutes(a, b) == bool(np.allclose(dense, anti, atol=1e-12))

    @given(st.integers(1, 4), st.data())
    @settings(max_examples=200, deadline=None)
    def test_associativity(self, n, data):
        def word():
            return PauliWord(
                n,
                data.draw(st.integers(0, (1 << n) - 1)),
                data.draw(st.integers(0, (1 << n) - 1)),
                data.draw(st.integers(0, 3)),
            )

        a, b, c = word(), word(), word()
        assert multiply(multiply(a, b), c) == multiply(a, multiply(b, c))


class TestDense:
    def test_cap(self):
        with pytest.raises(DenseCapError):
            to_dense(PauliWord.identity(11))

    def test_hermitian_words_are_hermitian_matrices(self):
        for w in all_words(2):
            m = to_dense(w)
            assert np.allclose(m, m.conj().T)

    def test_phase_carried(self):
        assert np.allclose(to_dense(parse_word("-Z")),
                           -to_dense(parse_word("Z")))


class TestRestriction:
    def test_restricted_positions(self):
        w = parse_word("XIZY")
        assert w.restricted([0, 2]).letters() == "XZ"
        assert w.restricted([3, 0]).letters() == "YX"

    def test_restricted_drops_phase(self):
        assert parse_word("-XZ").restricted([0]).sigma == 0


def test_all_words_count():
    assert sum(1 for _ in all_words(2)) == 15
    assert all(w.is_hermitian and w.sign == 1 for w in all_words(3))


class TestOracleSuitePairs:
    def test_stacked_verdicts_match_allclose(self, monkeypatch):
        # the stacked comparison behind reproduction check 12 counts what
        # a loop of np.allclose counts, here with the product's sign wrong
        # on every other pair and a commutation test that always says yes
        from ksparity import reproduce

        rng = random.Random(5)
        pairs = []
        for _ in range(300):
            n = rng.choice((1, 2, 3, 4))
            pairs.append((random_word(rng, n), random_word(rng, n)))
        assert reproduce._dense_pair_mismatches(pairs) == 0
        negated = {(id(a), id(b)) for a, b in pairs[::2]}

        def bad_multiply(a, b):
            prod = multiply(a, b)
            return prod.negate() if (id(a), id(b)) in negated else prod

        expected = 0
        for a, b in pairs:
            dense = to_dense(a) @ to_dense(b)
            expected += not np.allclose(
                dense, to_dense(bad_multiply(a, b)), atol=1e-12
            )
            expected += not np.allclose(
                dense, to_dense(b) @ to_dense(a), atol=1e-12
            )
        assert expected > 150
        monkeypatch.setattr(reproduce, "multiply", bad_multiply)
        monkeypatch.setattr(reproduce, "commutes", lambda a, b: True)
        monkeypatch.setattr(reproduce, "_DENSE_PAIR_CHUNK", 7)
        assert reproduce._dense_pair_mismatches(pairs) == expected
