import itertools
import json
import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import ghz_oracles
import state_oracles
from ksparity import gf2, states
from ksparity.pauli import PauliWord, commutes, parse_word, product_of
from ksparity.systems import (
    Context,
    ContextSystem,
    InconsistentEigenvaluesError,
    build_star_table,
    check_eigenvalue_dependencies,
    count_ghz_assignments,
    default_eigenvalues,
    ghz_infeasible,
    system_from_rows,
)
from ksparity.states import (
    BELL_LABELS,
    BELL_VECTORS,
    BellDecomposition,
    DenseState,
    UnderdeterminedEigenstateError,
    apply_pauli,
    bell_decompose,
    bell_product_vector,
    bell_support,
    classify_residual,
    joint_eigenstate,
    measure_computational,
)

S = 1 / math.sqrt(2)


def random_state(n, seed):
    rng = np.random.default_rng(seed)
    return DenseState.from_vector(
        rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
    )


def all_z_table(n):
    """Z on each qubit and Z on all of them: one state, |1...1> when every
    single Z is at -1, the last basis vector."""
    rows = ["I" * i + "Z" + "I" * (n - i - 1) for i in range(n)]
    return system_from_rows(rows + ["Z" * n], 1)


def two_dependency_table():
    """The four-qubit star table on qubits 1-4 next to XI, IX, XX on qubits
    5, 6: the whole table and its last three rows each multiply to a
    multiple of the identity."""
    rows = [str(ob) + "II" for ob in build_star_table(2).observables]
    return system_from_rows(rows + ["IIIIXI", "IIIIIX", "IIIIXX"], -1)


def random_stabilizer_table(rng, n):
    """n independent commuting words drawn at random, and their product
    with phase +1, as one context carrying the sign that makes it close."""
    words = []
    while len(words) < n:
        w = PauliWord(n, rng.randrange(1 << n), rng.randrange(1 << n))
        w = w.unsigned()
        rows = [(v.x << n) | v.z for v in words + [w]]
        if all(commutes(w, v) for v in words) and gf2.rank(rows) == len(rows):
            words.append(w)
    words.append(product_of(words).unsigned())
    sign = product_of(words).sign
    return ContextSystem(n, tuple(words), (Context(tuple(range(n + 1)), sign),))


@pytest.fixture(scope="module")
def psi4():
    sys = build_star_table(2)
    return joint_eigenstate(sys, default_eigenvalues(sys))


@pytest.fixture(scope="module")
def psi6():
    sys = build_star_table(3)
    return joint_eigenstate(sys, default_eigenvalues(sys))


class TestDenseState:
    def test_phase_canonicalization(self):
        a = DenseState.from_vector(np.array([1j, 1j]) / math.sqrt(2))
        b = DenseState.from_vector(np.array([1, 1]) / math.sqrt(2))
        assert a.isclose(b)
        assert a.amplitudes[0].imag == pytest.approx(0.0)

    def test_norm_enforced(self):
        with pytest.raises(ValueError):
            DenseState(1, np.array([1.0, 1.0]))

    def test_json_roundtrip(self, psi4):
        again = DenseState.from_json(psi4.to_json())
        assert again.isclose(psi4, tol=1e-15)
        assert json.loads(psi4.to_json()) == psi4.to_json_dict()

    def test_qubit_count_not_negative(self):
        # once a "negative shift count" from the length check
        with pytest.raises(ValueError, match="n must not be negative, not -1"):
            DenseState(-1, np.array([1.0]))
        with pytest.raises(ValueError, match="n must not be negative, not -1"):
            DenseState.from_json('{"n": -1, "amplitudes": [[1, 0]]}')
        # no qubits: the one amplitude 1
        empty = DenseState.from_json('{"n": 0, "amplitudes": [[1, 0]]}')
        assert empty.n == 0 and empty.amplitudes.tolist() == [1]

    @pytest.mark.parametrize("build", [
        lambda vec: DenseState(2, vec),
        DenseState.from_vector,
    ])
    def test_amplitudes_cannot_change_after_building(self, build):
        # the state owns a read-only copy; the caller's array stays theirs
        given = np.array([0.6, 0, 0, 0.8], dtype=complex)
        psi = build(given)
        with pytest.raises(ValueError):
            psi.amplitudes[0] = 0
        assert given.flags.writeable
        given[:] = [0, 1, 0, 0]
        assert psi.amplitudes.tolist() == [0.6, 0, 0, 0.8]

    def test_equality_and_hash_by_identity(self):
        # compared field by field, the ndarray made == raise ValueError and
        # hash raise TypeError; isclose is the comparison by value
        vec = np.array([0.6, 0.8], dtype=complex)
        psi = DenseState(1, vec)
        other = DenseState(1, vec.copy())
        assert (psi == other) is False
        assert psi.isclose(other)
        assert psi == psi
        assert psi in {psi}


class TestApplyPauli:
    def test_matches_dense_matrix(self):
        from ksparity.pauli import to_dense

        rng = np.random.default_rng(3)
        for text in ("XZ", "-YY", "iXY", "ZI"):
            w = parse_word(text)
            vec = rng.normal(size=4) + 1j * rng.normal(size=4)
            assert np.allclose(apply_pauli(w, vec), to_dense(w) @ vec)


class TestJointEigenstate:
    def test_four_qubit_formula(self, psi4):
        formula = DenseState.from_vector(
            S * bell_product_vector(4, [(1, 2, "Φ+"), (3, 4, "Φ-")])
            - S * bell_product_vector(4, [(1, 2, "Ψ-"), (3, 4, "Ψ-")])
        )
        assert psi4.isclose(formula, tol=1e-10)

    def test_eigen_equations(self, psi4):
        sys = build_star_table(2)
        for m, s in zip(sys.contexts[0].members, default_eigenvalues(sys)):
            out = apply_pauli(sys.observables[m], psi4.amplitudes)
            assert np.allclose(out, s * psi4.amplitudes, atol=1e-10)

    def test_single_z_generator(self):
        sys = system_from_rows(["Z"], 1)
        state = joint_eigenstate(sys, [1])
        assert np.allclose(state.amplitudes, [1, 0])

    def test_underdetermined_reports_dimension(self):
        sys = system_from_rows(["ZI"], 1)
        with pytest.raises(UnderdeterminedEigenstateError) as err:
            joint_eigenstate(sys, [1])
        assert err.value.dimension == 2
        assert err.value.eigenvalues == (1,)

    @pytest.mark.parametrize("rows", [["XI", "ZI"], ["XI", "ZI", "IX", "IZ"]])
    def test_members_that_do_not_commute(self, rows):
        # once an eigen-equation assertion, and a negative shift count
        # when the members outnumbered the qubits
        with pytest.raises(ValueError, match="XI and ZI do not commute"):
            joint_eigenstate(system_from_rows(rows, 1), [1] * len(rows))

    def test_inconsistent_signature(self):
        sys = build_star_table(2)
        with pytest.raises(InconsistentEigenvaluesError):
            joint_eigenstate(sys, (1, 1, 1, 1, 1))

    def test_second_dependency_rejected(self):
        # XI, IX, XX on qubits 5, 6 multiply to +identity: + + - has the
        # right total product but no joint eigenstate
        sys = two_dependency_table()
        with pytest.raises(InconsistentEigenvaluesError):
            joint_eigenstate(sys, (1, 1, 1, 1, 1, 1, 1, -1))
        state = joint_eigenstate(sys, (1, 1, 1, 1, -1, 1, -1, -1))
        assert state.n == 6


class TestStartVector:
    """The projections start from the first basis vector of the support,
    worked out over GF(2); the trial loop of ``state_oracles`` projects
    basis vectors in order until one survives."""

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_matches_trial_loop(self, data):
        kind = data.draw(st.sampled_from(["star", "all-z", "random", "control"]))
        if kind == "star":
            sys = build_star_table(data.draw(st.integers(2, 4), label="N"))
        elif kind == "all-z":
            sys = all_z_table(data.draw(st.integers(2, 8), label="n"))
        elif kind == "random":
            seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
            n = data.draw(st.integers(2, 6), label="n")
            sys = random_stabilizer_table(random.Random(seed), n)
        else:
            sys = two_dependency_table()
        ev = data.draw(st.lists(
            st.sampled_from([1, -1]),
            min_size=len(sys.observables), max_size=len(sys.observables),
        ), label="eigenvalues")
        try:
            check_eigenvalue_dependencies(sys, ev)
        except InconsistentEigenvaluesError:
            assume(False)
        state = joint_eigenstate(sys, ev)
        oracle = state_oracles.joint_eigenstate(sys, ev)
        assert state.amplitudes.tobytes() == oracle.amplitudes.tobytes()

    def test_last_basis_vector_without_trials(self):
        # every single Z at -1 puts the state on index 4095 alone, the last
        # vector a trial loop would reach; the start is found without
        # projecting, so each member is applied once to project and once to
        # verify
        sys = all_z_table(12)
        ev = [-1] * 12 + [1]
        with mock.patch.object(
            states, "apply_pauli", wraps=states.apply_pauli
        ) as apply, mock.patch.object(
            gf2, "solvable", side_effect=AssertionError("no trial solves")
        ):
            state = joint_eigenstate(sys, ev)
        assert apply.call_count == 2 * len(ev)
        assert np.flatnonzero(state.amplitudes).tolist() == [4095]

    def test_eigenvalues_must_be_plus_or_minus_one(self):
        # 3 and -1/3 multiply to -1, the table's sign, but no Pauli word
        # has them as eigenvalues; every entry point says so alike
        sys = build_star_table(2)
        ev = [3, 1, 1, 1, -1 / 3]
        for check in (joint_eigenstate, ghz_infeasible, count_ghz_assignments,
                      check_eigenvalue_dependencies):
            with pytest.raises(
                ValueError, match=r"^eigenvalues must be \+1 or -1$"
            ) as err:
                check(sys, ev)
            assert type(err.value) is ValueError


class TestBellDecomposition:
    def test_bell_vectors_are_orthonormal(self):
        mats = list(BELL_VECTORS.values())
        for i, a in enumerate(mats):
            for j, b in enumerate(mats):
                assert np.vdot(a, b) == pytest.approx(1.0 if i == j else 0.0)

    def test_four_qubit_support(self, psi4):
        count, mags = bell_support(psi4, [(1, 2), (3, 4)])
        assert count == 2
        assert mags == pytest.approx([S, S])

    def test_six_qubit_support(self, psi6):
        count, mags = bell_support(psi6, [(1, 2), (3, 4), (5, 6)])
        assert count == 4
        assert mags == pytest.approx([0.5] * 4)

    def test_six_qubit_printed_signs(self, psi6):
        nz = bell_decompose(psi6, [(1, 2), (3, 4), (5, 6)]).nonzero()
        coeffs = {labels: c.real for labels, c in nz.items()}
        assert coeffs[("Φ+", "Φ-", "Φ+")] == pytest.approx(0.5)
        assert coeffs[("Φ+", "Ψ-", "Ψ+")] == pytest.approx(0.5)
        assert coeffs[("Ψ-", "Φ-", "Ψ+")] == pytest.approx(-0.5)
        assert coeffs[("Ψ-", "Ψ-", "Φ+")] == pytest.approx(-0.5)

    def test_product_state_expansion(self):
        zeros = DenseState(2, np.array([1, 0, 0, 0], dtype=complex))
        nz = bell_decompose(zeros, [(1, 2)]).nonzero()
        assert set(nz) == {("Φ+",), ("Φ-",)}
        assert all(abs(c) == pytest.approx(S) for c in nz.values())

    def test_reconstruction(self, psi6):
        decomp = bell_decompose(psi6, [(1, 4), (2, 5), (3, 6)])
        assert decomp.reconstruct().isclose(psi6, tol=1e-12)

    def test_reconstruct_one_term(self):
        # a zero coefficient and the 14 label tuples left out add nothing
        pairing = ((1, 3), (2, 4))
        decomp = BellDecomposition(
            4, pairing, {("Ψ-", "Φ+"): 0.6 - 0.8j, ("Φ+", "Φ+"): 0j}
        )
        expected = ghz_oracles.bell_product_vector(
            4, [(1, 3, "Ψ-"), (2, 4, "Φ+")]
        )
        assert np.allclose(
            decomp.reconstruct().amplitudes,
            DenseState.from_vector(expected).amplitudes,
            atol=1e-15,
        )

    def test_support_builds_no_dense_product_vectors(self, psi6):
        with mock.patch.object(
            states, "bell_product_vector", wraps=bell_product_vector
        ) as spy:
            assert bell_support(psi6, [(1, 2), (3, 4), (5, 6)])[0] == 4
        assert spy.call_count == 0

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_product_vector_matches_loop(self, data):
        n = data.draw(st.integers(1, 10))
        qubits = data.draw(st.permutations(range(1, n + 1)))
        k = data.draw(st.integers(0, n // 2))
        labels = data.draw(
            st.lists(st.sampled_from(BELL_LABELS), min_size=k, max_size=k)
        )
        factors = [
            (qubits[2 * i], qubits[2 * i + 1], label)
            for i, label in enumerate(labels)
        ]
        rest = qubits[2 * k:]
        bits = data.draw(
            st.lists(st.integers(0, 1), min_size=len(rest), max_size=len(rest))
        )
        computational = list(zip(rest, bits))
        assert (
            bell_product_vector(n, factors, computational).tobytes()
            == ghz_oracles.bell_product_vector(n, factors, computational).tobytes()
        )

    @pytest.mark.parametrize("N", [2, 3, 4])
    def test_star_coefficients_match_loop(self, N):
        sys = build_star_table(N)
        psi = joint_eigenstate(sys, default_eigenvalues(sys))
        consecutive = [(2 * i + 1, 2 * i + 2) for i in range(N)]
        crossed = [(i + 1, N + i + 1) for i in range(N)]
        for pairing in (consecutive, crossed):
            coeffs = bell_decompose(psi, pairing).coefficients
            expected = {
                labels: complex(np.vdot(
                    ghz_oracles.bell_product_vector(
                        psi.n,
                        [(a, b, lab) for (a, b), lab in zip(pairing, labels)],
                    ),
                    psi.amplitudes,
                ))
                for labels in itertools.product(BELL_LABELS, repeat=N)
            }
            assert list(coeffs) == list(expected)
            assert (np.array(list(coeffs.values())).tobytes()
                    == np.array(list(expected.values())).tobytes())

    @settings(max_examples=40, deadline=None)
    @given(half=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    @example(half=4, seed=0)
    @example(half=5, seed=1)
    def test_coefficients_match_per_label_loop(self, half, seed):
        # 8 and 10 qubits fill more than one block of dense rows
        psi = random_state(2 * half, seed)
        qubits = np.random.default_rng(seed).permutation(2 * half) + 1
        pairing = [(int(a), int(b)) for a, b in qubits.reshape(half, 2)]
        coeffs = bell_decompose(psi, pairing).coefficients
        expected = state_oracles.bell_coefficients(psi, pairing)
        assert list(coeffs) == list(expected)
        assert (np.array(list(coeffs.values())).tobytes()
                == np.array(list(expected.values())).tobytes())

    def test_bad_pairing(self, psi4):
        with pytest.raises(ValueError):
            bell_decompose(psi4, [(1, 2), (2, 3)])

    def test_json_uses_utf8_labels(self, psi4):
        text = bell_decompose(psi4, [(1, 2), (3, 4)]).to_json()
        assert "Φ+Φ-" in text


class TestMeasurement:
    def test_probabilities_sum_to_one(self, psi6):
        for qubits in ([1], [2, 5], [1, 3, 6]):
            total = 0.0
            for bits in itertools.product("01", repeat=len(qubits)):
                prob, _ = measure_computational(psi6, qubits, "".join(bits))
                total += prob
            assert total == pytest.approx(1.0)

    @pytest.mark.parametrize("qubits", [[0], [5], [1, 9], [-1]])
    def test_qubit_out_of_range(self, psi4, qubits):
        with pytest.raises(ValueError):
            measure_computational(psi4, qubits, "0" * len(qubits))

    @pytest.mark.parametrize("qubits", [[1.5], [2.0], [1, np.float64(3.0)], ["1"]])
    def test_qubit_not_an_integer(self, psi4, qubits):
        with pytest.raises(ValueError):
            measure_computational(psi4, qubits, "0" * len(qubits))

    def test_numpy_integer_qubits(self, psi4):
        prob, residual = measure_computational(psi4, np.array([1, 3]), "01")
        want_prob, want = measure_computational(psi4, [1, 3], "01")
        assert prob == want_prob and residual.isclose(want, tol=0)

    def test_empty_measurement(self, psi4):
        prob, residual = measure_computational(psi4, [], "")
        assert prob == 1.0 and residual is psi4

    def test_zero_probability_branch(self):
        zeros = DenseState(2, np.array([1, 0, 0, 0], dtype=complex))
        prob, residual = measure_computational(zeros, [1], "1")
        assert prob == 0.0 and residual is None

    def test_four_qubit_residuals_are_bell(self, psi4):
        for pair in itertools.combinations(range(1, 5), 2):
            for outcome in ("00", "01", "10", "11"):
                prob, residual = measure_computational(psi4, pair, outcome)
                assert prob == pytest.approx(0.25)
                assert classify_residual(residual) == "bell-state"

    def test_six_qubit_residual_formula(self, psi6):
        # measuring qubits 1 and 3 as 11 leaves -(Φ+Φ+ + Ψ+Ψ+) on (2,4),(5,6)
        prob, residual = measure_computational(psi6, [1, 3], "11")
        target = DenseState.from_vector(
            -(bell_product_vector(4, [(1, 2, "Φ+"), (3, 4, "Φ+")])
              + bell_product_vector(4, [(1, 2, "Ψ+"), (3, 4, "Ψ+")]))
        )
        assert prob == pytest.approx(0.25)
        assert residual.isclose(target, tol=1e-10)


class TestProfiles:
    def test_bell_state_spectra(self):
        bell = DenseState(2, BELL_VECTORS["Ψ-"].copy())
        for spectrum in states._cut_spectra(bell, 1):
            assert spectrum == pytest.approx((0.5, 0.5))

    def test_product_state_spectra(self):
        zeros = DenseState(2, np.array([1, 0, 0, 0], dtype=complex))
        for spectrum in states._cut_spectra(zeros, 1):
            assert spectrum == pytest.approx((1.0, 0.0))

    def test_four_qubit_single_qubit_spectra(self, psi4):
        for spectrum in states._cut_spectra(psi4, 1):
            assert spectrum == pytest.approx((0.5, 0.5))

    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
    @example(n=8, seed=0)
    def test_profile_matches_per_subset_loop(self, n, seed):
        # at 8 qubits the 70 four-qubit cuts fill more than one stack
        psi = random_state(n, seed)
        assert {
            size: states._cut_spectra(psi, size)
            for size in range(1, n // 2 + 1)
        } == state_oracles.entanglement_profile(psi)

    @pytest.mark.parametrize("subset", [[], [2], [3, 1], [5, 2, 4], [1, 2, 3, 4, 5]])
    def test_spectrum_matches_transposed_reshape(self, subset):
        # the offset tables' row for one subset gathers the same matrix
        psi = random_state(5, 7)
        rows, cols = states._cut_offsets(5, len(subset))
        cut = tuple(sorted(q - 1 for q in subset))
        i = list(itertools.combinations(range(5), len(subset))).index(cut)
        spectra = states._spectra(psi.amplitudes, rows[i:i + 1], cols[i:i + 1])
        assert spectra == [state_oracles.reduced_spectrum(psi, sorted(subset))]

    @pytest.mark.parametrize("subset", [[1, 1], [0], [6]])
    def test_spectrum_rejects_bad_subset(self, subset):
        psi5 = random_state(5, 7)
        # a residual, and with it any spectrum, comes from measuring
        # distinct qubits of the state only
        with pytest.raises(ValueError):
            measure_computational(psi5, subset, "0" * len(subset))

    @pytest.mark.parametrize("subset", [[2.9], [2.0], [1, np.float64(3.0)], ["1"]])
    def test_spectrum_rejects_non_integer_qubits(self, subset):
        psi5 = random_state(5, 7)
        # an int64 cast would read 2.9 as qubit 2
        with pytest.raises(ValueError):
            measure_computational(psi5, subset, "0" * len(subset))

    def test_spectrum_takes_numpy_integers(self):
        psi = random_state(5, 7)
        prob, residual = measure_computational(
            psi, [np.int64(4), np.int64(2)], "10"
        )
        want_prob, want = measure_computational(psi, [4, 2], "10")
        assert prob == want_prob
        assert states._cut_spectra(residual, 1) == states._cut_spectra(want, 1)

    def test_profiles_match_is_tolerant(self, psi4):
        a = {size: states._cut_spectra(psi4, size) for size in (1, 2)}
        # one cut size at a time, as classify_residual compares them, and
        # the oracle's comparator over the whole profile agree, within and
        # past the tolerance
        tol = states.SPECTRUM_TOL
        for shift in (tol / 2, 2 * tol):
            b = {k: tuple(tuple(v + shift for v in s) for s in spectra)
                 for k, spectra in a.items()}
            assert all(states._spectra_match(a[k], b[k]) for k in a) == (
                shift < tol
            )
            assert state_oracles.profiles_match(a, b) == (shift < tol)
        fewer = {k: spectra[:-1] for k, spectra in a.items()}
        shorter = (a[1][0][:-1],) + a[1][1:]
        assert not states._spectra_match(a[1], fewer[1])
        assert not states._spectra_match(a[1], shorter)
        for b in (fewer, {1: a[1]}):
            assert not state_oracles.profiles_match(a, b)

    def test_residual_classification_against_reference(self, psi4, psi6):
        # residuals from measuring within qubits 3..6 match the four-qubit
        # eigenstate's profile; those touching qubits 1 or 2 do not
        _, inner = measure_computational(psi6, [3, 4], "00")
        assert classify_residual(inner, psi4) == "profile-match"
        _, outer = measure_computational(psi6, [1, 2], "00")
        assert classify_residual(outer, psi4) == "mismatch"

    @pytest.mark.parametrize("N", [2, 3, 4, 5])
    def test_star_residual_verdicts_match_full_profiles(self, N):
        sys = build_star_table(N)
        psi = joint_eigenstate(sys, default_eigenvalues(sys))
        reference = None
        if N > 2:
            smaller = build_star_table(N - 1)
            reference = joint_eigenstate(smaller, default_eigenvalues(smaller))
        verdicts = set()
        for pair in itertools.combinations(range(1, 2 * N + 1), 2):
            for outcome in ("00", "01", "10", "11"):
                _, residual = measure_computational(psi, pair, outcome)
                verdict = classify_residual(residual, reference)
                assert verdict == state_oracles.classify_residual(
                    residual, reference
                )
                verdicts.add(verdict)
        assert verdicts == (
            {"bell-state"} if N == 2 else {"profile-match", "mismatch"}
        )

    @settings(max_examples=40, deadline=None)
    @given(
        n=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
        reference=st.sampled_from(["none", "permuted", "random"]),
    )
    @example(n=8, seed=0, reference="permuted")
    def test_random_verdicts_match_full_profiles(self, n, seed, reference):
        # a qubit permutation keeps the sorted profile, so "permuted"
        # references should match and "random" ones should not
        psi = random_state(n, seed)
        ref = None
        if reference == "permuted":
            order = np.random.default_rng(seed).permutation(n)
            ref = DenseState.from_vector(
                psi.amplitudes.reshape((2,) * n).transpose(order).ravel()
            )
        elif reference == "random":
            ref = random_state(n, seed + 1)
        assert classify_residual(psi, ref) == (
            state_oracles.classify_residual(psi, ref)
        )

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    def test_kept_reference_spectra_follow_each_reference(self, n, seed):
        # each round drops its two references and builds two new ones with
        # other profiles: spectra kept under a recycled object id would
        # give a stale verdict
        rng = np.random.default_rng(seed)

        def permuted(state):
            order = rng.permutation(n)
            return DenseState.from_vector(
                state.amplitudes.reshape((2,) * n).transpose(order).ravel()
            )

        for round_ in range(4):
            refs = [random_state(n, seed + 2 * round_ + i) for i in (0, 1)]
            for i in range(8):
                ref = refs[i % 2]
                residual = permuted(refs[rng.integers(2)])
                assert classify_residual(residual, ref) == (
                    state_oracles.classify_residual(residual, ref)
                )
            del refs, ref

    def test_reference_spectra_computed_once_per_cut_size(self, monkeypatch):
        sys8, sys6 = build_star_table(4), build_star_table(3)
        psi = joint_eigenstate(sys8, default_eigenvalues(sys8))
        reference = joint_eigenstate(sys6, default_eigenvalues(sys6))
        spectra = states._spectra
        sizes = []

        def counting(amplitudes, rows, cols):
            if amplitudes is reference.amplitudes:
                sizes.append(rows.shape[1].bit_length() - 1)
            return spectra(amplitudes, rows, cols)

        monkeypatch.setattr(states, "_spectra", counting)
        residuals = [
            measure_computational(psi, pair, outcome)[1]
            for pair in itertools.combinations(range(1, 9), 2)
            for outcome in ("00", "01", "10", "11")
        ]
        verdicts = {classify_residual(r, reference) for r in residuals}
        assert verdicts == {"profile-match", "mismatch"}
        assert sizes == [1, 2, 3]
        assert all(r._kept_spectra == {} for r in residuals)

    def test_mismatch_without_reference(self):
        zeros = DenseState(2, np.array([1, 0, 0, 0], dtype=complex))
        assert classify_residual(zeros) == "mismatch"
