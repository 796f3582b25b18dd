"""Dense joint eigenstates, Bell decompositions and measurement analysis.

Amplitude vectors are indexed in the computational basis with qubit 1 as
the most significant bit.  Global phase is canonicalized so that the first
nonzero amplitude is real and positive, which makes state comparison at
tolerance well defined.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import gf2
from .pauli import DenseCapError, PauliWord, product_of
from .systems import (
    ContextSystem,
    _single_context,
    anticommuting_pairs,
    check_eigenvalue_dependencies,
    json_integer,
)

DENSE_STATE_CAP = 14

# most amplitudes one stacked gather or block of dense Bell rows holds
_STACK_AMPLITUDES = 1 << 14

# how far two reduced-spectrum values may differ and still match, and how
# close to 1/2 a Bell pair's single-qubit spectrum must lie
SPECTRUM_TOL = 1e-9
# Bell coefficients of at most this magnitude are not terms of a state
BELL_TOL = 1e-10

# descending reduced spectra, one per qubit subset of a cut size
Spectra = Tuple[Tuple[float, ...], ...]

BELL_LABELS = ("Φ+", "Φ-", "Ψ+", "Ψ-")
_S = 1 / math.sqrt(2)
BELL_VECTORS = {
    "Φ+": np.array([_S, 0, 0, _S], dtype=complex),
    "Φ-": np.array([_S, 0, 0, -_S], dtype=complex),
    "Ψ+": np.array([0, _S, _S, 0], dtype=complex),
    "Ψ-": np.array([0, _S, -_S, 0], dtype=complex),
}


class UnderdeterminedEigenstateError(ValueError):
    """The signed generators do not pin down a one-dimensional eigenspace.

    Carries the eigenspace dimension and the eigenvalues of the request.
    """

    def __init__(self, dimension: int, eigenvalues: Sequence[int]):
        self.dimension = dimension
        self.eigenvalues = tuple(eigenvalues)
        super().__init__(
            f"eigenspace has dimension {dimension}, not a unique state"
        )


@dataclass(frozen=True, eq=False)
class DenseState:
    """A normalized, phase-canonical state of ``n`` qubits.

    ``amplitudes`` is the state's own copy of the vector and is read-only,
    so spectra kept for the state (see ``classify_residual``) stay valid.
    ``==`` and ``hash`` go by identity; ``isclose`` compares values.
    """

    n: int
    amplitudes: np.ndarray
    # cut size -> sorted cut spectra, filled while the state is a reference
    _kept_spectra: Dict[int, Spectra] = field(
        init=False, repr=False, default_factory=dict
    )

    def __post_init__(self):
        if self.n < 0:
            raise ValueError(f"n must not be negative, not {self.n}")
        vec = np.asarray(self.amplitudes, dtype=complex)
        if vec.shape != (1 << self.n,):
            raise ValueError("amplitude vector has wrong length")
        norm = np.linalg.norm(vec)
        if not math.isclose(norm, 1.0, abs_tol=1e-12):
            raise ValueError(f"state is not normalized (norm {norm})")
        # a unit vector has a nonzero lead, so this is a new array
        vec = _canonical_phase(vec)
        vec.flags.writeable = False
        object.__setattr__(self, "amplitudes", vec)

    @classmethod
    def from_vector(cls, vec: np.ndarray) -> "DenseState":
        vec = np.asarray(vec, dtype=complex)
        n = int(round(math.log2(vec.size)))
        norm = np.linalg.norm(vec)
        if norm == 0:
            raise ValueError("zero vector is not a state")
        return cls(n, vec / norm)

    def isclose(self, other: "DenseState", tol: float = 1e-10) -> bool:
        """Equality up to global phase (both are phase-canonical)."""
        return self.n == other.n and bool(
            np.allclose(self.amplitudes, other.amplitudes, atol=tol)
        )

    def to_json_dict(self) -> dict:
        pairs = [[float(a.real), float(a.imag)] for a in self.amplitudes]
        return {"n": self.n, "amplitudes": pairs}

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, text: str) -> "DenseState":
        doc = json.loads(text)
        vec = np.array([_json_amplitude(a) for a in doc["amplitudes"]])
        return cls(json_integer(doc["n"], "n"), vec)


def _json_amplitude(pair) -> complex:
    """A [re, im] pair of JSON numbers as a complex; ValueError for a
    bool, which ``complex`` would read as 0 or 1, or anything else."""
    if type(pair) is not list or len(pair) != 2 or any(
        type(x) not in (int, float) for x in pair
    ):
        raise ValueError(f"an amplitude must be a pair [re, im] of numbers, "
                         f"not {pair!r}")
    return complex(*pair)


def _canonical_phase(vec: np.ndarray) -> np.ndarray:
    lead = vec[np.flatnonzero(np.abs(vec) > 1e-12)[0]]
    return vec * (abs(lead) / lead)


def apply_pauli(word: PauliWord, vec: np.ndarray) -> np.ndarray:
    """Act with a Pauli word on an amplitude vector (qubit 1 = MSB)."""
    n = word.n
    idx = np.arange(1 << n)
    par = np.bitwise_count((idx ^ word.x) & word.z) & 1
    out = np.empty_like(vec, dtype=complex)
    out[...] = vec[idx ^ word.x] * np.where(par, -1.0, 1.0)
    # phase of the X^x Z^z ordering plus the word's own i power
    return (1j ** word.lam) * out


# ---------------------------------------------------------------------------
# joint eigenstates


def eigenspace_dimension(sys: ContextSystem) -> int:
    """2^(n - m) with m the number of symplectically independent members."""
    words = sys.context_words(_single_context(sys))
    return 1 << (sys.n - gf2.rank([(w.x << sys.n) | w.z for w in words]))


def _support_start(words: List[PauliWord], eigenvalues: Sequence[int]) -> int:
    """Smallest basis index b in the joint eigenstate's support.

    A product of members whose X parts cancel is +-Z^z, so |z & b| is odd
    iff its sign times their eigenvalues is -1.  One elimination of these
    rows, each with its right-hand side at bit n, leaves every pivot at a
    row's lowest bit, below the free bits it depends on; the least
    solution sets every free bit to 0 and each pivot bit to its row's
    right-hand side.
    """
    n = words[0].n
    rows = []
    for vec in gf2.left_nullspace([w.x for w in words], n):
        chosen = gf2.bits(vec)
        prod = product_of([words[i] for i in chosen])
        sign = prod.sign * math.prod(eigenvalues[i] for i in chosen)
        rows.append(prod.z | int(sign < 0) << n)
    echelon, pivots = gf2.rref(rows, n)
    return sum((row >> n) << p for row, p in zip(echelon, pivots))


def joint_eigenstate(
    sys: ContextSystem,
    eigenvalues: Sequence[int],
    dense_cap: int = DENSE_STATE_CAP,
) -> DenseState:
    """Unique unit vector with O_i psi = s_i psi for every context member.

    Computed by applying the projectors (I + s_i O_i)/2 to the first basis
    vector in the state's support (``_support_start``); the result is
    verified against every eigen-equation to 1e-10.  Members that do not
    commute raise ``ValueError`` naming the first such pair; eigenvalues
    other than +1 and -1 raise ``ValueError`` and eigenvalues that break a
    dependency among the members ``InconsistentEigenvaluesError``.
    """
    words = sys.context_words(_single_context(sys))
    for a, b in anticommuting_pairs(words):
        raise ValueError(f"members {a} and {b} do not commute")
    if sys.n > dense_cap:
        raise DenseCapError(f"n={sys.n} exceeds dense state cap {dense_cap}")
    check_eigenvalue_dependencies(sys, eigenvalues)
    dim = eigenspace_dimension(sys)
    if dim != 1:
        raise UnderdeterminedEigenstateError(dim, eigenvalues)

    vec = np.zeros(1 << sys.n, dtype=complex)
    vec[_support_start(words, eigenvalues)] = 1.0
    for w, s in zip(words, eigenvalues):
        vec = 0.5 * (vec + s * apply_pauli(w, vec))
    assert np.linalg.norm(vec) > 1e-9, "projector product annihilated the start"
    state = DenseState.from_vector(vec)
    for w, s in zip(words, eigenvalues):
        resid = apply_pauli(w, state.amplitudes) - s * state.amplitudes
        if np.linalg.norm(resid) > 1e-10:
            raise AssertionError(f"eigen-equation violated for {w}")
    return state


# ---------------------------------------------------------------------------
# Bell decompositions


@dataclass(frozen=True)
class BellDecomposition:
    n: int
    pairing: Tuple[Tuple[int, int], ...]
    coefficients: Dict[Tuple[str, ...], complex]

    def nonzero(self) -> Dict[Tuple[str, ...], complex]:
        return {
            labels: c
            for labels, c in self.coefficients.items()
            if abs(c) > BELL_TOL
        }

    def reconstruct(self) -> DenseState:
        """Sum of coefficient x Bell product; a missing label tuple is 0."""
        k = len(self.pairing)
        labels, index, amp = _bell_terms(self.n, self.pairing, [BELL_LABELS] * k)
        coeffs = np.array(
            [self.coefficients.get(key, 0) for key in labels], dtype=complex
        )
        terms = np.flatnonzero(coeffs)
        vec = np.zeros(1 << self.n, dtype=complex)
        np.add.at(vec, index[terms], coeffs[terms, None] * amp[terms])
        return DenseState.from_vector(vec)

    def to_json_dict(self) -> dict:
        return {
            "pairing": [list(p) for p in self.pairing],
            "terms": {
                "".join(labels): [float(c.real), float(c.imag)]
                for labels, c in sorted(self.nonzero().items())
            },
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), ensure_ascii=False)


def _bell_terms(
    n: int,
    pairing: Sequence[Tuple[int, int]],
    choices: Sequence[Sequence[str]],
) -> Tuple[List[Tuple[str, ...]], np.ndarray, np.ndarray]:
    """(labels, index, amp) of the Bell products over the 1-based qubit
    ``pairing``, labels being ``itertools.product(*choices)``: row r holds
    the offsets and amplitudes of labels[r]'s nonzero terms, amplitudes
    multiplied left to right, which fixes the rounding."""
    index = np.zeros((1, 1), dtype=np.int64)
    amp = np.ones((1, 1))
    for (qa, qb), labels in zip(pairing, choices):
        bells = np.array([BELL_VECTORS[label].real for label in labels])
        offsets = np.array([np.flatnonzero(b) for b in bells])
        values = np.take_along_axis(bells, offsets, axis=1)
        shifts = ((offsets >> 1) << (n - qa)) | ((offsets & 1) << (n - qb))
        index = (index[:, None, :, None] | shifts[None, :, None, :]).reshape(
            len(index) * len(labels), -1
        )
        amp = (amp[:, None, :, None] * values[None, :, None, :]).reshape(
            len(amp) * len(labels), -1
        )
    return list(itertools.product(*choices)), index, amp


def bell_product_vector(
    n: int,
    bell_factors: Sequence[Tuple[int, int, str]],
    computational: Sequence[Tuple[int, int]] = (),
) -> np.ndarray:
    """Dense vector of a product of Bell pairs and computational bits.

    ``bell_factors`` entries are (qubit_a, qubit_b, label) with 1-based
    qubits; ``computational`` entries are (qubit, bit).
    """
    covered = [q for f in bell_factors for q in f[:2]]
    covered += [q for q, _ in computational]
    if sorted(covered) != list(range(1, n + 1)):
        raise ValueError("factors must cover every qubit exactly once")
    pairs = [f[:2] for f in bell_factors]
    _, index, amp = _bell_terms(n, pairs, [f[2:] for f in bell_factors])
    index = index[0] | sum(b << (n - q) for q, b in computational)
    vec = np.zeros(1 << n, dtype=complex)
    vec.real[index] = amp[0]
    return vec


def bell_decompose(
    state: DenseState, pairing: Sequence[Tuple[int, int]]
) -> BellDecomposition:
    """Coefficients of the state in the tensor-product Bell basis: one
    ``np.vdot`` per label tuple with its dense row."""
    n = state.n
    if sorted(q for pair in pairing for q in pair) != list(range(1, n + 1)):
        raise ValueError(f"pairing {pairing} does not cover qubits 1..{n}")
    pairing = tuple((int(a), int(b)) for a, b in pairing)
    labels, index, amp = _bell_terms(n, pairing, [BELL_LABELS] * len(pairing))
    step = max(1, _STACK_AMPLITUDES >> n)
    coeffs: Dict[Tuple[str, ...], complex] = {}
    for start in range(0, len(labels), step):
        block = slice(start, start + step)
        rows = np.zeros((len(index[block]), 1 << n), dtype=complex)
        np.put_along_axis(rows.real, index[block], amp[block], axis=1)
        for key, row in zip(labels[block], rows):
            coeffs[key] = complex(np.vdot(row, state.amplitudes))
    del index, amp, rows  # free the table; reconstruct builds its own
    decomp = BellDecomposition(state.n, pairing, coeffs)
    if not decomp.reconstruct().isclose(state, tol=1e-12):
        raise AssertionError("Bell reconstruction does not match the state")
    return decomp


def bell_support(
    state: DenseState, pairing: Sequence[Tuple[int, int]]
) -> Tuple[int, List[float]]:
    """(term count, sorted magnitudes) of the nonzero Bell coefficients."""
    nz = bell_decompose(state, pairing).nonzero()
    return len(nz), sorted(abs(c) for c in nz.values())


# ---------------------------------------------------------------------------
# measurement and entanglement


def _qubit_indices(qubits: Sequence[int]) -> List[int]:
    """The qubits as Python ints; ``ValueError`` for any index that
    ``operator.index`` refuses, such as a float, rather than truncating it."""
    try:
        return [operator.index(q) for q in qubits]
    except TypeError:
        raise ValueError(f"qubit indices {list(qubits)} are not all integers") from None


def measure_computational(
    state: DenseState, qubits: Sequence[int], outcome: str
) -> Tuple[float, Optional[DenseState]]:
    """Project the given 1-based qubits onto a computational outcome.

    Returns (probability, residual state on the unmeasured qubits); zero
    probability branches return no residual.
    """
    qubits = _qubit_indices(qubits)
    if len(outcome) != len(qubits):
        raise ValueError("outcome length must match the measured qubit count")
    if any(bit not in "01" for bit in outcome):
        raise ValueError("outcome must be a string of 0s and 1s")
    if len(set(qubits)) != len(qubits):
        raise ValueError("measured qubits must be distinct")
    if any(not 1 <= q <= state.n for q in qubits):
        raise ValueError(f"measured qubits must lie in 1..{state.n}")
    if not qubits:
        return 1.0, state
    n = state.n
    arr = state.amplitudes.reshape((2,) * n)
    slicer: List[object] = [slice(None)] * n
    for q, b in zip(qubits, outcome):
        slicer[q - 1] = int(b)
    branch = np.asarray(arr[tuple(slicer)]).reshape(-1)
    prob = float(np.vdot(branch, branch).real)
    if prob < 1e-24:
        return 0.0, None
    return prob, DenseState.from_vector(branch)


def _pattern_offsets(n: int, positions: np.ndarray) -> np.ndarray:
    """Amplitude offsets of every bit pattern on each row of 0-based qubit
    positions; the row's first position carries the pattern's top bit."""
    k = positions.shape[1]
    bits = (np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1
    return (1 << (n - 1 - positions)) @ bits.T


def _subset_offsets(
    n: int, subsets: Sequence[Sequence[int]]
) -> Tuple[np.ndarray, np.ndarray]:
    """Row and column offset tables of equally sized 0-based ``subsets``.

    Row ``i`` of the first table holds the offsets of subset ``i``'s bit
    patterns, row ``i`` of the second those of the other qubits', so
    ``rows[i, :, None] | cols[i, None, :]`` gathers the state transposed
    to (subset, rest) order as a 2^k x 2^(n-k) matrix.
    """
    size = len(subsets[0])
    keep = np.array(subsets, dtype=np.int64).reshape(len(subsets), size)
    outside = np.ones((len(keep), n), dtype=bool)
    np.put_along_axis(outside, keep, False, axis=1)
    rest = np.nonzero(outside)[1].reshape(len(keep), n - size)
    return _pattern_offsets(n, keep), _pattern_offsets(n, rest)


@functools.cache
def _cut_offsets(n: int, size: int) -> Tuple[np.ndarray, np.ndarray]:
    """``_subset_offsets`` of every size-``size`` subset of n qubits, in
    ``itertools.combinations`` order, built once per (n, size) and kept
    read-only for the life of the process.

    The tables hold C(n, size) * (2^size + 2^(n - size)) int64 entries
    together: about 4.5 MB for every size at n = 12 and 40 MB at the
    14-qubit dense cap.
    """
    tables = _subset_offsets(n, list(itertools.combinations(range(n), size)))
    for table in tables:
        table.flags.writeable = False
    return tables


def _spectra(
    amplitudes: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> List[Tuple[float, ...]]:
    """Descending reduced spectra of the matrices the offset tables gather.

    The matrices are gathered a stack of subsets at a time, each stack
    holding at most ``_STACK_AMPLITUDES`` amplitudes, and each stack's
    reduced density matrices go through one batched ``eigvalsh``.
    """
    step = max(1, _STACK_AMPLITUDES // (rows.shape[1] * cols.shape[1]))
    spectra: List[Tuple[float, ...]] = []
    for start in range(0, len(rows), step):
        chunk = slice(start, start + step)
        mats = amplitudes[rows[chunk, :, None] | cols[chunk, None, :]]
        rho = mats @ mats.conj().transpose(0, 2, 1)
        # eigvalsh returns each row ascending
        vals = np.linalg.eigvalsh(rho)[:, ::-1]
        spectra.extend(map(tuple, vals.tolist()))
    return spectra


def reduced_spectrum(state: DenseState, subset: Sequence[int]) -> Tuple[float, ...]:
    """Eigenvalues of the reduced density matrix on 1-based ``subset``.

    The subset's offset tables are built for this call alone.
    """
    subset = _qubit_indices(subset)
    if len(set(subset)) != len(subset) or not all(
        1 <= q <= state.n for q in subset
    ):
        raise ValueError(f"subset {subset} is not distinct qubits in 1..{state.n}")
    rows, cols = _subset_offsets(state.n, [[q - 1 for q in subset]])
    return _spectra(state.amplitudes, rows, cols)[0]


def _cut_spectra(state: DenseState, size: int) -> Spectra:
    """Sorted spectra of every size-``size`` cut, from the kept tables."""
    rows, cols = _cut_offsets(state.n, size)
    return tuple(sorted(_spectra(state.amplitudes, rows, cols)))


def _reference_spectra(reference: DenseState, size: int) -> Spectra:
    """``_cut_spectra`` of a reference state, computed once per cut size
    and kept on the state: its amplitudes are read-only, so they hold."""
    kept = reference._kept_spectra
    if size not in kept:
        kept[size] = _cut_spectra(reference, size)
    return kept[size]


def entanglement_profile(state: DenseState) -> Dict[int, Spectra]:
    """Reduced-density spectra for every bipartition up to size n/2."""
    return {
        size: _cut_spectra(state, size) for size in range(1, state.n // 2 + 1)
    }


def _spectra_match(a: Spectra, b: Spectra) -> bool:
    """Equal counts and lengths, and each value within SPECTRUM_TOL."""
    return len(a) == len(b) and all(
        len(sa) == len(sb)
        and not any(abs(x - y) > SPECTRUM_TOL for x, y in zip(sa, sb))
        for sa, sb in zip(a, b)
    )


def profiles_match(a: Dict[int, Spectra], b: Dict[int, Spectra]) -> bool:
    return a.keys() == b.keys() and all(_spectra_match(a[k], b[k]) for k in a)


def classify_residual(
    residual: DenseState, reference: Optional[DenseState] = None
) -> str:
    """Verdict: "bell-state", "profile-match" or "mismatch".

    A two-qubit residual with maximally mixed single-qubit marginals counts
    as a Bell state; otherwise the residual's entanglement profile is
    compared against the reference state's, one cut size at a time, and
    the first size that differs decides "mismatch".  The reference's cut
    spectra are computed once per size and kept on it, so one reference
    serves many residuals; the residual's are computed afresh and not kept.
    """
    own: Dict[int, Spectra] = {}
    if residual.n == 2:
        own[1] = _cut_spectra(residual, 1)
        if all(abs(v - 0.5) < SPECTRUM_TOL for s in own[1] for v in s):
            return "bell-state"
    if reference is not None and reference.n == residual.n:
        if all(
            _spectra_match(
                own[k] if k in own else _cut_spectra(residual, k),
                _reference_spectra(reference, k),
            )
            for k in range(1, residual.n // 2 + 1)
        ):
            return "profile-match"
    return "mismatch"
