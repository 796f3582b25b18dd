"""Dense joint eigenstates, Bell decompositions and measurement analysis.

Amplitude vectors are indexed in the computational basis with qubit 1 as
the most significant bit.  Global phase is canonicalized so that the first
nonzero amplitude is real and positive, which makes state comparison at
tolerance well defined.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import gf2
from .pauli import DenseCapError, PauliWord, commutes
from .systems import (
    ContextSystem,
    _single_context,
    check_eigenvalue_dependencies,
)

DENSE_STATE_CAP = 14

# most amplitudes one stacked gather or block of dense Bell rows holds
_STACK_AMPLITUDES = 1 << 14

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

    def __init__(self, dimension: int, eigenvalues: Sequence[int] = ()):
        self.dimension = dimension
        self.eigenvalues = tuple(eigenvalues)
        super().__init__(
            f"eigenspace has dimension {dimension}, not a unique state"
        )


@dataclass(frozen=True)
class DenseState:
    n: int
    amplitudes: np.ndarray

    def __post_init__(self):
        vec = np.asarray(self.amplitudes, dtype=complex)
        if vec.shape != (1 << self.n,):
            raise ValueError("amplitude vector has wrong length")
        norm = np.linalg.norm(vec)
        if not math.isclose(norm, 1.0, abs_tol=1e-12):
            raise ValueError(f"state is not normalized (norm {norm})")
        object.__setattr__(self, "amplitudes", _canonical_phase(vec))

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

    def to_json(self) -> str:
        pairs = [[float(a.real), float(a.imag)] for a in self.amplitudes]
        return json.dumps({"n": self.n, "amplitudes": pairs})

    @classmethod
    def from_json(cls, text: str) -> "DenseState":
        doc = json.loads(text)
        vec = np.array([complex(re, im) for re, im in doc["amplitudes"]])
        return cls(doc["n"], vec)


def _canonical_phase(vec: np.ndarray) -> np.ndarray:
    idx = np.flatnonzero(np.abs(vec) > 1e-12)
    if idx.size == 0:
        return vec
    lead = vec[idx[0]]
    return vec * (abs(lead) / lead)


def apply_pauli(word: PauliWord, vec: np.ndarray) -> np.ndarray:
    """Act with a Pauli word on an amplitude vector (qubit 1 = MSB)."""
    n = word.n
    idx = np.arange(1 << n)
    masked = (idx ^ word.x) & word.z
    par = np.zeros(1 << n, dtype=np.int64)
    for b in range(n):
        par ^= (masked >> b) & 1
    out = np.empty_like(vec, dtype=complex)
    out[...] = vec[idx ^ word.x] * np.where(par, -1.0, 1.0)
    # phase of the X^x Z^z ordering plus the word's own i power
    return (1j ** word.lam) * out


# ---------------------------------------------------------------------------
# joint eigenstates


def eigenspace_dimension(sys: ContextSystem) -> int:
    """2^(n - m) with m the number of symplectically independent members."""
    ctx = _single_context(sys)
    rows = []
    for m in ctx.members:
        ob = sys.observables[m]
        rows.append((ob.x << sys.n) | ob.z)
    return 1 << (sys.n - gf2.rank(rows))


def joint_eigenstate(
    sys: ContextSystem,
    eigenvalues: Sequence[int],
    dense_cap: int = DENSE_STATE_CAP,
) -> DenseState:
    """Unique unit vector with O_i psi = s_i psi for every context member.

    Computed by applying the projectors (I + s_i O_i)/2 to a sequence of
    basis vectors until a nonzero image survives; the result is verified
    against every eigen-equation to 1e-10.  Members that do not commute
    raise ``ValueError`` naming the first such pair; eigenvalues that
    break a dependency among the members raise
    ``InconsistentEigenvaluesError``.
    """
    ctx = _single_context(sys)
    words = [sys.observables[m] for m in ctx.members]
    for a, b in itertools.combinations(words, 2):
        if not commutes(a, b):
            raise ValueError(f"members {a} and {b} do not commute")
    if sys.n > dense_cap:
        raise DenseCapError(f"n={sys.n} exceeds dense state cap {dense_cap}")
    check_eigenvalue_dependencies(sys, eigenvalues)
    dim = eigenspace_dimension(sys)
    if dim != 1:
        raise UnderdeterminedEigenstateError(dim, eigenvalues)

    size = 1 << sys.n
    for start in range(size):
        vec = np.zeros(size, dtype=complex)
        vec[start] = 1.0
        for w, s in zip(words, eigenvalues):
            vec = 0.5 * (vec + s * apply_pauli(w, vec))
        if np.linalg.norm(vec) > 1e-9:
            state = DenseState.from_vector(vec)
            for w, s in zip(words, eigenvalues):
                resid = apply_pauli(w, state.amplitudes) - s * state.amplitudes
                if np.linalg.norm(resid) > 1e-10:
                    raise AssertionError(f"eigen-equation violated for {w}")
            return state
    raise AssertionError("projector product annihilated every basis vector")


# ---------------------------------------------------------------------------
# Bell decompositions


def _check_pairing(n: int, pairing: Sequence[Tuple[int, int]]) -> None:
    flat = [q for pair in pairing for q in pair]
    if sorted(flat) != list(range(1, n + 1)):
        raise ValueError(f"pairing {pairing} does not cover qubits 1..{n}")


@dataclass(frozen=True)
class BellDecomposition:
    n: int
    pairing: Tuple[Tuple[int, int], ...]
    coefficients: Dict[Tuple[str, ...], complex]

    def nonzero(self, tol: float = 1e-10) -> Dict[Tuple[str, ...], complex]:
        return {
            labels: c
            for labels, c in self.coefficients.items()
            if abs(c) > tol
        }

    def reconstruct(self) -> DenseState:
        vec = np.zeros(1 << self.n, dtype=complex)
        for labels, coeff in self.coefficients.items():
            if coeff == 0:
                continue
            factors = [
                (q1, q2, label)
                for (q1, q2), label in zip(self.pairing, labels)
            ]
            vec += coeff * bell_product_vector(self.n, factors)
        return DenseState.from_vector(vec)

    def to_json(self) -> str:
        terms = {
            "".join(labels): [float(c.real), float(c.imag)]
            for labels, c in sorted(self.nonzero().items())
        }
        return json.dumps(
            {"pairing": [list(p) for p in self.pairing], "terms": terms},
            ensure_ascii=False,
        )


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
    # one entry per nonzero term, pair k's offsets on the k-th axis of the
    # outer OR; amplitudes multiply left to right, which fixes the rounding
    index = np.zeros(1, dtype=np.int64)
    amp = np.ones(1)
    for qa, qb, label in bell_factors:
        bell = BELL_VECTORS[label].real
        offsets = np.flatnonzero(bell)
        shifts = ((offsets >> 1) << (n - qa)) | ((offsets & 1) << (n - qb))
        index = (index[:, None] | shifts[None, :]).ravel()
        amp = (amp[:, None] * bell[offsets][None, :]).ravel()
    for q, b in computational:
        index |= b << (n - q)
    vec = np.zeros(1 << n, dtype=complex)
    vec.real[index] = amp
    return vec


def bell_decompose(
    state: DenseState, pairing: Sequence[Tuple[int, int]]
) -> BellDecomposition:
    """Coefficients of the state in the tensor-product Bell basis."""
    _check_pairing(state.n, pairing)
    pairing = tuple((int(a), int(b)) for a, b in pairing)
    n = state.n
    bells = np.array([BELL_VECTORS[label].real for label in BELL_LABELS])
    offsets = np.array([np.flatnonzero(b) for b in bells])
    values = np.take_along_axis(bells, offsets, axis=1)
    # row r holds the nonzero terms of the r-th label tuple in
    # itertools.product order, with the offsets and left-to-right amplitude
    # products of bell_product_vector, so each dense row is its vector
    index = np.zeros((1, 1), dtype=np.int64)
    amp = np.ones((1, 1))
    for qa, qb in pairing:
        shifts = ((offsets >> 1) << (n - qa)) | ((offsets & 1) << (n - qb))
        index = (index[:, None, :, None] | shifts[None, :, None, :]).reshape(
            4 * len(index), -1
        )
        amp = (amp[:, None, :, None] * values[None, :, None, :]).reshape(
            4 * len(amp), -1
        )
    labels = list(itertools.product(BELL_LABELS, repeat=len(pairing)))
    step = max(1, _STACK_AMPLITUDES >> n)
    coeffs: Dict[Tuple[str, ...], complex] = {}
    for start in range(0, len(labels), step):
        stop = min(start + step, len(labels))
        rows = np.zeros((stop - start, 1 << n), dtype=complex)
        np.put_along_axis(
            rows.real, index[start:stop], amp[start:stop], axis=1
        )
        for key, row in zip(labels[start:stop], rows):
            coeffs[key] = complex(np.vdot(row, state.amplitudes))
    decomp = BellDecomposition(state.n, pairing, coeffs)
    if not decomp.reconstruct().isclose(state, tol=1e-12):
        raise AssertionError("Bell reconstruction does not match the state")
    return decomp


def bell_support(
    state: DenseState,
    pairing: Sequence[Tuple[int, int]],
    tol: float = 1e-10,
) -> Tuple[int, List[float]]:
    """(term count, sorted magnitudes) of the nonzero Bell coefficients."""
    nz = bell_decompose(state, pairing).nonzero(tol)
    mags = sorted(abs(c) for c in nz.values())
    return len(nz), mags


# ---------------------------------------------------------------------------
# measurement and entanglement


def measure_computational(
    state: DenseState, qubits: Sequence[int], outcome: str
) -> Tuple[float, Optional[DenseState]]:
    """Project the given 1-based qubits onto a computational outcome.

    Returns (probability, residual state on the unmeasured qubits); zero
    probability branches return no residual.
    """
    qubits = list(qubits)
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


def _spectra(
    state: DenseState, subsets: Sequence[Sequence[int]]
) -> List[Tuple[float, ...]]:
    """Descending reduced spectra on equally sized 1-based ``subsets``.

    Each subset's matrix is the state transposed to (subset, rest) order
    and reshaped to 2^k x 2^(n-k), gathered for a stack of subsets at once
    and holding at most ``_STACK_AMPLITUDES`` amplitudes per stack.
    """
    n, size = state.n, len(subsets[0])
    keep = np.array(subsets, dtype=np.int64).reshape(len(subsets), size) - 1
    outside = np.ones((len(keep), n), dtype=bool)
    np.put_along_axis(outside, keep, False, axis=1)
    rest = np.nonzero(outside)[1].reshape(len(keep), n - size)
    rows, cols = _pattern_offsets(n, keep), _pattern_offsets(n, rest)
    step = max(1, _STACK_AMPLITUDES >> n)
    spectra: List[Tuple[float, ...]] = []
    for start in range(0, len(keep), step):
        chunk = slice(start, start + step)
        mats = state.amplitudes[rows[chunk, :, None] | cols[chunk, None, :]]
        rho = mats @ mats.conj().transpose(0, 2, 1)
        # eigvalsh returns each row ascending
        vals = np.linalg.eigvalsh(rho)[:, ::-1]
        spectra.extend(map(tuple, vals.tolist()))
    return spectra


def reduced_spectrum(state: DenseState, subset: Sequence[int]) -> Tuple[float, ...]:
    """Eigenvalues of the reduced density matrix on 1-based ``subset``."""
    if len(set(subset)) != len(subset) or not all(
        1 <= q <= state.n for q in subset
    ):
        raise ValueError(f"subset {subset} is not distinct qubits in 1..{state.n}")
    return _spectra(state, [subset])[0]


def _cut_spectra(state: DenseState, size: int) -> Tuple[Tuple[float, ...], ...]:
    subsets = list(itertools.combinations(range(1, state.n + 1), size))
    return tuple(sorted(_spectra(state, subsets)))


def entanglement_profile(
    state: DenseState,
) -> Dict[int, Tuple[Tuple[float, ...], ...]]:
    """Reduced-density spectra for every bipartition up to size n/2."""
    return {
        size: _cut_spectra(state, size) for size in range(1, state.n // 2 + 1)
    }


def profiles_match(
    a: Dict[int, Tuple[Tuple[float, ...], ...]],
    b: Dict[int, Tuple[Tuple[float, ...], ...]],
    tol: float = 1e-9,
) -> bool:
    if a.keys() != b.keys():
        return False
    for k in a:
        if len(a[k]) != len(b[k]):
            return False
        for sa, sb in zip(a[k], b[k]):
            if len(sa) != len(sb):
                return False
            if any(abs(x - y) > tol for x, y in zip(sa, sb)):
                return False
    return True


def classify_residual(
    residual: DenseState,
    reference: Optional[DenseState] = None,
    tol: float = 1e-9,
) -> str:
    """Verdict: "bell-state", "profile-match" or "mismatch".

    A two-qubit residual with maximally mixed single-qubit marginals counts
    as a Bell state; otherwise the residual's entanglement profile is
    compared against the reference state's, one cut size at a time, and
    the first size that differs decides "mismatch".
    """
    if residual.n == 2:
        spectra = [reduced_spectrum(residual, [q]) for q in (1, 2)]
        if all(
            abs(s[0] - 0.5) < tol and abs(s[1] - 0.5) < tol for s in spectra
        ):
            return "bell-state"
    if reference is not None and reference.n == residual.n:
        if all(
            profiles_match(
                {k: _cut_spectra(residual, k)},
                {k: _cut_spectra(reference, k)},
                tol,
            )
            for k in range(1, residual.n // 2 + 1)
        ):
            return "profile-match"
    return "mismatch"
