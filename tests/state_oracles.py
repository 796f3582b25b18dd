"""Reference versions of the dense state kernels, for tests only.

Each function is the per-subset, per-label or per-basis-vector loop that
the library replaced with batched numpy code or a GF(2) closed form; the
tests require the library to agree with it bit for bit.
"""

import itertools
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ksparity.states import (
    BELL_LABELS,
    SPECTRUM_TOL,
    DenseState,
    apply_pauli,
    bell_product_vector,
    profiles_match,
)
from ksparity.systems import ContextSystem


def reduced_spectrum(state: DenseState, subset: Sequence[int]) -> Tuple[float, ...]:
    """Eigenvalues of one reduced density matrix, from a transposed reshape."""
    n = state.n
    keep = [q - 1 for q in subset]
    rest = [p for p in range(n) if p not in keep]
    arr = state.amplitudes.reshape((2,) * n)
    arr = np.transpose(arr, keep + rest)
    mat = arr.reshape(1 << len(keep), 1 << len(rest))
    rho = mat @ mat.conj().T
    vals = np.linalg.eigvalsh(rho)
    return tuple(sorted((float(v) for v in vals), reverse=True))


def entanglement_profile(
    state: DenseState,
) -> Dict[int, Tuple[Tuple[float, ...], ...]]:
    """One ``reduced_spectrum`` call per subset of every size up to n/2."""
    profile = {}
    for size in range(1, state.n // 2 + 1):
        spectra = [
            reduced_spectrum(state, subset)
            for subset in itertools.combinations(range(1, state.n + 1), size)
        ]
        profile[size] = tuple(sorted(spectra))
    return profile


def classify_residual(
    residual: DenseState, reference: Optional[DenseState] = None
) -> str:
    """Verdict from the two full profiles, with no early exit."""
    if residual.n == 2:
        spectra = [reduced_spectrum(residual, [q]) for q in (1, 2)]
        tol = SPECTRUM_TOL
        if all(
            abs(s[0] - 0.5) < tol and abs(s[1] - 0.5) < tol for s in spectra
        ):
            return "bell-state"
    if reference is not None and reference.n == residual.n:
        if profiles_match(
            entanglement_profile(residual), entanglement_profile(reference)
        ):
            return "profile-match"
    return "mismatch"


def bell_coefficients(
    state: DenseState, pairing: Sequence[Tuple[int, int]]
) -> Dict[Tuple[str, ...], complex]:
    """One dense ``bell_product_vector`` and one ``np.vdot`` per label tuple."""
    coeffs = {}
    for labels in itertools.product(BELL_LABELS, repeat=len(pairing)):
        factors = [
            (q1, q2, label) for (q1, q2), label in zip(pairing, labels)
        ]
        basis_vec = bell_product_vector(state.n, factors)
        coeffs[labels] = complex(np.vdot(basis_vec, state.amplitudes))
    return coeffs


def joint_eigenstate(
    sys: ContextSystem, eigenvalues: Sequence[int]
) -> DenseState:
    """Project basis vectors one by one, in index order, until one keeps a
    nonzero image; the projections are those of the library, so the state
    is bit-identical to its start from the first index in the support."""
    words = sys.context_words(sys.contexts[0])
    size = 1 << sys.n
    for start in range(size):
        vec = np.zeros(size, dtype=complex)
        vec[start] = 1.0
        for w, s in zip(words, eigenvalues):
            vec = 0.5 * (vec + s * apply_pauli(w, vec))
        if np.linalg.norm(vec) > 1e-9:
            return DenseState.from_vector(vec)
    raise AssertionError("projector product annihilated every basis vector")
