"""Reference computations the benchmark checks the program against.

Nothing here imports ``ksparity``: every oracle works from plain data
(Pauli strings, basis projector-id tuples, amplitude arrays) so that a
fault in the program cannot hide in its own check.
"""

from __future__ import annotations

import itertools
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

# ---------------------------------------------------------------------------
# GF(2) linear algebra on int bitsets (bit i of a row is column i)


def gf2_rank(rows: Sequence[int]) -> int:
    """Rank over GF(2) by pivoting on the highest set bit."""
    pivots: Dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length() - 1
            if top not in pivots:
                pivots[top] = row
                break
            row ^= pivots[top]
    return len(pivots)


def gf2_kernel(cols: Sequence[int]) -> List[int]:
    """Basis of {v : sum of cols[j] over the bits j of v is 0}.

    ``cols[j]`` is column j of the matrix as a bitset over rows; each
    kernel vector is a bitset over column indices (bit j = column j).
    """
    pivots: Dict[int, Tuple[int, int]] = {}  # top row bit -> (col, combo)
    kernel: List[int] = []
    for j, col in enumerate(cols):
        combo = 1 << j
        while col:
            top = col.bit_length() - 1
            if top not in pivots:
                pivots[top] = (col, combo)
                break
            pcol, pcombo = pivots[top]
            col ^= pcol
            combo ^= pcombo
        if not col:
            kernel.append(combo)
    return kernel


def gf2_solvable(rows: Sequence[int], rhs: Sequence[int]) -> bool:
    """A v = b has a solution iff appending b as a column keeps the rank."""
    aug = [(r << 1) | (b & 1) for r, b in zip(rows, rhs)]
    return gf2_rank([r << 1 for r in rows]) == gf2_rank(aug)


def span(basis: Sequence[int]):
    """Every vector of the span, by plain binary counting."""
    for mask in range(1 << len(basis)):
        vec = 0
        for i, b in enumerate(basis):
            if mask >> i & 1:
                vec ^= b
        yield vec


# ---------------------------------------------------------------------------
# exact-one satisfiability of basis sets


def exact_one_satisfiable(bases: Sequence[Sequence[int]]) -> bool:
    """Can projectors get 0/1 values with exactly one 1 in every basis?

    Bitmask search that always branches on the open basis with the fewest
    candidates left, a different order from the program's
    shortest-basis-first DFS.  Setting a projector to 1 closes every basis
    holding it and sets their other members to 0, so no basis can get a
    second 1.
    """
    masks = [sum(1 << p for p in b) for b in bases]

    def solve(ones: int, zeros: int) -> bool:
        best = 0
        for m in masks:
            if m & ones:
                continue
            cand = m & ~zeros
            if not cand:
                return False
            if not best or cand.bit_count() < best.bit_count():
                best = cand
        if not best:
            return True
        while best:
            low = best & -best
            best ^= low
            new_zeros = zeros
            for m in masks:
                if m & low:
                    new_zeros |= m & ~low
            if solve(ones | low, new_zeros):
                return True
        return False

    return solve(0, 0)


def exact_one_brute_force(bases: Sequence[Sequence[int]]) -> bool:
    """Same question by trying every 0/1 assignment of the projectors used."""
    projs = sorted({p for b in bases for p in b})
    index = {p: i for i, p in enumerate(projs)}
    masks = [sum(1 << index[p] for p in b) for b in bases]
    return any(
        all((assign & m).bit_count() == 1 for m in masks)
        for assign in range(1 << len(projs))
    )


def even_incidence(bases: Sequence[Sequence[int]]) -> bool:
    """Every projector occurs an even number of times across the bases."""
    count: Dict[int, int] = {}
    for b in bases:
        for p in b:
            count[p] = count.get(p, 0) + 1
    return all(c % 2 == 0 for c in count.values())


def is_critical(bases: Sequence[Sequence[int]]) -> bool:
    """A parity proof that turns satisfiable whichever basis is dropped."""
    return all(
        exact_one_satisfiable([b for j, b in enumerate(bases) if j != drop])
        for drop in range(len(bases))
    )


# ---------------------------------------------------------------------------
# GHZ slot parity


def letters(word: str) -> str:
    return word.lstrip("+-i")


def slots_even(rows: Sequence[str]) -> bool:
    """Every (qubit, letter) slot is used an even number of times."""
    count: Dict[Tuple[int, str], int] = {}
    for row in rows:
        for pos, ch in enumerate(letters(row)):
            if ch != "I":
                count[(pos, ch)] = count.get((pos, ch), 0) + 1
    return all(c % 2 == 0 for c in count.values())


def slot_parity_infeasible(rows: Sequence[str], eigenvalues: Sequence[int]) -> bool:
    """The GHZ argument: with every slot used an even number of times, the
    product of all row values is +1 for any local value assignment, while
    the eigenvalues multiply to -1."""
    product = 1
    for e in eigenvalues:
        product *= e
    return slots_even(rows) and product == -1


def slot_count(rows: Sequence[str]) -> int:
    return len(
        {(pos, ch) for row in rows for pos, ch in enumerate(letters(row)) if ch != "I"}
    )


def ghz_equations(rows: Sequence[str], eigenvalues: Sequence[int]):
    """GF(2) rows (one per observable, one bit per slot) and right sides."""
    slots = sorted(
        {(pos, ch) for row in rows for pos, ch in enumerate(letters(row)) if ch != "I"}
    )
    index = {s: i for i, s in enumerate(slots)}
    eqs = []
    for row in rows:
        bits = 0
        for pos, ch in enumerate(letters(row)):
            if ch != "I":
                bits |= 1 << index[(pos, ch)]
        eqs.append(bits)
    return eqs, [0 if e == 1 else 1 for e in eigenvalues]


# ---------------------------------------------------------------------------
# dense Pauli algebra from Kronecker factors

PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def sign_of(word: str) -> int:
    return -1 if word.startswith("-") else 1


def kron_matrix(word: str) -> np.ndarray:
    """Dense matrix of a signed Pauli string, qubit 1 leftmost."""
    mat = np.array([[sign_of(word)]], dtype=complex)
    for ch in letters(word):
        mat = np.kron(mat, PAULI[ch])
    return mat


def kron_apply(word: str, vec: np.ndarray) -> np.ndarray:
    """Apply the Kronecker product of the word's 2x2 factors to a vector,
    one tensor axis at a time, without forming the 2^n x 2^n matrix."""
    word_letters = letters(word)
    n = len(word_letters)
    arr = np.asarray(vec, dtype=complex).reshape((2,) * n)
    for axis, ch in enumerate(word_letters):
        if ch != "I":
            arr = np.moveaxis(np.tensordot(PAULI[ch], arr, axes=([1], [axis])), 0, axis)
    return sign_of(word) * arr.reshape(-1)


def eigen_residual(rows: Sequence[str], eigenvalues: Sequence[int], vec: np.ndarray) -> float:
    """Largest |O psi - s psi| over the rows."""
    return max(
        float(np.linalg.norm(kron_apply(r, vec) - s * vec))
        for r, s in zip(rows, eigenvalues)
    )


def commute(a: str, b: str) -> bool:
    """Two Pauli strings commute iff they differ on an even number of
    positions where both act non-trivially."""
    clash = sum(
        1 for x, y in zip(letters(a), letters(b)) if x != "I" and y != "I" and x != y
    )
    return clash % 2 == 0


def dense_product(words: Sequence[str]) -> np.ndarray:
    mat = kron_matrix(words[0])
    for w in words[1:]:
        mat = mat @ kron_matrix(w)
    return mat


def product_sign(words: Sequence[str]) -> Optional[int]:
    """+1 or -1 if the product of the words is +-identity, else None."""
    prod = dense_product(words)
    ident = np.eye(prod.shape[0])
    for s in (1, -1):
        if np.allclose(prod, s * ident, atol=1e-9):
            return s
    return None


def restrict(word: str, cols: Sequence[int]) -> str:
    body = letters(word)
    return "".join(body[c] for c in cols)


def validate_subproof(
    rows: Sequence[str], cols: Sequence[int], chosen: Sequence[int]
) -> bool:
    """A sub-table witness: the chosen rows restricted to the chosen
    columns are distinct, not identity, pairwise commuting, use every
    slot an even number of times and multiply to -identity, and the
    witness is a proper part of the table."""
    cols = list(cols)
    chosen = list(chosen)
    n = len(letters(rows[0]))
    if not cols or not chosen or len(set(chosen)) != len(chosen):
        return False
    if sorted(cols) == list(range(n)) and sorted(chosen) == list(range(len(rows))):
        return False
    sub = [restrict(rows[i], cols) for i in chosen]
    if len(set(sub)) != len(sub) or any(set(w) == {"I"} for w in sub):
        return False
    if not all(commute(a, b) for a, b in itertools.combinations(sub, 2)):
        return False
    if not slots_even(sub):
        return False
    return product_sign(sub) == -1


# ---------------------------------------------------------------------------
# states


_S = 1 / np.sqrt(2)
BELL = {
    "Φ+": np.array([_S, 0, 0, _S], dtype=complex),
    "Φ-": np.array([_S, 0, 0, -_S], dtype=complex),
    "Ψ+": np.array([0, _S, _S, 0], dtype=complex),
    "Ψ-": np.array([0, _S, -_S, 0], dtype=complex),
}


def bell_product(n: int, factors: Sequence[Tuple[int, int, str]]) -> np.ndarray:
    """Bell-pair product state from Kronecker products plus a qubit
    permutation; ``factors`` are (qubit_a, qubit_b, label), 1-based."""
    vec = np.array([1.0 + 0j])
    order: List[int] = []
    for qa, qb, label in factors:
        vec = np.kron(vec, BELL[label])
        order += [qa - 1, qb - 1]
    arr = vec.reshape((2,) * n)
    # axis k of arr is qubit order[k]; move it to position order[k]
    return np.moveaxis(arr, list(range(n)), order).reshape(-1)


def measure(vec: np.ndarray, qubits: Sequence[int], outcome: str):
    """(probability, normalized residual or None) by slicing the tensor."""
    n = int(np.log2(vec.size))
    arr = vec.reshape((2,) * n)
    index: List[object] = [slice(None)] * n
    for q, b in zip(qubits, outcome):
        index[q - 1] = int(b)
    branch = arr[tuple(index)].reshape(-1)
    prob = float(np.sum(np.abs(branch) ** 2))
    if prob < 1e-24:
        return 0.0, None
    return prob, branch / np.sqrt(prob)


def reduced_eigenvalues(vec: np.ndarray, keep: Sequence[int]) -> np.ndarray:
    """Spectrum of the reduced density matrix on 1-based ``keep``,
    traced out with einsum, sorted descending."""
    n = int(np.log2(vec.size))
    arr = vec.reshape((2,) * n)
    keep0 = [q - 1 for q in keep]
    rest = [p for p in range(n) if p not in keep0]
    mat = np.transpose(arr, keep0 + rest).reshape(1 << len(keep0), -1)
    rho = np.einsum("ik,jk->ij", mat, mat.conj())
    return np.sort(np.linalg.eigvalsh(rho))[::-1]


def entanglement_spectra(vec: np.ndarray) -> Dict[int, List[np.ndarray]]:
    n = int(np.log2(vec.size))
    out: Dict[int, List[np.ndarray]] = {}
    for size in range(1, n // 2 + 1):
        spectra = [
            reduced_eigenvalues(vec, subset)
            for subset in itertools.combinations(range(1, n + 1), size)
        ]
        out[size] = sorted(spectra, key=lambda s: tuple(np.round(s, 9)))
    return out


def residual_verdict(
    residual: np.ndarray, reference: Optional[np.ndarray], tol: float = 1e-9
) -> str:
    """What a residual state is: a Bell pair (two qubits, both marginals
    maximally mixed), a state with the reference's entanglement spectra,
    or neither."""
    n = int(np.log2(residual.size))
    if n == 2 and all(
        np.allclose(reduced_eigenvalues(residual, [q]), [0.5, 0.5], atol=tol)
        for q in (1, 2)
    ):
        return "bell-state"
    if reference is not None and reference.size == residual.size:
        a, b = entanglement_spectra(residual), entanglement_spectra(reference)
        if all(
            len(a[k]) == len(b[k])
            and all(np.allclose(x, y, atol=tol) for x, y in zip(a[k], b[k]))
            for k in a
        ):
            return "profile-match"
    return "mismatch"


# ---------------------------------------------------------------------------
# stabilizer projectors as dense matrices


def projector_matrix(generators: Sequence[str]) -> np.ndarray:
    """prod (I + g)/2 over signed generator strings."""
    dim = 1 << len(letters(generators[0]))
    mat = np.eye(dim, dtype=complex)
    for g in generators:
        mat = mat @ ((np.eye(dim) + kron_matrix(g)) / 2)
    return mat


def matrices_orthogonal(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(np.allclose(a @ b, 0, atol=1e-9))
