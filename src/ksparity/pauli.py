"""Phase-tracked N-qubit Pauli words in symplectic bit-vector form.

A word is stored as a pair of bit masks (x, z) plus a power of i, with the
convention ``word = i^lam * X^x Z^z`` where the X/Z factors act qubit-wise.
Qubit 1 is the leftmost letter of the string form and occupies the most
significant bit of each mask, so mask comparisons order the same way as the
string forms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

import numpy as np

DENSE_CAP_DEFAULT = 10

_SINGLE_QUBIT = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}

# letter for (xbit, zbit)
_LETTER_OF_BITS = {(0, 0): "I", (1, 0): "X", (0, 1): "Z", (1, 1): "Y"}

_PHASES = (1, 1j, -1, -1j)


class PauliParseError(ValueError):
    """Raised when a Pauli string cannot be parsed."""


class DimensionMismatchError(ValueError):
    """Raised when two words act on different numbers of qubits."""


class DenseCapError(RuntimeError):
    """Raised when a dense-matrix request exceeds the qubit cap."""


@dataclass(frozen=True, order=True)
class PauliWord:
    """An N-qubit Pauli operator with an exact global phase.

    ``lam`` is the exponent of i in the X^x Z^z form.  The user-visible
    phase (relative to the I/X/Y/Z letter form) is ``i^sigma`` where
    ``sigma = lam - (number of Y letters)  (mod 4)``.
    """

    n: int
    x: int
    z: int
    lam: int = 0

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("qubit count must be positive")
        mask = (1 << self.n) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError("mask exceeds qubit count")
        object.__setattr__(self, "lam", self.lam % 4)

    # -- phase bookkeeping ------------------------------------------------

    @property
    def sigma(self) -> int:
        """Exponent of i multiplying the letter (I/X/Y/Z) form."""
        return (self.lam - (self.x & self.z).bit_count()) % 4

    @property
    def phase(self) -> complex:
        return _PHASES[self.sigma]

    @property
    def is_hermitian(self) -> bool:
        return self.sigma % 2 == 0

    @property
    def sign(self) -> int:
        """+1 or -1 for Hermitian words."""
        if not self.is_hermitian:
            raise ValueError(f"word {self} has imaginary phase, no sign")
        return 1 if self.sigma == 0 else -1

    @property
    def is_identity_letters(self) -> bool:
        """True when every letter is I, regardless of phase."""
        return self.x == 0 and self.z == 0

    # -- construction -----------------------------------------------------

    @classmethod
    def identity(cls, n: int) -> "PauliWord":
        return cls(n, 0, 0, 0)

    def negate(self) -> "PauliWord":
        return PauliWord(self.n, self.x, self.z, self.lam + 2)

    def with_sigma(self, sigma: int) -> "PauliWord":
        """Same letters, prescribed phase exponent."""
        y = (self.x & self.z).bit_count()
        return PauliWord(self.n, self.x, self.z, sigma + y)

    def unsigned(self) -> "PauliWord":
        """Same letters with phase +1."""
        return self.with_sigma(0)

    # -- letters ----------------------------------------------------------

    def letter(self, pos: int) -> str:
        """Letter at 0-based position ``pos`` (position 0 = qubit 1)."""
        bit = self.n - 1 - pos
        return _LETTER_OF_BITS[((self.x >> bit) & 1, (self.z >> bit) & 1)]

    def letters(self) -> str:
        return "".join(self.letter(p) for p in range(self.n))

    def restricted(self, keep: Sequence[int]) -> "PauliWord":
        """Sub-word on the given 0-based positions, phase reset to +1.

        The result still acts on ``len(keep)`` qubits, ordered as given.
        """
        m = len(keep)
        x = z = 0
        for i, pos in enumerate(keep):
            bit = self.n - 1 - pos
            out = m - 1 - i
            x |= ((self.x >> bit) & 1) << out
            z |= ((self.z >> bit) & 1) << out
        return PauliWord(m, x, z).unsigned()

    def __str__(self) -> str:
        prefix = {0: "", 1: "i", 2: "-", 3: "-i"}[self.sigma]
        return prefix + self.letters()

    def __repr__(self) -> str:
        return f"PauliWord({str(self)!r})"


def parse_word(text: str) -> PauliWord:
    """Parse an optional sign prefix followed by I/X/Y/Z letters."""
    body = text
    sigma = 0
    for prefix, s in (("-i", 3), ("+i", 1), ("i", 1), ("-", 2), ("+", 0)):
        if text.startswith(prefix):
            body = text[len(prefix):]
            sigma = s
            break
    if not body:
        raise PauliParseError(f"empty Pauli string: {text!r}")
    n = len(body)
    x = z = 0
    for pos, ch in enumerate(body):
        if ch not in "IXYZ":
            raise PauliParseError(
                f"bad character {ch!r} at position {pos + 1} of {text!r}"
            )
        bit = n - 1 - pos
        if ch in "XY":
            x |= 1 << bit
        if ch in "ZY":
            z |= 1 << bit
    return PauliWord(n, x, z).with_sigma(sigma)


def multiply(a: PauliWord, b: PauliWord) -> PauliWord:
    """Exact operator product a*b with accumulated phase."""
    if a.n != b.n:
        raise DimensionMismatchError(f"qubit counts differ: {a.n} != {b.n}")
    # Z^z1 X^x2 = (-1)^{|z1 & x2|} X^x2 Z^z1
    lam = a.lam + b.lam + 2 * (a.z & b.x).bit_count()
    return PauliWord(a.n, a.x ^ b.x, a.z ^ b.z, lam)


def product_of(words: Iterable[PauliWord]) -> PauliWord:
    """Left-to-right product of a nonempty sequence of words."""
    words = list(words)
    if not words:
        raise ValueError("product of empty word list is undefined")
    return reduce(multiply, words)


def commutes(a: PauliWord, b: PauliWord) -> bool:
    """True iff the symplectic form of the two words vanishes."""
    if a.n != b.n:
        raise DimensionMismatchError(f"qubit counts differ: {a.n} != {b.n}")
    return ((a.x & b.z).bit_count() + (a.z & b.x).bit_count()) % 2 == 0


def to_dense(word: PauliWord, cap: int = DENSE_CAP_DEFAULT) -> np.ndarray:
    """Dense 2^n x 2^n matrix of the word (qubit 1 most significant)."""
    if word.n > cap:
        raise DenseCapError(f"dense matrix for n={word.n} exceeds cap {cap}")
    mat = np.array([[1.0 + 0j]])
    for pos in range(word.n):
        mat = np.kron(mat, _SINGLE_QUBIT[word.letter(pos)])
    return word.phase * mat


def all_words(n: int):
    """All 4^n - 1 non-identity Hermitian words, phase +1, in mask order."""
    for x in range(1 << n):
        for z in range(1 << n):
            if x == 0 and z == 0:
                continue
            yield PauliWord(n, x, z).unsigned()
