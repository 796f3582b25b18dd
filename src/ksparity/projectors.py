"""Stabilizer eigenspace projectors of contexts.

A projector is identified by its signed stabilizer subgroup: the abelian
group generated by the context's members with a consistent sign pattern.
Identity is decided on canonical generating sets, never on matrices; dense
matrices exist only as test oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, List, Sequence, Tuple

import numpy as np

from . import gf2
from .pauli import PauliWord, multiply, to_dense
from .systems import ContextSystem


@dataclass(frozen=True)
class StabilizerProjector:
    """Eigenspace projector encoded by signed stabilizer generators.

    ``generators`` is the canonical (row-reduced, sorted) generating set;
    each generator is a Hermitian PauliWord whose phase carries its sign.
    ``elements`` maps (xmask, zmask) to the sign of that group element.
    """

    n: int
    generators: Tuple[PauliWord, ...]
    elements: Tuple[Tuple[Tuple[int, int], int], ...]

    @property
    def num_generators(self) -> int:
        return len(self.generators)

    @property
    def rank(self) -> int:
        return 1 << (self.n - self.num_generators)

    @property
    def key(self) -> Tuple[Tuple[Tuple[int, int], int], ...]:
        return self.elements

    def element_signs(self) -> Dict[Tuple[int, int], int]:
        return dict(self.elements)

    def to_dense(self) -> np.ndarray:
        """Oracle matrix: average of the signed group elements."""
        size = 1 << self.n
        mat = np.zeros((size, size), dtype=complex)
        for (x, z), sign in self.elements:
            word = PauliWord(self.n, x, z).unsigned()
            mat += sign * to_dense(word, cap=self.n)
        return mat / len(self.elements)

    def __str__(self) -> str:
        gens = ",".join(str(g) for g in self.generators)
        return f"<{gens}>"


def projector_from_signed_words(
    words: Sequence[PauliWord],
) -> StabilizerProjector:
    """Build a projector from commuting Hermitian words with signs in phase.

    Dependent inputs are tolerated as long as their signs are consistent.
    """
    if not words:
        raise ValueError("at least one signed word is required")
    n = words[0].n
    signs: Dict[Tuple[int, int], int] = {(0, 0): 1}
    gens: List[PauliWord] = []
    for w in words:
        if not w.is_hermitian:
            raise ValueError(f"generator {w} is not Hermitian")
        key = (w.x, w.z)
        if key in signs:
            if signs[key] != w.sign:
                raise ValueError(
                    f"inconsistent sign for dependent generator {w}"
                )
            continue
        for (x, z), s in list(signs.items()):
            elem = PauliWord(n, x, z).with_sigma(0 if s == 1 else 2)
            prod = multiply(elem, w)
            signs[(prod.x, prod.z)] = prod.sign
        gens.append(w)
    # canonical generators: the reduced row echelon form of the symplectic
    # rows, each row a group element with the sign the group gives it
    rows, _ = gf2.rref([(w.x << n) | w.z for w in gens], 2 * n)
    mask = (1 << n) - 1
    canonical = []
    for row in rows:
        x, z = row >> n, row & mask
        sigma = 0 if signs[(x, z)] == 1 else 2
        canonical.append(PauliWord(n, x, z).with_sigma(sigma))
    elements = tuple(sorted(signs.items()))
    return StabilizerProjector(n, tuple(canonical), elements)


@dataclass(frozen=True)
class ProjectorPool:
    """Deduplicated projectors of a system plus per-context provenance."""

    n: int
    projectors: Tuple[StabilizerProjector, ...]
    context_families: Tuple[Tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.projectors)


def projectors_of(sys: ContextSystem) -> ProjectorPool:
    """One projector per consistent sign assignment of each context."""
    by_key: Dict[tuple, int] = {}
    projectors: List[StabilizerProjector] = []
    families: List[Tuple[int, ...]] = []
    for ctx in sys.contexts:
        words = sys.context_words(ctx)
        # independent members: greedy symplectic basis
        basis: List[int] = []
        independent: List[int] = []
        for i, w in enumerate(words):
            vec = (w.x << sys.n) | w.z
            for b in basis:
                vec = min(vec, vec ^ b)
            if vec:
                basis.append(vec)
                independent.append(i)
        family: List[int] = []
        for pattern in itertools.product((1, -1), repeat=len(independent)):
            signed = []
            for i, s in zip(independent, pattern):
                w = words[i]
                signed.append(w if s == 1 else w.negate())
            proj = projector_from_signed_words(signed)
            idx = by_key.get(proj.key)
            if idx is None:
                idx = len(projectors)
                by_key[proj.key] = idx
                projectors.append(proj)
            family.append(idx)
        families.append(tuple(sorted(set(family))))
    return ProjectorPool(sys.n, tuple(projectors), tuple(families))


def orthogonal(p: StabilizerProjector, q: StabilizerProjector) -> bool:
    """True iff some common group element carries opposite signs."""
    if p.n != q.n:
        raise ValueError("projectors act on different qubit counts")
    qs = q.element_signs()
    for key, sign in p.elements:
        other = qs.get(key)
        if other is not None and other != sign:
            return True
    return False
