"""Stabilizer eigenspace projectors of contexts.

A projector is identified by its signed stabilizer subgroup: the abelian
group generated by the context's members with a consistent sign pattern.
Identity is decided on canonical generating sets, never on matrices; dense
matrices exist only as test oracles.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

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
    def rank(self) -> int:
        return 1 << (self.n - len(self.generators))

    @property
    def key(self) -> Tuple[Tuple[Tuple[int, int], int], ...]:
        return self.elements

    @cached_property
    def signs(self) -> Dict[Tuple[int, int], int]:
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


def _signed_group(
    words: Sequence[PauliWord],
) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """The group that commuting Hermitian words generate, built once: (x, z)
    -> (sign with every word as given, bitset of the independent words
    that multiply to it, the first at the top bit).  Negating a set of
    independent words negates the elements with an odd number of factors
    in it."""
    n = words[0].n
    group = {(0, 0): (1, 0)}
    for w in words:
        if (w.x, w.z) in group:
            continue
        for (x, z), (sign, factors) in list(group.items()):
            group[(x, z)] = (sign, factors << 1)
            prod = multiply(PauliWord(n, x, z).with_sigma(1 - sign), w)
            group[(prod.x, prod.z)] = (prod.sign, factors << 1 | 1)
    return group


def _sign_patterns(
    n: int,
    group: Dict[Tuple[int, int], Tuple[int, int]],
    negations: Iterable[int],
) -> Iterator[StabilizerProjector]:
    """The projector of each bitset of negated independent words, its
    generators the group's reduced row echelon rows with their signs."""
    items = [(key, *group[key]) for key in sorted(group)]
    rows, _ = gf2.rref([(x << n) | z for (x, z), _, _ in items], 2 * n)
    canonical = [(row >> n, row & ((1 << n) - 1)) for row in rows]
    for negated in negations:
        signs = {
            key: -sign if (factors & negated).bit_count() & 1 else sign
            for key, sign, factors in items
        }
        yield StabilizerProjector(n, tuple(
            PauliWord(n, x, z).with_sigma(1 - signs[(x, z)])
            for x, z in canonical
        ), tuple(signs.items()))


def projector_from_signed_words(
    words: Sequence[PauliWord],
) -> StabilizerProjector:
    """Build a projector from commuting Hermitian words with signs in phase.

    Dependent inputs are tolerated as long as their signs are consistent.
    """
    if not words:
        raise ValueError("at least one signed word is required")
    for w in words:
        if not w.is_hermitian:
            raise ValueError(f"generator {w} is not Hermitian")
    group = _signed_group(words)
    for w in words:
        if group[(w.x, w.z)][0] != w.sign:
            raise ValueError(f"inconsistent sign for dependent generator {w}")
    return next(_sign_patterns(words[0].n, group, [0]))


@dataclass(frozen=True)
class ProjectorPool:
    """Deduplicated projectors of a system plus per-context provenance."""

    n: int
    projectors: Tuple[StabilizerProjector, ...]
    context_families: Tuple[Tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.projectors)

    @cached_property
    def orthogonality(self) -> Tuple[int, ...]:
        """Bit j of entry i is set iff projectors i and j are orthogonal."""
        rows = [0] * len(self.projectors)
        pairs = itertools.combinations(enumerate(self.projectors), 2)
        for (a, p), (b, q) in pairs:
            if orthogonal(p, q):
                rows[a] |= 1 << b
                rows[b] |= 1 << a
        return tuple(rows)


def projectors_of(sys: ContextSystem) -> ProjectorPool:
    """One projector per consistent sign assignment of each context, read
    off its one group: pattern p negates the independent members whose
    bits it holds, the ``itertools.product((1, -1))`` order."""
    by_key: Dict[tuple, int] = {}
    projectors: List[StabilizerProjector] = []
    families: List[Tuple[int, ...]] = []
    for ctx in sys.contexts:
        group = _signed_group(sys.context_words(ctx))
        if len(group) == 1:
            raise ValueError("at least one signed word is required")
        family = set()
        for proj in _sign_patterns(sys.n, group, range(len(group))):
            idx = by_key.setdefault(proj.key, len(projectors))
            if idx == len(projectors):
                projectors.append(proj)
            family.add(idx)
        families.append(tuple(sorted(family)))
    return ProjectorPool(sys.n, tuple(projectors), tuple(families))


def orthogonal(p: StabilizerProjector, q: StabilizerProjector) -> bool:
    """True iff some common group element carries opposite signs."""
    if p.n != q.n:
        raise ValueError("projectors act on different qubit counts")
    qs = q.signs
    return any(qs.get(key, sign) != sign for key, sign in p.elements)
