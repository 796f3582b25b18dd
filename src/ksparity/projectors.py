"""Stabilizer eigenspace projectors of contexts.

A projector is identified by its signed stabilizer subgroup: the abelian
group generated by the context's members with a consistent sign pattern.
It is stored as the group's canonical generators, the reduced row echelon
rows of its unsigned group, and one bitset of the rows with sign -1; its
group elements and their signs are derived on demand, and only this module
reads them.  Identity is decided on that canonical form, never on matrices;
dense matrices exist only as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from .pauli import PauliWord, multiply, to_dense
from .systems import ContextSystem, anticommuting_pairs, commutation_violations


@dataclass(frozen=True)
class StabilizerProjector:
    """Eigenspace projector encoded by signed stabilizer generators.

    ``rows`` are the (xmask, zmask) of the unsigned group's reduced row
    echelon rows, read as x << n | z, highest leading bit first; bit i of
    ``negated`` is set iff rows[i] has sign -1 in the group.  Two
    projectors are equal iff their signed groups are.
    """

    n: int
    rows: Tuple[Tuple[int, int], ...]
    negated: int

    @property
    def rank(self) -> int:
        return 1 << (self.n - len(self.rows))

    @cached_property
    def generators(self) -> Tuple[PauliWord, ...]:
        """The rows as Hermitian PauliWords whose phase carries the sign."""
        return tuple(
            PauliWord(self.n, x, z).with_sigma(2 * (self.negated >> i & 1))
            for i, (x, z) in enumerate(self.rows)
        )

    @cached_property
    def elements(self) -> Tuple[Tuple[Tuple[int, int], int], ...]:
        """((xmask, zmask), sign) of every group element, by mask."""
        group = _signed_group(self.n, self.generators)
        return tuple((key, group[key][0]) for key in sorted(group))

    @property
    def key(self) -> Tuple[Tuple[Tuple[int, int], int], ...]:
        return self.elements

    def conjugated(self, px: int, pz: int) -> StabilizerProjector:
        """The projector conjugated by X^px Z^pz: the sign of every row
        that anticommutes with it flips."""
        flips = sum(
            1 << i for i, (x, z) in enumerate(self.rows)
            if ((x & pz) ^ (z & px)).bit_count() & 1
        )
        return StabilizerProjector(self.n, self.rows, self.negated ^ flips)

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
    n: int, words: Sequence[PauliWord],
) -> Dict[Tuple[int, int], Tuple[int, int]]:
    """The group that commuting Hermitian words generate, built once: (x, z)
    -> (sign with every word as given, bitset of the independent words
    that multiply to it, the first at the top bit).  Negating a set of
    independent words negates the elements with an odd number of factors
    in it."""
    group = {(0, 0): (1, 0)}
    for w in words:
        if (w.x, w.z) in group:
            continue
        for (x, z), (sign, factors) in list(group.items()):
            group[(x, z)] = (sign, factors << 1)
            prod = multiply(PauliWord(n, x, z).with_sigma(1 - sign), w)
            group[(prod.x, prod.z)] = (prod.sign, factors << 1 | 1)
    return group


def _reduced_rows(
    n: int, keys: Iterable[Tuple[int, int]],
) -> Tuple[Tuple[int, int], ...]:
    """The reduced row echelon rows of the group whose elements are
    ``keys``, highest leading bit first.

    Read as the bitset x << n | z, the reduced row with leading bit b is
    the least group element with leading bit b: any other one adds rows
    with lower leading bits, and the highest of those sets a bit that the
    reduced row holds 0.
    """
    least: Dict[int, Tuple[int, int]] = {}
    for x, z in sorted(keys):
        least.setdefault(((x << n) | z).bit_length(), (x, z))
    return tuple(least[b] for b in sorted(least, reverse=True) if b)


def _negated_bits(signed: Sequence[Tuple[int, int]], flips: int) -> int:
    """Bit k set iff element k, given as (sign, factors) of a group, has
    sign -1 once the independent words whose bits ``flips`` holds are
    negated."""
    return sum(
        1 << k for k, (sign, factors) in enumerate(signed)
        if (sign < 0) ^ (factors & flips).bit_count() & 1
    )


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
    for a, b in anticommuting_pairs(words):
        raise ValueError(f"members {a} and {b} do not commute")
    n = words[0].n
    group = _signed_group(n, words)
    for w in words:
        if group[(w.x, w.z)][0] != w.sign:
            raise ValueError(f"inconsistent sign for dependent generator {w}")
    rows = _reduced_rows(n, group)
    signed = [group[r] for r in rows]
    return StabilizerProjector(n, rows, _negated_bits(signed, 0))


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
        """Bit j of entry i is set iff projectors i and j are orthogonal.

        Two projectors are orthogonal iff some element common to their
        groups has opposite signs in them (``orthogonal``).  The product
        of their two signs is multiplicative on the intersection of the
        groups, so it is -1 somewhere iff it is -1 on a basis of the
        intersection.  So the projectors are grouped by their rows, each
        unsigned group is built once from them, and for each pair of
        groups each side is bucketed by its signs on the reduced rows of
        the intersection: a projector is orthogonal to exactly the other
        side's projectors outside its bucket.  Within one group that
        leaves every other projector; two groups that share only the
        identity have one bucket each, which leaves none.
        """
        groups: Dict[Tuple[Tuple[int, int], ...], int] = {}
        for i, p in enumerate(self.projectors):
            groups[p.rows] = groups.get(p.rows, 0) | 1 << i
        # each unsigned group, with rows[i] at factor bit i, and its
        # projectors
        sides = [
            (_signed_group(self.n, [
                PauliWord(self.n, x, z).unsigned() for x, z in reversed(rows)
            ]), members)
            for rows, members in groups.items()
        ]
        graph = [0] * len(self.projectors)
        for a, (g, g_members) in enumerate(sides):
            for h, h_members in sides[a:]:
                basis = _reduced_rows(self.n, g.keys() & h.keys())
                g_buckets = _buckets(self.projectors, g, g_members, basis)
                h_buckets = _buckets(self.projectors, h, h_members, basis)
                _join(graph, g_buckets, h_members, h_buckets)
                _join(graph, h_buckets, g_members, g_buckets)
        return tuple(graph)


def _buckets(
    projectors: Sequence[StabilizerProjector],
    group: Dict[Tuple[int, int], Tuple[int, int]],
    members: int,
    basis: Sequence[Tuple[int, int]],
) -> Dict[int, int]:
    """The projectors of ``members``, whose unsigned group is ``group``, as
    bitsets by their signature: bit k set iff the element basis[k] has
    sign -1."""
    signed = [group[key] for key in basis]
    buckets: Dict[int, int] = {}
    while members:
        low = members & -members
        members ^= low
        negated = projectors[low.bit_length() - 1].negated
        signature = _negated_bits(signed, negated)
        buckets[signature] = buckets.get(signature, 0) | low
    return buckets


def _join(
    graph: List[int],
    buckets: Dict[int, int],
    across: int,
    across_buckets: Dict[int, int],
) -> None:
    """Mark each projector of ``buckets`` orthogonal to the projectors of
    ``across`` outside the bucket of its own signature there."""
    for signature, members in buckets.items():
        far = across & ~across_buckets.get(signature, 0)
        while members:
            low = members & -members
            members ^= low
            graph[low.bit_length() - 1] |= far


def projectors_of(sys: ContextSystem) -> ProjectorPool:
    """One projector per consistent sign assignment of each context, read
    off its one group: pattern p negates the independent members whose
    bits it holds, the ``itertools.product((1, -1))`` order."""
    index: Dict[StabilizerProjector, int] = {}
    families: List[Tuple[int, ...]] = []
    for ci, ctx in enumerate(sys.contexts):
        for violation in commutation_violations(sys, ci):
            raise ValueError(violation)
        group = _signed_group(sys.n, sys.context_words(ctx))
        if len(group) == 1:
            raise ValueError(
                f"context {ci}: every member is the identity, so it has "
                "no sign pattern to take a projector of"
            )
        rows = _reduced_rows(sys.n, group)
        signed = [group[r] for r in rows]
        family = set()
        for pattern in range(len(group)):
            proj = StabilizerProjector(
                sys.n, rows, _negated_bits(signed, pattern)
            )
            family.add(index.setdefault(proj, len(index)))
        families.append(tuple(sorted(family)))
    return ProjectorPool(sys.n, tuple(index), tuple(families))


def orthogonal(p: StabilizerProjector, q: StabilizerProjector) -> bool:
    """True iff some common group element carries opposite signs."""
    if p.n != q.n:
        raise ValueError("projectors act on different qubit counts")
    signs = dict(q.elements)
    return any(signs.get(key, sign) != sign for key, sign in p.elements)
