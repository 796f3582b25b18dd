"""Stabilizer eigenspace projectors of contexts.

A projector is identified by its signed stabilizer subgroup: the abelian
group generated by the context's members with a consistent sign pattern.
Identity is decided on canonical generating sets, never on matrices; dense
matrices exist only as test oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

import numpy as np

from .pauli import PauliWord, multiply, to_dense
from .systems import ContextSystem, anticommuting_pairs, commutation_violations


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
    generators the group's reduced row echelon rows with their signs.

    Read as the bitset x << n | z, the reduced row with leading bit b is
    the least group element with leading bit b: any other one adds rows
    with lower leading bits, and the highest of those sets a bit that the
    reduced row holds 0.  The rows come highest leading bit first.
    """
    items = [(key, *group[key]) for key in sorted(group)]
    least: Dict[int, Tuple[int, int]] = {}
    for (x, z), _, _ in items:
        least.setdefault(((x << n) | z).bit_length(), (x, z))
    canonical = [least[b] for b in sorted(least, reverse=True) if b]
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
    for a, b in anticommuting_pairs(words):
        raise ValueError(f"members {a} and {b} do not commute")
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
        """Bit j of entry i is set iff projectors i and j are orthogonal.

        Two projectors are orthogonal iff some element common to their
        groups has opposite signs in them (``orthogonal``).  The product
        of their two signs is multiplicative on the intersection of the
        groups, so it is -1 somewhere iff it is -1 on a basis of the
        intersection.  So the projectors are grouped by their unsigned
        group, read off their own elements, and for each pair of groups
        each side is bucketed by its signs on such a basis: a projector
        is orthogonal to exactly the other side's projectors outside its
        bucket.  Within one group that leaves every other projector.
        """
        groups: Dict[Tuple[Tuple[int, int], ...], int] = {}
        for i, p in enumerate(self.projectors):
            keys = tuple(map(itemgetter(0), p.elements))
            groups[keys] = groups.get(keys, 0) | 1 << i
        # each group as its elements' positions and its projectors
        sides = [
            ({key: pos for pos, key in enumerate(keys)}, members)
            for keys, members in groups.items()
        ]
        rows = [0] * len(self.projectors)
        for a, (g_at, g_members) in enumerate(sides):
            for b in range(a, len(sides)):
                h_at, h_members = sides[b]
                basis = _independent(g_at.keys() & h_at.keys(), self.n)
                if not basis:
                    # only the identity is shared, and it has sign +1
                    continue
                g_buckets = _buckets(self.projectors, g_at, g_members, basis)
                h_buckets = (
                    g_buckets if b == a
                    else _buckets(self.projectors, h_at, h_members, basis)
                )
                _join(rows, g_buckets, h_members, h_buckets)
                if b != a:
                    _join(rows, h_buckets, g_members, g_buckets)
        return tuple(rows)


def _buckets(
    projectors: Sequence[StabilizerProjector],
    at: Dict[Tuple[int, int], int],
    members: int,
    basis: List[Tuple[int, int]],
) -> Dict[int, int]:
    """The projectors of ``members``, whose elements sit at the positions
    ``at`` gives, as bitsets by their signature: bit k set iff the element
    basis[k] has sign -1."""
    where = [at[key] for key in basis]
    buckets: Dict[int, int] = {}
    while members:
        low = members & -members
        members ^= low
        elements = projectors[low.bit_length() - 1].elements
        signature = sum(
            1 << k for k, pos in enumerate(where) if elements[pos][1] < 0
        )
        buckets[signature] = buckets.get(signature, 0) | low
    return buckets


def _join(
    rows: List[int],
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
            rows[low.bit_length() - 1] |= far


def _independent(
    keys: Iterable[Tuple[int, int]], n: int
) -> List[Tuple[int, int]]:
    """A basis of the group whose elements are ``keys``, as a list of its
    elements: each, in sorted order, that is independent of those before."""
    leads: Dict[int, int] = {}
    basis = []
    for x, z in sorted(keys):
        row = x << n | z
        while row and row.bit_length() in leads:
            row ^= leads[row.bit_length()]
        if row:
            leads[row.bit_length()] = row
            basis.append((x, z))
    return basis


def projectors_of(sys: ContextSystem) -> ProjectorPool:
    """One projector per consistent sign assignment of each context, read
    off its one group: pattern p negates the independent members whose
    bits it holds, the ``itertools.product((1, -1))`` order."""
    by_key: Dict[tuple, int] = {}
    projectors: List[StabilizerProjector] = []
    families: List[Tuple[int, ...]] = []
    for ci, ctx in enumerate(sys.contexts):
        for violation in commutation_violations(sys, ci):
            raise ValueError(violation)
        group = _signed_group(sys.context_words(ctx))
        if len(group) == 1:
            raise ValueError(
                f"context {ci}: every member is the identity, so it has "
                "no sign pattern to take a projector of"
            )
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
