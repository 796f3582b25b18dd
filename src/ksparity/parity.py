"""Basis tables and parity proofs over a projector pool.

Bases are exact covers of the identity: mutually orthogonal projectors
whose ranks sum to 2^n.  A parity proof is an odd subset of the bases in
which every projector occurs an even number of times.  A proof is critical
when it stops being a proof as soon as any single basis is dropped, i.e.
the remaining bases admit a 0/1 value assignment giving each basis exactly
one value-1 projector.  A weaker subset-based notion (no smaller parity
proof inside) is also computed and any divergence is reported.

The census walks the kernel span in numpy blocks, filters each block by
the subset test and by the assignments found so far, and searches only
the drops left open.  It holds every set of bases as a bitset with bit
j = basis j; the walk yields each block both as coefficients over the
kernel's echelon basis, which the subset test reads, and as those basis
sets.  Conjugating by a Pauli operator permutes the projectors and maps
bases to bases, so a failed search also decides the drop sets of its
images under the table's Pauli automorphisms, read off the group of the
pool's own Pauli permutations.  The symbols, projector counts and basis
ids of a block's proofs are tallied in numpy at once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import gf2
from .projectors import ProjectorPool

BASIS_CAP_DEFAULT = 100_000
KERNEL_CAP_DEFAULT = 26
# The census carries each kernel vector as its coefficients over the
# kernel basis in one uint64 lane, so kernel_cap stays below the lane's
# 64 bits.
KERNEL_CAP_MAX = 63
# Most bases the direct subset scan takes: it walks all 2^nb subsets.
BRUTE_FORCE_BASES = 20
# The census filters 2^_SPAN_BLOCK_BITS kernel vectors at a time, and its
# cover prefilter tests at most _COVER_TILE survivor x cover limbs at a
# time; together they keep its numpy temporaries to about a megabyte.
_SPAN_BLOCK_BITS = 12
_COVER_TILE = 1 << 13


@dataclass(frozen=True)
class Basis:
    projector_ids: Tuple[int, ...]
    kind: str  # "pure" | "hybrid"

    @property
    def size(self) -> int:
        return len(self.projector_ids)

    @cached_property
    def mask(self) -> int:
        """The projector ids as a bitset (bit p = projector p)."""
        return sum(1 << p for p in self.projector_ids)


@dataclass(frozen=True)
class BasisTable:
    pool: ProjectorPool
    bases: Tuple[Basis, ...]
    partial: bool = False

    @property
    def n(self) -> int:
        return self.pool.n

    def pure_count(self) -> int:
        return sum(1 for b in self.bases if b.kind == "pure")

    def hybrid_count(self) -> int:
        return sum(1 for b in self.bases if b.kind == "hybrid")

    def incidence_rows(self) -> List[int]:
        """Projector-by-basis GF(2) matrix as int rows (bit j = basis j)."""
        rows = [0] * len(self.pool.projectors)
        for j, basis in enumerate(self.bases):
            for pid in basis.projector_ids:
                rows[pid] |= 1 << j
        return rows

    @cached_property
    def _tally(self) -> "_ProofTally":
        """The one symbol tally of this table, for ``proof_symbol`` and
        the census alike."""
        return _ProofTally(self)


def enumerate_bases(
    pool: ProjectorPool, cap: int = BASIS_CAP_DEFAULT
) -> BasisTable:
    """All sets of mutually orthogonal projectors with rank-sum 2^n.

    Exact-cover backtracking over the orthogonality graph in canonical
    projector order, on an explicit stack, so that a basis may hold any
    number of projectors; exceeding ``cap`` bases flags the table as
    partial.  A branch stops as soon as the rank it could still add falls
    short of 2^n.
    """
    projs = pool.projectors
    count = len(projs)
    target = 1 << pool.n
    order = sorted(range(count), key=lambda i: projs[i].key)
    # tails[pos][k]: the projectors of the k-th rank class at order
    # positions pos.. as a bit mask, so that a branch can count the rank
    # it may still reach with one popcount per class
    ranks = sorted({p.rank for p in projs})
    tails = [[0] * len(ranks) for _ in range(count + 1)]
    for pos in range(count - 1, -1, -1):
        i = order[pos]
        tails[pos] = list(tails[pos + 1])
        tails[pos][ranks.index(projs[i].rank)] |= 1 << i
    compat = pool.orthogonality
    pure_families = {frozenset(fam) for fam in pool.context_families}

    def branch(rank_sum: int, allowed: int, start: int) -> List[int]:
        """A branch's frame: its rank sum, allowed projectors, next order
        position and the rank sum plus the rank of every allowed projector
        from that position on."""
        return [rank_sum, allowed, start, rank_sum + sum(
            r * (allowed & tail).bit_count()
            for r, tail in zip(ranks, tails[start])
        )]

    found: List[Tuple[int, ...]] = []
    partial = False
    chosen: List[int] = []
    frames = [branch(0, (1 << count) - 1, 0)]
    while frames:
        frame = frames[-1]
        rank_sum, allowed, pos, reach = frame
        while pos < count and not (allowed >> order[pos]) & 1:
            pos += 1
        if pos == count or reach < target:
            frames.pop()
            if chosen:  # the root frame chose nothing
                chosen.pop()
            continue
        i = order[pos]
        r = projs[i].rank
        frame[2:] = pos + 1, reach - r
        if rank_sum + r < target:
            chosen.append(i)
            frames.append(branch(rank_sum + r, allowed & compat[i], pos + 1))
        elif rank_sum + r == target:
            if len(found) >= cap:
                partial = True
                break
            found.append(tuple(sorted(chosen + [i])))
    bases = tuple(
        Basis(ids, "pure" if frozenset(ids) in pure_families else "hybrid")
        for ids in sorted(found)
    )
    return BasisTable(pool, bases, partial=partial)


def is_saturated(table: BasisTable) -> bool:
    """Every orthogonal projector pair co-occurs in at least one basis."""
    together = [0] * len(table.pool)
    for basis in table.bases:
        for p in basis.projector_ids:
            together[p] |= basis.mask
    return all(
        not orth & ~both
        for orth, both in zip(table.pool.orthogonality, together)
    )


# ---------------------------------------------------------------------------
# parity proofs


@dataclass(frozen=True)
class ParityProof:
    basis_ids: Tuple[int, ...]
    symbol: str
    symbol_ascii: str
    num_projectors: int

    @property
    def num_bases(self) -> int:
        return len(self.basis_ids)


@dataclass
class ProofCensus:
    """The critical proofs in walk order, and what the walk counted.

    ``total``, ``symbol_counts`` and ``basis_count_histogram`` are read off
    ``proofs`` at first use; each counter's keys come in the order the
    walk first met them.
    """

    proofs: List[ParityProof]
    kernel_dimension: int
    partial: bool = False
    subset_critical_total: int = 0
    # exact-one searches the drop-one test ran, and the drops it answered
    # from the table's Pauli images of failed searches instead; neither is
    # part of any payload
    searches: int = 0
    shared_failures: int = 0

    @cached_property
    def total(self) -> int:
        return len(self.proofs)

    @cached_property
    def symbol_counts(self) -> Dict[str, int]:
        return Counter(p.symbol for p in self.proofs)

    @cached_property
    def basis_count_histogram(self) -> Dict[int, int]:
        return Counter(p.num_bases for p in self.proofs)

    def smallest(self) -> Optional[ParityProof]:
        if not self.proofs:
            return None
        return min(
            self.proofs,
            key=lambda p: (p.num_projectors, p.num_bases, p.basis_ids),
        )

    def summary_dict(self, table: BasisTable) -> dict:
        report = two_power_h_report(table, self)
        return {
            "total": self.total,
            "types": [
                {"symbol": sym, "count": cnt}
                for sym, cnt in sorted(self.symbol_counts.items())
            ],
            "basis_count_histogram": {
                str(k): v for k, v in sorted(self.basis_count_histogram.items())
            },
            "kernel_dimension": self.kernel_dimension,
            "subset_critical_total": self.subset_critical_total,
            "criticality_divergence": self.subset_critical_total != self.total,
            "partial": self.partial,
            "H": report["H"],
            "two_power_H_holds": report["holds"],
        }


_SUP = str.maketrans("0123456789", "⁰¹²³⁴⁵⁶⁷⁸⁹")
_SUB = str.maketrans("0123456789", "₀₁₂₃₄₅₆₇₈₉")


def render_symbol(
    classes: Dict[Tuple[int, int], int], sizes: Dict[int, int]
) -> Tuple[str, str]:
    """Format (rank, multiplicity) -> count classes and basis-size counts.

    Returns the (utf8, ascii) forms, e.g. ("12²₂12⁴₂−4₄4₆1₈",
    "12^2_2 12^4_2 - 4_4 4_6 1_8").
    """
    left_u = "".join(
        f"{cnt}{str(rank).translate(_SUP)}{str(m).translate(_SUB)}"
        for (rank, m), cnt in sorted(classes.items())
    )
    left_a = " ".join(
        f"{cnt}^{rank}_{m}" for (rank, m), cnt in sorted(classes.items())
    )
    right_u = "".join(
        f"{cnt}{str(size).translate(_SUB)}" for size, cnt in sorted(sizes.items())
    )
    right_a = " ".join(f"{cnt}_{size}" for size, cnt in sorted(sizes.items()))
    return left_u + "−" + right_u, left_a + " - " + right_a


def proof_symbol(
    basis_ids: Sequence[int], table: BasisTable
) -> Tuple[str, str]:
    """(utf8, ascii) symbol: projector rank/multiplicity classes - basis sizes.

    A basis listed twice counts twice.
    """
    counts = np.bincount(
        np.asarray(basis_ids, dtype=np.intp), minlength=len(table.bases)
    )
    symbols, _ = table._tally.tally(counts[None, :], len(basis_ids))
    return symbols[0]


class _ProofTally:
    """Symbols and projector counts of many basis selections at once.

    A selection is a row of how often each basis is picked.  Its product
    with the basis x projector incidence gives every projector's
    multiplicity m; the code rank_index * width + m of each projector,
    binned per row by one ``np.bincount`` over row offsets, gives the
    (rank, multiplicity) class counts, and one more product the
    basis-size counts.  The code width is one more than the largest
    multiplicity asked for so far, so keys from different calls compare;
    a call that may reach a larger one widens the codes and forgets the
    keys of the narrower width.  Each distinct key is rendered once.
    """

    def __init__(self, table: BasisTable):
        bases = table.bases
        ranks = [p.rank for p in table.pool.projectors]
        sizes = [b.size for b in bases]
        self.ranks = sorted(set(ranks))
        self.sizes = sorted(set(sizes))
        nb = len(bases)
        self.incidence = np.zeros((nb, len(ranks)), dtype=np.uint8)
        self.incidence[
            [j for j, size in enumerate(sizes) for _ in range(size)],
            [p for b in bases for p in b.projector_ids],
        ] = 1
        self.size_columns = np.zeros((nb, len(self.sizes)), dtype=np.uint8)
        size_index = {size: i for i, size in enumerate(self.sizes)}
        self.size_columns[range(nb), [size_index[s] for s in sizes]] = 1
        rank_index = {rank: i for i, rank in enumerate(self.ranks)}
        self.rank_positions = np.array(
            [rank_index[r] for r in ranks], dtype=np.intp
        )
        self.width = 0

    def _fit(self, most: int) -> None:
        """Make room for multiplicities and size counts up to ``most``."""
        if most < self.width:
            return
        self.width = most + 1
        self.per_row = len(self.ranks) * self.width
        self.dtype = np.min_scalar_type(most)
        self.incidence = self.incidence.astype(self.dtype)
        self.size_columns = self.size_columns.astype(self.dtype)
        self.rank_codes = self.rank_positions * self.width
        self.rendered: Dict[bytes, Tuple[str, str]] = {}

    def tally(
        self, selections: np.ndarray, most: int
    ) -> Tuple[List[Tuple[str, str]], List[int]]:
        """Each selection's (utf8, ascii) symbol and number of projectors;
        ``most`` bounds every selection's total."""
        self._fit(most)
        rows = len(selections)
        selections = selections.astype(self.dtype, copy=False)
        mult = selections @ self.incidence
        codes = mult + self.rank_codes
        codes += np.arange(rows, dtype=np.intp)[:, None] * self.per_row
        classes = np.bincount(
            codes.ravel(), minlength=rows * self.per_row
        ).reshape(rows, self.per_row)
        # the projectors a selection misses form no class
        classes[:, ::self.width] = 0
        keys = np.concatenate(
            [classes, selections @ self.size_columns], axis=1, dtype=np.int64
        )
        raw = keys.tobytes()
        step = keys.shape[1] * 8
        symbols = []
        for i in range(rows):
            key = raw[i * step:(i + 1) * step]
            rendered = self.rendered.get(key)
            if rendered is None:
                rendered = self.rendered[key] = self._render(keys[i])
            symbols.append(rendered)
        return symbols, np.count_nonzero(mult, axis=1).tolist()

    def _render(self, key: np.ndarray) -> Tuple[str, str]:
        classes, sizes = key[:self.per_row], key[self.per_row:]
        return render_symbol(
            {
                (self.ranks[code // self.width], code % self.width): count
                for code, count in enumerate(classes.tolist()) if count
            },
            {
                size: count
                for size, count in zip(self.sizes, sizes.tolist()) if count
            },
        )


def satisfying_assignment(
    basis_ids: Sequence[int], table: BasisTable
) -> Optional[int]:
    """A 0/1 assignment giving every listed basis exactly one value-1
    projector, as the bitset of its value-1 projectors; None if none exists.

    Exact-one search on projector bitmasks that always branches on the
    open basis with the fewest live candidates (Knuth's Dancing Links
    heuristic).  A set of bases that admits such an assignment no longer
    proves anything.
    """
    bases = table.bases
    return _exact_one([bases[j].mask for j in basis_ids], 0, 0)


def _exact_one(open_masks: List[int], zeros: int, ones: int) -> Optional[int]:
    """Exact-one search over the open bases given the projectors set to 0
    and to 1; returns the value-1 projectors of a solution, or None.

    Setting a projector to 1 closes every open basis that contains it and
    sets the rest of those bases to 0; an open basis with no live
    candidate left fails.
    """
    best = 0
    fewest = None
    free = ~zeros
    for mask in open_masks:
        live = mask & free
        count = live.bit_count()
        if count == 0:
            return None
        if fewest is None or count < fewest:
            best, fewest = live, count
            if count == 1:
                # a forced choice; a basis with no candidate left is
                # caught one level down
                break
    if fewest is None:
        return ones
    while best:
        one = best & -best
        best ^= one
        closed = 0
        rest = []
        for mask in open_masks:
            if mask & one:
                closed |= mask
            else:
                rest.append(mask)
        found = _exact_one(rest, zeros | (closed ^ one), ones | one)
        if found is not None:
            return found
        # the branching basis takes one of its other candidates, so this
        # projector is 0 from here on
        zeros |= one
    return None


def _drops_satisfiable(
    vec: int,
    undecided: int,
    table: BasisTable,
    covers: List[int],
    start: int,
    failed: "_FailedDrops",
) -> bool:
    """Does dropping any single basis of vec leave a satisfiable set?

    vec is a bitset of basis ids.  A cover is the set of the table's bases
    that one found assignment holds exactly once; a cover missing at most
    one basis of vec proves that drop satisfiable.  ``undecided`` holds
    the drops of vec that ``covers[:start]`` leave open (see
    ``_cover_undecided``); the covers from ``start`` on are scanned here.
    Only the drops no cover decides are searched, and each witness found
    adds its cover to ``covers``, which must hold covers of real
    assignments of this table only.  A drop that ``failed`` already holds is unsatisfiable without a
    search; a search that fails adds its drop to ``failed``.  The drop of
    the highest basis id is searched first.
    """
    bases = table.bases
    for cover in covers[start:]:
        miss = vec & ~cover
        if not miss & (miss - 1):
            # a cover with no miss at all satisfies vec itself, and so
            # every drop of it
            undecided &= ~miss if miss else 0
            if not undecided:
                return True
    while undecided:
        drop = 1 << (undecided.bit_length() - 1)
        rest = vec ^ drop
        if rest in failed.known:
            failed.shared += 1
            return False
        failed.searches += 1
        ones = satisfying_assignment(gf2.bits(rest), table)
        if ones is None:
            failed.add(rest)
            return False
        cover = sum(
            1 << j for j, basis in enumerate(bases)
            if (basis.mask & ones).bit_count() == 1
        )
        covers.append(cover)
        undecided &= ~drop if vec & ~cover else 0
    return True


def is_critical(basis_ids: Sequence[int], table: BasisTable) -> bool:
    """Dropping any single basis must leave a satisfiable configuration."""
    vec = sum(1 << j for j in set(basis_ids))
    return _drops_satisfiable(vec, vec, table, [], 0, _FailedDrops(lambda: ()))


# Most elements of the group of projector permutations that the census
# builds before it gives up sharing failed drops: a pool on n qubits has
# up to 4^n Pauli images.
_AUTOMORPHISM_CAP = 1 << 10


def _pauli_automorphisms(table: BasisTable) -> List[Tuple[int, ...]]:
    """The basis permutations of the table induced by Pauli operators,
    identity first; perm[j] is the image of basis j.

    Conjugating by X^px Z^pz flips the sign of every stabilizer element it
    anticommutes with, which permutes the pool's projectors and maps
    bases to bases.  The permutations of the 2n single-qubit X and Z
    operators commute and are their own inverses, so the group they
    generate grows by doubling: each generator not in it yet composed with
    every element so far.  An element is kept if it maps every basis of
    this table onto a basis of this table (on a sub-table, its
    stabilizer).  An assignment for a set of bases maps to one for its
    image, so the image of an unsatisfiable set is unsatisfiable.  If a
    generator maps some projector out of the pool, or the group passes
    _AUTOMORPHISM_CAP, only the identity is returned.
    """
    nb = len(table.bases)
    identity = [tuple(range(nb))]
    projs = table.pool.projectors
    index = {p.key: i for i, p in enumerate(projs)}
    where = {frozenset(b.projector_ids): j for j, b in enumerate(table.bases)}
    if len(index) != len(projs) or len(where) != nb:
        return identity
    group = {tuple(range(len(projs)))}
    for q in range(table.n):
        for px, pz in ((1 << q, 0), (0, 1 << q)):
            image = tuple(
                index.get(tuple(
                    ((x, z), -sign if ((x & pz) ^ (z & px)).bit_count() & 1
                     else sign)
                    for (x, z), sign in p.elements
                ))
                for p in projs
            )
            if None in image:
                return identity
            if image in group:
                continue
            if 2 * len(group) > _AUTOMORPHISM_CAP:
                return identity
            group |= {tuple(image[i] for i in h) for h in group}
    perms = {
        tuple(
            where.get(frozenset(h[p] for p in b.projector_ids))
            for b in table.bases
        )
        for h in group
    }
    return sorted(perm for perm in perms if None not in perm)


class _FailedDrops:
    """Drop sets found unsatisfiable, as bitsets of basis ids, with their
    images under the table's automorphisms, and how many drops were
    searched and how many answered from the set.

    ``group`` returns the automorphisms; it is called at the first
    ``add``, so a census whose searches all succeed never builds them.
    An image is built by byte tables: table k of a permutation maps byte
    k of a bitset to the image of the bases it holds.
    """

    def __init__(self, group: Callable[[], Sequence[Tuple[int, ...]]]):
        self.known: set = set()
        self.searches = 0
        self.shared = 0
        self._group = group

    @cached_property
    def _tables(self) -> List[List[List[int]]]:
        out = []
        for perm in self._group():
            nb = len(perm)
            if tuple(perm) == tuple(range(nb)):
                continue
            tables = []
            for low in range(0, nb, 8):
                byte_table = [0]
                for j in range(low, min(low + 8, nb)):
                    byte_table += [t | 1 << perm[j] for t in byte_table]
                tables.append(byte_table)
            out.append(tables)
        return out

    def add(self, rest: int) -> None:
        self.known.add(rest)
        for tables in self._tables:
            image = 0
            for k, byte_table in enumerate(tables):
                image |= byte_table[rest >> 8 * k & 0xFF]
            self.known.add(image)


def kernel_parity_sets(table: BasisTable) -> List[Tuple[int, ...]]:
    """Every odd basis subset with even incidence, as basis-id tuples.

    These are the odd vectors of the GF(2) incidence kernel, in the
    census's Gray-code order (``_span_blocks``): step g reaches the sum of
    the kernel basis vectors picked by gray(g) = g ^ (g >> 1).
    """
    nb = len(table.bases)
    kernel, echelon, odd_rows, _ = _incidence_kernel(table)
    sets: List[Tuple[int, ...]] = []
    for coefs, vecs in _span_blocks(kernel, echelon, nb):
        odd = np.bitwise_count(coefs & np.uint64(odd_rows)) & 1 == 1
        sets += _selection_ids(_selections(vecs[odd], nb))
    return sets


def _incidence_kernel(
    table: BasisTable,
) -> Tuple[List[int], List[int], int, List[int]]:
    """(kernel, echelon, odd_rows, columns): the table's GF(2) incidence
    kernel in the bits of ``incidence_rows``, its reduced row echelon
    form, and what the subset test reads off the echelon rows."""
    nb = len(table.bases)
    kernel = gf2.nullspace(table.incidence_rows(), nb)
    echelon, _ = gf2.rref(kernel, nb)
    return (kernel, echelon) + _coefficient_columns(echelon, nb)


def _selections(rows: np.ndarray, nb: int) -> np.ndarray:
    """Rows of limbs (bit j = basis j) as 0/1 rows over the nb bases."""
    bits = np.unpackbits(
        rows.astype("<u8").view(np.uint8), axis=1, bitorder="little"
    )
    return bits[:, :nb]


def _selection_ids(selections: np.ndarray) -> List[Tuple[int, ...]]:
    """The basis ids each 0/1 selection row picks, ascending."""
    _, ids = np.nonzero(selections)
    ends = np.cumsum(np.count_nonzero(selections, axis=1)).tolist()
    ids = ids.tolist()
    return [tuple(ids[a:b]) for a, b in zip([0] + ends, ends)]


def _to_limbs(values: Sequence[int], limbs: int) -> np.ndarray:
    """Int bitsets as rows of 64-bit limbs, lowest limb first."""
    return np.array(
        [[v >> (64 * k) & 0xFFFF_FFFF_FFFF_FFFF for k in range(limbs)]
         for v in values],
        dtype=np.uint64,
    ).reshape(len(values), limbs)


def _from_limbs(rows: np.ndarray) -> List[int]:
    """Rows of 64-bit limbs back to int bitsets."""
    values = rows[:, 0].tolist()
    for k in range(1, rows.shape[1]):
        highs = rows[:, k].tolist()
        values = [v | high << (64 * k) for v, high in zip(values, highs)]
    return values


def _span_blocks(
    kernel: List[int], echelon: List[int], nb: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The span of ``kernel`` in Gray-code order, in blocks of at most
    2^_SPAN_BLOCK_BITS vectors, each block twice: as coefficient vectors
    over the ``echelon`` rows (bit i = row i) and as rows of basis-set
    limbs (bit j = basis j).

    Step g of the walk, from 0, reaches the sum of the kernel vectors
    picked by gray(g) = g ^ (g >> 1), so each step adds one kernel vector.
    A kernel vector's coefficients are its bits at the echelon pivots,
    each row's lowest bit; the walk carries them in one limb after the
    basis set, so that one XOR moves both.  With g = h * 2^s + l and
    l < 2^s, gray(g) is gray(l) ^ gray(h * 2^s), so every block is the
    first one XOR a constant.  An empty kernel gives one block, of the
    zero vector.
    """
    limbs = max(1, -(-nb // 64))
    pivots = [row & -row for row in echelon]
    rows = [
        vec | sum(1 << i for i, p in enumerate(pivots) if vec & p) << 64 * limbs
        for vec in kernel
    ]
    low_bits = min(len(rows), _SPAN_BLOCK_BITS)
    # one column per vector, so that a block's offset is XORed into each
    # limb's whole row (numpy is slow over a short inner axis)
    low = np.zeros((limbs + 1, 1), dtype=np.uint64)
    for row in _to_limbs(rows[:low_bits], limbs + 1):
        # reflected Gray code: the walk so far, then back with one more vector
        low = np.concatenate([low, low[:, ::-1] ^ row[:, None]], axis=1)
    for h in range(1 << (len(rows) - low_bits)):
        g = h << low_bits
        picked = g ^ g >> 1
        offset = 0
        for i, row in enumerate(rows):
            if picked >> i & 1:
                offset ^= row
        block = low ^ _to_limbs([offset], limbs + 1).T
        yield block[limbs], block[:limbs].T


def _coefficient_columns(echelon: List[int], nb: int) -> Tuple[int, List[int]]:
    """(odd_rows, columns) of a kernel basis in reduced row echelon form.

    For a kernel vector with coefficients c over the rows (bit i = row
    i), basis j is in the vector iff col_j & c has odd weight, col_j being
    the rows that hold basis j.  ``odd_rows`` is the rows of odd weight,
    so the vector is odd iff c & odd_rows is.  ``columns`` is col_j of
    every non-pivot column (no row's lowest bit) that some row holds.
    """
    pivots = sum(row & -row for row in echelon)
    odd_rows = sum(1 << i for i, row in enumerate(echelon) if row.bit_count() % 2)
    columns = []
    for bit in range(nb):
        col = sum(1 << i for i, row in enumerate(echelon) if row >> bit & 1)
        if col and not pivots >> bit & 1:
            columns.append(col)
    return odd_rows, columns


def _subset_survivors(
    coefs: np.ndarray, odd_rows: int, columns: List[int]
) -> np.ndarray:
    """Mask of the kernel vectors, given by coefficients, that are odd and
    hold no other odd kernel vector.

    Masking vec's support out of the echelon rows maps exactly the kernel
    vectors inside vec to zero, so vec survives iff its popcount(c) rows,
    masked, have rank popcount(c) - 1 (they sum to zero, so never more).
    The masked rows are zero on every pivot column, so their rank is that
    of the columns col_j & c for the non-pivot j outside vec, which are
    the ones of even weight.  All lanes reduce their columns at once:
    min(m, m ^ b) clears b's leading bit from m where m has it, and a zero
    b changes nothing.
    """
    odd = np.bitwise_count(coefs & np.uint64(odd_rows)) & 1 == 1
    lanes = coefs[odd]
    rank = np.zeros(len(lanes), dtype=np.uint8)
    reduced: List[np.ndarray] = []
    scratch = np.empty_like(lanes)
    for col in columns:
        m = lanes & np.uint64(col)
        m[np.bitwise_count(m) & 1 == 1] = 0
        for b in reduced:
            np.bitwise_xor(m, b, out=scratch)
            np.minimum(m, scratch, out=m)
        reduced.append(m)
        rank += m != 0
    survives = np.zeros(len(coefs), dtype=bool)
    survives[odd] = rank + 1 == np.bitwise_count(lanes)
    return survives


def _cover_undecided(vecs: np.ndarray, covers: np.ndarray) -> np.ndarray:
    """The drops of each vector that no cover decides, as rows of limbs.

    As in ``_drops_satisfiable``: a cover missing one basis of a vector
    decides that drop, and a cover missing none decides them all.  Each
    numpy pass tests a tile of at most _COVER_TILE vector x cover limbs.
    """
    n, limbs = vecs.shape
    undecided = vecs.copy()
    if not len(covers):
        return undecided
    cover_step = max(1, min(len(covers), _COVER_TILE // limbs))
    vec_step = max(1, _COVER_TILE // (cover_step * limbs))
    for v0 in range(0, n, vec_step):
        vec = vecs[v0:v0 + vec_step, None, :]
        decided = np.zeros((len(vec), limbs), dtype=np.uint64)
        full = np.zeros(len(vec), dtype=bool)
        for c0 in range(0, len(covers), cover_step):
            miss = vec & ~covers[None, c0:c0 + cover_step, :]
            weight = np.bitwise_count(miss).sum(axis=2, dtype=np.uint16)
            full |= (weight == 0).any(axis=1)
            miss[weight != 1] = 0
            decided |= np.bitwise_or.reduce(miss, axis=1)
        block = undecided[v0:v0 + vec_step]
        block &= ~decided
        block[full] = 0
    return undecided


def enumerate_parity_proofs(
    table: BasisTable,
    kernel_cap: int = KERNEL_CAP_DEFAULT,
) -> ProofCensus:
    """Census of critical parity proofs via the GF(2) incidence kernel.

    The kernel span is walked in Gray-code order a block at a time, step
    g reaching the sum of the kernel vectors picked by gray(g) =
    g ^ (g >> 1), as coefficient vectors over its echelon basis and as
    basis sets (``_span_blocks``): the subset filter and the covers found
    before the block are applied to the whole block in numpy, and only the
    drops they leave open are searched, vector by vector.  A drop whose search
    failed, or the image of one under the table's Pauli automorphisms
    (``_pauli_automorphisms``, built at the first failed search), is
    answered from a set at the point where its search would run, so the
    covers, the searches that succeed and their order are those of a
    census without the group.  The block's critical vectors then get
    their symbols, projector counts and basis ids in one ``_ProofTally``
    pass; proofs come in walk order.  ``census.searches`` and
    ``census.shared_failures`` count the searches run and the drops
    answered from the set.  ``kernel_cap`` runs from 0 to KERNEL_CAP_MAX; a
    larger kernel marks the census partial.
    """
    if not 0 <= kernel_cap <= KERNEL_CAP_MAX:
        raise ValueError(
            f"kernel_cap must be 0 to {KERNEL_CAP_MAX}, not {kernel_cap}"
        )
    if table.partial:
        raise ValueError("cannot take a census of a partial basis table")
    nb = len(table.bases)
    kernel, echelon, odd_rows, columns = _incidence_kernel(table)
    if len(kernel) > kernel_cap:
        return ProofCensus([], len(kernel), partial=True)
    limbs = max(1, -(-nb // 64))
    # covers of the assignments found so far (also as limbs), and the
    # drops found unsatisfiable and their images; both live for this
    # census only, while symbol renderings stay with the table's tally
    covers: List[int] = []
    cover_limbs = np.zeros((0, limbs), dtype=np.uint64)
    failed = _FailedDrops(lambda: _pauli_automorphisms(table))
    tally = table._tally
    proofs: List[ParityProof] = []
    subset_critical = 0
    for coefs, vecs in _span_blocks(kernel, echelon, nb):
        # cheap filter first: a proof containing a smaller proof can never
        # survive the drop-one test
        survivors = vecs[_subset_survivors(coefs, odd_rows, columns)]
        subset_critical += len(survivors)
        start = len(covers)
        undecided = _cover_undecided(survivors, cover_limbs)
        critical = np.array([
            _drops_satisfiable(vec, open_drops, table, covers, start, failed)
            for vec, open_drops in zip(
                _from_limbs(survivors), _from_limbs(undecided)
            )
        ], dtype=bool)
        if critical.any():
            selections = _selections(survivors[critical], nb)
            symbols, projectors = tally.tally(selections, nb)
            proofs += [
                ParityProof(ids, sym_u, sym_a, count)
                for ids, (sym_u, sym_a), count in zip(
                    _selection_ids(selections), symbols, projectors
                )
            ]
        cover_limbs = np.concatenate(
            [cover_limbs, _to_limbs(covers[start:], limbs)]
        )
    return ProofCensus(
        proofs=proofs,
        kernel_dimension=len(kernel),
        subset_critical_total=subset_critical,
        searches=failed.searches,
        shared_failures=failed.shared,
    )


def _gray_walk(nb: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(ruler, gray, odd) of the Gray-code walk over the subsets of nb bases.

    Step g (from 1) flips basis ruler(g), the trailing zeros of g, and
    reaches subset gray(g) = g ^ (g >> 1); odd marks the steps that reach
    an odd subset.  Only nb matters, so one walk serves every table of nb
    bases.
    """
    steps = np.arange(1, 1 << nb, dtype=np.uint32)
    gray = steps ^ (steps >> 1)
    ruler = np.bitwise_count((steps & -steps) - 1)
    return ruler, gray, np.bitwise_count(gray) & 1 == 1


def _scan_subsets(
    table: BasisTable, walk: Tuple[np.ndarray, np.ndarray, np.ndarray]
) -> List[Tuple[int, ...]]:
    """Odd even-incidence basis subsets along the table's Gray-code ``walk``.

    The direct subset scan, without ``gf2``: a prefix XOR of the basis
    masks, split into 64-bit limbs, along the walk's ruler sequence gives
    every subset's incidence at once.  It is the kernel route's
    independent oracle; criticality is not filtered here.
    """
    ruler, gray, odd = walk
    nb = len(table.bases)
    limbs = max(1, -(-len(table.pool) // 64))
    masks = _to_limbs([basis.mask for basis in table.bases], limbs)
    incidence = np.bitwise_xor.accumulate(masks[ruler], axis=0)
    hits = gray[~incidence.any(axis=1) & odd]
    return [
        tuple(j for j in range(nb) if subset >> j & 1)
        for subset in hits.tolist()
    ]


def compare_with_brute_force(table: BasisTable) -> Tuple[bool, bool]:
    """Kernel parity sets against the direct subset scan.

    Both run on a window of ``BRUTE_FORCE_BASES`` consecutive bases, where
    the scan is exact: the first window in which the scan finds a parity
    set, so that the kernel has sets to match, or the first window if the
    scan finds none anywhere.  The window is chosen without the kernel, so
    a kernel that misses sets cannot steer the comparison to a window
    where there are none.  Every window has the same number of bases, so
    the scans share one Gray-code walk.  Returns (agrees, truncated);
    truncated means the table had more bases than that.
    """
    nb = len(table.bases)
    windows = [
        BasisTable(table.pool, table.bases[start:start + BRUTE_FORCE_BASES])
        for start in range(max(nb - BRUTE_FORCE_BASES, 0) + 1)
    ]
    walk = _gray_walk(len(windows[0].bases))
    scans = ((w, _scan_subsets(w, walk)) for w in windows)
    window, brute = next(((w, b) for w, b in scans if b), (windows[0], []))
    return (
        set(kernel_parity_sets(window)) == set(brute),
        nb > BRUTE_FORCE_BASES,
    )


def verify_proof(basis_ids: Sequence[int], table: BasisTable) -> bool:
    """Odd basis count and even incidence: the basis masks XOR to zero."""
    if len(basis_ids) % 2 == 0:
        return False
    acc = 0
    for b in basis_ids:
        acc ^= table.bases[b].mask
    return acc == 0


def two_power_h_report(table: BasisTable, census: ProofCensus) -> dict:
    """Whether the census total equals 2^(hybrid count / 2)."""
    hybrids = table.hybrid_count()
    report = {
        "hybrid_bases": hybrids,
        "total_proofs": census.total,
        "H": None,
        "two_power_H": None,
        "holds": None,
    }
    if hybrids % 2 != 0:
        report["note"] = "odd hybrid basis count; H undefined"
        return report
    h = hybrids // 2
    report["H"] = h
    report["two_power_H"] = 1 << h
    report["holds"] = census.total == (1 << h)
    return report
