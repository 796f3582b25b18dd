"""Basis tables and parity proofs over a projector pool.

Bases are exact covers of the identity: mutually orthogonal projectors
whose ranks sum to 2^n.  A parity proof is an odd subset of the bases in
which every projector occurs an even number of times.  A proof is critical
when it stops being a proof as soon as any single basis is dropped, i.e.
the remaining bases admit a 0/1 value assignment giving each basis exactly
one value-1 projector.  A weaker subset-based notion (no smaller parity
proof inside) is also computed and any divergence is reported.

The census walks the kernel span in numpy blocks, filters each block by
the subset test, and searches only the drops of a survivor that no
assignment found so far decides.  It holds every set of bases as a
bitset with bit j = basis j; the walk yields each block both as
coefficients over the kernel basis, which the subset test reads, and as
those basis sets.
The direct subset scan that checks the kernel walks a window's basis
masks with the same blocks.  Conjugating by a Pauli operator permutes
the projectors and maps bases to bases, so a failed search also decides
the drop sets of its images under the table's Pauli automorphisms, read
off the group of the pool's own Pauli permutations.  The basis ids of a
block's survivors are read off in numpy once, and the symbols and
projector counts of its proofs are tallied in numpy at once.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from itertools import compress
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
# The census filters 2^_SPAN_BLOCK_BITS kernel vectors at a time, which
# keeps its numpy temporaries to about a megabyte.
_SPAN_BLOCK_BITS = 12


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

    Exact-cover search over the orthogonality graph.  A basis sums to the
    identity, so for every projector q orthogonal to all the projectors
    chosen so far, it holds an allowed projector that is not orthogonal
    to q (q itself, if allowed, among them).  Each node takes the q with
    the fewest such candidates, as Knuth's Dancing Links takes the item
    with the fewest options, and ends the branch if that is none.
    Otherwise it branches on each candidate, lowest id first, and bans it
    from the branches after it, so each basis is found once.  The search
    runs on an explicit stack, so that a basis may hold any number of
    projectors; exceeding ``cap`` bases flags the table as partial, and
    which ``cap`` bases a partial table keeps follows the search order.
    """
    ranks = [p.rank for p in pool.projectors]
    target = 1 << pool.n
    compat = pool.orthogonality
    full = (1 << len(ranks)) - 1
    # overlap[q]: the projectors not orthogonal to q, q itself among them
    overlap = [full & ~row for row in compat]
    pure_families = {frozenset(fam) for fam in pool.context_families}

    def candidates(allowed: int, unmet: int) -> int:
        """The allowed projectors that overlap q, for the q of ``unmet``
        that the fewest of them overlap (the lowest such q)."""
        best, fewest = 0, None
        while unmet:
            low = unmet & -unmet
            unmet ^= low
            live = allowed & overlap[low.bit_length() - 1]
            count = live.bit_count()
            if fewest is None or count < fewest:
                best, fewest = live, count
                if count <= 1:
                    break
        return best

    found: List[Tuple[int, ...]] = []
    partial = False
    chosen: List[int] = []
    # a frame: the rank sum chosen, the allowed projectors, the projectors
    # orthogonal to all chosen (each one a basis must still overlap), and
    # the candidates not yet branched on
    frames = [[0, full, full, candidates(full, full)]]
    while frames:
        frame = frames[-1]
        rank_sum, allowed, unmet, todo = frame
        if not todo:
            frames.pop()
            if chosen:  # the root frame chose nothing
                chosen.pop()
            continue
        low = todo & -todo
        i = low.bit_length() - 1
        frame[1], frame[3] = allowed ^ low, todo ^ low
        total = rank_sum + ranks[i]
        if total == target:
            if len(found) >= cap:
                partial = True
                break
            found.append(tuple(sorted(chosen + [i])))
            continue
        allowed &= compat[i]
        unmet &= compat[i]
        chosen.append(i)
        frames.append([total, allowed, unmet, candidates(allowed, unmet)])
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
    symbols, _ = table._tally.tally(counts[None, :])
    return symbols[0]


class _ProofTally:
    """Symbols and projector counts of many basis selections at once.

    A selection is a row of how often each basis is picked.  Its product
    with the basis x projector incidence gives every projector's
    multiplicity m, and with it the projector's class code
    m * len(ranks) + rank_index.  A selection's key is its row of codes,
    sorted, then its basis-size counts, one more product.  The projectors
    it misses have the codes below len(ranks) and form no class.  The
    pool fixes how many projectors each rank has, so a key fixes the
    (rank, multiplicity) class counts and they fix the key: keys from
    any two calls compare, and each distinct key is rendered once.
    """

    def __init__(self, table: BasisTable):
        bases = table.bases
        ranks = [p.rank for p in table.pool.projectors]
        sizes = [b.size for b in bases]
        self.ranks = sorted(set(ranks))
        self.sizes = sorted(set(sizes))
        nb = len(bases)
        self.incidence = np.zeros((nb, len(ranks)), dtype=np.intp)
        self.incidence[
            [j for j, size in enumerate(sizes) for _ in range(size)],
            [p for b in bases for p in b.projector_ids],
        ] = 1
        self.size_columns = np.zeros((nb, len(self.sizes)), dtype=np.intp)
        size_index = {size: i for i, size in enumerate(self.sizes)}
        self.size_columns[range(nb), [size_index[s] for s in sizes]] = 1
        rank_index = {rank: i for i, rank in enumerate(self.ranks)}
        self.rank_codes = np.array(
            [rank_index[r] for r in ranks], dtype=np.intp
        )
        self.rendered: Dict[bytes, Tuple[str, str]] = {}

    def tally(
        self, selections: np.ndarray
    ) -> Tuple[List[Tuple[str, str]], List[int]]:
        """Each selection's (utf8, ascii) symbol and number of projectors."""
        selections = selections.astype(np.intp, copy=False)
        mult = selections @ self.incidence
        codes = mult * len(self.ranks) + self.rank_codes
        codes.sort(axis=1)
        keys = np.concatenate([codes, selections @ self.size_columns], axis=1)
        raw = keys.tobytes()
        step = keys.shape[1] * keys.itemsize
        symbols = []
        for i in range(len(keys)):
            key = raw[i * step:(i + 1) * step]
            rendered = self.rendered.get(key)
            if rendered is None:
                rendered = self.rendered[key] = self._render(keys[i])
            symbols.append(rendered)
        return symbols, np.count_nonzero(mult, axis=1).tolist()

    def _render(self, key: np.ndarray) -> Tuple[str, str]:
        width, count = len(self.ranks), len(self.rank_codes)
        codes, sizes = key[:count], key[count:]
        return render_symbol(
            Counter(
                (self.ranks[code % width], code // width)
                for code in codes.tolist() if code >= width
            ),
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


class _CoverIndex:
    """The covers found so far, by basis.

    A cover is the set of the table's bases that one found assignment
    holds exactly once.  Bit c of ``holders[j]`` is set iff the c-th cover
    holds basis j, and ``found`` holds a bit for every cover.
    """

    def __init__(self, nb: int):
        self.holders = [0] * nb
        self.found = 0

    def add(self, cover: int) -> None:
        """Index the next cover, a bitset of basis ids."""
        bit = self.found + 1
        for j in gf2.bits(cover):
            self.holders[j] |= bit
        self.found |= bit

    def undecided(self, ids: Sequence[int]) -> List[int]:
        """The drops of ``ids`` that no cover decides, highest first.

        A cover holding every basis of ids but one proves that drop
        satisfiable, and one holding all of them proves every drop so.
        Drop ids[t] is decided iff the AND of the holders of ids[:t] and
        that of ids[t + 1:] share a cover; both start from ``found``, so
        with no cover yet the one drop of a one-basis set stays open.
        """
        holders = self.holders
        prefixes = []
        held = self.found
        for j in ids:
            prefixes.append(held)
            held &= holders[j]
        open_drops = []
        held = self.found
        for j, prefix in zip(reversed(ids), reversed(prefixes)):
            if not prefix & held:
                open_drops.append(j)
            held &= holders[j]
        return open_drops


def _drops_satisfiable(
    ids: Sequence[int],
    table: BasisTable,
    covers: _CoverIndex,
    failed: "_FailedDrops",
) -> bool:
    """Does dropping any single basis of ``ids`` leave a satisfiable set?

    ids are distinct basis ids, ascending.  Only the drops that no cover
    in ``covers`` decides are searched, highest basis id first, and each
    witness found adds its cover to ``covers``, which must hold covers of
    real assignments of this table only.  The witness for a drop holds
    every other basis once, so its cover decides that drop, or every drop
    if it holds the dropped basis too.  A drop that ``failed`` already
    holds is unsatisfiable without a search; a search that fails adds its
    drop to ``failed``.
    """
    bases = table.bases
    for drop in covers.undecided(ids):
        rest = [j for j in ids if j != drop]
        key = sum(1 << j for j in rest)
        if key in failed.known:
            failed.shared += 1
            return False
        failed.searches += 1
        ones = satisfying_assignment(rest, table)
        if ones is None:
            failed.add(key)
            return False
        cover = sum(
            1 << j for j, basis in enumerate(bases)
            if (basis.mask & ones).bit_count() == 1
        )
        covers.add(cover)
        if cover >> drop & 1:
            return True
    return True


def is_critical(basis_ids: Sequence[int], table: BasisTable) -> bool:
    """Dropping any single basis must leave a satisfiable configuration."""
    return _drops_satisfiable(
        sorted(set(basis_ids)), table, _CoverIndex(len(table.bases)),
        _FailedDrops(lambda: ()),
    )


# Most elements of the group of projector permutations that the census
# builds before it gives up sharing failed drops: a pool on n qubits has
# up to 4^n Pauli images.
_AUTOMORPHISM_CAP = 1 << 10


def _pauli_automorphisms(table: BasisTable) -> List[Tuple[int, ...]]:
    """The basis permutations of the table induced by Pauli operators,
    identity first; perm[j] is the image of basis j.

    Conjugating by X^px Z^pz flips the sign of every stabilizer element it
    anticommutes with (``StabilizerProjector.conjugated``), which permutes
    the pool's projectors and maps bases to bases.  The permutations of
    the 2n single-qubit X and Z operators commute and are their own
    inverses, so the group they generate grows by doubling: each
    generator not in it yet composed with every element so far.  An
    element is kept if it maps every basis of this table onto a basis of
    this table (on a sub-table, its stabilizer).  An assignment for a set
    of bases maps to one for its image, so the image of an unsatisfiable
    set is unsatisfiable.  If a generator maps some projector out of the
    pool, or the group passes _AUTOMORPHISM_CAP, only the identity is
    returned.
    """
    nb = len(table.bases)
    identity = [tuple(range(nb))]
    projs = table.pool.projectors
    index = {p: i for i, p in enumerate(projs)}
    where = {frozenset(b.projector_ids): j for j, b in enumerate(table.bases)}
    if len(index) != len(projs) or len(where) != nb:
        return identity
    group = {tuple(range(len(projs)))}
    for q in range(table.n):
        for px, pz in ((1 << q, 0), (0, 1 << q)):
            image = tuple(index.get(p.conjugated(px, pz)) for p in projs)
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
    An image maps each basis j of a drop set to perm[j].
    """

    def __init__(self, group: Callable[[], Sequence[Tuple[int, ...]]]):
        self.known: set = set()
        self.searches = 0
        self.shared = 0
        self._group = group

    @cached_property
    def _perms(self) -> Sequence[Tuple[int, ...]]:
        return self._group()

    def add(self, rest: int) -> None:
        self.known.add(rest)
        held = gf2.bits(rest)
        self.known.update(
            sum(1 << perm[j] for j in held) for perm in self._perms
        )


def kernel_parity_sets(table: BasisTable) -> List[Tuple[int, ...]]:
    """Every odd basis subset with even incidence, as basis-id tuples.

    These are the odd vectors of the GF(2) incidence kernel, in the
    census's Gray-code order (``_span_blocks``): step g reaches the sum of
    the kernel basis vectors picked by gray(g) = g ^ (g >> 1).
    """
    nb = len(table.bases)
    kernel, odd_rows, _ = _incidence_kernel(table)
    sets: List[Tuple[int, ...]] = []
    for coefs, vecs in _span_blocks(kernel, nb):
        odd = np.bitwise_count(coefs & np.uint64(odd_rows)) & 1 == 1
        sets += _selection_ids(_selections(vecs[odd], nb))
    return sets


def _incidence_kernel(table: BasisTable) -> Tuple[List[int], int, List[int]]:
    """(kernel, odd_rows, columns): the table's GF(2) incidence kernel in
    the bits of ``incidence_rows``, and what the subset test reads off its
    rows."""
    nb = len(table.bases)
    kernel = gf2.nullspace(table.incidence_rows(), nb)
    return (kernel,) + _coefficient_columns(kernel, nb)


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


def _span_blocks(
    rows: List[int], width: int
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """The span of ``rows`` in Gray-code order, in blocks of at most
    2^_SPAN_BLOCK_BITS steps, each block twice: as coefficient vectors
    over ``rows`` (bit i = row i), one uint64 lane a step, and as the sums
    they pick, as rows of limbs holding ``width`` bits.

    Step g of the walk, from 0, reaches the sum of the rows picked by
    gray(g) = g ^ (g >> 1), so each step adds one row and gray(g) is its
    coefficient vector.  With g = h * 2^s + l and l < 2^s, gray(g) is
    gray(l) ^ gray(h * 2^s), so every block is the first one XOR a
    constant.  No rows give one block, of the zero vector.  The rows need
    not be independent: the census walks its kernel basis, over the
    bases (bit j = basis j), and the subset scan walks the basis masks,
    over the projectors, so that its coefficient vectors are the subsets.
    """
    limbs = max(1, -(-width // 64))
    low_bits = min(len(rows), _SPAN_BLOCK_BITS)
    steps = np.arange(1 << low_bits, dtype=np.uint64)
    low_gray = steps ^ steps >> np.uint64(1)
    # one column per vector, so that a block's offset is XORed into each
    # limb's whole row (numpy is slow over a short inner axis)
    low = np.zeros((limbs, 1), dtype=np.uint64)
    for row in _to_limbs(rows[:low_bits], limbs):
        # reflected Gray code: the walk so far, then back with one more row
        low = np.concatenate([low, low[:, ::-1] ^ row[:, None]], axis=1)
    for h in range(1 << (len(rows) - low_bits)):
        g = h << low_bits
        picked = g ^ g >> 1
        offset = 0
        for i, row in enumerate(rows):
            if picked >> i & 1:
                offset ^= row
        block = low ^ _to_limbs([offset], limbs).T
        yield low_gray ^ np.uint64(picked), block.T


def _coefficient_columns(kernel: List[int], nb: int) -> Tuple[int, List[int]]:
    """(odd_rows, columns) of a kernel basis as ``gf2.nullspace`` returns it.

    For a kernel vector with coefficients c over the rows (bit i = row
    i), basis j is in the vector iff col_j & c has odd weight, col_j being
    the rows that hold basis j.  ``odd_rows`` is the rows of odd weight,
    so the vector is odd iff c & odd_rows is.  Each row's highest bit is
    its free column, which no other row holds.  ``columns`` is col_j of
    every other column that some row holds.
    """
    free = sum(1 << (row.bit_length() - 1) for row in kernel)
    odd_rows = sum(1 << i for i, row in enumerate(kernel) if row.bit_count() % 2)
    columns = []
    for bit in range(nb):
        col = sum(1 << i for i, row in enumerate(kernel) if row >> bit & 1)
        if col and not free >> bit & 1:
            columns.append(col)
    return odd_rows, columns


def _subset_survivors(
    coefs: np.ndarray, odd_rows: int, columns: List[int]
) -> np.ndarray:
    """Mask of the kernel vectors, given by coefficients, that are odd and
    hold no other odd kernel vector.

    Masking vec's support out of the kernel rows maps exactly the kernel
    vectors inside vec to zero, so vec survives iff its popcount(c) rows,
    masked, have rank popcount(c) - 1 (they sum to zero, so never more).
    Each of those rows holds its own free column, which vec holds too, so
    the masked rows are zero on every free column and their rank is that
    of the columns col_j & c for the other j outside vec, which are the
    ones of even weight.  All lanes reduce their columns at once:
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


def enumerate_parity_proofs(
    table: BasisTable,
    kernel_cap: int = KERNEL_CAP_DEFAULT,
) -> ProofCensus:
    """Census of critical parity proofs via the GF(2) incidence kernel.

    The kernel span is walked in Gray-code order a block at a time, step
    g reaching the sum of the kernel vectors picked by gray(g) =
    g ^ (g >> 1), as coefficient vectors over the kernel basis and as
    basis sets (``_span_blocks``): the subset filter is applied to the
    whole block in numpy, and its survivors' basis ids are read off once.
    Each survivor in turn is tested against every cover found before it
    (``_CoverIndex``), and only the drops they leave open are searched.
    A drop whose search failed, or the image of one under the table's
    Pauli automorphisms (``_pauli_automorphisms``, built at the first
    failed search), is answered from a set at the point where its search
    would run, so the covers, the searches that succeed and their order
    are those of a census without the group.  The block's critical
    vectors then get their symbols and projector counts in one
    ``_ProofTally`` pass; proofs come in walk order.  ``census.searches``
    and ``census.shared_failures`` count the searches run and the drops
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
    kernel, odd_rows, columns = _incidence_kernel(table)
    if len(kernel) > kernel_cap:
        return ProofCensus([], len(kernel), partial=True)
    # the covers of the assignments found so far, and the drops found
    # unsatisfiable and their images; both live for this census only,
    # while symbol renderings stay with the table's tally
    covers = _CoverIndex(nb)
    failed = _FailedDrops(lambda: _pauli_automorphisms(table))
    tally = table._tally
    proofs: List[ParityProof] = []
    subset_critical = 0
    for coefs, vecs in _span_blocks(kernel, nb):
        # cheap filter first: a proof containing a smaller proof can never
        # survive the drop-one test
        selections = _selections(
            vecs[_subset_survivors(coefs, odd_rows, columns)], nb
        )
        subset_critical += len(selections)
        survivors = _selection_ids(selections)
        critical = [_drops_satisfiable(ids, table, covers, failed)
                    for ids in survivors]
        if any(critical):
            symbols, projectors = tally.tally(selections[critical])
            proofs += [
                ParityProof(ids, sym_u, sym_a, count)
                for ids, (sym_u, sym_a), count in zip(
                    compress(survivors, critical), symbols, projectors
                )
            ]
    return ProofCensus(
        proofs=proofs,
        kernel_dimension=len(kernel),
        subset_critical_total=subset_critical,
        searches=failed.searches,
        shared_failures=failed.shared,
    )


def _scan_subsets(table: BasisTable) -> List[Tuple[int, ...]]:
    """Odd even-incidence basis subsets, in the census's Gray-code order.

    The direct subset scan, without ``gf2``: ``_span_blocks`` walks the
    span of the basis masks, so each step's coefficient vector is a subset
    of the bases (bit j = basis j) and its limb row the projectors that
    subset holds an odd number of times.  A block's hits are its odd
    coefficient vectors whose row is zero.  It is the kernel route's
    independent oracle; criticality is not filtered here.
    """
    masks = [basis.mask for basis in table.bases]
    found: List[Tuple[int, ...]] = []
    for coefs, rows in _span_blocks(masks, len(table.pool)):
        hits = coefs[(np.bitwise_count(coefs) & 1 == 1) & ~rows.any(axis=1)]
        if len(hits):
            found += _selection_ids(_selections(hits[:, None], len(masks)))
    return found


def compare_with_brute_force(table: BasisTable) -> Tuple[bool, bool]:
    """Kernel parity sets against the direct subset scan.

    Both run on a window of ``BRUTE_FORCE_BASES`` consecutive bases, where
    the scan is exact: the first window in which the scan finds a parity
    set, so that the kernel has sets to match, or the first window if the
    scan finds none anywhere.  The window is chosen without the kernel, so
    a kernel that misses sets cannot steer the comparison to a window
    where there are none.  Each scan walks its subsets in blocks of
    2^_SPAN_BLOCK_BITS; in process on a 2-core Xeon host the comparison
    takes 63-67 ms on the kite completion (15 windows scanned) and 86-93
    ms on it and the three Mermin squares together.  Returns (agrees,
    truncated); truncated means the table had more bases than that.
    """
    nb = len(table.bases)
    windows = [
        BasisTable(table.pool, table.bases[start:start + BRUTE_FORCE_BASES])
        for start in range(max(nb - BRUTE_FORCE_BASES, 0) + 1)
    ]
    scans = ((w, _scan_subsets(w)) for w in windows)
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
