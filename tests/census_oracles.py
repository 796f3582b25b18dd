"""Reference versions of the census filters and symbols, for tests only.

Each function is the per-vector, dict-based version that the library
replaced with shared assignment covers, batched filters over blocks of
the kernel span, failed drops shared across Pauli images and symbols
tallied per block, the plain loop it replaced with numpy (the span
walked one Gray-code step at a time among them), the exact cover search
that tries every projector in id order, the projector pool with one group
built per sign pattern, or the pair-by-pair saturation test; the tests
require the library to agree with it.
"""

import itertools
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from ksparity import gf2
from ksparity.pauli import PauliWord, product_of
from ksparity.parity import (
    BasisTable,
    ParityProof,
    render_symbol,
    satisfying_assignment,
)
from ksparity.projectors import ProjectorPool, StabilizerProjector, orthogonal
from ksparity.systems import ContextSystem


def proof_multiplicities(
    basis_ids: Sequence[int], table: BasisTable
) -> Dict[int, int]:
    """Projector id -> number of listed bases holding it."""
    mult: Dict[int, int] = {}
    for b in basis_ids:
        for pid in table.bases[b].projector_ids:
            mult[pid] = mult.get(pid, 0) + 1
    return mult


def proof_symbol(
    basis_ids: Sequence[int], table: BasisTable
) -> Tuple[str, str]:
    """(utf8, ascii) symbol from the multiplicity dict."""
    classes: Dict[Tuple[int, int], int] = {}
    for pid, m in proof_multiplicities(basis_ids, table).items():
        rank = table.pool.projectors[pid].rank
        classes[(rank, m)] = classes.get((rank, m), 0) + 1
    sizes: Dict[int, int] = {}
    for b in basis_ids:
        s = table.bases[b].size
        sizes[s] = sizes.get(s, 0) + 1
    return render_symbol(classes, sizes)


def enumerate_span(basis: List[int]) -> Iterator[int]:
    """Every vector in the span of ``basis``, one Gray-code step at a
    time: step g reaches the sum of the vectors picked by
    gray(g) = g ^ (g >> 1), one vector added per step."""
    vec = 0
    yield vec
    for g in range(1, 1 << len(basis)):
        vec ^= basis[(g & -g).bit_length() - 1]
        yield vec


def kernel_parity_sets(table: BasisTable) -> List[Tuple[int, ...]]:
    """Odd kernel vectors as basis-id tuples, one ``enumerate_span`` step
    at a time."""
    nb = len(table.bases)
    kernel = gf2.nullspace(table.incidence_rows(), nb)
    return [
        tuple(gf2.bits(vec))
        for vec in enumerate_span(kernel)
        if vec.bit_count() % 2 == 1
    ]


def pauli_basis_images(table: BasisTable) -> Set[Tuple[int, ...]]:
    """The basis permutations of the table induced by conjugating with
    each of the 4^n Pauli operators X^px Z^pz that maps every basis of the
    table onto a basis of the table, found one operator at a time."""
    projs = table.pool.projectors
    index = {p.key: i for i, p in enumerate(projs)}
    where = {frozenset(b.projector_ids): j for j, b in enumerate(table.bases)}
    images = set()
    for px in range(1 << table.n):
        for pz in range(1 << table.n):
            moved = []
            for p in projs:
                key = []
                for (x, z), s in p.elements:
                    anti = (x & pz).bit_count() + (z & px).bit_count()
                    key.append(((x, z), -s if anti % 2 else s))
                moved.append(index.get(tuple(key)))
            perm = tuple(
                where.get(frozenset(moved[q] for q in b.projector_ids))
                for b in table.bases
            )
            if None not in perm:
                images.add(perm)
    return images


def subset_critical(vec: int, echelon: List[int]) -> bool:
    """No other odd-weight kernel vector has its support inside vec.

    ``echelon`` is the kernel basis in reduced row echelon form, each
    row's pivot its lowest bit.  Masking vec's support out of it maps
    exactly the kernel vectors inside that support to zero, vec among
    them, so the masked basis has rank kdim - 1 iff vec and 0 are the
    only ones.  Any third vector w would give an odd one strictly inside
    vec: w itself if w is odd, w ^ vec if w is even.
    A row whose pivot lies outside vec keeps the only copy of that pivot
    after masking and always adds one to the rank, so only the rows with
    pivots inside vec are eliminated; they must lose exactly one.
    """
    keep = ~vec
    reduced: List[int] = []
    dependent = False
    for row in echelon:
        if not vec & row & -row:
            continue
        row &= keep
        for r in reduced:
            row = min(row, row ^ r)
        if row:
            reduced.append(row)
        elif dependent:
            return False
        else:
            dependent = True
    return True


def cover_undecided(vec: int, covers: Sequence[int]) -> int:
    """The drops of vec that no cover decides, one cover at a time: a
    cover missing one basis of vec decides that drop, one missing none
    decides them all."""
    undecided = vec
    for cover in covers:
        miss = vec & ~cover
        if not miss:
            return 0
        if not miss & (miss - 1):
            undecided &= ~miss
    return undecided


def from_limbs(rows) -> List[int]:
    """Rows of 64-bit limbs, lowest limb first, as int bitsets."""
    return [
        sum(limb << (64 * k) for k, limb in enumerate(row))
        for row in rows.tolist()
    ]


def is_critical(basis_ids: Sequence[int], table: BasisTable) -> bool:
    """One exact-one search per dropped basis."""
    ids = tuple(basis_ids)
    return all(
        satisfying_assignment([j for j in ids if j != drop], table) is not None
        for drop in ids
    )


@dataclass
class Census:
    """What ``enumerate_parity_proofs`` below counts, each count kept on
    its own as the walk goes."""

    kernel_dimension: int
    total: int = 0
    proofs: List[ParityProof] = field(default_factory=list)
    symbol_counts: Dict[str, int] = field(default_factory=dict)
    basis_count_histogram: Dict[int, int] = field(default_factory=dict)
    subset_critical_total: int = 0


def enumerate_parity_proofs(table: BasisTable) -> Census:
    """Census walking ``enumerate_span`` one vector at a time through
    ``subset_critical``, ``is_critical`` and ``proof_symbol`` above, with
    no kernel cap."""
    nb = len(table.bases)
    kernel = gf2.nullspace(table.incidence_rows(), nb)
    census = Census(kernel_dimension=len(kernel))
    echelon, _ = gf2.rref(kernel, nb)
    for vec in enumerate_span(kernel):
        if vec.bit_count() % 2 == 0 or not subset_critical(vec, echelon):
            continue
        census.subset_critical_total += 1
        basis_ids = tuple(gf2.bits(vec))
        if not is_critical(basis_ids, table):
            continue
        sym_u, sym_a = proof_symbol(basis_ids, table)
        num_projectors = len(proof_multiplicities(basis_ids, table))
        census.proofs.append(
            ParityProof(basis_ids, sym_u, sym_a, num_projectors)
        )
        census.total += 1
        census.symbol_counts[sym_u] = census.symbol_counts.get(sym_u, 0) + 1
        census.basis_count_histogram[len(basis_ids)] = (
            census.basis_count_histogram.get(len(basis_ids), 0) + 1
        )
    return census


def brute_force_parity_proofs(table: BasisTable) -> List[Tuple[int, ...]]:
    """Odd even-incidence basis subsets, one Gray-code step at a time."""
    nb = len(table.bases)
    cols = [basis.mask for basis in table.bases]
    found = []
    vec = 0
    for g in range(1, 1 << nb):
        vec ^= cols[(g & -g).bit_length() - 1]
        gray = g ^ (g >> 1)
        if vec == 0 and gray.bit_count() % 2 == 1:
            found.append(tuple(j for j in range(nb) if gray >> j & 1))
    return found


def exact_covers(pool: ProjectorPool) -> List[Tuple[int, ...]]:
    """Every set of mutually orthogonal projectors with rank sum 2^n,
    sorted, from a search that tries each projector in id order and never
    prunes a branch that fits."""
    projs = pool.projectors
    target = 1 << pool.n
    found: List[Tuple[int, ...]] = []

    def grow(chosen: List[int], total: int, start: int) -> None:
        if total == target:
            found.append(tuple(chosen))
            return
        for i in range(start, len(projs)):
            if total + projs[i].rank <= target and all(
                orthogonal(projs[i], projs[j]) for j in chosen
            ):
                grow(chosen + [i], total + projs[i].rank, i + 1)

    grow([], 0, 0)
    return sorted(found)


def msb_first_rref(rows: Sequence[int], width: int) -> List[int]:
    """Reduced row echelon rows of width-bit rows with pivots taken from
    the top bit down: ``gf2.rref`` of the bit-reversed rows, reversed
    back."""

    def turn(row: int) -> int:
        return int(f"{row:0{width}b}"[::-1], 2)

    echelon, _ = gf2.rref([turn(row) for row in rows], width)
    return [turn(row) for row in echelon]


def independent_words(words: Sequence[PauliWord]) -> List[PauliWord]:
    """Each word, in order, that is independent of those kept before."""
    independent: List[PauliWord] = []
    for w in words:
        rows = [(v.x << w.n) | v.z for v in independent + [w]]
        if gf2.rank(rows) > len(independent):
            independent.append(w)
    return independent


def group_signs(signed: Sequence[PauliWord]) -> Dict[Tuple[int, int], int]:
    """(x, z) -> sign of every element of the group that independent
    commuting signed words generate, each the ``product_of`` a subset."""
    signs = {(0, 0): 1}
    for size in range(1, len(signed) + 1):
        for subset in itertools.combinations(signed, size):
            prod = product_of(subset)
            signs[(prod.x, prod.z)] = prod.sign
    return signs


def projectors_of(
    sys: ContextSystem,
) -> Tuple[ProjectorPool, List[Tuple[Tuple[Tuple[int, int], int], ...]]]:
    """The pool with each sign pattern's group built on its own, and each
    projector's element table, ((x, z), sign) by mask: every element is
    the ``product_of`` a subset of the signed independent members
    (``group_signs``), the patterns are deduplicated by that table, and
    the rows are the reduced row echelon rows of those members with
    pivots from the top bit down (``msb_first_rref``), signed as the
    group signs them."""
    n, mask = sys.n, (1 << sys.n) - 1
    by_table: Dict[tuple, int] = {}
    projectors: List[StabilizerProjector] = []
    tables: List[tuple] = []
    families: List[Tuple[int, ...]] = []
    for ctx in sys.contexts:
        independent = independent_words(sys.context_words(ctx))
        family = set()
        for pattern in itertools.product((1, -1), repeat=len(independent)):
            signs = group_signs([w if s == 1 else w.negate()
                                 for w, s in zip(independent, pattern)])
            table = tuple(sorted(signs.items()))
            if table not in by_table:
                rows = [(r >> n, r & mask) for r in msb_first_rref(
                    [(w.x << n) | w.z for w in independent], 2 * n
                )]
                negated = sum(
                    1 << i for i, row in enumerate(rows) if signs[row] < 0
                )
                by_table[table] = len(projectors)
                projectors.append(
                    StabilizerProjector(n, tuple(rows), negated)
                )
                tables.append(table)
            family.add(by_table[table])
        families.append(tuple(sorted(family)))
    return ProjectorPool(n, tuple(projectors), tuple(families)), tables


def is_saturated(table: BasisTable) -> bool:
    """Every orthogonal projector pair co-occurs in at least one basis,
    one ``orthogonal`` call per pair."""
    together = set()
    for basis in table.bases:
        for a, b in itertools.combinations(basis.projector_ids, 2):
            together.add((a, b))
    projs = table.pool.projectors
    for a, b in itertools.combinations(range(len(projs)), 2):
        if orthogonal(projs[a], projs[b]) and (a, b) not in together:
            return False
    return True
