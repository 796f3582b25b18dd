"""Exhaustive reference versions of the GHZ-path kernels, for tests only.

Each function is the plain loop that the library replaced with a closed
form or a bitmask search; the tests require the library to agree with it.
"""

import itertools
from typing import Optional, Sequence, Tuple

import numpy as np

from census_oracles import enumerate_span
from ksparity import gf2
from ksparity.pauli import commutes, product_of
from ksparity.states import BELL_VECTORS
from ksparity.systems import ContextSystem, word_slots


def count_ghz_assignments(
    sys: ContextSystem, eigenvalues: Sequence[int]
) -> Tuple[int, int]:
    """(satisfying, total) by trying every +-1 assignment to the slots."""
    (ctx,) = sys.contexts
    slots = sorted(
        {s for m in ctx.members for s in word_slots(sys.observables[m])}
    )
    index = {s: i for i, s in enumerate(slots)}
    row_masks = []
    for m in ctx.members:
        mask = 0
        for s in word_slots(sys.observables[m]):
            mask ^= 1 << index[s]
        row_masks.append(mask)
    targets = [0 if e == 1 else 1 for e in eigenvalues]
    total = 1 << len(slots)
    satisfying = 0
    for assignment in range(total):
        if all(
            (assignment & mask).bit_count() % 2 == t
            for mask, t in zip(row_masks, targets)
        ):
            satisfying += 1
    return satisfying, total


def bell_product_vector(
    n: int,
    bell_factors: Sequence[Tuple[int, int, str]],
    computational: Sequence[Tuple[int, int]] = (),
) -> np.ndarray:
    """Product of Bell pairs and computational bits, one term at a time."""
    vec = np.zeros(1 << n, dtype=complex)
    for bits in itertools.product((0, 1), repeat=2 * len(bell_factors)):
        amp = 1.0 + 0j
        index = 0
        for (qa, qb, label), (ba, bb) in zip(
            bell_factors, zip(bits[::2], bits[1::2])
        ):
            amp *= BELL_VECTORS[label][2 * ba + bb]
            index |= ba << (n - qa)
            index |= bb << (n - qb)
        if amp == 0:
            continue
        for q, b in computational:
            index |= b << (n - q)
        vec[index] += amp
    return vec


def find_proper_subproof(
    sys: ContextSystem,
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Witness search on explicitly restricted words and slot lists."""
    (ctx,) = sys.contexts
    words = sys.context_words(ctx)
    nrows = len(words)
    full_cols = tuple(range(sys.n))
    for bits in range(1, 1 << sys.n):
        cols = tuple(p for p in range(sys.n) if bits & (1 << p))
        restricted = [w.restricted(cols) for w in words]
        alive = [i for i, w in enumerate(restricted) if not w.is_identity_letters]
        if len(alive) < 2:
            continue
        slots = sorted({s for i in alive for s in word_slots(restricted[i])})
        index = {s: i for i, s in enumerate(slots)}
        width = len(slots)
        rows_bits = []
        for i in alive:
            row = 0
            for s in word_slots(restricted[i]):
                row ^= 1 << index[s]
            rows_bits.append(row)
        kernel = gf2.left_nullspace(rows_bits, width)
        if not kernel:
            continue
        for vec in enumerate_span(kernel):
            if vec == 0:
                continue
            chosen = [alive[i] for i in gf2.bits(vec)]
            if cols == full_cols and len(chosen) == nrows:
                continue
            sub = [restricted[i] for i in chosen]
            if len({(w.x, w.z) for w in sub}) != len(sub):
                continue
            if any(
                not commutes(a, b) for a, b in itertools.combinations(sub, 2)
            ):
                continue
            prod = product_of(sub)
            if prod.sigma % 2 == 0 and prod.sign == -1:
                return cols, tuple(chosen)
    return None
