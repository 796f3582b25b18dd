"""GF(2) linear algebra on int bitsets.

A matrix is a list of Python ints; bit j of row i is entry (i, j).
"""

from __future__ import annotations

from typing import List, Tuple


def rank(rows: List[int]) -> int:
    """Rank over GF(2)."""
    basis: List[int] = []
    for row in rows:
        for b in basis:
            row = min(row, row ^ b)
        if row:
            basis.append(row)
    return len(basis)


def rref(rows: List[int], ncols: int) -> Tuple[List[int], List[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices).

    Columns are indexed from the most significant bit (col 0 = bit ncols-1)
    so that pivots follow reading order of the bitsets.
    """
    work = [r for r in rows]
    out: List[int] = []
    pivots: List[int] = []
    for col in range(ncols):
        bit = 1 << (ncols - 1 - col)
        piv = next((i for i, r in enumerate(work) if r & bit), None)
        if piv is None:
            continue
        row = work.pop(piv)
        out = [r ^ row if r & bit else r for r in out]
        work = [r ^ row if r & bit else r for r in work]
        out.append(row)
        pivots.append(col)
    return out, pivots


def solvable(rows: List[int], rhs: List[int]) -> bool:
    """True iff the system A v = b has a solution over GF(2).

    ``rhs`` is one bit per row.
    """
    aug = [(r << 1) | (b & 1) for r, b in zip(rows, rhs)]
    return rank([r << 1 for r in rows]) == rank(aug)


def nullspace(rows: List[int], ncols: int) -> List[int]:
    """Basis of {v : A v = 0}, one bitset of width ncols per basis vector."""
    red, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    free = [c for c in range(ncols) if c not in pivot_set]
    basis = []
    for f in free:
        vec = 1 << (ncols - 1 - f)
        for row, pc in zip(red, pivots):
            if row & (1 << (ncols - 1 - f)):
                vec |= 1 << (ncols - 1 - pc)
        basis.append(vec)
    return basis


def left_nullspace(rows: List[int], ncols: int) -> List[int]:
    """Basis of {y : y^T A = 0}; each bitset has one bit per row.

    Bit convention: bit (nrows-1-i) of a result corresponds to row i.
    """
    nrows = len(rows)
    cols = []
    for c in range(ncols):
        bit = 1 << (ncols - 1 - c)
        col = 0
        for i, r in enumerate(rows):
            if r & bit:
                col |= 1 << (nrows - 1 - i)
        cols.append(col)
    return nullspace(cols, nrows)


def row_bits(vec: int, nrows: int) -> List[int]:
    """Row indices selected by a left-nullspace bitset."""
    return [i for i in range(nrows) if vec & (1 << (nrows - 1 - i))]


def enumerate_span(basis: List[int]):
    """Yield every vector in the span of ``basis`` (Gray-code order)."""
    k = len(basis)
    vec = 0
    yield vec
    for g in range(1, 1 << k):
        vec ^= basis[(g & -g).bit_length() - 1]
        yield vec
