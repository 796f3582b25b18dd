"""GF(2) linear algebra on int bitsets.

A matrix is a list of Python ints; bit j of row i is entry (i, j).  Every
bitset here is in that one order: bit j of a matrix row is column j, and
bit i of a left-null-space vector is row i.  Pivots are taken from the
lowest column up.
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
    """Reduced row echelon form; returns (rows, pivot columns).

    Pivots ascend from column 0, so each row's pivot is its lowest bit and
    every other row is 0 there.  Bits at ncols and above ride along.
    """
    work = [r for r in rows]
    out: List[int] = []
    pivots: List[int] = []
    for col in range(ncols):
        bit = 1 << col
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
    """Basis of {v : A v = 0}, one bitset of width ncols per basis vector:
    per free column f, in ascending order, the vector that is 1 at f and 0
    at the other free columns."""
    red, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = []
    for f in range(ncols):
        if f in pivot_set:
            continue
        vec = 1 << f
        for row, pc in zip(red, pivots):
            if row >> f & 1:
                vec |= 1 << pc
        basis.append(vec)
    return basis


def left_nullspace(rows: List[int], ncols: int) -> List[int]:
    """Basis of {y : y^T A = 0}; bit i of each bitset picks row i."""
    cols = [
        sum(1 << i for i, r in enumerate(rows) if r >> c & 1)
        for c in range(ncols)
    ]
    return nullspace(cols, len(rows))


def bits(vec: int) -> List[int]:
    """The set bits of ``vec``, ascending: the columns a row holds, or the
    rows a left-null-space vector picks."""
    return [i for i in range(vec.bit_length()) if vec >> i & 1]

