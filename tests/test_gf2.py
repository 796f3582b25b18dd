import random

from hypothesis import given, strategies as st

from ksparity import gf2


def brute_solvable(rows, rhs, ncols):
    for assignment in range(1 << ncols):
        if all((row & assignment).bit_count() % 2 == b
               for row, b in zip(rows, rhs)):
            return True
    return False


def test_rank_basic():
    assert gf2.rank([]) == 0
    assert gf2.rank([0b101, 0b011, 0b110]) == 2
    assert gf2.rank([0b1, 0b10, 0b100]) == 3


def test_rref_pivots_from_the_lowest_column():
    assert gf2.rref([0b011, 0b110], 3) == ([0b101, 0b110], [0, 1])
    assert gf2.rref([0b110, 0b100], 3) == ([0b010, 0b100], [1, 2])
    # bits at ncols and above are carried, never taken as pivots
    assert gf2.rref([0b1001, 0b1000], 3) == ([0b1001], [0])


def test_nullspace_and_left_nullspace_bits():
    assert gf2.nullspace([0b011, 0b110], 3) == [0b111]
    assert gf2.nullspace([0b001], 3) == [0b010, 0b100]
    # rows 0 and 1 are equal: bit i picks row i
    assert gf2.left_nullspace([0b01, 0b01, 0b10], 2) == [0b011]


def test_bits_ascend():
    assert gf2.bits(0) == []
    assert gf2.bits(0b10110) == [1, 2, 4]
    assert gf2.bits(1 << 70 | 1) == [0, 70]


def matrices(max_rows=6, max_cols=8):
    """(rows, ncols) of a random GF(2) matrix."""
    return st.integers(1, max_cols).flatmap(lambda ncols: st.tuples(
        st.lists(st.integers(0, (1 << ncols) - 1), max_size=max_rows),
        st.just(ncols),
    ))


@given(matrices())
def test_rref_pivot_is_each_rows_lowest_bit(matrix):
    rows, ncols = matrix
    echelon, pivots = gf2.rref(rows, ncols)
    assert len(echelon) == len(pivots) == gf2.rank(rows)
    assert gf2.rank(rows + echelon) == gf2.rank(rows)
    assert pivots == sorted(set(pivots))
    for i, (row, p) in enumerate(zip(echelon, pivots)):
        assert row & -row == 1 << p
        assert all(not other >> p & 1
                   for k, other in enumerate(echelon) if k != i)


@given(matrices())
def test_nullspace_is_the_identity_on_free_columns(matrix):
    rows, ncols = matrix
    _, pivots = gf2.rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    free_mask = sum(1 << c for c in free)
    basis = gf2.nullspace(rows, ncols)
    assert [vec & free_mask for vec in basis] == [1 << f for f in free]
    for vec in basis:
        assert all((r & vec).bit_count() % 2 == 0 for r in rows)


@given(matrices())
def test_left_nullspace_picks_rows_by_bit(matrix):
    rows, ncols = matrix
    basis = gf2.left_nullspace(rows, ncols)
    assert gf2.rank(basis) == len(basis) == len(rows) - gf2.rank(rows)
    for vec in basis:
        assert vec >> len(rows) == 0
        acc = 0
        for i in gf2.bits(vec):
            acc ^= rows[i]
        assert acc == 0


def test_solvable_against_brute_force():
    rng = random.Random(11)
    for _ in range(300):
        ncols = rng.randrange(1, 7)
        nrows = rng.randrange(1, 7)
        rows = [rng.getrandbits(ncols) for _ in range(nrows)]
        rhs = [rng.getrandbits(1) for _ in range(nrows)]
        assert gf2.solvable(rows, rhs) == brute_solvable(rows, rhs, ncols)


def test_nullspace_members_annihilate():
    rng = random.Random(5)
    for _ in range(100):
        ncols = rng.randrange(2, 8)
        rows = [rng.getrandbits(ncols) for _ in range(rng.randrange(1, 6))]
        basis = gf2.nullspace(rows, ncols)
        assert gf2.rank(basis) == len(basis) == ncols - gf2.rank(rows)
        for vec in gf2.enumerate_span(basis):
            assert all((r & vec).bit_count() % 2 == 0 for r in rows)


def test_left_nullspace_row_combinations_vanish():
    rows = [0b110, 0b011, 0b101]  # row1 ^ row2 ^ row3 = 0
    basis = gf2.left_nullspace(rows, 3)
    assert len(basis) == 1
    chosen = gf2.bits(basis[0])
    acc = 0
    for i in chosen:
        acc ^= rows[i]
    assert acc == 0


def test_enumerate_span_is_exhaustive():
    basis = [0b100, 0b011]
    seen = set(gf2.enumerate_span(basis))
    assert seen == {0, 0b100, 0b011, 0b111}

