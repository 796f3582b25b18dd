import random

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


def test_rref_pivots_msb_first():
    rows, pivots = gf2.rref([0b011, 0b110], 3)
    assert pivots == [0, 1]
    assert gf2.rank(rows) == 2


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
    chosen = gf2.row_bits(basis[0], 3)
    acc = 0
    for i in chosen:
        acc ^= rows[i]
    assert acc == 0


def test_enumerate_span_is_exhaustive():
    basis = [0b100, 0b011]
    seen = set(gf2.enumerate_span(basis))
    assert seen == {0, 0b100, 0b011, 0b111}

