"""Observable hypergraphs ("KS systems") and their contradiction checks.

A ContextSystem is a pool of Hermitian Pauli observables together with
contexts: mutually commuting subsets whose operator product is +identity or
-identity.  Single-context systems of the Table-1 kind support the GHZ
conversion, where every multiqubit observable is expanded into its
single-qubit letters and value assignments live on (qubit, letter) slots.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import operator
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import gf2
from .pauli import PauliWord, commutes, parse_word, product_of


def json_integer(value, what: str) -> int:
    """``value`` if JSON read it as an integer; ValueError for a float, a
    bool or anything else, which indexing or a comparison might take."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, not {value!r}")
    return value


def json_list(value, what: str) -> list:
    """``value`` if JSON read it as a list; ValueError for a string, an
    object or anything else, which iteration might take."""
    if type(value) is not list:
        raise ValueError(f"{what} must be a list, not {value!r}")
    return value


class InconsistentEigenvaluesError(ValueError):
    """Eigenvalue signature conflicts with the context's product sign."""


@dataclass(frozen=True)
class Context:
    """An ordered tuple of observable indices with a declared product sign."""

    members: Tuple[int, ...]
    sign: int

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("context sign must be +1 or -1")
        if not self.members:
            raise ValueError("context must have at least one member")


@dataclass(frozen=True)
class ContextSystem:
    n: int
    observables: Tuple[PauliWord, ...]
    contexts: Tuple[Context, ...]

    def __post_init__(self):
        seen = set()
        for ob in self.observables:
            if ob.n != self.n:
                raise ValueError("observable qubit count mismatch")
            if not ob.is_hermitian or ob.sign != 1:
                raise ValueError(f"observable {ob} must have phase +1")
            key = (ob.x, ob.z)
            if key in seen:
                raise ValueError(f"duplicate observable {ob}")
            seen.add(key)
        for ctx in self.contexts:
            for m in ctx.members:
                if not 0 <= m < len(self.observables):
                    raise ValueError(f"context member {m} out of range")

    def context_words(self, ctx: Context) -> List[PauliWord]:
        return [self.observables[m] for m in ctx.members]

    # -- JSON wire format -------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "observables": [str(ob) for ob in self.observables],
            "contexts": [
                {"members": list(c.members), "sign": c.sign}
                for c in self.contexts
            ],
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2, sort_keys=True)

    @classmethod
    def from_json_dict(cls, doc: dict) -> "ContextSystem":
        """The system of a parsed JSON document; ValueError unless n, the
        members and the signs are integers, n is not negative, the
        observables, the contexts and each context's members are lists and
        the observables are strings."""
        n = json_integer(doc["n"], "n")
        if n < 0:
            raise ValueError(f"n must not be negative, not {n}")
        for s in json_list(doc["observables"], "observables"):
            if not isinstance(s, str):
                raise ValueError(f"observable {s!r} must be a string")
        obs = tuple(parse_word(s) for s in doc["observables"])
        ctxs = tuple(
            Context(
                tuple(json_integer(m, "a member")
                      for m in json_list(c["members"], "members")),
                json_integer(c["sign"], "a context sign"),
            )
            for c in json_list(doc["contexts"], "contexts")
        )
        return cls(n, obs, ctxs)

    @classmethod
    def from_json(cls, text: str) -> "ContextSystem":
        return cls.from_json_dict(json.loads(text))


def system_from_rows(rows: Sequence[str], sign: int) -> ContextSystem:
    """Single-context system from table rows given as Pauli strings."""
    obs = tuple(parse_word(r) for r in rows)
    ctx = Context(tuple(range(len(obs))), sign)
    return ContextSystem(obs[0].n, obs, (ctx,))


# ---------------------------------------------------------------------------
# verification


@dataclass
class ValidationReport:
    violations: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations


def anticommuting_pairs(words: Sequence[PauliWord]) -> Iterator[tuple]:
    """The pairs of words that do not commute, in combinations order."""
    for a, b in itertools.combinations(words, 2):
        if not commutes(a, b):
            yield a, b


def commutation_violations(sys: ContextSystem, ci: int) -> List[str]:
    """One line per pair of members of context ``ci`` that do not commute."""
    return [
        f"context {ci}: members {a} and {b} do not commute"
        for a, b in anticommuting_pairs(sys.context_words(sys.contexts[ci]))
    ]


def verify_system(sys: ContextSystem) -> ValidationReport:
    """Check pairwise commutativity and product sign of every context."""
    violations: List[str] = []
    for ci, ctx in enumerate(sys.contexts):
        violations += commutation_violations(sys, ci)
        prod = product_of(sys.context_words(ctx))
        if not prod.is_identity_letters:
            violations.append(
                f"context {ci}: product {prod} is not proportional to identity"
            )
        elif prod.sigma % 2 != 0 or prod.sign != ctx.sign:
            violations.append(
                f"context {ci}: product sign mismatch "
                f"(declared {ctx.sign:+d}, actual {prod})"
            )
    return ValidationReport(violations)


def parity_witness(sys: ContextSystem) -> bool:
    """Odd number of -identity contexts and even incidence per observable:
    the XOR of ``1 << m`` over every membership is 0."""
    negative = sum(1 for c in sys.contexts if c.sign == -1)
    members = [1 << m for c in sys.contexts for m in c.members]
    return negative % 2 == 1 and not functools.reduce(operator.xor, members, 0)


# ---------------------------------------------------------------------------
# single-qubit slots as bitsets


def slot_bits(word: PauliWord) -> int:
    """The (qubit, letter) slots of a word as one bitset in three n-bit
    bands: X letters in bits 0..n-1, Y in n..2n-1 and Z in 2n..3n-1, at the
    word's own mask bit for the qubit."""
    x, z, n = word.x, word.z, word.n
    return (x & ~z) | (x & z) << n | (z & ~x) << 2 * n


def gf2_infeasible(sys: ContextSystem, granularity: str = "single-qubit") -> bool:
    """True iff no +-1 value assignment satisfies every context equation.

    At "single-qubit" granularity each multiqubit observable's value is the
    product of its single-qubit letter values, so its variables are its
    ``slot_bits``; at "observable" granularity the observables themselves
    are the variables, observable m at bit m.  A context's row is the XOR
    of its members' variables, so a repeated member cancels, and its
    target bit is 1 for a -identity context.
    """
    if granularity == "single-qubit":
        variables = [slot_bits(ob) for ob in sys.observables]
    elif granularity == "observable":
        variables = [1 << m for m in range(len(sys.observables))]
    else:
        raise ValueError(f"unknown granularity {granularity!r}")
    rows = [functools.reduce(operator.xor, [variables[m] for m in c.members])
            for c in sys.contexts]
    return not gf2.solvable(rows, [c.sign < 0 for c in sys.contexts])


def _single_context(sys: ContextSystem) -> Context:
    if len(sys.contexts) != 1:
        raise ValueError("operation requires a single-context system")
    return sys.contexts[0]


def default_eigenvalues(sys: ContextSystem) -> List[int]:
    """+1 on every observable except the last, which carries the sign."""
    ctx = _single_context(sys)
    return [1] * (len(ctx.members) - 1) + [ctx.sign]


def _check_signature(ctx: Context, eigenvalues: Sequence[int]) -> None:
    """Raise ``ValueError`` unless each member has one eigenvalue, +-1."""
    if len(eigenvalues) != len(ctx.members):
        raise ValueError("one eigenvalue per context member is required")
    if any(e not in (1, -1) for e in eigenvalues):
        raise ValueError("eigenvalues must be +1 or -1")


def check_eigenvalue_dependencies(
    sys: ContextSystem, eigenvalues: Sequence[int]
) -> None:
    """Raise unless the eigenvalues respect every dependency among the rows.

    There must be one per member, each +1 or -1, and their product must be
    the context's declared sign.  Each vector of the left null space of the
    members' symplectic bitsets picks rows whose product is a multiple of
    the identity; a joint eigenstate exists only if the chosen eigenvalues
    multiply to the sign of that product.  Checking a basis suffices,
    because for commuting words both sides multiply along sums of null
    vectors.
    """
    ctx = _single_context(sys)
    _check_signature(ctx, eigenvalues)
    ev_product = math.prod(eigenvalues)
    if ev_product != ctx.sign:
        raise InconsistentEigenvaluesError(
            f"eigenvalue product {ev_product:+d} does not match "
            f"context product sign {ctx.sign:+d}; no joint eigenstate exists"
        )
    words = sys.context_words(ctx)
    rows = [(w.x << sys.n) | w.z for w in words]
    for vec in gf2.left_nullspace(rows, 2 * sys.n):
        chosen = gf2.bits(vec)
        prod = product_of([words[i] for i in chosen])
        ev_product = math.prod(eigenvalues[i] for i in chosen)
        if prod.sigma % 2 or prod.sign != ev_product:
            names = ", ".join(str(words[i]) for i in chosen)
            raise InconsistentEigenvaluesError(
                f"eigenvalues of {names} multiply to {ev_product:+d} "
                f"but the operators multiply to {prod}; "
                f"no joint eigenstate exists"
            )


def count_ghz_assignments(
    sys: ContextSystem, eigenvalues: Sequence[int]
) -> Tuple[int, int]:
    """(satisfying, total) over all +-1 assignments to the letter slots.

    Each member occurrence is one equation: its ``slot_bits`` as the row,
    its eigenvalue as the target.  The slots are the bits any row holds.
    The satisfying assignments are the solutions: none if the equations
    are inconsistent, else 2^(slots - rank).
    """
    ctx = _single_context(sys)
    _check_signature(ctx, eigenvalues)
    rows = [slot_bits(sys.observables[m]) for m in ctx.members]
    total = 1 << functools.reduce(operator.or_, rows, 0).bit_count()
    if not gf2.solvable(rows, [e < 0 for e in eigenvalues]):
        return 0, total
    return total >> gf2.rank(rows), total


def ghz_infeasible(sys: ContextSystem, eigenvalues: Sequence[int]) -> bool:
    """No single-qubit value assignment reproduces the eigenvalue row targets.

    Decided by the GF(2) slot equations.  Eigenvalues that no joint
    eigenstate can carry raise ``InconsistentEigenvaluesError``.
    """
    check_eigenvalue_dependencies(sys, eigenvalues)
    return count_ghz_assignments(sys, eigenvalues)[0] == 0


# ---------------------------------------------------------------------------
# table generators and fixtures


def build_star_table(N: int) -> ContextSystem:
    """The 2N-qubit, (2N+1)-observable single-context GHZ table.

    N=2 reproduces the four-qubit table; larger N append sliding XX pairs
    and close the pattern with X at qubit 3 and qubit 2N.
    """
    if N < 2:
        raise ValueError("star table requires N >= 2")
    w = 2 * N
    rows = [
        "Z" * w,
        "XX" + "Z" * (w - 2),
        "ZXX" + "I" * (w - 3),
        "XZIX" + "I" * (w - 4),
    ]
    for start in range(3, w - 1):  # XX at 0-based positions (start, start+1)
        rows.append("I" * start + "XX" + "I" * (w - start - 2))
    rows.append("II" + "X" + "I" * (w - 4) + "X")
    return system_from_rows(rows, -1)


KITE_THICK = ("IXXZ", "YYIX", "XIYY", "ZZZI")
KITE_THIN = ("IXXX", "YYIZ", "XIYY", "ZZZI")


def builtin_fixtures() -> Dict[str, ContextSystem]:
    """Named systems copied verbatim from the source tables."""
    fixtures: Dict[str, ContextSystem] = {}
    fixtures["table1-left"] = build_star_table(2)
    fixtures["table2-left"] = system_from_rows(
        ["ZZZZZZ", "XXXXXX", "ZXZXII", "XZIIZX", "IIXZXZ"], -1
    )
    fixtures["table2-right"] = system_from_rows(
        ["ZZZZZZZI", "XXXXXXIZ", "ZXZXIIZZ", "XZIIIIXX", "IIXZZXII",
         "IIIIXZXX"], -1
    )
    kite_obs = ("IXXZ", "YYIX", "XIYY", "ZZZI", "IXXX", "YYIZ")
    obs = tuple(parse_word(s) for s in kite_obs)
    idx = {s: i for i, s in enumerate(kite_obs)}
    thick = Context(tuple(idx[s] for s in KITE_THICK), -1)
    thin = Context(tuple(idx[s] for s in KITE_THIN), +1)
    fixtures["kite-quadruples"] = ContextSystem(4, obs, (thick, thin))
    return fixtures


# ---------------------------------------------------------------------------
# genuine multipartiteness


def find_proper_subproof(
    sys: ContextSystem,
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Search for a proper sub-table that is itself a GHZ-type proof.

    Returns (column positions, member occurrence indices) of a witness, or
    None.  A witness is a subset of row occurrences, restricted to a subset
    of columns, whose restricted words are distinct, pairwise commuting,
    have every (qubit, letter) slot appearing an even number of times, and
    multiply to -identity.  The column subsets are tried in ascending order
    of their bitmask (bit p for column p), and the first one holding a
    witness gives the answer, in two steps.

    Three row-pair matrices decide a vector of rows with a few integer
    operations, ``nrows + 1`` bits per row: block k of ``anti`` holds the
    rows anticommuting with row k, block k of ``desc`` the rows j < k out
    of order with it (below), and block k of ``eq`` the rows j < k whose
    restricted word equals row k's.  ``vec * (vec * spread & diagonal)``
    copies vec into the block of each of its rows, without carries, so
    vec's words are distinct and commute iff that misses ``anti | eq``.
    In a null space vector every letter appears an even number of times on
    every column, so its rows multiply to +-identity.  Sorting each
    column's letters into the order X < Y < Z, one swap of two different
    letters at a time, gives +identity and flips the sign per swap; so the
    product is -identity iff the vector holds an odd number of pairs j < k
    whose letters are out of that order on an odd number of columns, the
    parity of its bits in ``desc``.

    The existence step walks the subsets depth first, adding columns below
    the lowest one taken so far, which visits them in ascending order.  Per
    added column it updates what it carries down: the left null space of
    the slot columns over all rows (even slot counts), ``anti`` and
    ``desc`` (XOR with the column's own), ``eq`` (AND with the pairs of
    rows sharing the column's letter; on no columns, every pair j < k is
    equal) and the idle rows (identity on every column taken).  The idle
    rows and every row with an equal lower row are dropped from the null
    space.  That quotient is exact: a witness never takes an idle row or
    two equal words, and swapping a row for an equal one changes neither
    the slot counts nor the product of commuting words.  So a subset holds
    a witness iff the rest of the null space has a vector whose rows
    commute and multiply to -identity.

    The witness step runs once, on the first subset whose quotient holds a
    witness.  It walks the span of the reduced ``gf2.nullspace`` basis of
    that subset's slot columns, without the idle rows, in Gray-code order,
    and returns the first vector other than the whole table whose
    restricted words are distinct, commute and multiply to -identity.
    """
    ctx = _single_context(sys)
    words = sys.context_words(ctx)
    nrows = len(words)
    n = sys.n
    everyone = (1 << nrows) - 1
    whole = (1 << n) - 1
    w = nrows + 1
    spread = sum(1 << k * nrows for k in range(nrows))
    diagonal = sum(1 << k * w for k in range(nrows))
    lower = sum((1 << k) - 1 << k * w for k in range(nrows))

    def blocks(rows, held):
        """The pair matrix whose block k is held for each row k in rows."""
        return held * (rows * spread & diagonal)

    def paired_rows(matrix):
        """The rows whose block of matrix is not 0, as a mask.  Adding
        nrows ones to each block carries into its top bit iff the block is
        not 0; times spread, the top bit of block k lands at bit
        (nrows - 1) * nrows + k, and no two bits of the product meet."""
        tops = (matrix + everyone * diagonal) >> nrows & diagonal
        return tops * spread >> (nrows - 1) * nrows & everyone

    # per column: the rows holding I there, its nonzero slot columns, and
    # its anti, desc and same-letter pair matrices
    identity_rows: List[int] = []
    slot_columns: List[List[int]] = []
    pair_columns: List[Tuple[int, int, int]] = []
    for p in range(n):
        bit = 1 << (n - 1 - p)
        by_xz = [0, 0, 0, 0]  # I, Z, X, Y by (x bit, z bit)
        for k, word in enumerate(words):
            by_xz[bool(word.x & bit) * 2 + bool(word.z & bit)] |= 1 << k
        mi, mz, mx, my = by_xz
        identity_rows.append(mi)
        slot_columns.append([c for c in (mx, my, mz) if c])
        pair_columns.append((
            blocks(mx, my | mz) | blocks(my, mx | mz) | blocks(mz, mx | my),
            (blocks(mx, my | mz) | blocks(my, mz)) & lower,
            sum(blocks(m, m) for m in by_xz),
        ))

    def first_witness(basis, exclude, clash, desc):
        """The first vector of span(basis), in Gray-code order, other than
        0 and exclude, with no pair in clash and an odd number in desc; 0
        if there is none."""
        vec = 0
        for g in range(1, 1 << len(basis)):
            vec ^= basis[(g & -g).bit_length() - 1]
            if vec == exclude:
                continue
            pairs = vec * (vec * spread & diagonal)
            if not clash & pairs and (desc & pairs).bit_count() & 1:
                return vec
        return 0

    def walk(limit, bits, kernel, anti, desc, eq, idle):
        for q in range(limit):
            sub_kernel = kernel
            for col in slot_columns[q]:  # keep v with |v & col| even
                pivot = 0
                even = []
                for v in sub_kernel:
                    if not (v & col).bit_count() & 1:
                        even.append(v)
                    elif pivot:
                        even.append(v ^ pivot)
                    else:
                        pivot = v
                sub_kernel = even
            if not sub_kernel:
                continue  # more columns only add constraints
            sub_bits = bits | 1 << q
            anti_q, desc_q, same_q = pair_columns[q]
            sub_anti, sub_desc = anti ^ anti_q, desc ^ desc_q
            sub_eq = eq & same_q
            sub_idle = idle & identity_rows[q]
            others = sub_idle | paired_rows(sub_eq)
            # the quotient: the vectors of sub_kernel with no bit in others
            pivots: List[int] = []
            quotient: List[int] = []
            for v in sub_kernel:
                for p in pivots:
                    if (v ^ p) & others < v & others:
                        v ^= p
                (pivots if v & others else quotient).append(v)
            exclude = everyone if sub_bits == whole else 0
            clash = sub_anti | sub_eq
            if quotient and first_witness(quotient, exclude, clash, sub_desc):
                cols = tuple(p for p in range(n) if sub_bits >> p & 1)
                canonical = gf2.nullspace(
                    [c for p in cols for c in slot_columns[p]], nrows
                )
                vec = first_witness(
                    [v for v in canonical if not v & sub_idle], exclude,
                    clash, sub_desc,
                )
                return cols, tuple(gf2.bits(vec))
            found = q and walk(q, sub_bits, sub_kernel, sub_anti, sub_desc,
                               sub_eq, sub_idle)
            if found:
                return found
        return None

    return walk(n, 0, [1 << k for k in range(nrows)], 0, 0, lower, everyone)


def is_genuinely_multipartite(sys: ContextSystem) -> bool:
    """True iff no proper row/column sub-table is itself a valid proof."""
    return find_proper_subproof(sys) is None
