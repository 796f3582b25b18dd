"""Observable hypergraphs ("KS systems") and their contradiction checks.

A ContextSystem is a pool of Hermitian Pauli observables together with
contexts: mutually commuting subsets whose operator product is +identity or
-identity.  Single-context systems of the Table-1 kind support the GHZ
conversion, where every multiqubit observable is expanded into its
single-qubit letters and value assignments live on (qubit, letter) slots.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from . import gf2
from .pauli import PauliWord, commutes, parse_word, product_of

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
        obs = tuple(parse_word(s) for s in doc["observables"])
        ctxs = tuple(
            Context(tuple(c["members"]), c["sign"]) for c in doc["contexts"]
        )
        return cls(doc["n"], obs, ctxs)

    @classmethod
    def from_json(cls, text: str) -> "ContextSystem":
        return cls.from_json_dict(json.loads(text))


def system_from_rows(rows: Sequence[str], sign: int) -> ContextSystem:
    """Single-context system from table rows given as Pauli strings."""
    obs = tuple(parse_word(r) for r in rows)
    n = obs[0].n
    ctx = Context(tuple(range(len(obs))), sign)
    return ContextSystem(n, obs, (ctx,))


# ---------------------------------------------------------------------------
# verification


@dataclass
class ValidationReport:
    ok: bool
    violations: List[str] = field(default_factory=list)


def verify_system(sys: ContextSystem) -> ValidationReport:
    """Check pairwise commutativity and product sign of every context."""
    violations: List[str] = []
    for ci, ctx in enumerate(sys.contexts):
        words = sys.context_words(ctx)
        for (i, a), (j, b) in itertools.combinations(enumerate(words), 2):
            if not commutes(a, b):
                violations.append(
                    f"context {ci}: members {a} and {b} do not commute"
                )
        prod = product_of(words)
        if not prod.is_identity_letters:
            violations.append(
                f"context {ci}: product {prod} is not proportional to identity"
            )
        elif prod.sigma % 2 != 0 or prod.sign != ctx.sign:
            violations.append(
                f"context {ci}: product sign mismatch "
                f"(declared {ctx.sign:+d}, actual {prod})"
            )
    return ValidationReport(ok=not violations, violations=violations)


def parity_witness(sys: ContextSystem) -> bool:
    """Odd number of -identity contexts and even incidence per observable."""
    negative = sum(1 for c in sys.contexts if c.sign == -1)
    if negative % 2 == 0:
        return False
    incidence = [0] * len(sys.observables)
    for ctx in sys.contexts:
        for m in ctx.members:
            incidence[m] += 1
    return all(count % 2 == 0 for count in incidence)


# ---------------------------------------------------------------------------
# single-qubit slot machinery

Slot = Tuple[int, str]  # (0-based qubit position, letter)


def word_slots(word: PauliWord) -> List[Slot]:
    """Non-identity (position, letter) slots of a word."""
    return [
        (pos, word.letter(pos))
        for pos in range(word.n)
        if word.letter(pos) != "I"
    ]


def _slot_equations(
    sys: ContextSystem, contexts: Optional[Sequence[Context]] = None
) -> Tuple[List[Slot], List[int], List[int]]:
    """GF(2) equations at single-qubit granularity, one per context.

    Returns (slots, rows, rhs) where bit (nslots-1-j) of a row flags slot j
    and rhs bit is 1 for a -identity context.
    """
    contexts = list(sys.contexts if contexts is None else contexts)
    slots = sorted(
        {
            s
            for ctx in contexts
            for m in ctx.members
            for s in word_slots(sys.observables[m])
        }
    )
    index = {s: i for i, s in enumerate(slots)}
    width = len(slots)
    rows, rhs = [], []
    for ctx in contexts:
        row = 0
        for m in ctx.members:
            for s in word_slots(sys.observables[m]):
                row ^= 1 << (width - 1 - index[s])
        rows.append(row)
        rhs.append(0 if ctx.sign == 1 else 1)
    return slots, rows, rhs


def gf2_infeasible(sys: ContextSystem, granularity: str = "single-qubit") -> bool:
    """True iff no +-1 value assignment satisfies every context equation.

    At "single-qubit" granularity each multiqubit observable's value is the
    product of its single-qubit letter values; at "observable" granularity
    the observables themselves are the variables.
    """
    if granularity == "single-qubit":
        _, rows, rhs = _slot_equations(sys)
        return not gf2.solvable(rows, rhs)
    if granularity == "observable":
        width = len(sys.observables)
        rows, rhs = [], []
        for ctx in sys.contexts:
            row = 0
            for m in ctx.members:
                row ^= 1 << (width - 1 - m)
            rows.append(row)
            rhs.append(0 if ctx.sign == 1 else 1)
        return not gf2.solvable(rows, rhs)
    raise ValueError(f"unknown granularity {granularity!r}")


def _single_context(sys: ContextSystem) -> Context:
    if len(sys.contexts) != 1:
        raise ValueError("operation requires a single-context system")
    return sys.contexts[0]


def default_eigenvalues(sys: ContextSystem) -> List[int]:
    """+1 on every observable except the last, which carries the sign."""
    ctx = _single_context(sys)
    return [1] * (len(ctx.members) - 1) + [ctx.sign]


def check_eigenvalue_dependencies(
    sys: ContextSystem, eigenvalues: Sequence[int]
) -> None:
    """Raise unless the eigenvalues respect every dependency among the rows.

    There must be one per member, and their product must be the context's
    declared sign.  Each vector of the left null space of the members'
    symplectic bitsets picks rows whose product is a multiple of the
    identity; a joint eigenstate exists only if the chosen eigenvalues
    multiply to the sign of that product.  Checking a basis suffices, because for commuting
    words both sides multiply along sums of null vectors.
    """
    ctx = _single_context(sys)
    if len(eigenvalues) != len(ctx.members):
        raise ValueError("one eigenvalue per context member is required")
    ev_product = math.prod(eigenvalues)
    if ev_product != ctx.sign:
        raise InconsistentEigenvaluesError(
            f"eigenvalue product {ev_product:+d} does not match "
            f"context product sign {ctx.sign:+d}; no joint eigenstate exists"
        )
    words = sys.context_words(ctx)
    rows = [(w.x << sys.n) | w.z for w in words]
    for vec in gf2.left_nullspace(rows, 2 * sys.n):
        chosen = gf2.row_bits(vec, len(rows))
        prod = product_of([words[i] for i in chosen])
        ev_product = math.prod(eigenvalues[i] for i in chosen)
        if prod.sigma % 2 or prod.sign != ev_product:
            names = ", ".join(str(words[i]) for i in chosen)
            raise InconsistentEigenvaluesError(
                f"eigenvalues of {names} multiply to {ev_product:+d} "
                f"but the operators multiply to {prod}; "
                f"no joint eigenstate exists"
            )


def _ghz_equations(
    sys: ContextSystem, eigenvalues: Sequence[int]
) -> Tuple[List[Slot], List[int], List[int]]:
    """Slot equations with one row per member, its eigenvalue as target."""
    ctx = _single_context(sys)
    if len(eigenvalues) != len(ctx.members):
        raise ValueError("one eigenvalue per context member is required")
    if any(e not in (1, -1) for e in eigenvalues):
        raise ValueError("eigenvalues must be +1 or -1")
    signed = tuple(
        Context((m,), e) for m, e in zip(ctx.members, eigenvalues)
    )
    return _slot_equations(sys, signed)


def count_ghz_assignments(
    sys: ContextSystem, eigenvalues: Sequence[int]
) -> Tuple[int, int]:
    """(satisfying, total) over all +-1 assignments to the letter slots.

    The satisfying assignments are the solutions of the slot equations:
    none if they are inconsistent, else 2^(slots - rank).
    """
    slots, rows, rhs = _ghz_equations(sys, eigenvalues)
    total = 1 << len(slots)
    if not gf2.solvable(rows, rhs):
        return 0, total
    return total >> gf2.rank(rows), total


def ghz_infeasible(sys: ContextSystem, eigenvalues: Sequence[int]) -> bool:
    """No single-qubit value assignment reproduces the eigenvalue row targets.

    Decided by the GF(2) slot equations.  Eigenvalues that no joint
    eigenstate can carry raise ``InconsistentEigenvaluesError``.
    """
    _, rows, rhs = _ghz_equations(sys, eigenvalues)
    check_eigenvalue_dependencies(sys, eigenvalues)
    return not gf2.solvable(rows, rhs)


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
        [
            "ZZZZZZZI",
            "XXXXXXIZ",
            "ZXZXIIZZ",
            "XZIIIIXX",
            "IIXZZXII",
            "IIIIXZXX",
        ],
        -1,
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


def _restrict(basis: List[int], col: int) -> List[int]:
    """Basis of the vectors v in span(basis) with |v & col| even."""
    for j, pivot in enumerate(basis):
        if (pivot & col).bit_count() & 1:
            return basis[:j] + [
                v ^ pivot if (v & col).bit_count() & 1 else v
                for v in basis[j + 1:]
            ]
    return basis


def _vanishing_on(basis: List[int], mask: int) -> List[int]:
    """Basis of the vectors in span(basis) with no bit in mask."""
    pivots: List[int] = []
    out: List[int] = []
    for v in basis:
        for p in pivots:
            if (v ^ p) & mask < v & mask:
                v ^= p
        (pivots if v & mask else out).append(v)
    return out


def _commuting_minus_identity(
    vec: int, anti: List[int], xs: List[int], zs: List[int]
) -> bool:
    """The rows in vec pairwise commute and multiply to -identity.

    Bit k of vec picks the row whose masks are xs[k], zs[k] and whose
    anticommuting rows are the bits of anti[k].  The masks of the rows
    must cancel.  Writing each word as i^|x&z| X^x Z^z, the product is
    i^lam times the identity, where moving the Z part gathered so far past
    each next X part adds 2|zacc & x| to lam; commuting rows may be
    multiplied in any order.
    """
    lam = 0
    zacc = 0
    rest = vec
    while rest:
        low = rest & -rest
        k = low.bit_length() - 1
        if anti[k] & vec:
            return False
        x = xs[k]
        lam += (x & zs[k]).bit_count() + 2 * (zacc & x).bit_count()
        zacc ^= zs[k]
        rest ^= low
    return lam % 4 == 2


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

    The existence step walks the subsets depth first, adding columns below
    the lowest one taken so far, which visits them in ascending order.  It
    carries the left null space of the slot columns over all rows (even
    slot counts) and each row's anticommuting rows, and updates both per
    added column.  On a subset it keeps one row per distinct non-identity
    restricted word and drops the others from the null space.  That
    quotient is exact: a witness never takes an identity row or two equal
    words, and swapping a row for an equal one changes neither the slot
    counts nor the product of commuting words.  So a subset holds a witness
    iff the rest of the null space has a vector whose rows commute and
    multiply to -identity.

    The witness step runs on that subset alone.  It walks the span of the
    reduced ``gf2.nullspace`` basis of the slot columns, without the rows
    idle there, in Gray-code order, and returns the first vector other
    than the whole table whose restricted words are distinct, commute and
    multiply to -identity.
    """
    ctx = _single_context(sys)
    words = sys.context_words(ctx)
    nrows = len(words)
    n = sys.n
    everyone = (1 << nrows) - 1
    whole = (1 << n) - 1
    # row data by bit: bit k stands for row nrows-1-k, as gf2.left_nullspace
    # numbers the rows
    xs = [w.x for w in reversed(words)]
    zs = [w.z for w in reversed(words)]
    xzs = [x << n | z for x, z in zip(xs, zs)]
    # per column: its nonzero slot columns (the rows holding X, Y or Z
    # there), and for each row the rows whose letter there anticommutes
    slot_columns: List[List[int]] = []
    anti_columns: List[List[int]] = []
    for p in range(n):
        bit = 1 << (n - 1 - p)
        letter_rows = [0, 0, 0, 0]  # I, Z, X, Y by (x bit, z bit)
        for k in range(nrows):
            letter_rows[bool(xs[k] & bit) * 2 + bool(zs[k] & bit)] |= 1 << k
        _, mz, mx, my = letter_rows
        slot_columns.append([c for c in (mx, my, mz) if c])
        anti_columns.append([
            (my | mz) if mx >> k & 1 else (mx | mz) if my >> k & 1
            else (mx | my) if mz >> k & 1 else 0
            for k in range(nrows)
        ])

    def witness(bits: int, cmask: int, kernel: List[int], anti: List[int]):
        keys = [xz & (cmask << n | cmask) for xz in xzs]
        reps = dict(zip(keys, range(nrows)))  # one row per restricted word
        reps.pop(0, None)
        others = everyone ^ sum(1 << k for k in reps.values())
        quotient = _vanishing_on(kernel, others)
        if not quotient:
            return None
        rxs = [x & cmask for x in xs]
        rzs = [z & cmask for z in zs]
        if not any(
            _commuting_minus_identity(vec, anti, rxs, rzs)
            for vec in gf2.enumerate_span(quotient)
            if vec and not (bits == whole and vec == everyone)
        ):
            return None
        cols = tuple(p for p in range(n) if bits >> p & 1)
        canonical = gf2.nullspace(
            [c for p in cols for c in slot_columns[p]], nrows
        )
        alive = sum(1 << k for k, key in enumerate(keys) if key)
        canonical = [v for v in canonical if not v & ~alive]
        for vec in gf2.enumerate_span(canonical):
            if vec == 0 or (bits == whole and vec == everyone):
                continue
            chosen = [k for k in range(nrows) if vec >> k & 1]
            if len({keys[k] for k in chosen}) != len(chosen):
                continue
            if _commuting_minus_identity(vec, anti, rxs, rzs):
                return cols, tuple(gf2.row_bits(vec, nrows))
        return None

    def walk(limit: int, bits: int, cmask: int, kernel, anti):
        for q in range(limit):
            sub_bits = bits | 1 << q
            sub_cmask = cmask | 1 << (n - 1 - q)
            sub_kernel = kernel
            for col in slot_columns[q]:
                sub_kernel = _restrict(sub_kernel, col)
            if not sub_kernel:
                continue  # more columns only add constraints
            sub_anti = [a ^ t for a, t in zip(anti, anti_columns[q])]
            found = witness(sub_bits, sub_cmask, sub_kernel, sub_anti) or walk(
                q, sub_bits, sub_cmask, sub_kernel, sub_anti
            )
            if found:
                return found
        return None

    return walk(n, 0, 0, [1 << k for k in range(nrows)], [0] * nrows)


def is_genuinely_multipartite(sys: ContextSystem) -> bool:
    """True iff no proper row/column sub-table is itself a valid proof."""
    return find_proper_subproof(sys) is None
