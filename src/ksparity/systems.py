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

    Each vector of the left null space of the members' symplectic bitsets
    picks rows whose product is a multiple of the identity; a joint
    eigenstate exists only if the chosen eigenvalues multiply to the sign
    of that product.  Checking a basis suffices, because for commuting
    words both sides multiply along sums of null vectors.
    """
    ctx = _single_context(sys)
    words = sys.context_words(ctx)
    rows = [(w.x << sys.n) | w.z for w in words]
    for vec in gf2.left_nullspace(rows, 2 * sys.n):
        chosen = gf2.row_bits(vec, len(rows))
        prod = product_of([words[i] for i in chosen])
        ev_product = 1
        for i in chosen:
            ev_product *= eigenvalues[i]
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
    ctx = _single_context(sys)
    _, rows, rhs = _ghz_equations(sys, eigenvalues)
    ev_product = 1
    for e in eigenvalues:
        ev_product *= e
    if ev_product != ctx.sign:
        raise InconsistentEigenvaluesError(
            f"eigenvalue product {ev_product:+d} does not match "
            f"context product sign {ctx.sign:+d}; no joint eigenstate exists"
        )
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


def find_proper_subproof(
    sys: ContextSystem,
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """Search for a proper sub-table that is itself a GHZ-type proof.

    Returns (column positions, member occurrence indices) of a witness, or
    None.  A witness is a subset of row occurrences, restricted to a subset
    of columns, whose restricted words are distinct, pairwise commuting,
    have every (qubit, letter) slot appearing an even number of times, and
    multiply to -identity.
    """
    ctx = _single_context(sys)
    words = sys.context_words(ctx)
    nrows = len(words)
    n = sys.n
    # slot columns: for each position and letter, the rows holding that
    # letter there (bit nrows-1-i for row i), as gf2.left_nullspace numbers
    # them; a restriction to some columns keeps their slot columns only
    slot_columns: List[List[int]] = [[] for _ in range(n)]
    for p in range(n):
        bit = 1 << (n - 1 - p)
        for xbit, zbit in ((bit, 0), (bit, bit), (0, bit)):
            col = 0
            for i, w in enumerate(words):
                if (w.x & bit, w.z & bit) == (xbit, zbit):
                    col |= 1 << (nrows - 1 - i)
            if col:
                slot_columns[p].append(col)
    for bits in range(1, 1 << n):
        cols = tuple(p for p in range(n) if bits & (1 << p))
        cmask = sum(1 << (n - 1 - p) for p in cols)
        dead = 0
        for i, w in enumerate(words):
            if not (w.x | w.z) & cmask:
                dead |= 1 << (nrows - 1 - i)
        if nrows - dead.bit_count() < 2:
            continue
        # The left null space over all rows is the one over the rows that
        # survive the restriction plus a unit vector per identity row; the
        # null-space basis is canonical (reduced echelon form), so dropping
        # those unit vectors leaves the surviving rows' basis, in order.
        kernel = [
            v
            for v in gf2.nullspace(
                list({c for p in cols for c in slot_columns[p]}), nrows
            )
            if not v & dead
        ]
        if not kernel:
            continue
        for vec in gf2.enumerate_span(kernel):
            if vec == 0:
                continue
            chosen = gf2.row_bits(vec, nrows)
            if bits == (1 << n) - 1 and len(chosen) == nrows:
                continue  # the original table itself
            sub = [(words[i].x & cmask, words[i].z & cmask) for i in chosen]
            if len(set(sub)) != len(sub):
                continue
            if any(
                ((ax & bz).bit_count() + (az & bx).bit_count()) % 2
                for (ax, az), (bx, bz) in itertools.combinations(sub, 2)
            ):
                continue
            # identity letters outside the columns leave the sign unchanged
            prod = product_of([PauliWord(n, x, z).unsigned() for x, z in sub])
            if prod.sigma % 2 == 0 and prod.sign == -1:
                return cols, tuple(chosen)
    return None


def is_genuinely_multipartite(sys: ContextSystem) -> bool:
    """True iff no proper row/column sub-table is itself a valid proof."""
    return find_proper_subproof(sys) is None
