"""Backtracking completion search for parity-witness systems.

Given a seed system, the search adds three-member contexts (commuting
pairs closed by their product) until every observable lies on an even
number of contexts and the number of -identity contexts is odd.  Results
are deduplicated up to qubit permutations combined with relabelings of
X, Y and Z.

The search runs on integer bitmasks.  An observable with symplectic masks
(x, z) is the index ``(x << n) | z``; since z < 2^n, index order is the
order of the (x, z) pairs.  A set of observables is an int with one bit per
index, so the pivot of the search is the lowest set bit and adding a triple
is an XOR with its mask.  The triple table comes from popcount commutation
and a symplectic phase sum on the masks, with no Pauli word built.  The
canonical form permutes per-position letter strings by table lookup and
takes each context sign once, since no relabeling changes it (see
``canonical_form``).

A node of the search is one candidate triple counted for its parent,
whether or not the search calls into it.  A child is live when its odd set
(the observables on an odd number of contexts) has at most three members
per context still to add, so a live leaf is closed; the parent tests this
and calls only live children.  A triple through the pivot, with j of its
other two members in the odd set, leaves |odd| + 1 - 2j members.  So once
|odd| reaches three per context left after the child, only the triples
{pivot, b, pivot ^ b} with b in the odd set can be live (a triple's
indices XOR to zero).  Unless the pivot has no more candidates than the
odd set has members, these triples are found by a lookup on their masks,
and the dead candidates before each one are counted in one addition: its
rank among the pivot's candidates, less the triples already chosen there.

The triple table grows about 16x per qubit, so ``search_completions``
refuses seeds above ``SEARCH_QUBIT_CAP`` qubits before building it.
"""

from __future__ import annotations

import itertools
from bisect import bisect_left
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, List, Sequence, Tuple

from .pauli import PauliWord, product_of
from .systems import Context, ContextSystem, verify_system

BUDGET_DEFAULT = 5_000_000
# Largest seed the completion search accepts.  Its triple table grows about
# 16x per qubit: 0.02 s and 5,355 triples at 4 qubits, 0.3 s and 86,955 at
# 5, so about 5 s and 1.4 million triples at 6 and over 20 minutes at 8,
# with memory to match.
SEARCH_QUBIT_CAP = 5
# Most contexts a completion may add.  The search recurses once per added
# context, so the cap stays well under Python's default recursion limit of
# 1,000, with room for the caller's frames.  An empty 4-qubit seed with
# 200 contexts to add runs out a budget of 2,000,000 nodes in about 2.4 s
# on a 2-core Xeon host.
SEARCH_SHAPE_CAP = 200

ObsKey = Tuple[int, int]  # (xmask, zmask)


class SearchCapError(RuntimeError):
    """Raised when a seed has more qubits than SEARCH_QUBIT_CAP, or a shape
    more contexts than SEARCH_SHAPE_CAP."""


@dataclass(frozen=True)
class TripleContext:
    members: Tuple[ObsKey, ...]  # sorted
    sign: int


@dataclass
class SearchResult:
    systems: List[ContextSystem]
    complete: bool
    nodes: int


def three_member_contexts(n: int) -> List[TripleContext]:
    """All {P, Q, |PQ|} triples of distinct commuting observables.

    Observables are the indices a = (x << n) | z of the non-identity words.
    A triple a < b < c has a ^ b ^ c == 0, so it is met once, from its two
    smallest members, and the loop yields the triples in sorted order.
    Members a and b commute when |ax & bz| + |az & bx| is even.  The sign
    is that of the product of the three phase-+1 words in order: it is
    i^lam with lam the sum of |x & z| over the members (their Y letters)
    plus 2 |acc_z & x| for each member multiplied onto the running product
    acc, as in ``pauli.multiply``.
    """
    low = (1 << n) - 1
    size = 1 << (2 * n)
    out: List[TripleContext] = []
    for a in range(1, size):
        ax, az = a >> n, a & low
        ya = (ax & az).bit_count()
        top = 1 << (a.bit_length() - 1)
        for b in range(a + 1, size):
            if b & top:
                continue  # c = a ^ b < b
            bx, bz = b >> n, b & low
            if ((ax & bz).bit_count() + (az & bx).bit_count()) & 1:
                continue
            cx, cz = ax ^ bx, az ^ bz
            lam = (
                ya + (bx & bz).bit_count() + (cx & cz).bit_count()
                + 2 * ((az & bx).bit_count() + (cz & cx).bit_count())
            )
            out.append(
                TripleContext(((ax, az), (bx, bz), (cx, cz)), 1 - (lam & 2))
            )
    return out


def search_completions(
    seed: ContextSystem,
    shape: Sequence[int],
    budget: int = BUDGET_DEFAULT,
) -> SearchResult:
    """Add ``len(shape)`` three-member contexts making the parity witness hold.

    Only three-member context shapes are supported; the completed systems
    all pass verify_system and parity_witness by construction (see
    ``accept``).  Seeds on more than ``SEARCH_QUBIT_CAP`` qubits and shapes
    of more than ``SEARCH_SHAPE_CAP`` contexts raise SearchCapError before
    any enumeration.

    ``nodes`` counts the root and every candidate child, live or dead, in
    depth-first order, and only live children are called (see the module
    docstring).  A batch of dead children is one addition, capped at
    ``budget + 1``, which marks the result incomplete.  The counts, the
    budget's stopping point and the systems are those of a search that
    calls into every counted node, as ``tests/search_oracles.py`` does.
    """
    if any(s != 3 for s in shape):
        raise NotImplementedError(
            "completion search supports three-member context shapes only"
        )
    if seed.n > SEARCH_QUBIT_CAP:
        raise SearchCapError(
            f"completion search supports at most {SEARCH_QUBIT_CAP} qubits; "
            f"the seed has {seed.n}"
        )
    if len(shape) > SEARCH_SHAPE_CAP:
        raise SearchCapError(
            f"completion search adds at most {SEARCH_SHAPE_CAP} contexts; "
            f"the shape has {len(shape)}"
        )
    if not verify_system(seed).ok:
        return SearchResult([], complete=True, nodes=0)

    n = seed.n
    k = len(shape)
    triples = three_member_contexts(n)
    masks: List[int] = []
    by_obs: Dict[int, List[int]] = {}
    for idx, t in enumerate(triples):
        mask = 0
        for x, z in t.members:
            ob = (x << n) | z
            mask |= 1 << ob
            by_obs.setdefault(ob, []).append(idx)
        masks.append(mask)

    odd0 = 0  # observables on an odd number of seed contexts
    for ctx in seed.contexts:
        for m in ctx.members:
            ob = seed.observables[m]
            odd0 ^= 1 << ((ob.x << n) | ob.z)
    seed_neg = sum(1 for c in seed.contexts if c.sign == -1)

    by_mask = {mask: idx for idx, mask in enumerate(masks)}
    nodes = 1  # the root
    exhausted = budget < 1
    accepted: Dict[str, ContextSystem] = {}

    def accept(chosen: Tuple[int, ...]) -> None:
        # verify_system holds: the seed is verified, and each triple
        # commutes and carries its product's sign; parity_witness holds:
        # odd == 0 at a leaf, and the count of -identity contexts is odd
        neg = seed_neg + sum(1 for i in chosen if triples[i].sign == -1)
        if neg % 2 == 0:
            return
        system = _assemble(seed, [triples[i] for i in chosen])
        key = canonical_form(system)
        accepted.setdefault(key, system)

    def count(total: int) -> bool:
        # the node count becomes total, or budget + 1 if that is more
        nonlocal nodes, exhausted
        if total > budget:
            nodes, exhausted = budget + 1, True
        else:
            nodes = total
        return exhausted

    def visit(chosen: List[int], odd: int, remaining: int) -> None:
        nonlocal nodes, exhausted
        # a live node: |odd| <= 3 * remaining, and odd == 0 at a leaf
        if not remaining:
            accept(tuple(sorted(chosen)))
            return
        rest = 3 * (remaining - 1)
        low = odd & -odd
        pivot = low.bit_length() - 1  # the smallest (x, z) pair in odd
        if odd:
            candidates = by_obs.get(pivot, [])
        else:
            candidates = range(max(chosen, default=-1) + 1, len(triples))
        # below the bound every child is live; from it on, only the triples
        # {pivot, b, pivot ^ b} with b in odd can be, looked up by their
        # masks unless there are no more candidates than members of odd
        size = odd.bit_count()
        if size < rest or len(candidates) <= size:
            for idx in candidates:
                if idx in chosen:
                    continue
                nodes += 1
                if nodes > budget:
                    exhausted = True
                    return
                child = odd ^ masks[idx]
                if child.bit_count() <= rest:
                    chosen.append(idx)
                    visit(chosen, child, remaining - 1)
                    chosen.pop()
                    if exhausted:
                        return
            return
        found = set()
        pairs = odd ^ low
        while pairs:
            bit = pairs & -pairs
            pairs ^= bit
            c = (bit.bit_length() - 1) ^ pivot
            found.add(by_mask.get(low | bit | 1 << c))
        found.discard(None)
        taken = sorted([i for i in chosen if masks[i] & low])
        base = nodes
        for idx in sorted(found):
            if idx in chosen or (odd ^ masks[idx]).bit_count() > rest:
                continue
            # the candidates before idx, less the chosen ones, are dead
            rank = bisect_left(candidates, idx) - bisect_left(taken, idx)
            if count(base + rank + 1):
                return
            chosen.append(idx)
            visit(chosen, odd ^ masks[idx], remaining - 1)
            chosen.pop()
            if exhausted:
                return
            base = nodes - rank - 1
        count(base + len(candidates) - len(taken))

    if not exhausted and odd0.bit_count() <= 3 * k:
        visit([], odd0, k)
    # visit's closure holds visit itself: break that cycle so the tables
    # are freed on return, not at some later garbage collection
    del visit
    systems = [accepted[key] for key in sorted(accepted)]
    return SearchResult(systems, complete=not exhausted, nodes=nodes)


def _assemble(
    seed: ContextSystem, new_contexts: Sequence[TripleContext]
) -> ContextSystem:
    obs: List[PauliWord] = list(seed.observables)
    index: Dict[ObsKey, int] = {(ob.x, ob.z): i for i, ob in enumerate(obs)}
    contexts: List[Context] = list(seed.contexts)
    for t in new_contexts:
        members = []
        for key in t.members:
            if key not in index:
                index[key] = len(obs)
                obs.append(PauliWord(seed.n, key[0], key[1]).unsigned())
            members.append(index[key])
        contexts.append(Context(tuple(members), t.sign))
    return ContextSystem(seed.n, tuple(obs), tuple(contexts))


# ---------------------------------------------------------------------------
# canonical forms under column permutation x letter permutation

# the six X/Y/Z relabelings as str.translate tables
_RELABELINGS = [
    str.maketrans("XYZ", "".join(image))
    for image in itertools.permutations("XYZ")
]


def canonical_form(sys: ContextSystem) -> str:
    """Minimal serialization over all qubit and letter permutations.

    For each qubit permutation and each X/Y/Z relabeling the form is
    ``repr((sorted words, sorted (sorted member words, sign) per context))``
    with every observable at phase +1, and the least form wins.  The sign
    is that of the product of the transformed members.  A transformed word
    is its letter string permuted by position lookup and then relabeled by
    a translate table; no word is multiplied inside the loop, because no
    transformation changes a product's sign.  A qubit permutation or a
    cyclic relabeling is a Clifford conjugation, which maps each letter to
    a letter with phase +1.  A transposition composes one with complex
    conjugation: X<->Z fixing Y is w -> H conj(w) H.  Both maps are
    multiplicative and keep real scalars, so the transformed members
    multiply to the transformed product with the same sign, and each
    context's sign is the one ``product_of`` gives once, untransformed.
    A context whose product is not Hermitian raises ValueError.
    """
    letters = [ob.letters() for ob in sys.observables]
    contexts = [
        (ctx.members, product_of(sys.context_words(ctx)).sign)
        for ctx in sys.contexts
    ]
    best = best_words = None
    for qperm in itertools.permutations(range(sys.n)):
        pick = itemgetter(*qperm)
        permuted = ["".join(pick(w)) for w in letters]
        for table in _RELABELINGS:
            words = [w.translate(table) for w in permuted]
            ordered = sorted(words)
            # equal-length words: the word list alone orders the forms
            # unless it ties with the best one
            if best is not None and ordered > best_words:
                continue
            ctx_forms = sorted(
                (tuple(sorted([words[m] for m in ms])), sign)
                for ms, sign in contexts
            )
            form = repr((ordered, ctx_forms))
            if best is None or form < best:
                best, best_words = form, ordered
    return best
