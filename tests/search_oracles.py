"""Reference versions of the completion-search kernels, for tests only.

``three_member_contexts``, ``transform_word``, ``transform_system`` and
``canonical_form`` are the Pauli-word and string versions that the library
replaced with bitmask arithmetic.  ``search_completions`` is the search
that calls into every counted node, dead or live; the library counts the
dead children without visiting them.  The tests require the library to
agree with each of them.
"""

import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from ksparity.pauli import PauliWord, all_words, commutes, multiply, product_of
from ksparity.search import (
    ObsKey,
    SearchResult,
    TripleContext,
    _assemble,
    canonical_form as library_canonical_form,
    three_member_contexts as library_triples,
)
from ksparity.systems import ContextSystem, parity_witness, verify_system

_LETTER_BITS = {"X": (1, 0), "Y": (1, 1), "Z": (0, 1)}


def three_member_contexts(n: int) -> List[TripleContext]:
    """All {P, Q, |PQ|} triples, by multiplying every commuting word pair."""
    words = list(all_words(n))
    seen: Dict[FrozenSet[ObsKey], TripleContext] = {}
    for i, p in enumerate(words):
        for q in words[i + 1:]:
            if not commutes(p, q):
                continue
            prod = multiply(p, q)
            key = frozenset([(p.x, p.z), (q.x, q.z), (prod.x, prod.z)])
            if len(key) != 3 or (0, 0) in key or key in seen:
                continue
            members = tuple(sorted(key))
            sign = product_of(
                [PauliWord(n, x, z).unsigned() for x, z in members]
            ).sign
            seen[key] = TripleContext(members, sign)
    return sorted(seen.values(), key=lambda t: t.members)


def transform_word(
    word: PauliWord, qperm: Sequence[int], lperm: Dict[str, str]
) -> PauliWord:
    """Permute qubit positions and relabel X/Y/Z letters, phase +1."""
    n = word.n
    x = z = 0
    for pos in range(n):
        letter = word.letter(qperm[pos])
        if letter == "I":
            continue
        xb, zb = _LETTER_BITS[lperm[letter]]
        bit = n - 1 - pos
        x |= xb << bit
        z |= zb << bit
    return PauliWord(n, x, z).unsigned()


def transform_system(
    sys: ContextSystem, qperm: Sequence[int], lperm: Dict[str, str]
) -> ContextSystem:
    """The same contexts on transformed words, signs taken from products."""
    obs = tuple(transform_word(ob, qperm, lperm) for ob in sys.observables)
    contexts = tuple(
        type(ctx)(ctx.members, product_of([obs[m] for m in ctx.members]).sign)
        for ctx in sys.contexts
    )
    return ContextSystem(sys.n, obs, contexts)


def canonical_form(sys: ContextSystem) -> str:
    """Least serialization, multiplying out every transformed context."""
    best: Optional[str] = None
    letters = "XYZ"
    for qperm in itertools.permutations(range(sys.n)):
        for lp in itertools.permutations(letters):
            lperm = dict(zip(letters, lp))
            new_obs = [
                transform_word(ob, qperm, lperm) for ob in sys.observables
            ]
            ctx_forms = []
            for ctx in sys.contexts:
                words = sorted(str(new_obs[m]) for m in ctx.members)
                sign = product_of([new_obs[m] for m in ctx.members]).sign
                ctx_forms.append((tuple(words), sign))
            form = repr((sorted(str(w) for w in new_obs), sorted(ctx_forms)))
            if best is None or form < best:
                best = form
    return best or ""


def search_completions(
    seed: ContextSystem, shape: Sequence[int], budget: int
) -> SearchResult:
    """The completion search visiting every node it counts, one at a time.

    A node returns on its first test when its budget runs out, when it is
    a leaf, or when more than three times its remaining contexts of
    observables still lie on an odd number of contexts.
    """
    if not verify_system(seed).ok:
        return SearchResult([], complete=True, nodes=0)
    n = seed.n
    triples = library_triples(n)
    masks: List[int] = []
    by_obs: Dict[int, List[int]] = {}
    for idx, t in enumerate(triples):
        mask = 0
        for x, z in t.members:
            ob = (x << n) | z
            mask |= 1 << ob
            by_obs.setdefault(ob, []).append(idx)
        masks.append(mask)

    odd0 = 0
    for ctx in seed.contexts:
        for m in ctx.members:
            ob = seed.observables[m]
            odd0 ^= 1 << ((ob.x << n) | ob.z)
    seed_neg = sum(1 for c in seed.contexts if c.sign == -1)

    nodes = 0
    exhausted = False
    accepted: Dict[str, ContextSystem] = {}

    def accept(chosen: Tuple[int, ...]) -> None:
        neg = seed_neg + sum(1 for i in chosen if triples[i].sign == -1)
        if neg % 2 == 0:
            return
        system = _assemble(seed, [triples[i] for i in chosen])
        if not verify_system(system).ok or not parity_witness(system):
            return
        accepted.setdefault(library_canonical_form(system), system)

    def recurse(chosen: List[int], odd: int, remaining: int) -> None:
        nonlocal nodes, exhausted
        if exhausted:
            return
        nodes += 1
        if nodes > budget:
            exhausted = True
            return
        if remaining == 0:
            if not odd:
                accept(tuple(sorted(chosen)))
            return
        if odd.bit_count() > 3 * remaining:
            return
        if odd:
            candidates = by_obs.get((odd & -odd).bit_length() - 1, [])
        else:
            last = max(chosen) if chosen else -1
            candidates = range(last + 1, len(triples))
        for idx in candidates:
            if idx in chosen:
                continue
            chosen.append(idx)
            recurse(chosen, odd ^ masks[idx], remaining - 1)
            chosen.pop()

    recurse([], odd0, len(shape))
    systems = [accepted[key] for key in sorted(accepted)]
    return SearchResult(systems, complete=not exhausted, nodes=nodes)
