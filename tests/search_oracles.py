"""Reference versions of the completion-search kernels, for tests only.

Each function is the Pauli-word and string version that the library
replaced with bitmask arithmetic; the tests require the library to agree
with it.
"""

import itertools
from typing import Dict, FrozenSet, List, Optional, Sequence

from ksparity.pauli import PauliWord, all_words, commutes, multiply, product_of
from ksparity.search import ObsKey, TripleContext
from ksparity.systems import ContextSystem

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
