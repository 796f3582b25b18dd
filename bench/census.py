"""The ``census`` workload: critical parity proofs on kite sub-tables.

Set-up builds the 36-basis kite table the way the paper does (completion
search, projector pool, exact-cover bases).  A pass takes the census of
two sub-tables, each the kite table less five bases, with kernel
dimension 15.

The dropped bases come from a reference drop set moved by a seeded
4-qubit Pauli operator.  Conjugating by a Pauli operator flips the signs
of the stabilizer elements it anticommutes with, which permutes each
context's projectors and maps bases to bases; so every seed gets other
bases dropped, but a sub-table with exactly the same census counts.  That
keeps the amount of work equal across seeds, which free sampling does not
(its census times spread from 5 s to 9 s at kernel dimension 15).
"""

from __future__ import annotations

import random
from typing import List, Sequence, Tuple

import numpy as np

import oracles

# two drop sets of different census classes, each with the counts every
# Pauli image of it has: (drop set, kernel dimension, subset survivors,
# critical proofs).  The oracle census in ``check_census`` gives the same.
REFERENCE_DROPS = (
    ((6, 11, 28, 30, 32), 15, 2608, 2160),
    ((1, 12, 20, 28, 29), 15, 1856, 1448),
)


def pauli_image(table, px: int, pz: int) -> List[int]:
    """Basis permutation induced by conjugating with the Pauli X^px Z^pz."""
    pool = table.pool
    index = {p.key: i for i, p in enumerate(pool.projectors)}
    image = []
    for p in pool.projectors:
        flipped = tuple(sorted(
            ((x, z), -s if ((x & pz).bit_count() + (z & px).bit_count()) % 2 else s)
            for (x, z), s in p.elements
        ))
        image.append(index[flipped])
    basis_index = {frozenset(b.projector_ids): j for j, b in enumerate(table.bases)}
    return [
        basis_index[frozenset(image[q] for q in b.projector_ids)]
        for b in table.bases
    ]


def odd_kernel_vectors(bases) -> Tuple[int, List[int]]:
    """(kernel dimension, odd kernel vectors as bit j = basis j) by the
    benchmark's own GF(2) elimination."""
    kernel = oracles.gf2_kernel([sum(1 << p for p in b.projector_ids) for b in bases])
    return len(kernel), [v for v in oracles.span(kernel) if v.bit_count() % 2]


def oracle_census(bases) -> Tuple[int, List[int], List[int]]:
    """(kernel dimension, subset survivors, critical proofs) by the oracles
    alone.  A survivor is an odd kernel vector with no other odd kernel
    vector inside its support; a critical proof is a survivor that the
    exact-one search finds satisfiable with any one basis dropped.  The
    inclusion test packs a vector into 64 bits, so at most 64 bases."""
    kdim, odd = odd_kernel_vectors(bases)
    vecs = np.array(odd, dtype=np.uint64)
    full = (1 << 64) - 1
    survivors = [
        v for v in odd
        if np.count_nonzero((vecs & np.uint64(~v & full)) == 0) == 1
    ]
    critical = [v for v in survivors if oracles.is_critical(_bases_of(v, bases))]
    return kdim, survivors, critical


class Census:
    name = "census"
    setup_repeats = 3
    ops_per_pass = len(REFERENCE_DROPS)

    def setup(self, ks, seed: int) -> dict:
        system = ks.reproduce.kite_completion()
        pool = ks.projectors.projectors_of(system)
        table = ks.parity.enumerate_bases(pool)
        rng = random.Random(seed)
        subtables, drops = [], []
        for ref, *_ in REFERENCE_DROPS:
            image = pauli_image(table, rng.randrange(16), rng.randrange(16))
            if sorted(image) != list(range(len(table.bases))):
                raise RuntimeError("the Pauli image does not permute the bases")
            drop = sorted(image[j] for j in ref)
            kept = tuple(b for j, b in enumerate(table.bases) if j not in drop)
            subtables.append(ks.parity.BasisTable(pool, kept))
            drops.append(drop)
        return {
            "ks": ks, "seed": seed, "table": table,
            "subtables": subtables, "drops": drops,
        }

    def cleanup(self, inputs: dict) -> None:
        pass

    def prepare(self, inputs: dict) -> None:
        pass

    def run_pass(self, inputs: dict, tracer) -> list:
        census = inputs["ks"].parity.enumerate_parity_proofs
        return [census(t) for t in inputs["subtables"]]

    # -- checks -----------------------------------------------------------

    def summary(self, results: list) -> list:
        return [
            (c.total, c.subset_critical_total, c.kernel_dimension,
             sorted(c.symbol_counts.items()), sorted(c.basis_count_histogram.items()),
             [p.basis_ids for p in c.proofs])
            for c in results
        ]

    def check(self, inputs: dict, results: list) -> Tuple[int, List[str]]:
        problems = check_table(inputs["table"])
        for table, census, drop, ref in zip(
            inputs["subtables"], results, inputs["drops"], REFERENCE_DROPS
        ):
            problems += [
                f"sub-table less {drop}: {p}"
                for p in check_census(table, census, ref[1:])
            ]
        return 0, problems


def check_table(table) -> List[str]:
    """32 projectors, 36 bases (6 pure, 30 hybrid), every basis an exact
    cover of the identity and the table saturated, all by dense matrices."""
    problems = []
    projs = table.pool.projectors
    if (len(projs), len(table.bases)) != (32, 36):
        problems.append(f"kite table has {len(projs)} projectors, {len(table.bases)} bases")
    kinds = [b.kind for b in table.bases]
    if (kinds.count("pure"), kinds.count("hybrid")) != (6, 30):
        problems.append("kite table is not 6 pure + 30 hybrid bases")
    dense = [oracles.projector_matrix([str(g) for g in p.generators]) for p in projs]
    ident = np.eye(dense[0].shape[0])
    together = set()
    for b in table.bases:
        ids = b.projector_ids
        if not np.allclose(sum(dense[i] for i in ids), ident, atol=1e-9):
            problems.append(f"basis {ids} does not sum to the identity")
        together.update((a, c) for a in ids for c in ids if a < c)
    for a in range(len(dense)):
        for c in range(a + 1, len(dense)):
            if oracles.matrices_orthogonal(dense[a], dense[c]) and (a, c) not in together:
                problems.append(f"orthogonal projectors {a},{c} share no basis")
    return problems


def _bases_of(vec: int, bases) -> List[Sequence[int]]:
    return [b.projector_ids for j, b in enumerate(bases) if vec >> j & 1]


def check_census(table, census, expected: Tuple[int, int, int]) -> List[str]:
    """The program's census against the oracle census of the same
    sub-table, and both against the counts every Pauli image shares."""
    problems = []
    kdim, survivors, critical = oracle_census(table.bases)
    oracle = (kdim, len(survivors), len(critical))
    program = (census.kernel_dimension, census.subset_critical_total, census.total)
    if program != oracle:
        problems.append(
            f"kernel dimension, survivors, critical proofs {program}, oracle {oracle}"
        )
    if oracle != expected:
        problems.append(f"oracle counts {oracle}, reference drop set {expected}")
    if census.total != len(census.proofs):
        problems.append("total differs from the number of proofs")
    if sum(census.symbol_counts.values()) != census.total:
        problems.append("symbol counts do not sum to the total")
    if sum(census.basis_count_histogram.values()) != census.total:
        problems.append("basis-count histogram does not sum to the total")
    reported = {sum(1 << j for j in p.basis_ids) for p in census.proofs}
    missing, extra = set(critical) - reported, reported - set(critical)
    if missing or extra:
        problems.append(
            f"{len(missing)} critical proofs not reported, "
            f"{len(extra)} reported proofs not critical by the oracle"
        )
    return problems
