"""Complete the four-qubit kite and enumerate all its parity proofs.

The full census takes about 1 s on a 2-core Xeon host; everything
before it is instant.  Its drop-one test keeps every satisfying
assignment it finds as the set of bases that assignment covers exactly
once, and searches only the drops no such cover already decides; a
failed search also decides the drops that are its Pauli images.  Run
with: python3 demos/kite_census.py
"""

import time

from ksparity import (
    builtin_fixtures,
    enumerate_bases,
    enumerate_parity_proofs,
    export_dot,
    is_saturated,
    projectors_of,
    search_completions,
)


def main():
    # Two quadruples of commuting four-qubit observables sharing two
    # members: one multiplies to -identity (drawn thick), one to
    # +identity (thin).
    seed = builtin_fixtures()["kite-quadruples"]
    for ctx in seed.contexts:
        words = " ".join(str(seed.observables[m]) for m in ctx.members)
        print(f"    {words}   sign {ctx.sign:+d}")
    print("\nDOT export of the seed (render with graphviz):")
    print("   ", export_dot(seed).count("--"), "edges")

    # The figure the quadruples come from has four more three-member
    # contexts; the text does not list them, so search for every
    # completion in which each observable sits on an even number of
    # contexts.
    result = search_completions(seed, [3, 3, 3, 3])
    print(f"\n{len(result.systems)} inequivalent completions "
          f"({result.nodes} search nodes)")

    # Every completion produces the same projector and basis counts.
    sys = result.systems[0]
    pool = projectors_of(sys)
    table = enumerate_bases(pool)
    print(f"projectors: {len(pool)}   bases: {len(table.bases)} "
          f"({table.pure_count()} pure, {table.hybrid_count()} hybrid)   "
          f"saturated: {is_saturated(table)}")

    print("\ncounting critical parity proofs (about 1 s)...")
    start = time.time()
    census = enumerate_parity_proofs(table)
    print(f"done in {time.time() - start:.0f}s")

    print(f"total critical proofs: {census.total}")
    print(f"symbol types: {len(census.symbol_counts)}")
    print("proofs per basis count:",
          dict(sorted(census.basis_count_histogram.items())))
    small = census.smallest()
    print(f"smallest proof: {small.num_bases} bases, symbol {small.symbol}")

    # The weaker subset-based criticality notion keeps more proofs;
    # both counts are part of the census.
    print(f"subset-critical proofs (weaker notion): "
          f"{census.subset_critical_total}")


if __name__ == "__main__":
    main()
