"""The ``paradox`` workload: the GHZ path on star tables.

Set-up builds the star tables of 4 to 14 qubits, seeded eigenvalue
signatures (an odd number of -1 entries, so the product matches the
table's -identity) and a control table that is not genuinely
multipartite: a star table on four of six qubits next to a seeded
{A1, 1A, AA} context on the other two.  A pass runs

- ``ghz_infeasible`` on every table (exhaustive count up to 10 qubits),
- ``is_genuinely_multipartite`` on the star tables up to 12 qubits and on
  the control, whose witness comes from ``find_proper_subproof``,
- ``joint_eigenstate`` and ``bell_support`` up to 10 qubits,
- ``measure_computational`` on every qubit pair and outcome of the 4-, 6-
  and 8-qubit states, with ``classify_residual`` against the next smaller
  star state.
"""

from __future__ import annotations

import itertools
import math
import random
from typing import Dict, List, Tuple

import numpy as np

import oracles

GHZ_N = range(2, 8)        # 4..14 qubits
MULTIPARTITE_N = range(2, 7)  # 4..12 qubits
STATE_N = range(2, 6)      # 4..10 qubits
MEASURE_N = range(2, 5)    # 4..8 qubits
OUTCOMES = ("00", "01", "10", "11")


def seeded_eigenvalues(rng: random.Random, rows: int) -> List[int]:
    flips = rng.randrange(1, rows + 1, 2)
    negative = set(rng.sample(range(rows), flips))
    return [-1 if i in negative else 1 for i in range(rows)]


def control_eigenvalues(rng: random.Random) -> List[int]:
    """Odd flips on the five star rows, even flips on the three rows of the
    +identity context: the control has two row dependencies to respect."""
    extra = rng.choice(([1, 1, 1], [-1, -1, 1], [-1, 1, -1], [1, -1, -1]))
    return seeded_eigenvalues(rng, 5) + extra


def control_rows(rng: random.Random, star_rows: List[str]) -> List[str]:
    """Star table on four of six qubits plus a +identity context on the
    remaining two, placed at seeded positions."""
    letter = rng.choice("XYZ")
    pair = sorted(rng.sample(range(6), 2))
    others = [q for q in range(6) if q not in pair]
    rows = []
    for row in star_rows:
        word = ["I"] * 6
        for q, ch in zip(others, row):
            word[q] = ch
        rows.append("".join(word))
    for a, b in ((letter, "I"), ("I", letter), (letter, letter)):
        word = ["I"] * 6
        word[pair[0]], word[pair[1]] = a, b
        rows.append("".join(word))
    return rows


def consecutive_pairs(n: int) -> List[Tuple[int, int]]:
    return [(q, q + 1) for q in range(1, n, 2)]


class Paradox:
    name = "paradox"
    setup_repeats = 9
    ops_per_pass = (
        len(GHZ_N) + len(MULTIPARTITE_N) + 3 + 2 * len(STATE_N)
        + sum(math.comb(2 * N, 2) * len(OUTCOMES) for N in MEASURE_N)
    )

    def setup(self, ks, seed: int) -> dict:
        rng = random.Random(seed)
        stars = {N: ks.systems.build_star_table(N) for N in GHZ_N}
        ev = {N: seeded_eigenvalues(rng, len(s.observables)) for N, s in stars.items()}
        rows = control_rows(rng, [str(o) for o in stars[2].observables])
        control = ks.systems.system_from_rows(rows, -1)
        return {
            "ks": ks, "stars": stars, "ev": ev, "control": control,
            "control_ev": control_eigenvalues(rng),
        }

    def cleanup(self, inputs: dict) -> None:
        pass

    def prepare(self, inputs: dict) -> None:
        pass

    def run_pass(self, inputs: dict, tracer) -> dict:
        ks = inputs["ks"]
        systems, states = ks.systems, ks.states
        stars, ev = inputs["stars"], inputs["ev"]
        out: Dict[object, object] = {}
        for N in GHZ_N:
            out["ghz", N] = systems.ghz_infeasible(stars[N], ev[N])
        for N in MULTIPARTITE_N:
            out["multipartite", N] = systems.is_genuinely_multipartite(stars[N])
        control, control_ev = inputs["control"], inputs["control_ev"]
        out["ghz", "control"] = systems.ghz_infeasible(control, control_ev)
        out["witness", "control"] = systems.find_proper_subproof(control)
        out["state", "control"] = states.joint_eigenstate(control, control_ev)
        for N in STATE_N:
            psi = states.joint_eigenstate(stars[N], ev[N])
            out["state", N] = psi
            out["bell", N] = states.bell_support(psi, consecutive_pairs(2 * N))
        for N in MEASURE_N:
            psi = out["state", N]
            reference = out["state", N - 1] if N > 2 else None
            for pair in itertools.combinations(range(1, 2 * N + 1), 2):
                for outcome in OUTCOMES:
                    prob, residual = states.measure_computational(psi, pair, outcome)
                    verdict = (
                        None if residual is None
                        else states.classify_residual(residual, reference)
                    )
                    out["measure", N, pair, outcome] = (prob, residual, verdict)
        return out

    # -- checks -----------------------------------------------------------

    def summary(self, out: dict) -> list:
        return [(k, _plain(v)) for k, v in out.items()]

    def check(self, inputs: dict, out: dict) -> Tuple[int, List[str]]:
        return 0, check_paradox(inputs, out)


def _plain(value):
    """Comparable form of a result: states become their amplitude bytes."""
    if hasattr(value, "amplitudes"):
        return value.amplitudes.tobytes()
    if isinstance(value, tuple):
        return tuple(_plain(v) for v in value)
    return value


def check_paradox(inputs: dict, out: dict) -> List[str]:
    problems = []
    tables = {N: ([str(o) for o in s.observables], inputs["ev"][N])
              for N, s in inputs["stars"].items()}
    tables["control"] = ([str(o) for o in inputs["control"].observables],
                         inputs["control_ev"])
    for key, (rows, ev) in tables.items():
        eqs, rhs = oracles.ghz_equations(rows, ev)
        expected = oracles.slot_parity_infeasible(rows, ev)
        if expected == oracles.gf2_solvable(eqs, rhs):
            problems.append(f"table {key}: slot parity and GF(2) oracles disagree")
        if out["ghz", key] != expected:
            problems.append(f"table {key}: ghz_infeasible {out['ghz', key]}, oracle {expected}")
    for N in MULTIPARTITE_N:
        if out["multipartite", N] is not True:
            problems.append(f"star N={N} not reported genuinely multipartite")
    witness = out["witness", "control"]
    rows, _ = tables["control"]
    if witness is None or not oracles.validate_subproof(rows, *witness):
        problems.append(f"control table witness {witness} does not validate")
    for key in ["control", *STATE_N]:
        rows, ev = tables[key]
        vec = out["state", key].amplitudes
        if abs(np.linalg.norm(vec) - 1) > 1e-9 or oracles.eigen_residual(rows, ev, vec) > 1e-9:
            problems.append(f"table {key}: eigen-equations fail")
    for N in STATE_N:
        count, mags = out["bell", N]
        terms = 1 << (N - 1)
        if count != terms or any(abs(m - terms ** -0.5) > 1e-9 for m in mags):
            problems.append(f"star N={N}: Bell support {count} terms {mags}")
    for N in MEASURE_N:
        psi = out["state", N].amplitudes
        reference = out["state", N - 1].amplitudes if N > 2 else None
        for pair in itertools.combinations(range(1, 2 * N + 1), 2):
            total = 0.0
            for outcome in OUTCOMES:
                prob, residual, verdict = out["measure", N, pair, outcome]
                total += prob
                want_prob, want_residual = oracles.measure(psi, pair, outcome)
                tag = f"N={N} qubits {pair} outcome {outcome}"
                if abs(prob - want_prob) > 1e-9:
                    problems.append(f"{tag}: probability {prob}, oracle {want_prob}")
                if (residual is None) != (want_residual is None):
                    problems.append(f"{tag}: residual presence differs")
                elif residual is not None:
                    overlap = abs(np.vdot(residual.amplitudes, want_residual))
                    if abs(overlap - 1) > 1e-9:
                        problems.append(f"{tag}: residual differs")
                    want = oracles.residual_verdict(want_residual, reference)
                    if verdict != want:
                        problems.append(f"{tag}: verdict {verdict}, oracle {want}")
            if abs(total - 1) > 1e-9:
                problems.append(f"N={N} qubits {pair}: probabilities sum to {total}")
    return problems
