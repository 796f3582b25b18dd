"""The ``queries`` workload: a closed loop of in-process CLI requests.

One caller sends a fixed, seeded stream of ``ksparity`` command lines and
waits for each to finish before sending the next.  A request runs the
click entry point in this process with its output captured; its exit
status is the one the installed command would give (``SystemExit`` code,
or 1 with a traceback when an exception escapes).

Inputs are small: the three two-qubit square systems, the kite
completion, star tables of 4 to 8 qubits, the six-qubit control table
of the ``paradox`` workload, a square with one context sign flipped,
eigenstates of the 4- and 6-qubit tables and proof files drawn from the
square and kite kernels.  Every round sends the same 47 requests in the
same seeded order; the verb counts per round are fixed (``MIX``).  Three
of the requests are malformed and documented to exit 2 (``MALFORMED``).
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
import shutil
import tempfile
import traceback
from pathlib import Path
from typing import Dict, List, Sequence, Tuple

import numpy as np

import oracles
from paradox import control_eigenvalues, control_rows, seeded_eigenvalues

WORKDIR = Path(__file__).resolve().parent / "out"
# requests per round for each verb: a synthetic probe with no recorded
# usage behind it, weighted so that every verb runs and ``symbol`` (one
# table rebuilt per proof checked) is the most frequent
MIX = {
    "verify": 4, "projectors": 4, "bases": 4, "symbol": 12, "ghz-check": 3,
    "state": 3, "bell": 3, "measure": 4, "multipartite": 3,
    "parity-census": 1, "export-graph": 3,
}
# sent to the 4-qubit state file
MALFORMED = (
    ("measure", ["--qubits", "0", "--outcome", "0"]),  # qubit 0 is not in 1..4
    ("measure", ["--qubits", "9", "--outcome", "0"]),  # qubit 9 is not in 1..4
    ("bell", ["--pairing", "1,x;3,4"]),  # a qubit that is not an integer
)


# click caches a stream wrapper per sys.stdout/sys.stderr object in a
# WeakKeyDictionary whose value is the stream itself, so a fresh StringIO per
# request would never be freed and memory would grow with every request.
# Every request writes to these two buffers instead.
_OUT, _ERR = io.StringIO(), io.StringIO()


def invoke(main, argv: Sequence[str]) -> Tuple[int, str, str]:
    """Run one command line in this process: (exit status, stdout, stderr)."""
    out, err = _OUT, _ERR
    for buffer in (out, err):
        buffer.seek(0)
        buffer.truncate()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=list(argv), prog_name="ksparity", standalone_mode=True)
            code = 0
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception:  # the installed command would die with a traceback
            traceback.print_exc()
            code = 1
    return code, out.getvalue(), err.getvalue()


class Queries:
    name = "queries"
    setup_repeats = 3
    ops_per_pass = sum(MIX.values()) + len(MALFORMED)

    # -- set-up: systems, states and files through the public API ---------

    def setup(self, ks, seed: int) -> dict:
        rng = random.Random(seed)
        WORKDIR.mkdir(exist_ok=True)
        work = Path(tempfile.mkdtemp(prefix="queries-", dir=WORKDIR))
        systems = {}
        for i, s in enumerate(ks.reproduce.mermin_square_search().systems):
            systems[f"square{i}"] = s
        systems["kite"] = ks.reproduce.kite_completion()
        for N in (2, 3, 4):
            systems[f"star{N}"] = ks.systems.build_star_table(N)
        star_rows = [str(o) for o in systems["star2"].observables]
        systems["control"] = ks.systems.system_from_rows(control_rows(rng, star_rows), -1)
        square = systems["square0"]
        flip = rng.randrange(len(square.contexts))
        systems["broken"] = ks.ContextSystem(square.n, square.observables, tuple(
            ks.Context(c.members, -c.sign if i == flip else c.sign)
            for i, c in enumerate(square.contexts)
        ))
        files = {}
        for name, s in systems.items():
            files[name] = work / f"{name}.json"
            files[name].write_text(s.to_json())
        eigenvalues = {
            name: seeded_eigenvalues(rng, len(systems[name].observables))
            for name in ("star2", "star3", "star4")
        }
        eigenvalues["control"] = control_eigenvalues(rng)
        states = {}
        for name in ("star2", "star3", "control"):
            psi = ks.states.joint_eigenstate(systems[name], eigenvalues[name])
            states[name] = psi.amplitudes
            files[f"psi-{name}"] = work / f"psi-{name}.json"
            files[f"psi-{name}"].write_text(psi.to_json())
        tables = {
            name: ks.parity.enumerate_bases(ks.projectors.projectors_of(systems[name]))
            for name in ("square0", "square1", "square2", "kite")
        }
        return {
            "ks": ks, "seed": seed, "work": work, "systems": systems,
            "files": files, "eigenvalues": eigenvalues, "states": states,
            "tables": tables,
        }

    def cleanup(self, inputs: dict) -> None:
        shutil.rmtree(inputs["work"], ignore_errors=True)

    # -- the request stream and what each request must return -------------

    def prepare(self, inputs: dict) -> None:
        rng = random.Random(inputs["seed"] + 1)
        files = {k: str(v) for k, v in inputs["files"].items()}
        proofs = choose_proofs(rng, inputs)
        requests: List[dict] = []

        def add(verb, argv, expect, *args, malformed=False):
            requests.append({"verb": verb, "argv": [verb, *argv], "expect": expect,
                             "args": args, "malformed": malformed})

        # each verb gets a fixed set of input kinds, so a round costs the
        # same whatever the seed; the seed picks among the three squares
        def square():
            return rng.choice(["square0", "square1", "square2"])

        for name in [square(), "kite", rng.choice(["star2", "star3", "control"]), "broken"]:
            add("verify", [files[name]], expect_verify, inputs["systems"][name])
        for name in [square(), "kite", "star2", "control"]:
            add("projectors", [files[name]], expect_projectors, inputs["systems"][name])
        for name in ["square0", "square1", "square2", "kite"]:
            add("bases", [files[name]], expect_bases, inputs["tables"][name])
        for i, (name, ids) in enumerate(proofs):
            path = inputs["work"] / f"proof{i}.json"
            path.write_text(json.dumps({"bases": ids}))
            add("symbol", [str(path), "--system", files[name]], expect_symbol,
                inputs["tables"][name], ids)
        for N in (2, 3, 4):
            ev = inputs["eigenvalues"][f"star{N}"]
            add("ghz-check", [files[f"star{N}"], "--eigenvalues", _signs(ev)],
                expect_ghz, inputs["systems"][f"star{N}"], ev)
        for name in ("star2", "star3", "control"):
            ev = inputs["eigenvalues"][name]
            add("state", [files[name], "--eigenvalues", _signs(ev)], expect_state,
                inputs["systems"][name], ev)
        for name in ("star2", "star3", "control"):
            n = inputs["systems"][name].n
            qubits = rng.sample(range(1, n + 1), n)
            pairs = [(qubits[i], qubits[i + 1]) for i in range(0, n, 2)]
            add("bell", [files[f"psi-{name}"], "--pairing", ";".join(f"{a},{b}" for a, b in pairs)],
                expect_bell, inputs["states"][name], pairs)
        for name in ("star2", "star3", "control", rng.choice(("star2", "star3", "control"))):
            n = inputs["systems"][name].n
            qubits = rng.sample(range(1, n + 1), rng.choice((1, 2)))
            outcome = "".join(rng.choice("01") for _ in qubits)
            add("measure", [files[f"psi-{name}"], "--qubits", ",".join(map(str, qubits)),
                            "--outcome", outcome],
                expect_measure, inputs["states"][name], qubits, outcome)
        for name in ("star2", "star3", "control"):
            add("multipartite", [files[name]], expect_multipartite,
                inputs["systems"][name], name == "control")
        name = square()
        add("parity-census", [files[name]], expect_census, inputs["tables"][name])
        for name in [square(), "kite", "control"]:
            add("export-graph", [files[name]], expect_graph, inputs["systems"][name])
        for verb, args in MALFORMED:
            add(verb, [files["psi-star2"], *args], expect_usage_error, malformed=True)
        rng.shuffle(requests)
        if len(requests) != self.ops_per_pass:
            raise RuntimeError(f"{len(requests)} requests, MIX says {self.ops_per_pass}")
        inputs["requests"] = requests

    def run_pass(self, inputs: dict, tracer) -> list:
        main = inputs["ks"].cli.main
        responses = []
        for req in inputs["requests"]:
            if tracer is None:
                responses.append(invoke(main, req["argv"]))
                continue
            response, frame = tracer.span("cli.request", invoke, main, req["argv"])
            _, child, seconds = frame
            tracer.requests.append({
                "verb": req["verb"], "seconds": seconds,
                "self_seconds": seconds - child, "exit": response[0],
                "output_bytes": len((response[1] + response[2]).encode()),
            })
            responses.append(response)
        return responses

    def summary(self, responses: list) -> list:
        return responses

    def check(self, inputs: dict, responses: list) -> Tuple[int, List[str]]:
        failed, problems = 0, []
        for req, (code, out, err) in zip(inputs["requests"], responses):
            try:
                verdict = req["expect"](code, out, err, *req["args"])
            except (ValueError, KeyError, TypeError, IndexError) as exc:
                verdict = [f"unreadable response: {exc!r}"]
            if not verdict:
                continue
            if req["malformed"]:
                failed += 1
            else:
                problems += [f"{' '.join(req['argv'])}: {v}" for v in verdict]
        return failed, problems


def _signs(ev: Sequence[int]) -> str:
    return ",".join("+" if e == 1 else "-" for e in ev)


def _rows(system) -> List[str]:
    return [str(o) for o in system.observables]


def _expect_exit(code: int, want: int, err: str) -> List[str]:
    if code != want:
        return [f"exit {code}, expected {want}: {err.strip()[-200:]}"]
    return []


# -- oracles per verb: each returns a list of problems, empty if right -----


def expect_usage_error(code, out, err) -> List[str]:
    problems = _expect_exit(code, 2, err)
    if "Traceback" in err:
        problems.append("traceback")
    return problems


def expect_verify(code, out, err, system) -> List[str]:
    rows = _rows(system)
    ok = True
    for ctx in system.contexts:
        words = [rows[m] for m in ctx.members]
        if not all(oracles.commute(a, b) for a, b in itertools.combinations(words, 2)):
            ok = False
        elif oracles.product_sign(words) != ctx.sign:
            ok = False
    doc = json.loads(out)
    problems = _expect_exit(code, 0 if ok else 1, err)
    if doc["ok"] is not ok or bool(doc["violations"]) == ok:
        problems.append(f"ok={doc['ok']} violations={doc['violations']}, oracle ok={ok}")
    return problems


def _projector_matrices(system) -> List[np.ndarray]:
    """Distinct eigenspace projectors of every context, one per sign
    pattern of the context's independent members."""
    rows = _rows(system)
    found: Dict[bytes, np.ndarray] = {}
    for ctx in system.contexts:
        words = [rows[m] for m in ctx.members]
        independent, basis = [], []
        for w in words:
            vec = sum(1 << i for i, ch in enumerate(w) if ch in "XY")
            vec |= sum(1 << (len(w) + i) for i, ch in enumerate(w) if ch in "ZY")
            if oracles.gf2_rank(basis + [vec]) > len(basis):
                basis.append(vec)
                independent.append(w)
        for signs in itertools.product("+-", repeat=len(independent)):
            gens = [w if s == "+" else "-" + w for w, s in zip(independent, signs)]
            mat = oracles.projector_matrix(gens)
            found.setdefault(np.round(mat, 9).tobytes(), mat)
    return list(found.values())


def expect_projectors(code, out, err, system) -> List[str]:
    problems = _expect_exit(code, 0, err)
    doc = json.loads(out)
    mats = _projector_matrices(system)
    ranks = sorted(int(round(np.trace(m).real)) for m in mats)
    if doc["count"] != len(mats) or sorted(p["rank"] for p in doc["projectors"]) != ranks:
        problems.append(f"{doc['count']} projectors, oracle {len(mats)} with ranks {ranks}")
    if len(doc["context_families"]) != len(system.contexts):
        problems.append("one context family per context expected")
    for p in doc["projectors"]:
        mat = oracles.projector_matrix(p["generators"])
        if not any(np.allclose(mat, m, atol=1e-9) for m in mats):
            problems.append(f"projector {p['generators']} is no context eigenspace")
    return problems


def _exact_covers(mats: List[np.ndarray]) -> List[Tuple[int, ...]]:
    """Every set of pairwise orthogonal projectors summing to the identity."""
    count = len(mats)
    dim = mats[0].shape[0]
    ranks = [int(round(np.trace(m).real)) for m in mats]
    orth = [[oracles.matrices_orthogonal(mats[a], mats[b]) for b in range(count)]
            for a in range(count)]
    found = []

    def grow(chosen, total, start):
        if total == dim:
            found.append(tuple(chosen))
            return
        for i in range(start, count):
            if total + ranks[i] <= dim and all(orth[i][j] for j in chosen):
                grow(chosen + [i], total + ranks[i], i + 1)

    grow([], 0, 0)
    return found


def expect_bases(code, out, err, table) -> List[str]:
    problems = _expect_exit(code, 0, err)
    doc = json.loads(out)
    mats = [oracles.projector_matrix([str(g) for g in p.generators])
            for p in table.pool.projectors]
    covers = {frozenset(c) for c in _exact_covers(mats)}
    listed = {frozenset(b["projectors"]) for b in doc["bases"]}
    if listed != covers or len(doc["bases"]) != len(covers):
        problems.append(f"{len(doc['bases'])} bases, oracle {len(covers)} exact covers")
    if doc["pure"] + doc["hybrid"] != len(doc["bases"]) or doc["partial"]:
        problems.append("pure + hybrid differs from the basis count, or partial")
    together = {(a, b) for c in covers for a in c for b in c if a < b}
    saturated = all(
        (a, b) in together
        for a in range(len(mats)) for b in range(a + 1, len(mats))
        if oracles.matrices_orthogonal(mats[a], mats[b])
    )
    if doc["saturated"] is not saturated:
        problems.append(f"saturated={doc['saturated']}, oracle {saturated}")
    return problems


def proof_symbol(table, ids: Sequence[int]) -> str:
    """ASCII symbol: (rank, multiplicity) class counts - basis-size counts."""
    mult: Dict[int, int] = {}
    for b in ids:
        for p in table.bases[b].projector_ids:
            mult[p] = mult.get(p, 0) + 1
    classes: Dict[Tuple[int, int], int] = {}
    for p, m in mult.items():
        gens = [str(g) for g in table.pool.projectors[p].generators]
        rank = int(round(np.trace(oracles.projector_matrix(gens)).real))
        classes[(rank, m)] = classes.get((rank, m), 0) + 1
    sizes: Dict[int, int] = {}
    for b in ids:
        size = len(table.bases[b].projector_ids)
        sizes[size] = sizes.get(size, 0) + 1
    left = " ".join(f"{c}^{r}_{m}" for (r, m), c in sorted(classes.items()))
    right = " ".join(f"{c}_{s}" for s, c in sorted(sizes.items()))
    return f"{left} - {right}"


def expect_symbol(code, out, err, table, ids) -> List[str]:
    bases = [table.bases[i].projector_ids for i in ids]
    valid = len(ids) % 2 == 1 and oracles.even_incidence(bases)
    critical = valid and oracles.is_critical(bases)
    problems = _expect_exit(code, 0 if valid else 1, err)
    doc = json.loads(out)
    if (doc["valid"], doc["critical"]) != (valid, critical):
        problems.append(f"valid={doc['valid']} critical={doc['critical']}, "
                        f"oracle {valid} {critical}")
    if doc["bases"] != sorted(ids) or doc["symbol_ascii"] != proof_symbol(table, ids):
        problems.append(f"symbol {doc['symbol_ascii']!r}, oracle {proof_symbol(table, ids)!r}")
    return problems


def expect_ghz(code, out, err, system, ev) -> List[str]:
    problems = _expect_exit(code, 0, err)
    doc = json.loads(out)
    rows = _rows(system)
    eqs, rhs = oracles.ghz_equations(rows, ev)
    slots = oracles.slot_count(rows)
    infeasible = oracles.slot_parity_infeasible(rows, ev)
    satisfying = 0 if infeasible else 1 << (slots - oracles.gf2_rank(eqs))
    want = {"eigenvalues": list(ev), "infeasible": infeasible,
            "satisfying_assignments": satisfying, "total_assignments": 1 << slots}
    if doc != want:
        problems.append(f"payload {doc}, oracle {want}")
    return problems


def _amplitudes(doc: dict) -> np.ndarray:
    return np.array([complex(re, im) for re, im in doc["amplitudes"]])


def expect_state(code, out, err, system, ev) -> List[str]:
    problems = _expect_exit(code, 0, err)
    doc = json.loads(out)
    vec = _amplitudes(doc)
    if doc["eigenvalues"] != list(ev) or abs(np.linalg.norm(vec) - 1) > 1e-9:
        problems.append("eigenvalues echo or normalisation wrong")
    elif oracles.eigen_residual(_rows(system), ev, vec) > 1e-9:
        problems.append("eigen-equations fail")
    return problems


def expect_bell(code, out, err, psi, pairs) -> List[str]:
    problems = _expect_exit(code, 0, err)
    doc = json.loads(out)
    n = int(np.log2(psi.size))
    vec = np.zeros(psi.size, dtype=complex)
    for key, (re, im) in doc["terms"].items():
        labels = [key[i:i + 2] for i in range(0, len(key), 2)]
        factors = [(a, b, lab) for (a, b), lab in zip(pairs, labels)]
        vec += complex(re, im) * oracles.bell_product(n, factors)
    if [tuple(p) for p in doc["pairing"]] != pairs or not np.allclose(vec, psi, atol=1e-9):
        problems.append("Bell terms do not rebuild the state")
    return problems


def expect_measure(code, out, err, psi, qubits, outcome) -> List[str]:
    problems = _expect_exit(code, 0, err)
    doc = json.loads(out)
    prob, residual = oracles.measure(psi, qubits, outcome)
    if abs(doc["probability"] - prob) > 1e-9:
        problems.append(f"probability {doc['probability']}, oracle {prob}")
    if (doc["residual"] is None) != (residual is None):
        problems.append("residual presence differs")
    elif residual is not None:
        overlap = abs(np.vdot(_amplitudes(doc["residual"]), residual))
        if abs(overlap - 1) > 1e-9:
            problems.append("residual differs")
    return problems


def expect_multipartite(code, out, err, system, control) -> List[str]:
    problems = _expect_exit(code, 0, err)
    doc = json.loads(out)
    if doc["genuinely_multipartite"] is control:
        problems.append(f"genuinely_multipartite={doc['genuinely_multipartite']}")
    if control:
        witness = doc.get("witness") or {"columns": [], "rows": []}
        cols = [c - 1 for c in witness["columns"]]
        if not oracles.validate_subproof(_rows(system), cols, witness["rows"]):
            problems.append(f"witness {witness} does not validate")
    return problems


def census_oracle(table) -> Tuple[int, int]:
    """(kernel dimension, number of critical odd kernel vectors)."""
    masks = [sum(1 << p for p in b.projector_ids) for b in table.bases]
    kernel = oracles.gf2_kernel(masks)
    critical = 0
    for vec in oracles.span(kernel):
        if vec.bit_count() % 2:
            bases = [b.projector_ids for j, b in enumerate(table.bases) if vec >> j & 1]
            critical += oracles.is_critical(bases)
    return len(kernel), critical


def expect_census(code, out, err, table) -> List[str]:
    problems = _expect_exit(code, 0, err)
    doc = json.loads(out)
    kdim, critical = census_oracle(table)
    if (doc["kernel_dimension"], doc["total"]) != (kdim, critical):
        problems.append(f"kernel {doc['kernel_dimension']} total {doc['total']}, "
                        f"oracle {kdim} {critical}")
    if sum(t["count"] for t in doc["types"]) != doc["total"]:
        problems.append("symbol counts do not sum to the total")
    if sum(doc["basis_count_histogram"].values()) != doc["total"]:
        problems.append("histogram does not sum to the total")
    return problems


def expect_graph(code, out, err, system) -> List[str]:
    problems = _expect_exit(code, 0, err)
    nodes = [line for line in out.splitlines() if "[label=" in line and "--" not in line]
    edges = [line for line in out.splitlines() if " -- " in line]
    bold = [line for line in edges if "style=bold" in line]
    want_edges = [(len(set(c.members)) * (len(set(c.members)) - 1) // 2, c.sign)
                  for c in system.contexts]
    if (len(nodes), len(edges), len(bold)) != (
        len(system.observables),
        sum(e for e, _ in want_edges),
        sum(e for e, s in want_edges if s == -1),
    ):
        problems.append(f"{len(nodes)} nodes, {len(edges)} edges, {len(bold)} bold")
    return problems


# -- symbol request inputs -------------------------------------------------


def choose_proofs(rng: random.Random, inputs: dict) -> List[Tuple[str, List[int]]]:
    """Proof files for the symbol requests: from the square tables, three
    critical proofs and three odd basis sets outside the kernel (every odd
    kernel vector of a square is critical); from the kite, two critical
    proofs, two odd kernel vectors that are not critical and two odd sets
    outside the kernel."""
    picks: List[Tuple[str, List[int]]] = []
    for names, want in (
        (["square0", "square1", "square2"], {"critical": 3, "nonproof": 3}),
        (["kite"], {"critical": 2, "noncritical": 2, "nonproof": 2}),
    ):
        for _ in range(100_000):
            if not any(want.values()):
                break
            name = rng.choice(names)
            table = inputs["tables"][name]
            bases = [b.projector_ids for b in table.bases]
            if rng.random() < 0.3:
                ids = sorted(rng.sample(range(len(bases)), rng.randrange(3, 12, 2)))
                kind = "nonproof"
                if oracles.even_incidence([bases[i] for i in ids]):
                    continue
            else:
                vec = 0
                for b in oracles.gf2_kernel([sum(1 << p for p in b) for b in bases]):
                    if rng.random() < 0.5:
                        vec ^= b
                if vec.bit_count() % 2 == 0:
                    continue
                ids = [j for j in range(len(bases)) if vec >> j & 1]
                critical = oracles.is_critical([bases[i] for i in ids])
                kind = "critical" if critical else "noncritical"
            if want.get(kind):
                want[kind] -= 1
                picks.append((name, ids))
        if any(want.values()):
            raise RuntimeError(f"could not draw symbol inputs {want} from {names}")
    return picks
