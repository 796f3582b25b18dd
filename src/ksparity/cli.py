"""Command-line front end.

Every subcommand reads and writes canonical JSON so that re-running a
recorded command reproduces byte-identical result files.  Each request
takes one path: its system file is read and checked at load, the verb
runs, and ``Run.emit`` writes the result and the manifest.  Exit codes:

- 0: success.
- 1: verification failure.  A system file that ``verify_system`` rejects
  ends every verb that reads one with ``{"ok": false, "violations": [...]}``,
  except ``verify``, which reports it as its result, and ``state``, which
  rejects only members that do not commute.  An
  ``InconsistentEigenvaluesError`` gives ``{"ok": false, "error": ...}``.
- 2: usage error: an unreadable file, a malformed flag, a multi-context
  table given to a single-context verb, and any other ``ValueError`` or
  ``NotImplementedError`` from the library, with the verb's usage line.
- 3: resource cap: ``DenseCapError``, ``SearchCapError`` and this
  module's ``CapError`` give ``{"ok": false, "error": ...}``; a basis table
  or completion search cut short by its cap gives its partial result.
  ``CapError`` comes from this module's caps, among them ``POOL_CAP``,
  which ``projectors`` and the basis-table verbs check before they build
  a projector pool.

``_Verb.invoke`` is the one place that maps library errors to these codes.
"""

from __future__ import annotations

import hashlib
import json
import sys as _sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple, Union

import click
import numpy as np

from . import __version__, gf2
from .pauli import DenseCapError
from .systems import (
    ContextSystem,
    InconsistentEigenvaluesError,
    build_star_table,
    builtin_fixtures,
    check_eigenvalue_dependencies,
    commutation_violations,
    count_ghz_assignments,
    default_eigenvalues,
    find_proper_subproof,
    json_integer,
    verify_system,
)
from .states import (
    DENSE_STATE_CAP,
    DenseState,
    UnderdeterminedEigenstateError,
    bell_decompose,
    joint_eigenstate,
    measure_computational,
)
from .projectors import projectors_of
from .parity import (
    BASIS_CAP_DEFAULT,
    BRUTE_FORCE_BASES,
    KERNEL_CAP_DEFAULT,
    KERNEL_CAP_MAX,
    compare_with_brute_force,
    enumerate_bases,
    enumerate_parity_proofs,
    is_critical,
    is_saturated,
    proof_symbol,
    verify_proof,
)
from .search import (
    BUDGET_DEFAULT,
    SEARCH_QUBIT_CAP,
    SearchCapError,
    search_completions,
)
from .dot import export_dot
from .reproduce import run_all

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_USAGE = 2
EXIT_CAP = 3

# Largest table `multipartite` accepts.  find_proper_subproof walks the
# 2^n column subsets: on a star table the search takes about 0.04 s at 12
# qubits and 0.2 s at 14, growing about 5x per two qubits.  On each subset
# it walks the span of a quotient of the slot kernel, which doubles with
# each member: on distinct random Z-type words it took 0.03 s at 20
# members on 5 qubits (37 s at 31), and at 15 members 0.05 s on 10 qubits
# and 0.8-1.1 s on 14 (1.5-2.8 s at 16), in process on a 2-core Xeon
# host.  The member cap is the star table's member count at the qubit
# cap.  The library function itself has no cap.
MULTIPARTITE_QUBIT_CAP = 14
MULTIPARTITE_MEMBER_CAP = 15

# Largest N `gen star` accepts.  The table's time and JSON grow as N^2: at
# N = 500 (1000 qubits) the command takes about 0.7 s in-process and
# prints 2.3 MB, at N = 1000 about 2 s and 4 MB, on a 2-core Xeon host.
STAR_N_CAP = 500

# Largest node budget `search-complete` accepts.  A node is a candidate
# triple the search counts, whether or not it calls into it.  On a 2-core
# Xeon host the search counts about 1.4 million nodes a second where it
# calls into nearly every one (an empty 2-qubit seed, shape 12), and about
# 0.25 million where it accepts completions all along (an empty 3-qubit
# seed, shape 20), so a run at the cap takes from under a minute to about
# four minutes.  The default budget is BUDGET_DEFAULT (5 million).
SEARCH_BUDGET_CAP = 50_000_000

# Most projectors `projectors` and the basis-table verbs accept, checked on
# the bound sum(2^rank) over the contexts before the pool is built.  The
# orthogonality graph tests every pair of projectors, so its time grows as
# the square of the pool: on a 2-core Xeon host `gen star --N 4` (256
# projectors) builds its pool and bases in about 0.2 s, and `--N 5` (1024),
# above the cap, in about 2.4 s.
POOL_CAP = 512


class CapError(RuntimeError):
    """A request above one of this module's caps; exits 3."""


def _read_config(path: Optional[str]) -> Dict[str, int]:
    """TOML-style key = value lines for caps."""
    settings: Dict[str, int] = {}
    if not path:
        return settings
    known = {"dense_cap", "basis_cap", "kernel_cap"}
    try:
        text = Path(path).read_text()
    except (OSError, ValueError) as exc:
        raise click.UsageError(f"cannot read config file {path}: {exc}")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise click.UsageError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in known:
            raise click.UsageError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            settings[key] = int(value.strip())
        except ValueError:
            raise click.UsageError(f"{path}:{lineno}: {key} must be an integer")
        if settings[key] < 0:
            raise click.UsageError(f"{path}:{lineno}: {key} must not be negative")
        if key == "kernel_cap" and settings[key] > KERNEL_CAP_MAX:
            raise click.UsageError(
                f"{path}:{lineno}: kernel_cap must be at most {KERNEL_CAP_MAX}"
            )
    return settings


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as exc:
        raise click.UsageError(f"cannot write {path}: {exc}")


class Run:
    """Per-invocation settings, the output path and manifest bookkeeping."""

    def __init__(self, settings: Dict[str, int], ascii_only: bool,
                 manifest_path: Optional[str]):
        self.settings = settings
        self.ascii_only = ascii_only
        self.manifest_path = manifest_path
        self.output: Optional[str] = None
        self.inputs: List[str] = []
        self.started = time.perf_counter()

    def cap(self, name: str, default: int) -> int:
        return self.settings.get(name, default)

    def emit(self, payload: Union[dict, str], code: int = EXIT_OK):
        """Write a JSON payload (or ready text) and the manifest, then exit."""
        text = payload if isinstance(payload, str) else json.dumps(
            payload, indent=2, sort_keys=True, ensure_ascii=self.ascii_only
        ) + "\n"
        results = []
        if self.output:
            _write_text(self.output, text)
            results.append(self.output)
        else:
            click.echo(text, nl=False)
        if self.manifest_path:
            manifest = {
                "command": _sys.argv,
                "versions": {
                    "ksparity": __version__,
                    "python": _sys.version.split()[0],
                    "numpy": np.__version__,
                },
                "inputs": {
                    p: hashlib.sha256(Path(p).read_bytes()).hexdigest()
                    for p in self.inputs
                },
                "results": results,
                "wall_seconds": round(time.perf_counter() - self.started, 6),
            }
            _write_text(
                self.manifest_path,
                json.dumps(manifest, indent=2, sort_keys=True) + "\n",
            )
        raise SystemExit(code)


class _Verb(click.Command):
    """A subcommand whose library errors end in the module's exit codes."""

    def invoke(self, ctx: click.Context):
        try:
            return super().invoke(ctx)
        except UnderdeterminedEigenstateError as exc:
            # `state` answers with the dimension of an eigenspace above 1
            payload, code = {"eigenspace_dimension": exc.dimension,
                             "eigenvalues": list(exc.eigenvalues)}, EXIT_OK
        except InconsistentEigenvaluesError as exc:
            payload, code = {"ok": False, "error": str(exc)}, EXIT_VERIFY
        except (DenseCapError, SearchCapError, CapError) as exc:
            payload, code = {"ok": False, "error": str(exc)}, EXIT_CAP
        except (ValueError, NotImplementedError) as exc:
            raise click.UsageError(str(exc), ctx) from exc
        ctx.obj.emit(payload, code)


class _Group(click.Group):
    """A group whose subcommands, and those of its subgroups, are verbs."""

    command_class = _Verb
    group_class = type


def _read_input(run: Run, path: str, kind: str, parse: Callable):
    """``parse`` of an input file's text; a usage error if that fails."""
    run.inputs.append(path)
    try:
        return parse(Path(path).read_text())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise click.UsageError(f"cannot read {kind} file {path}: {exc}")


def _load_system(run: Run, path: str, single: bool = False,
                 check: Union[bool, str] = True) -> ContextSystem:
    """Read a system file and exit 1 if ``verify_system`` rejects it.

    ``check="commutation"`` lets contexts whose product is not the
    declared multiple of the identity through; ``check=False`` skips the
    verification.
    """
    sys = _read_input(run, path, "system", ContextSystem.from_json)
    if single and len(sys.contexts) != 1:
        raise click.UsageError(
            f"{path} has {len(sys.contexts)} contexts; "
            "this command takes a single-context system"
        )
    if check == "commutation":
        violations = [v for ci in range(len(sys.contexts))
                      for v in commutation_violations(sys, ci)]
    else:
        violations = verify_system(sys).violations if check else []
    if violations:
        run.emit({"ok": False, "violations": violations}, EXIT_VERIFY)
    return sys


def _parse_eigenvalues(text: str) -> List[int]:
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if tok in ("+", "+1", "1"):
            out.append(1)
        elif tok in ("-", "-1"):
            out.append(-1)
        else:
            raise click.UsageError(f"bad eigenvalue {tok!r}; use + or -")
    return out


def _parse_pairing(text: str) -> List[Tuple[int, int]]:
    pairs = []
    for chunk in text.split(";"):
        parts = chunk.split(",")
        if len(parts) != 2:
            raise click.UsageError(
                f"bad pairing chunk {chunk!r}; use e.g. '1,2;3,4'"
            )
        try:
            pairs.append((int(parts[0]), int(parts[1])))
        except ValueError:
            raise click.UsageError(
                f"bad pairing chunk {chunk!r}; qubits must be integers"
            )
    return pairs


def _set_output(ctx: click.Context, param, value: Optional[str]) -> None:
    ctx.obj.output = value


output_option = click.option(
    "-o", "--output", type=click.Path(), default=None, expose_value=False,
    callback=_set_output,
    help="write the result to this file instead of stdout",
)


@click.group(cls=_Group)
@click.version_option(__version__)
@click.option("--config", type=click.Path(exists=True, dir_okay=False),
              default=None,
              help="key = value file with dense_cap, basis_cap, kernel_cap")
@click.option("--ascii", "ascii_only", is_flag=True,
              help="ASCII symbols and escaped JSON for plain logs")
@click.option("--manifest", "manifest_path", type=click.Path(), default=None,
              help="write a run manifest (command, input hashes, timing) here")
@click.pass_context
def main(ctx, config, ascii_only, manifest_path):
    """Kochen-Specker tables, GHZ checks, eigenstates and parity censuses."""
    ctx.obj = Run(_read_config(config), ascii_only, manifest_path)


@main.group()
def gen():
    """Generate built-in systems."""


@gen.command("star")
@click.option("--N", "N", type=int, required=True,
              help=f"half the qubit count, at most {STAR_N_CAP}")
@output_option
@click.pass_obj
def gen_star(run: Run, N: int):
    """The 2N-qubit single-context GHZ table.

    An N above the cap exits 3 before building anything: stdout stays
    empty and stderr names the cap.
    """
    if N > STAR_N_CAP:
        click.echo(f"--N {N} exceeds the cap of {STAR_N_CAP}", err=True)
        raise SystemExit(EXIT_CAP)
    run.emit(build_star_table(N).to_json_dict())


@gen.command("fixture")
@click.argument("name")
@output_option
@click.pass_obj
def gen_fixture(run: Run, name: str):
    """One of the named built-in systems (use 'list' to enumerate)."""
    fixtures = builtin_fixtures()
    if name == "list":
        run.emit({"fixtures": sorted(fixtures)})
    if name not in fixtures:
        raise click.UsageError(
            f"unknown fixture {name!r}; available: {', '.join(sorted(fixtures))}"
        )
    run.emit(fixtures[name].to_json_dict())


@main.command()
@click.argument("system_file", type=click.Path(exists=True))
@output_option
@click.pass_obj
def verify(run: Run, system_file):
    """Check commutativity and product signs of every context."""
    report = verify_system(_load_system(run, system_file, check=False))
    run.emit(
        {"ok": report.ok, "violations": report.violations},
        EXIT_OK if report.ok else EXIT_VERIFY,
    )


@main.command("ghz-check")
@click.argument("system_file", type=click.Path(exists=True))
@click.option("--eigenvalues", default=None,
              help="comma list of +/-, one per observable; default +...+ then the product sign")
@output_option
@click.pass_obj
def ghz_check(run: Run, system_file, eigenvalues):
    """Value-assignment infeasibility at single-qubit granularity."""
    sys = _load_system(run, system_file, single=True)
    ev = (_parse_eigenvalues(eigenvalues) if eigenvalues
          else default_eigenvalues(sys))
    check_eigenvalue_dependencies(sys, ev)
    satisfying, total = count_ghz_assignments(sys, ev)
    run.emit({
        "eigenvalues": ev,
        "infeasible": satisfying == 0,
        "satisfying_assignments": satisfying,
        "total_assignments": total,
    })


@main.command(help=(
    "Search for a proper sub-table that is itself a proof.\n\n"
    f"Tables on more than {MULTIPARTITE_QUBIT_CAP} qubits or with more "
    f"than {MULTIPARTITE_MEMBER_CAP} members exit 3: the search scans "
    "every subset of the qubit columns, and on each the span of the rows' "
    "slot kernel."
))
@click.argument("system_file", type=click.Path(exists=True))
@output_option
@click.pass_obj
def multipartite(run: Run, system_file):
    sys = _load_system(run, system_file, single=True)
    if sys.n > MULTIPARTITE_QUBIT_CAP:
        raise CapError(f"multipartite supports at most "
                       f"{MULTIPARTITE_QUBIT_CAP} qubits; the table has {sys.n}")
    members = len(sys.contexts[0].members)
    if members > MULTIPARTITE_MEMBER_CAP:
        raise CapError(f"multipartite supports at most "
                       f"{MULTIPARTITE_MEMBER_CAP} members; the table has "
                       f"{members}")
    witness = find_proper_subproof(sys)
    payload: dict = {"genuinely_multipartite": witness is None}
    if witness is not None:
        cols, rows = witness
        payload["witness"] = {
            "columns": [c + 1 for c in cols],
            "rows": list(rows),
        }
    run.emit(payload)


@main.command("search-complete", help=(
    "Complete a seed into parity-witness systems, up to relabeling.\n\n"
    f"Seeds on more than {SEARCH_QUBIT_CAP} qubits, and budgets above "
    f"{SEARCH_BUDGET_CAP}, exit 3 before the search starts."
))
@click.argument("system_file", type=click.Path(exists=True))
@click.option("--shape", required=True,
              help="comma list of context sizes to add, e.g. 3,3,3,3")
@click.option("--budget", type=click.IntRange(min=0), default=BUDGET_DEFAULT,
              help=f"search node budget, at most {SEARCH_BUDGET_CAP}")
@output_option
@click.pass_obj
def search_complete(run: Run, system_file, shape, budget):
    sys = _load_system(run, system_file)
    try:
        sizes = [int(s) for s in shape.split(",")]
    except ValueError:
        raise click.UsageError(f"bad shape {shape!r}")
    if budget > SEARCH_BUDGET_CAP:
        raise CapError(f"search budget {budget} exceeds the cap of "
                       f"{SEARCH_BUDGET_CAP} nodes")
    result = search_completions(sys, sizes, budget=budget)
    payload = {
        "complete": result.complete,
        "nodes": result.nodes,
        "systems": [s.to_json_dict() for s in result.systems],
    }
    run.emit(payload, EXIT_OK if result.complete else EXIT_CAP)


@main.command()
@click.argument("system_file", type=click.Path(exists=True))
@click.option("--eigenvalues", default=None,
              help="comma list of +/-, one per observable")
@output_option
@click.pass_obj
def state(run: Run, system_file, eigenvalues):
    """Joint eigenstate of a single-context system as a dense vector."""
    sys = _load_system(run, system_file, single=True, check="commutation")
    ev = (_parse_eigenvalues(eigenvalues) if eigenvalues
          else default_eigenvalues(sys))
    psi = joint_eigenstate(sys, ev, dense_cap=run.cap("dense_cap", DENSE_STATE_CAP))
    run.emit(psi.to_json_dict() | {"eigenvalues": ev})


@main.command(help=(
    "Bell-pair decomposition of a state under a qubit pairing.\n\n"
    "States on more qubits than dense_cap (default "
    f"{DENSE_STATE_CAP}) exit 3 before decomposing: the decomposition "
    "costs about 4^(n/2) * 2^n."
))
@click.argument("state_file", type=click.Path(exists=True))
@click.option("--pairing", required=True,
              help="semicolon list of qubit pairs, e.g. '1,2;3,4'")
@output_option
@click.pass_obj
def bell(run: Run, state_file, pairing):
    psi = _read_input(run, state_file, "state", DenseState.from_json)
    pairs = _parse_pairing(pairing)
    dense_cap = run.cap("dense_cap", DENSE_STATE_CAP)
    if psi.n > dense_cap:
        raise CapError(f"n={psi.n} exceeds dense state cap {dense_cap}")
    payload = bell_decompose(psi, pairs).to_json_dict()
    if run.ascii_only:
        payload["terms"] = {
            key.replace("Φ", "Phi").replace("Ψ", "Psi"): coeff
            for key, coeff in payload["terms"].items()
        }
    run.emit(payload)


@main.command()
@click.argument("state_file", type=click.Path(exists=True))
@click.option("--qubits", required=True, help="comma list of 1-based qubits")
@click.option("--outcome", required=True, help="bit string, one per qubit")
@output_option
@click.pass_obj
def measure(run: Run, state_file, qubits, outcome):
    """Computational-basis measurement of selected qubits."""
    psi = _read_input(run, state_file, "state", DenseState.from_json)
    qs = [int(q) for q in qubits.split(",") if q.strip()]
    prob, residual = measure_computational(psi, qs, outcome)
    payload: dict = {"probability": prob, "residual": None}
    if residual is not None:
        payload["residual"] = residual.to_json_dict()
    run.emit(payload)


@main.command()
@click.argument("system_file", type=click.Path(exists=True))
@output_option
@click.pass_obj
def projectors(run: Run, system_file):
    """Deduplicated eigenspace projectors of every context."""
    pool = _pool_of(_load_system(run, system_file))
    run.emit({
        "count": len(pool),
        "projectors": [
            {
                "generators": [str(g) for g in p.generators],
                "rank": p.rank,
            }
            for p in pool.projectors
        ],
        "context_families": [list(f) for f in pool.context_families],
    })


def _pool_of(sys: ContextSystem):
    bound = sum(
        1 << gf2.rank([(w.x << sys.n) | w.z for w in sys.context_words(ctx)])
        for ctx in sys.contexts
    )
    if bound > POOL_CAP:
        raise CapError(f"the projector pool may hold {bound} projectors, "
                       f"above the cap of {POOL_CAP}")
    return projectors_of(sys)


def _build_table(run: Run, sys: ContextSystem):
    pool = _pool_of(sys)
    return pool, enumerate_bases(
        pool, cap=run.cap("basis_cap", BASIS_CAP_DEFAULT)
    )


@main.command()
@click.argument("system_file", type=click.Path(exists=True))
@output_option
@click.pass_obj
def bases(run: Run, system_file):
    """Exact-cover basis table over the projector pool."""
    pool, table = _build_table(run, _load_system(run, system_file))
    payload = {
        "projectors": len(pool),
        "bases": [
            {"projectors": list(b.projector_ids), "kind": b.kind}
            for b in table.bases
        ],
        "pure": table.pure_count(),
        "hybrid": table.hybrid_count(),
        "saturated": None if table.partial else is_saturated(table),
        "partial": table.partial,
    }
    run.emit(payload, EXIT_CAP if table.partial else EXIT_OK)


@main.command("parity-census")
@click.argument("system_file", type=click.Path(exists=True))
@click.option("--brute-force-check", is_flag=True,
              help=f"scan every subset of {BRUTE_FORCE_BASES} consecutive "
              "bases exactly and compare with that window's kernel")
@click.option("--catalog", type=click.Path(), default=None,
              help="write one JSON proof record per line to this file")
@output_option
@click.pass_obj
def parity_census(run: Run, system_file, brute_force_check, catalog):
    """Census of critical parity proofs with symbol classification."""
    pool, table = _build_table(run, _load_system(run, system_file))
    if table.partial:
        raise CapError("basis table hit the cap")
    census = enumerate_parity_proofs(
        table, kernel_cap=run.cap("kernel_cap", KERNEL_CAP_DEFAULT)
    )
    if census.partial:
        run.emit(
            {
                "ok": False,
                "error": "kernel dimension above the enumeration cap",
                "kernel_dimension": census.kernel_dimension,
            },
            EXIT_CAP,
        )
    if catalog:
        _write_text(catalog, "".join(
            json.dumps(
                {
                    "bases": list(proof.basis_ids),
                    "symbol": proof.symbol_ascii
                    if run.ascii_only else proof.symbol,
                    "critical": True,
                },
                ensure_ascii=run.ascii_only,
            ) + "\n"
            for proof in census.proofs
        ))
    summary = census.summary_dict(table)
    if run.ascii_only:
        # symbol counts are keyed by the UTF-8 form; list the ASCII forms
        summary["types"] = [
            {
                "symbol": p.symbol_ascii,
                "count": census.symbol_counts[p.symbol],
            }
            for p in {q.symbol: q for q in census.proofs}.values()
        ]
        summary["types"].sort(key=lambda t: t["symbol"])
    if brute_force_check:
        summary["brute_force_agrees"], _ = compare_with_brute_force(table)
    run.emit(summary)


def _proof_ids(text: str) -> List[int]:
    """The basis ids of a proof file's {"bases": [ids]}."""
    ids = json.loads(text)["bases"]
    if not isinstance(ids, list):
        raise ValueError(f"bases must be a list of basis ids, not {ids!r}")
    return [json_integer(i, "a basis id") for i in ids]


@main.command()
@click.argument("proof_file", type=click.Path(exists=True))
@click.option("--system", "system_file", required=True,
              type=click.Path(exists=True),
              help="system file whose basis table the proof indexes")
@output_option
@click.pass_obj
def symbol(run: Run, proof_file, system_file):
    """Rank/multiplicity symbol of a proof given as {"bases": [ids]}."""
    sys = _load_system(run, system_file)
    ids = _read_input(run, proof_file, "proof", _proof_ids)
    pool, table = _build_table(run, sys)
    if any(not 0 <= i < len(table.bases) for i in ids):
        raise click.UsageError("proof references a basis id outside the table")
    valid = verify_proof(ids, table)
    critical = valid and is_critical(ids, table)
    utf8, ascii_form = proof_symbol(ids, table)
    run.emit(
        {
            "bases": sorted(ids),
            "symbol": ascii_form if run.ascii_only else utf8,
            "symbol_ascii": ascii_form,
            "valid": valid,
            "critical": critical,
        },
        EXIT_OK if valid else EXIT_VERIFY,
    )


@main.command("export-graph")
@click.argument("system_file", type=click.Path(exists=True))
@click.option("--name", default="ks_system", help="graph name in the DOT output")
@output_option
@click.pass_obj
def export_graph(run: Run, system_file, name):
    """DOT graph: observables as nodes, contexts as cliques (bold = -identity)."""
    run.emit(export_dot(_load_system(run, system_file), name=name))


@main.command("reproduce-paper")
@output_option
@click.pass_obj
def reproduce_paper(run: Run):
    """Run every reproduction check and print a pass/fail table."""
    results = run_all(
        basis_cap=run.cap("basis_cap", BASIS_CAP_DEFAULT),
        kernel_cap=run.cap("kernel_cap", KERNEL_CAP_DEFAULT),
    )
    for r in results:
        click.echo(
            f"[{r.status.upper():4s}] check {r.number:2d} "
            f"({r.seconds:8.2f}s) {r.name}",
            err=True,
        )
    failures = [r.number for r in results if r.status == "fail"]
    payload = {
        "checks": [
            # timings go to stderr only so the payload stays reproducible
            {
                "number": r.number,
                "name": r.name,
                "status": r.status,
                "detail": r.detail,
            }
            for r in results
        ],
        "failures": failures,
    }
    run.emit(payload, EXIT_OK if not failures else EXIT_VERIFY)


if __name__ == "__main__":
    main()
