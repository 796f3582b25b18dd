"""Byte-identity of CLI payloads against recorded golden files.

Each case runs one CLI command in-process and compares its stdout, byte for
byte, with ``tests/golden/<case>.json``; every case exits 0 except those in
``EXIT_CODES``.  The ``bell`` cases read the
recorded ``state-*`` payloads as their input, so they depend only on the
Bell code.  After a deliberate output change, rewrite the files with
``PYTHONPATH=src python tests/test_golden.py`` and review the diff.
"""

import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from ksparity.cli import main
from ksparity.reproduce import kite_completion, mermin_square_search
from ksparity.systems import (
    Context,
    ContextSystem,
    build_star_table,
    builtin_fixtures,
    system_from_rows,
)

GOLDEN = Path(__file__).parent / "golden"


def _systems():
    systems = {f"star{N}": build_star_table(N) for N in (2, 3, 4)}
    star2 = build_star_table(2)
    systems["padded"] = system_from_rows(
        [str(ob) + "II" for ob in star2.observables], -1
    )
    systems["duplicated"] = ContextSystem(
        4, star2.observables, (Context(tuple(range(5)) + (0, 0), -1),)
    )
    systems["feasible"] = system_from_rows(["XX", "YY", "ZZ"], -1)
    systems["kite"] = builtin_fixtures()["kite-quadruples"]
    systems["empty2"] = ContextSystem(2, (), ())
    systems["square"] = mermin_square_search().systems[0]
    systems["kite-completion"] = kite_completion()
    return systems


# proof files for the ``symbol`` cases: the first critical proof of the
# square's census, and two bases that prove nothing
PROOFS = {
    "proof-square": [0, 2, 4, 6, 8, 10, 13, 14, 17, 18, 19],
    "proof-square-invalid": [0, 1],
}


def _pairings(N):
    consecutive = ";".join(f"{2 * i + 1},{2 * i + 2}" for i in range(N))
    crossed = ";".join(f"{i + 1},{N + i + 1}" for i in range(N))
    return {"consecutive": consecutive, "crossed": crossed}


def _cases():
    """(case name, argv) with "{system}" / "{state}" placeholders."""
    cases = []
    for name in ("star2", "star3", "star4", "padded"):
        cases.append((f"ghz-check-{name}", ["ghz-check", f"{{{name}}}"]))
    cases.append(("ghz-check-star2-signed",
                  ["ghz-check", "{star2}", "--eigenvalues", "-,-,-,+,+"]))
    cases.append(("ghz-check-feasible",
                  ["ghz-check", "{feasible}", "--eigenvalues", "+,+,-"]))
    for name in ("star2", "star3", "star4", "padded", "duplicated"):
        cases.append((f"multipartite-{name}", ["multipartite", f"{{{name}}}"]))
    for N in (2, 3, 4):
        cases.append((f"state-star{N}", ["state", f"{{star{N}}}"]))
        for kind, pairing in _pairings(N).items():
            argv = ["bell", f"{{state-star{N}}}", "--pairing", pairing]
            cases.append((f"bell-star{N}-{kind}", argv))
            cases.append((f"bell-star{N}-{kind}-ascii", ["--ascii"] + argv))
    cases.append(("search-complete-kite",
                  ["search-complete", "{kite}", "--shape", "3,3,3,3"]))
    square = ["search-complete", "{empty2}", "--shape", "3,3,3,3,3,3"]
    cases.append(("search-complete-empty2", square))
    cases.append(("search-complete-empty2-budget50", square + ["--budget", "50"]))
    cases.append(("parity-census-square", ["parity-census", "{square}"]))
    cases.append(("parity-census-square-ascii",
                  ["--ascii", "parity-census", "{square}"]))
    cases.append(("parity-census-square-brute-force-check",
                  ["parity-census", "{square}", "--brute-force-check",
                   "--catalog", "{catalog}"]))
    for verb in ("bases", "projectors"):
        for name in ("square", "kite-completion"):
            cases.append((f"{verb}-{name}", [verb, f"{{{name}}}"]))
    # 256 projectors, their generators signed through Y letters
    cases.append(("projectors-star4", ["projectors", "{star4}"]))
    symbol = ["symbol", "{proof-square}", "--system", "{square}"]
    cases.append(("symbol-square", symbol))
    cases.append(("symbol-square-ascii", ["--ascii"] + symbol))
    invalid = ["symbol", "{proof-square-invalid}", "--system", "{square}"]
    cases.append(("symbol-square-invalid", invalid))
    cases.append(("export-graph-kite", ["export-graph", "{kite}"]))
    cases.append(("reproduce-paper", ["reproduce-paper"]))
    return cases


CASES = _cases()
# cases that end with a nonzero exit code: the budget cap and a set of
# bases that is no proof
EXIT_CODES = {
    "search-complete-empty2-budget50": 3,
    "symbol-square-invalid": 1,
}
CATALOG_CASES = {c for c, argv in CASES if "{catalog}" in argv}
DOT_CASES = {c for c, argv in CASES if argv[0] == "export-graph"}


def _golden(case):
    return GOLDEN / (f"{case}.dot" if case in DOT_CASES else f"{case}.json")


def _run(case, argv, tmp_path):
    """The case's stdout bytes and its catalog bytes (None without one)."""
    files = {}
    for name, sys in _systems().items():
        path = tmp_path / f"{name}.json"
        path.write_text(sys.to_json())
        files[name] = str(path)
    for name, ids in PROOFS.items():
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps({"bases": ids}))
        files[name] = str(path)
    for path in GOLDEN.glob("state-*.json"):
        files[path.stem] = str(path)
    catalog = tmp_path / "catalog.jsonl"
    files["catalog"] = str(catalog)
    args = [a.format(**files) if a.startswith("{") else a for a in argv]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == EXIT_CODES.get(case, 0), result.output
    written = catalog.read_bytes() if case in CATALOG_CASES else None
    return result.stdout_bytes, written


@pytest.mark.parametrize("case,argv", CASES, ids=[c for c, _ in CASES])
def test_payload_is_byte_identical(case, argv, tmp_path):
    stdout, catalog = _run(case, argv, tmp_path)
    assert stdout == _golden(case).read_bytes()
    if catalog is not None:
        assert catalog == (GOLDEN / f"{case}.catalog.jsonl").read_bytes()


def test_golden_files_are_exactly_the_cases():
    recorded = {p.stem for p in GOLDEN.glob("*.json")}
    assert recorded == {c for c, _ in CASES} - DOT_CASES
    assert {p.stem for p in GOLDEN.glob("*.dot")} == DOT_CASES
    for p in GOLDEN.glob("*.json"):
        json.loads(p.read_text(encoding="utf-8"))
    catalogs = {p.name for p in GOLDEN.glob("*.jsonl")}
    assert catalogs == {f"{c}.catalog.jsonl" for c in CATALOG_CASES}
    for p in GOLDEN.glob("*.jsonl"):
        for line in p.read_text(encoding="utf-8").splitlines():
            json.loads(line)


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        # state cases first: the bell cases read them
        for case, argv in sorted(CASES, key=lambda c: not c[0].startswith("state-")):
            out, catalog = _run(case, argv, Path(tmp))
            _golden(case).write_bytes(out)
            if catalog is not None:
                (GOLDEN / f"{case}.catalog.jsonl").write_bytes(catalog)
            print(case)
