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
    return systems


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
    return cases


CASES = _cases()
# cases that end with a nonzero exit code: the budget cap
EXIT_CODES = {"search-complete-empty2-budget50": 3}


def _run(case, argv, tmp_path):
    files = {}
    for name, sys in _systems().items():
        path = tmp_path / f"{name}.json"
        path.write_text(sys.to_json())
        files[name] = str(path)
    for path in GOLDEN.glob("state-*.json"):
        files[path.stem] = str(path)
    args = [a.format(**files) if a.startswith("{") else a for a in argv]
    result = CliRunner().invoke(main, args)
    assert result.exit_code == EXIT_CODES.get(case, 0), result.output
    return result.stdout_bytes


@pytest.mark.parametrize("case,argv", CASES, ids=[c for c, _ in CASES])
def test_payload_is_byte_identical(case, argv, tmp_path):
    assert _run(case, argv, tmp_path) == (GOLDEN / f"{case}.json").read_bytes()


def test_golden_files_are_exactly_the_cases():
    recorded = {p.stem for p in GOLDEN.glob("*.json")}
    assert recorded == {c for c, _ in CASES}
    for p in GOLDEN.glob("*.json"):
        json.loads(p.read_text(encoding="utf-8"))


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        # state cases first: the bell cases read them
        for case, argv in sorted(CASES, key=lambda c: not c[0].startswith("state-")):
            out = _run(case, argv, Path(tmp))
            (GOLDEN / f"{case}.json").write_bytes(out)
            print(case)
