import hashlib
import json

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings, strategies as st

from ksparity.cli import (
    MULTIPARTITE_MEMBER_CAP, POOL_CAP, SEARCH_BUDGET_CAP, STAR_N_CAP, main,
)
from ksparity.search import SEARCH_SHAPE_CAP
from ksparity.systems import build_star_table, builtin_fixtures


@pytest.fixture()
def runner():
    return CliRunner()


def write_star(tmp_path, N=2):
    path = tmp_path / "star.json"
    path.write_text(build_star_table(N).to_json())
    return str(path)


# one-context tables that verify_system rejects: members that do not
# commute, and a declared product sign that is wrong (XX.YY.ZZ = -II)
INVALID_SYSTEMS = {
    "noncommuting": {"n": 2, "observables": ["XI", "ZI"],
                     "contexts": [{"members": [0, 1], "sign": 1}]},
    "wrong-sign": {"n": 2, "observables": ["XX", "YY", "ZZ"],
                   "contexts": [{"members": [0, 1, 2], "sign": 1}]},
}


# input files holding a JSON value of the wrong type or out of range; each
# was once read as something else or ended in a traceback
WRONG_TYPES = {
    "negative-n": {"n": -1, "observables": [], "contexts": []},
    "float-members": {"n": 2, "observables": ["XX", "YY", "ZZ"],
                      "contexts": [{"members": [0.0, 1.0, 2.0], "sign": -1}]},
    "float-n": {"n": 2.0, "observables": ["XX", "YY", "ZZ"],
                "contexts": [{"members": [0, 1, 2], "sign": -1}]},
    "bool-sign": {"n": 1, "observables": ["X"],
                  "contexts": [{"members": [0, 0], "sign": True}]},
    "number-observable": {"n": 2, "observables": [5, "ZZ"], "contexts": []},
    "float-proof": {"bases": [0.4, 1.9, True]},
    "string-proof": {"bases": "012"},
    "bool-n-state": {"n": True, "amplitudes": [[1, 0], [0, 0]]},
    "negative-n-state": {"n": -1, "amplitudes": [[1, 0]]},
    "bool-amplitude-state": {"n": 1,
                             "amplitudes": [[True, False], [False, False]]},
    "string-observables": {"n": 1, "observables": "XZ", "contexts": []},
}

# JSON nested past the decoder's recursion limit
NESTED_JSON = "[" * 100_000 + "]" * 100_000


def write_fixture(tmp_path, name):
    path = tmp_path / f"{name}.json"
    path.write_text(builtin_fixtures()[name].to_json())
    return str(path)


class TestGen:
    def test_star(self, runner):
        result = runner.invoke(main, ["gen", "star", "--N", "2"])
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["observables"][0] == "ZZZZ"

    def test_star_bad_size(self, runner):
        result = runner.invoke(main, ["gen", "star", "--N", "1"])
        assert result.exit_code == 2

    def test_star_size_cap(self, runner):
        result = runner.invoke(main, ["gen", "star", "--N", str(STAR_N_CAP)])
        assert result.exit_code == 0
        assert len(json.loads(result.stdout)["observables"][0]) == 2 * STAR_N_CAP
        for n in (STAR_N_CAP + 1, 100_000):
            result = runner.invoke(main, ["gen", "star", "--N", str(n)])
            assert result.exit_code == 3
            assert result.stdout == ""
            assert str(STAR_N_CAP) in result.stderr

    def test_fixture_list(self, runner):
        result = runner.invoke(main, ["gen", "fixture", "list"])
        assert "kite-quadruples" in json.loads(result.output)["fixtures"]

    def test_unknown_fixture(self, runner):
        result = runner.invoke(main, ["gen", "fixture", "nope"])
        assert result.exit_code == 2


class TestVerify:
    def test_good_system(self, runner, tmp_path):
        result = runner.invoke(main, ["verify", write_star(tmp_path)])
        assert result.exit_code == 0
        assert json.loads(result.output)["ok"] is True

    def test_bad_system_exits_one(self, runner, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({
            "n": 1,
            "observables": ["X", "Z"],
            "contexts": [{"members": [0, 1], "sign": 1}],
        }))
        result = runner.invoke(main, ["verify", str(path)])
        assert result.exit_code == 1
        assert json.loads(result.output)["ok"] is False

    @pytest.mark.parametrize("system, code, violations", [
        ("noncommuting", 1, ["context 0: members XI and ZI do not commute",
                             "context 0: product -iYI is not proportional "
                             "to identity"]),
        ("wrong-sign", 1, ["context 0: product sign mismatch "
                           "(declared +1, actual -II)"]),
        (None, 0, []),
    ])
    def test_payload_bytes(self, runner, tmp_path, system, code, violations):
        path = tmp_path / "system.json"
        if system is None:
            path = write_star(tmp_path)
        else:
            path.write_text(json.dumps(INVALID_SYSTEMS[system]))
        result = runner.invoke(main, ["verify", str(path)])
        assert result.exit_code == code
        assert result.stdout == json.dumps(
            {"ok": not violations, "violations": violations},
            indent=2, sort_keys=True,
        ) + "\n"

    def test_unreadable_file_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["verify", str(path)])
        assert result.exit_code == 2


class TestLoadTimeVerification:
    @pytest.mark.parametrize("system", sorted(INVALID_SYSTEMS))
    @pytest.mark.parametrize("argv", [
        ["ghz-check", "{system}"],
        ["multipartite", "{system}"],
        ["search-complete", "{system}", "--shape", "3,3"],
        ["projectors", "{system}"],
        ["bases", "{system}"],
        ["parity-census", "{system}"],
        ["symbol", "{proof}", "--system", "{system}"],
        ["export-graph", "{system}"],
    ])
    def test_invalid_system_exits_one(self, runner, tmp_path, system, argv):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(INVALID_SYSTEMS[system]))
        proof = tmp_path / "proof.json"
        proof.write_text(json.dumps({"bases": [0]}))
        argv = [a.replace("{system}", str(path)).replace("{proof}", str(proof))
                for a in argv]
        result = runner.invoke(main, argv)
        assert result.exit_code == 1, result.output
        assert isinstance(result.exception, SystemExit)
        doc = json.loads(result.stdout)
        assert doc["ok"] is False and doc["violations"]

    def test_state_rejects_members_that_do_not_commute(self, runner, tmp_path):
        path = tmp_path / "system.json"
        path.write_text(json.dumps(INVALID_SYSTEMS["noncommuting"]))
        result = runner.invoke(main, ["state", str(path)])
        assert result.exit_code == 1
        assert json.loads(result.stdout) == {
            "ok": False,
            "violations": ["context 0: members XI and ZI do not commute"],
        }
        path.write_text(json.dumps(INVALID_SYSTEMS["wrong-sign"]))
        result = runner.invoke(main, ["state", str(path)])
        assert result.exit_code == 1
        assert "no joint eigenstate" in json.loads(result.stdout)["error"]


class TestGhzCheck:
    def test_default_eigenvalues(self, runner, tmp_path):
        result = runner.invoke(main, ["ghz-check", write_star(tmp_path)])
        doc = json.loads(result.output)
        assert doc["infeasible"] is True
        assert doc["satisfying_assignments"] == 0
        assert doc["total_assignments"] == 256

    def test_explicit_eigenvalues(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["ghz-check", write_star(tmp_path),
             "--eigenvalues", "-,+,+,+,+"],
        )
        assert json.loads(result.output)["infeasible"] is True

    def test_inconsistent_signature(self, runner, tmp_path):
        for verb in ("ghz-check", "state"):
            result = runner.invoke(
                main,
                [verb, write_star(tmp_path), "--eigenvalues", "+,+,+,+,+"],
            )
            assert result.exit_code == 1
            assert json.loads(result.stdout)["error"] == (
                "eigenvalue product +1 does not match context product "
                "sign -1; no joint eigenstate exists"
            )


class TestStateCommands:
    def test_state_bell_measure_pipeline(self, runner, tmp_path):
        star = write_star(tmp_path)
        state_file = str(tmp_path / "psi.json")
        result = runner.invoke(main, ["state", star, "-o", state_file])
        assert result.exit_code == 0

        result = runner.invoke(
            main, ["bell", state_file, "--pairing", "1,2;3,4"]
        )
        terms = json.loads(result.output)["terms"]
        assert set(terms) == {"Φ+Φ-", "Ψ-Ψ-"}

        result = runner.invoke(
            main,
            ["--ascii", "bell", state_file, "--pairing", "1,2;3,4"],
        )
        assert set(json.loads(result.output)["terms"]) == {
            "Phi+Phi-", "Psi-Psi-"
        }

        result = runner.invoke(
            main,
            ["measure", state_file, "--qubits", "1,2", "--outcome", "00"],
        )
        doc = json.loads(result.output)
        assert doc["probability"] == pytest.approx(0.25)
        assert doc["residual"]["n"] == 2

    @pytest.mark.parametrize("argv", [
        ["measure", "{psi}", "--qubits", "0", "--outcome", "0"],
        ["measure", "{psi}", "--qubits", "9", "--outcome", "0"],
        ["measure", "{psi}", "--qubits", "1", "--outcome", "2"],
        ["measure", "{psi}", "--qubits", "1,2", "--outcome", "0٣"],
        ["bell", "{psi}", "--pairing", "1,x;3,4"],
    ])
    def test_malformed_request_is_usage_error(self, runner, tmp_path, argv):
        state_file = str(tmp_path / "psi.json")
        runner.invoke(main, ["state", write_star(tmp_path), "-o", state_file])
        result = runner.invoke(
            main, [a.replace("{psi}", state_file) for a in argv]
        )
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)

    def test_second_dependency_is_verify_failure(self, runner, tmp_path):
        rows = [str(ob) + "II" for ob in build_star_table(2).observables]
        path = tmp_path / "control.json"
        path.write_text(json.dumps({
            "n": 6,
            "observables": rows + ["IIIIXI", "IIIIIX", "IIIIXX"],
            "contexts": [{"members": list(range(8)), "sign": -1}],
        }))
        for verb in ("state", "ghz-check"):
            result = runner.invoke(
                main, [verb, str(path), "--eigenvalues", "+,+,+,+,+,+,+,-"]
            )
            assert result.exit_code == 1
            assert isinstance(result.exception, SystemExit)
            assert json.loads(result.output)["ok"] is False

    def test_underdetermined_state(self, runner, tmp_path):
        path = tmp_path / "half.json"
        path.write_text(json.dumps({
            "n": 2,
            "observables": ["ZI"],
            "contexts": [{"members": [0], "sign": 1}],
        }))
        result = runner.invoke(main, ["state", str(path)])
        assert result.exit_code == 0
        assert json.loads(result.output)["eigenspace_dimension"] == 2

    def test_dense_cap_exit(self, runner, tmp_path):
        conf = tmp_path / "caps.conf"
        conf.write_text("dense_cap = 3\n")
        result = runner.invoke(
            main, ["--config", str(conf), "state", write_star(tmp_path)]
        )
        assert result.exit_code == 3

    def test_raised_dense_cap_exits_on_failed_allocation(
        self, runner, tmp_path
    ):
        # 56 qubits ask for 1 EiB, which no address space holds, so numpy
        # refuses at once and allocates nothing
        conf = tmp_path / "caps.conf"
        conf.write_text("dense_cap = 56\n")
        result = runner.invoke(
            main, ["--config", str(conf), "state", write_star(tmp_path, N=28)]
        )
        assert result.exit_code == 3, result.output
        doc = json.loads(result.output)
        assert doc["ok"] is False
        assert "Unable to allocate 1.00 EiB" in doc["error"]

    def test_bell_dense_cap_exits_before_decomposing(
        self, runner, tmp_path, monkeypatch
    ):
        state_file = str(tmp_path / "psi6.json")
        result = runner.invoke(
            main, ["state", write_star(tmp_path, N=3), "-o", state_file]
        )
        assert result.exit_code == 0
        conf = tmp_path / "caps.conf"
        conf.write_text("dense_cap = 4\n")

        def refuse(*args, **kwargs):
            raise AssertionError("bell_decompose ran above the dense cap")

        monkeypatch.setattr("ksparity.cli.bell_decompose", refuse)
        result = runner.invoke(
            main,
            ["--config", str(conf), "bell", state_file,
             "--pairing", "1,2;3,4;5,6"],
        )
        assert result.exit_code == 3
        doc = json.loads(result.output)
        assert doc["ok"] is False
        assert "dense state cap 4" in doc["error"]


class TestConfig:
    def test_unknown_key(self, runner, tmp_path):
        conf = tmp_path / "caps.conf"
        conf.write_text("volume = 11\n")
        result = runner.invoke(
            main, ["--config", str(conf), "gen", "star", "--N", "2"]
        )
        assert result.exit_code == 2

    def test_comments_and_spacing(self, runner, tmp_path):
        conf = tmp_path / "caps.conf"
        conf.write_text("# caps\nbasis_cap = 7   # small\n\nkernel_cap=20\n")
        result = runner.invoke(
            main, ["--config", str(conf), "gen", "star", "--N", "2"]
        )
        assert result.exit_code == 0

    def test_cap_range_ends_accepted(self, runner, tmp_path):
        conf = tmp_path / "caps.conf"
        conf.write_text("kernel_cap = 63\nbasis_cap = 0\ndense_cap = 0\n")
        result = runner.invoke(
            main, ["--config", str(conf), "gen", "star", "--N", "2"]
        )
        assert result.exit_code == 0

    def test_workers_key_is_unknown(self, runner, tmp_path):
        conf = tmp_path / "caps.conf"
        conf.write_text("workers = 2\n")
        result = runner.invoke(
            main, ["--config", str(conf), "gen", "star", "--N", "2"]
        )
        assert result.exit_code == 2
        assert "unknown key 'workers'" in result.output

    @pytest.mark.parametrize("text", [
        "basis_cap = 2\nbasis_cap = 100000\n",
        "basis_cap = 100000\n# again\nbasis_cap = 2\n",
    ])
    def test_duplicate_key(self, runner, tmp_path, text):
        conf = tmp_path / "caps.conf"
        conf.write_text(text)
        result = runner.invoke(main, [
            "--config", str(conf), "bases",
            write_fixture(tmp_path, "kite-quadruples"),
        ])
        assert result.exit_code == 2
        line = text.count("\n")
        assert f"{conf}:{line}: duplicate key basis_cap" in result.stderr

    def test_workers_option_is_gone(self, runner):
        result = runner.invoke(main, ["--workers", "2", "gen", "star", "--N", "2"])
        assert result.exit_code == 2


class TestGraphExport:
    def test_kite_graph(self, runner, tmp_path):
        result = runner.invoke(
            main, ["export-graph", write_fixture(tmp_path, "kite-quadruples")]
        )
        assert result.exit_code == 0
        assert "style=bold" in result.output
        assert result.output.count("o0") >= 2

    def test_empty_system(self, runner, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(
            {"n": 2, "observables": ["XX"], "contexts": []}
        ))
        result = runner.invoke(main, ["export-graph", str(path)])
        assert result.exit_code == 2

    def test_plain_name(self, runner, tmp_path):
        star = write_star(tmp_path)
        result = runner.invoke(main, ["export-graph", star, "--name", "_g1"])
        assert result.exit_code == 0
        assert result.stdout.startswith("graph _g1 {\n")

    @pytest.mark.parametrize("name", [
        "two words", "graph", "Node", "STRICT", 'a" -> b; "x', "9a", "",
        "é",
    ])
    def test_name_must_be_an_identifier(self, runner, tmp_path, name):
        star = write_star(tmp_path)
        result = runner.invoke(main, ["export-graph", star, "--name", name])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "is not a DOT identifier" in result.stderr


@pytest.fixture(scope="module")
def square_file(tmp_path_factory):
    from ksparity.reproduce import mermin_square_search

    path = tmp_path_factory.mktemp("sq") / "square.json"
    path.write_text(mermin_square_search().systems[0].to_json())
    return str(path)


@pytest.fixture(scope="module")
def kite_completion_file(tmp_path_factory):
    from ksparity.reproduce import kite_completion

    path = tmp_path_factory.mktemp("kite") / "kite-completion.json"
    path.write_text(kite_completion().to_json())
    return str(path)


class TestParityPipeline:
    def test_projectors(self, runner, square_file):
        result = runner.invoke(main, ["projectors", square_file])
        doc = json.loads(result.output)
        assert doc["count"] == 24
        assert all(p["rank"] == 1 for p in doc["projectors"])

    def test_bases(self, runner, square_file):
        result = runner.invoke(main, ["bases", square_file])
        doc = json.loads(result.output)
        assert len(doc["bases"]) == 24
        assert doc["pure"] == 6 and doc["hybrid"] == 18
        assert doc["saturated"] is True

    def test_bases_cap(self, runner, square_file, tmp_path):
        conf = tmp_path / "caps.conf"
        conf.write_text("basis_cap = 2\n")
        result = runner.invoke(
            main, ["--config", str(conf), "bases", square_file]
        )
        assert result.exit_code == 3

    def test_census_and_symbol(self, runner, square_file, tmp_path):
        catalog = str(tmp_path / "catalog.jsonl")
        result = runner.invoke(
            main,
            ["parity-census", square_file, "--brute-force-check",
             "--catalog", catalog],
        )
        doc = json.loads(result.output)
        assert doc["total"] == 512
        assert doc["two_power_H_holds"] is True
        assert doc["brute_force_agrees"] is True
        assert doc["criticality_divergence"] is False

        first = json.loads(open(catalog).readline())
        assert first["critical"] is True
        proof_file = tmp_path / "proof.json"
        proof_file.write_text(json.dumps({"bases": first["bases"]}))
        result = runner.invoke(
            main, ["symbol", str(proof_file), "--system", square_file]
        )
        doc = json.loads(result.output)
        assert doc["valid"] is True and doc["critical"] is True
        assert doc["symbol"] == first["symbol"]

    def test_brute_force_check_catches_a_short_kernel(
        self, runner, square_file, monkeypatch
    ):
        import ksparity.gf2

        nullspace = ksparity.gf2.nullspace

        def short_nullspace(rows, ncols):
            return nullspace(rows, ncols)[:-1]

        monkeypatch.setattr(ksparity.gf2, "nullspace", short_nullspace)
        result = runner.invoke(
            main, ["parity-census", square_file, "--brute-force-check"]
        )
        assert result.exit_code == 0
        assert json.loads(result.output)["brute_force_agrees"] is False

    def test_symbol_invalid_proof(self, runner, square_file, tmp_path):
        proof_file = tmp_path / "proof.json"
        proof_file.write_text(json.dumps({"bases": [0, 1]}))
        result = runner.invoke(
            main, ["symbol", str(proof_file), "--system", square_file]
        )
        assert result.exit_code == 1
        assert json.loads(result.output)["valid"] is False


class TestReproduceAndManifest:
    def test_reproduce_failing_check_exits_one(
        self, runner, tmp_path, monkeypatch
    ):
        from ksparity.reproduce import CheckResult

        def two_checks(**caps):
            return [CheckResult(1, "passes", "pass", 0.5, {"a": 1}),
                    CheckResult(2, "fails", "fail", 0.25, {"error": "boom"})]

        monkeypatch.setattr("ksparity.cli.run_all", two_checks)
        out = str(tmp_path / "repro.json")
        result = runner.invoke(main, ["reproduce-paper", "-o", out])
        assert result.exit_code == 1
        assert result.stdout == ""
        assert json.loads(open(out).read()) == {
            "checks": [
                {"number": 1, "name": "passes", "status": "pass",
                 "detail": {"a": 1}},
                {"number": 2, "name": "fails", "status": "fail",
                 "detail": {"error": "boom"}},
            ],
            "failures": [2],
        }
        assert "[FAIL] check  2" in result.stderr

    def test_manifest_written(self, runner, tmp_path):
        star = write_star(tmp_path)
        out = str(tmp_path / "verify.json")
        manifest = str(tmp_path / "manifest.json")
        result = runner.invoke(
            main, ["--manifest", manifest, "verify", star, "-o", out]
        )
        assert result.exit_code == 0
        doc = json.loads(open(manifest).read())
        assert star in doc["inputs"]
        assert doc["results"] == [out]
        assert "ksparity" in doc["versions"]
        # an output over the input: the manifest keeps the digest of the
        # bytes that were verified, not of what the run wrote there
        verified = open(star, "rb").read()
        result = runner.invoke(
            main, ["--manifest", manifest, "verify", star, "-o", star]
        )
        assert result.exit_code == 0
        assert open(star, "rb").read() != verified
        doc = json.loads(open(manifest).read())
        assert doc["inputs"] == {star: hashlib.sha256(verified).hexdigest()}

    def test_export_graph_writes_manifest(self, runner, tmp_path):
        star = write_star(tmp_path)
        out = str(tmp_path / "star.dot")
        manifest = str(tmp_path / "manifest.json")
        result = runner.invoke(
            main, ["--manifest", manifest, "export-graph", star, "-o", out]
        )
        assert result.exit_code == 0
        assert result.stdout == ""
        assert open(out).read().startswith("graph ks_system {")
        doc = json.loads(open(manifest).read())
        assert star in doc["inputs"]
        assert doc["results"] == [out]

    def test_rerun_is_byte_identical(self, runner, tmp_path):
        star = write_star(tmp_path)
        out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        runner.invoke(main, ["ghz-check", star, "-o", out1])
        runner.invoke(main, ["ghz-check", star, "-o", out2])
        assert open(out1).read() == open(out2).read()


class TestSearchComplete:
    def test_kite_search(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["search-complete", write_fixture(tmp_path, "kite-quadruples"),
             "--shape", "3,3,3,3"],
        )
        assert result.exit_code == 0
        doc = json.loads(result.output)
        assert doc["complete"] is True
        assert len(doc["systems"]) == 32

    def test_budget_cap_exit(self, runner, tmp_path):
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps(
            {"n": 2, "observables": [], "contexts": []}
        ))
        result = runner.invoke(
            main,
            ["search-complete", str(seed), "--shape", "3,3,3,3,3,3",
             "--budget", "50"],
        )
        assert result.exit_code == 3

    def test_budget_above_cap_exits_before_searching(
        self, runner, tmp_path, monkeypatch
    ):
        import ksparity.cli

        def no_search(*args, **kwargs):
            raise AssertionError("search started above the budget cap")

        monkeypatch.setattr(ksparity.cli, "search_completions", no_search)
        kite = write_fixture(tmp_path, "kite-quadruples")
        for budget in (SEARCH_BUDGET_CAP + 1, 10 ** 30):
            result = runner.invoke(
                main,
                ["search-complete", kite, "--shape", "3,3,3,3",
                 "--budget", str(budget)],
            )
            assert result.exit_code == 3
            doc = json.loads(result.output)
            assert doc["ok"] is False
            assert str(SEARCH_BUDGET_CAP) in doc["error"]

    def test_budget_at_cap_and_negative(self, runner, tmp_path):
        kite = write_fixture(tmp_path, "kite-quadruples")
        argv = ["search-complete", kite, "--shape", "3,3,3,3", "--budget"]
        result = runner.invoke(main, argv + [str(SEARCH_BUDGET_CAP)])
        assert result.exit_code == 0
        assert len(json.loads(result.output)["systems"]) == 32
        result = runner.invoke(main, argv + ["-1"])
        assert result.exit_code == 2
        assert isinstance(result.exception, SystemExit)

    def test_qubit_cap_exit(self, runner, tmp_path, monkeypatch):
        import ksparity.search

        def no_enumeration(n):
            raise AssertionError("triple table built above the cap")

        monkeypatch.setattr(
            ksparity.search, "three_member_contexts", no_enumeration
        )
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps(
            {"n": 6, "observables": [], "contexts": []}
        ))
        result = runner.invoke(
            main, ["search-complete", str(seed), "--shape", "3,3"]
        )
        assert result.exit_code == 3
        doc = json.loads(result.output)
        assert doc["ok"] is False and "at most 5 qubits" in doc["error"]

    def test_shape_cap_exit(self, runner, tmp_path, monkeypatch):
        # a shape of 1,000 once ended in RecursionError from the search
        import ksparity.search

        def no_enumeration(n):
            raise AssertionError("triple table built above the cap")

        monkeypatch.setattr(
            ksparity.search, "three_member_contexts", no_enumeration
        )
        seed = tmp_path / "seed.json"
        seed.write_text(json.dumps(
            {"n": 4, "observables": [], "contexts": []}
        ))
        for size in (SEARCH_SHAPE_CAP + 1, 1000):
            shape = ",".join(["3"] * size)
            result = runner.invoke(
                main, ["search-complete", str(seed), "--shape", shape]
            )
            assert result.exit_code == 3, result.output
            doc = json.loads(result.output)
            assert doc["ok"] is False
            assert f"at most {SEARCH_SHAPE_CAP} contexts" in doc["error"]
        result = runner.invoke(main, ["search-complete", "--help"])
        assert f"shapes of more than {SEARCH_SHAPE_CAP} contexts" in (
            " ".join(result.output.split())
        )

    def test_unsupported_shape(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["search-complete", write_fixture(tmp_path, "kite-quadruples"),
             "--shape", "4,4"],
        )
        assert result.exit_code == 2


class TestPoolCap:
    @pytest.mark.parametrize("verb", ["projectors", "bases"])
    def test_star_four_is_under_the_cap(self, runner, tmp_path, verb):
        result = runner.invoke(main, [verb, write_star(tmp_path, 4)])
        assert result.exit_code == 0
        doc = json.loads(result.stdout)
        assert doc["count" if verb == "projectors" else "projectors"] == 256

    @pytest.mark.parametrize("N, bound", [(5, 1024), (6, 4096)])
    @pytest.mark.parametrize("verb", ["projectors", "bases"])
    def test_larger_stars_exit_before_the_pool_is_built(
        self, runner, tmp_path, monkeypatch, verb, N, bound
    ):
        import ksparity.cli

        def no_pool(sys):
            raise AssertionError("pool built above the cap")

        monkeypatch.setattr(ksparity.cli, "projectors_of", no_pool)
        result = runner.invoke(main, [verb, write_star(tmp_path, N)])
        assert result.exit_code == 3
        assert json.loads(result.stdout) == {
            "ok": False,
            "error": f"the projector pool may hold {bound} projectors, "
                     f"above the cap of {POOL_CAP}",
        }


class TestMultipartiteCap:
    def test_sixteen_qubits_exit_at_once(self, runner, tmp_path, monkeypatch):
        import ksparity.cli

        def no_scan(sys):
            raise AssertionError("column subsets scanned above the cap")

        monkeypatch.setattr(ksparity.cli, "find_proper_subproof", no_scan)
        result = runner.invoke(main, ["multipartite", write_star(tmp_path, 8)])
        assert result.exit_code == 3
        doc = json.loads(result.output)
        assert doc["ok"] is False and "at most 14 qubits" in doc["error"]

    def test_all_z_words_exit_at_once(self, runner, tmp_path, monkeypatch):
        # the 31 Z-type words on 5 qubits form a valid +identity context,
        # and at the whole table the quotient's span has 2^26 vectors
        import ksparity.cli

        def no_scan(sys):
            raise AssertionError("column subsets scanned above the cap")

        monkeypatch.setattr(ksparity.cli, "find_proper_subproof", no_scan)
        words = [format(v, "05b").replace("0", "I").replace("1", "Z")
                 for v in range(1, 32)]
        path = tmp_path / "all_z.json"
        path.write_text(json.dumps({
            "n": 5, "observables": words,
            "contexts": [{"members": list(range(31)), "sign": 1}],
        }))
        assert MULTIPARTITE_MEMBER_CAP >= len(build_star_table(7).observables)
        result = runner.invoke(main, ["multipartite", str(path)])
        assert result.exit_code == 3
        assert json.loads(result.output) == {
            "ok": False,
            "error": f"multipartite supports at most "
                     f"{MULTIPARTITE_MEMBER_CAP} members; the table has 31",
        }

    def test_below_cap_runs(self, runner, tmp_path):
        result = runner.invoke(main, ["multipartite", write_star(tmp_path, 3)])
        assert result.exit_code == 0
        assert json.loads(result.output) == {"genuinely_multipartite": True}


# Flag values for the fuzz below, by kind: well-formed tokens first, then
# malformed ones.  `gen star --N`, `search-complete --budget` and
# `--shape` go past their caps, which must exit 3 at once; their valid
# values stay small, so a draw never runs a long search or prints a large
# table.
_GOOD = {
    "budget": ("0", "1", "2", "9", "50", str(SEARCH_BUDGET_CAP + 1),
               "1" + "0" * 30),
    "star": ("0", "1", "2", "3", str(STAR_N_CAP + 1), "100000"),
    "eigenvalues": ("+,+,+,+,-", "+,+,+,+,+", "-,-,-,-,-", "+,-"),
    "pairing": ("1,2;3,4", "1,3;2,4", "2,1;4,3", "1,2"),
    "qubits": ("1", "1,2", "2,4", "1,2,3,4"),
    "outcome": ("0", "01", "11", "0101"),
    "shape": ("3,3", "3,3,3,3", "3",
              ",".join(["3"] * (SEARCH_SHAPE_CAP + 1))),
    "name": ("g", "ks_system", "_x1"),
    "fixture": ("list", "table1-left", "kite-quadruples"),
}
_BAD = ("", " ", "x", "-1", "1.5", "1e3", "0x10", "+2", "٣", "nan", "1,x;3,4",
        ",", ";", "1;2", "1,2;2,3", "1,2,3", "0,9", "a,b", "2", "-", "4,4",
        "a b")
_FLAGS = {
    "gen star": (("--N", "star"), ("-o", "out")),
    "gen fixture": ((None, "fixture"), ("-o", "out")),
    "verify": ((None, "system"), ("-o", "out")),
    "ghz-check": ((None, "system"), ("--eigenvalues", "eigenvalues"),
                  ("-o", "out")),
    "multipartite": ((None, "system"), ("-o", "out")),
    "search-complete": ((None, "system"), ("--shape", "shape"),
                        ("--budget", "budget"), ("-o", "out")),
    "state": ((None, "system"), ("--eigenvalues", "eigenvalues"),
              ("-o", "out")),
    "bell": ((None, "state"), ("--pairing", "pairing"), ("-o", "out")),
    "measure": ((None, "state"), ("--qubits", "qubits"),
                ("--outcome", "outcome"), ("-o", "out")),
    "projectors": ((None, "system"), ("-o", "out")),
    "bases": ((None, "system"), ("-o", "out")),
    "parity-census": ((None, "system"), ("--brute-force-check", None),
                      ("--catalog", "out"), ("-o", "out")),
    "symbol": ((None, "proof"), ("--system", "system"), ("-o", "out")),
    "export-graph": ((None, "system"), ("--name", "name"), ("-o", "out")),
}

_REQUIRED = {None, "--N", "--shape", "--pairing", "--qubits", "--outcome",
             "--system"}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """Paths by kind: readable inputs of each kind (two of the systems
    fail verify_system), then broken or missing ones."""
    root = tmp_path_factory.mktemp("fuzz")
    good = {
        "star.json": build_star_table(2).to_json(),
        "kite.json": builtin_fixtures()["kite-quadruples"].to_json(),
        "bell.json": json.dumps({"n": 2, "amplitudes": [
            [0.5 ** 0.5, 0], [0, 0], [0, 0], [0.5 ** 0.5, 0]]}),
        "proof.json": json.dumps({"bases": [0, 1, 2]}),
        "good.cfg": "dense_cap = 2\nbasis_cap = 3\n",
    }
    broken = {
        "badproof.json": json.dumps({"bases": ["a"]}),
        "garbage.json": "{not json",
        "nested.json": NESTED_JSON,
        "empty.json": "",
        "list.json": "[1, 2]",
        "shape.json": json.dumps({"n": "x", "observables": 3}),
        "unnormed.json": json.dumps({"n": 1, "amplitudes": [[1, 0], [1, 0]]}),
        "bad.cfg": "dense_cap = x\n",
        "unknown.cfg": "workers = 2\n",
        **{f"{name}.json": json.dumps(doc)
           for name, doc in WRONG_TYPES.items()},
    }
    good.update({f"{name}.json": json.dumps(doc)
                 for name, doc in INVALID_SYSTEMS.items()})
    for name, text in {**good, **broken}.items():
        (root / name).write_text(text)
    (root / "binary.cfg").write_bytes(b"\xff\xfe\x00")
    result = CliRunner().invoke(
        main, ["state", str(root / "star.json"), "-o", str(root / "state.json")]
    )
    assert result.exit_code == 0
    (root / "sub").mkdir()
    bad = [str(root / name) for name in broken]
    bad += [str(root / n) for n in ("binary.cfg", "missing.json", "sub")]
    return {
        "root": str(root),
        "system": [str(root / name) for name in (
            "star.json", "kite.json", "noncommuting.json", "wrong-sign.json")],
        "state": [str(root / "state.json"), str(root / "bell.json")],
        "proof": [str(root / "proof.json")],
        "config": [str(root / "good.cfg")],
        "out": [str(root / "out.json")],
        "bad": bad,
        "bad_out": [str(root / "sub"), str(root / "nodir" / "out.json")],
    }


@st.composite
def fuzz_argv(draw, files):
    """A verb with each of its flags present or not, each value drawn from
    the well-formed tokens of its kind or from the malformed ones."""

    def value(kind):
        good = files.get(kind) or _GOOD[kind]
        bad = files["bad_out"] if kind == "out" else (
            files["bad"] if kind in files else _BAD
        )
        return draw(st.sampled_from(good) | st.sampled_from(bad))

    argv = []
    if draw(st.booleans()):
        argv.append("--ascii")
    for flag, kind in (("--config", "config"), ("--manifest", "out")):
        if draw(st.integers(0, 3)) == 0:
            argv += [flag, value(kind)]
    verb = draw(st.sampled_from(sorted(_FLAGS) + ["reproduce-paper"]))
    argv += verb.split()
    if verb == "reproduce-paper":
        # a valid call runs every reproduction check; only its refusals
        # are fast enough to fuzz
        return argv + [draw(st.sampled_from(["--max-qubits", "-z", "extra"]))]
    for flag, kind in _FLAGS[verb]:
        # required arguments are left out one time in eight
        if flag in _REQUIRED:
            present = draw(st.integers(0, 7)) > 0
        else:
            present = flag == "--budget" or draw(st.booleans())
        if present and flag is None:
            argv.append(value(kind))
        elif present:
            argv += [flag] + ([] if kind is None else [value(kind)])
    if draw(st.integers(0, 3)) == 0:
        argv.insert(draw(st.integers(0, len(argv))),
                    draw(st.sampled_from(["--bogus", "-z", "--", "extra"])))
    return argv


class TestInputErrors:
    @pytest.mark.parametrize("argv", [
        ["ghz-check", "{kite}"],
        ["state", "{kite}"],
        ["multipartite", "{kite}"],
        ["ghz-check", "{star}", "--eigenvalues", "+,-"],
        ["state", "{star}", "--eigenvalues", "+,-"],
        # an empty list once read as the default signature
        ["ghz-check", "{star}", "--eigenvalues", ""],
        ["state", "{star}", "--eigenvalues", ""],
        ["verify", "{list}"],
        ["bell", "{list}", "--pairing", "1,2"],
        ["symbol", "{list}", "--system", "{star}"],
        ["--config", "{dir}", "verify", "{star}"],
        ["--config", "{binary}", "verify", "{star}"],
        ["verify", "{star}", "-o", "{dir}"],
        ["--manifest", "{dir}/missing/manifest.json", "verify", "{star}"],
        ["export-graph", "{star}", "-o", "{dir}"],
        ["parity-census", "{star}", "--catalog", "{dir}"],
        ["--config", "{kernel_cap=64}", "parity-census", "{star}"],
        ["--config", "{kernel_cap=-1}", "parity-census", "{star}"],
        ["--config", "{basis_cap=-1}", "bases", "{star}"],
        ["--config", "{dense_cap=-1}", "state", "{star}"],
        # a context of identity members verifies, but has no sign pattern
        ["projectors", "{identity}"],
        ["bases", "{identity}"],
        ["parity-census", "{identity}"],
        # JSON values of the wrong type
        ["verify", "{float-members}"],
        ["bases", "{float-members}"],
        ["verify", "{float-n}"],
        ["bases", "{float-n}"],
        ["verify", "{bool-sign}"],
        ["verify", "{number-observable}"],
        ["symbol", "{float-proof}", "--system", "{kite}"],
        ["symbol", "{string-proof}", "--system", "{kite}"],
        ["measure", "{bool-n-state}", "--qubits", "1", "--outcome", "0"],
        ["verify", "{negative-n}"],
        ["ghz-check", "{negative-n}"],
        ["state", "{negative-n}"],
        ["multipartite", "{negative-n}"],
        ["projectors", "{negative-n}"],
        ["bases", "{negative-n}"],
        ["parity-census", "{negative-n}"],
        ["search-complete", "{negative-n}", "--shape", "3"],
        ["export-graph", "{negative-n}"],
        ["symbol", "{string-proof}", "--system", "{negative-n}"],
        ["measure", "{negative-n-state}", "--qubits", "1", "--outcome", "0"],
        ["bell", "{negative-n-state}", "--pairing", "1,2"],
        # JSON nested too deep for the decoder once ended in RecursionError
        ["verify", "{nested}"],
        ["measure", "{nested}", "--qubits", "1", "--outcome", "0"],
        ["symbol", "{nested}", "--system", "{star}"],
        # true once read as the amplitude 1
        ["measure", "{bool-amplitude-state}", "--qubits", "1", "--outcome",
         "0"],
        # a string once read as a list of one-letter observables
        ["verify", "{string-observables}"],
    ])
    def test_usage_error_without_traceback(self, runner, tmp_path, argv):
        # each of these once ended in an uncaught exception, or ran with
        # a cap outside what the library can honour
        (tmp_path / "list.json").write_text("[1, 2]")
        (tmp_path / "nested.json").write_text(NESTED_JSON)
        (tmp_path / "binary.cfg").write_bytes(b"\xff\xfe\x00")
        (tmp_path / "identity.json").write_text(json.dumps({
            "n": 2, "observables": ["II"],
            "contexts": [{"members": [0], "sign": 1}],
        }))
        for setting in ("kernel_cap=64", "kernel_cap=-1", "basis_cap=-1",
                        "dense_cap=-1"):
            (tmp_path / f"{setting}.cfg").write_text(setting + "\n")
        names = {
            "{kernel_cap=64}": str(tmp_path / "kernel_cap=64.cfg"),
            "{kernel_cap=-1}": str(tmp_path / "kernel_cap=-1.cfg"),
            "{basis_cap=-1}": str(tmp_path / "basis_cap=-1.cfg"),
            "{dense_cap=-1}": str(tmp_path / "dense_cap=-1.cfg"),
            "{binary}": str(tmp_path / "binary.cfg"),
            "{star}": write_star(tmp_path),
            "{kite}": write_fixture(tmp_path, "kite-quadruples"),
            "{list}": str(tmp_path / "list.json"),
            "{nested}": str(tmp_path / "nested.json"),
            "{identity}": str(tmp_path / "identity.json"),
            "{dir}": str(tmp_path),
        }
        for name, doc in WRONG_TYPES.items():
            names["{" + name + "}"] = str(tmp_path / f"{name}.json")
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        identity = "{identity}" in argv
        negative = any(a in ("{negative-n}", "{negative-n-state}")
                       for a in argv)
        nested = "{nested}" in argv
        empty = "" in argv
        listless = "{string-observables}" in argv
        for key, path in names.items():
            argv = [a.replace(key, path) for a in argv]
        result = runner.invoke(main, argv)
        assert result.exit_code == 2, result.output
        assert isinstance(result.exception, SystemExit)
        if identity:
            assert "context 0: every member is the identity" in result.stderr
        if negative:
            assert "n must not be negative, not -1" in result.stderr
        if nested:
            assert "cannot read" in result.stderr
            assert "maximum recursion depth" in result.stderr
        if empty:
            assert "bad eigenvalue ''" in result.stderr
        if listless:
            assert "observables must be a list, not 'XZ'" in result.stderr


class TestExits:
    @pytest.mark.parametrize("argv, code, stream, expected", [
        (["ghz-check", "{star}", "--eigenvalues", "+,x,+,+,-"], 2, "stderr",
         "bad eigenvalue 'x'"),
        (["search-complete", "{star}", "--shape", "3,x"], 2, "stderr",
         "bad shape '3,x'"),
        (["--config", "{basis_cap=2}", "parity-census", "{square}"], 3,
         "stdout", '"error": "basis table hit the cap"'),
        (["--config", "{kernel_cap=9}", "parity-census", "{square}"], 3,
         "stdout", '"kernel_dimension": 10'),
        (["symbol", "{far_proof}", "--system", "{square}"], 2, "stderr",
         "proof references a basis id outside the table"),
        (["measure", "{state}", "--qubits", "1,1", "--outcome", "00"], 2,
         "stderr", "measured qubits must be distinct"),
        # a list once ended in "list indices must be integers or slices,
        # not str", an object without "bases" in "'bases'"
        (["symbol", "{list_proof}", "--system", "{square}"], 2, "stderr",
         'must hold a JSON object with a "bases" list of basis ids'),
        (["symbol", "{empty_proof}", "--system", "{square}"], 2, "stderr",
         'must hold a JSON object with a "bases" list of basis ids'),
        (["symbol", "{string_proof}", "--system", "{square}"], 2, "stderr",
         'must hold a JSON object with a "bases" list of basis ids'),
        # a capped table once answered with the symbol of whichever bases
        # the capped search listed under the proof's ids
        (["--config", "{basis_cap=20}", "symbol", "{kite_proof}", "--system",
          "{kite_completion}"], 3, "stdout",
         '"error": "basis table hit the cap"'),
        # an empty token was once dropped, measuring qubits 1 and 2
        (["measure", "{state}", "--qubits", "1,,2", "--outcome", "00"], 2,
         "stderr", "bad --qubits '1,,2'"),
    ])
    def test_exit_code_and_message(
        self, runner, tmp_path, square_file, kite_completion_file, argv, code,
        stream, expected
    ):
        star = write_star(tmp_path)
        state = runner.invoke(main, ["state", star])
        (tmp_path / "state.json").write_text(state.stdout)
        # the square's table has 24 bases, ids 0 to 23
        (tmp_path / "far.json").write_text(json.dumps({"bases": [0, 24]}))
        names = {"{star}": star, "{square}": square_file,
                 "{state}": str(tmp_path / "state.json"),
                 "{far_proof}": str(tmp_path / "far.json"),
                 "{kite_completion}": kite_completion_file}
        for name, doc in (("list_proof", []), ("empty_proof", {}),
                          ("string_proof", {"bases": "012"}),
                          ("kite_proof", {"bases": [15, 16, 17]})):
            (tmp_path / f"{name}.json").write_text(json.dumps(doc))
            names["{" + name + "}"] = str(tmp_path / f"{name}.json")
        for setting in ("basis_cap=2", "kernel_cap=9", "basis_cap=20"):
            (tmp_path / f"{setting}.cfg").write_text(setting + "\n")
            names["{" + setting + "}"] = str(tmp_path / f"{setting}.cfg")
        for key, path in names.items():
            argv = [a.replace(key, path) for a in argv]
        result = runner.invoke(main, argv)
        assert result.exit_code == code, result.output
        assert expected in getattr(result, stream)
        assert "Traceback" not in result.stderr


class TestFuzz:
    @settings(max_examples=600, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_argv_exits_cleanly(self, fuzz_files, data):
        argv = data.draw(fuzz_argv(fuzz_files), label="argv")
        runner = CliRunner()
        # a stray token can become an output path relative to the cwd
        with runner.isolated_filesystem(temp_dir=fuzz_files["root"]):
            result = runner.invoke(main, argv)
        assert result.exit_code in (0, 1, 2, 3), result.output
        # CliRunner turns an uncaught exception into exit 1 and keeps it
        assert result.exception is None or isinstance(
            result.exception, SystemExit
        ), repr(result.exception)
        assert "Traceback" not in result.stderr
