import json

import pytest
from click.testing import CliRunner

from ksparity.cli import main
from ksparity.systems import build_star_table, builtin_fixtures


@pytest.fixture()
def runner():
    return CliRunner()


def write_star(tmp_path, N=2):
    path = tmp_path / "star.json"
    path.write_text(build_star_table(N).to_json())
    return str(path)


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

    def test_unreadable_file_is_usage_error(self, runner, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        result = runner.invoke(main, ["verify", str(path)])
        assert result.exit_code == 2


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
        result = runner.invoke(
            main,
            ["ghz-check", write_star(tmp_path),
             "--eigenvalues", "+,+,+,+,+"],
        )
        assert result.exit_code == 1


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

    def test_workers_key_is_unknown(self, runner, tmp_path):
        conf = tmp_path / "caps.conf"
        conf.write_text("workers = 2\n")
        result = runner.invoke(
            main, ["--config", str(conf), "gen", "star", "--N", "2"]
        )
        assert result.exit_code == 2
        assert "unknown key 'workers'" in result.output

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


@pytest.fixture(scope="module")
def square_file(tmp_path_factory):
    from ksparity.reproduce import mermin_square_search

    path = tmp_path_factory.mktemp("sq") / "square.json"
    path.write_text(mermin_square_search().systems[0].to_json())
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
    def test_reproduce_small(self, runner, tmp_path):
        out = str(tmp_path / "repro.json")
        result = runner.invoke(
            main, ["reproduce-paper", "--max-qubits", "2", "-o", out]
        )
        assert result.exit_code == 0
        doc = json.loads(open(out).read())
        ran = [c["number"] for c in doc["checks"] if c["status"] != "skipped"]
        assert ran == [11]
        assert doc["failures"] == []

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

    def test_unsupported_shape(self, runner, tmp_path):
        result = runner.invoke(
            main,
            ["search-complete", write_fixture(tmp_path, "kite-quadruples"),
             "--shape", "4,4"],
        )
        assert result.exit_code == 2


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

    def test_below_cap_runs(self, runner, tmp_path):
        result = runner.invoke(main, ["multipartite", write_star(tmp_path, 3)])
        assert result.exit_code == 0
        assert json.loads(result.output) == {"genuinely_multipartite": True}
