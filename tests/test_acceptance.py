"""Acceptance gate: one test and one printed verdict line per criterion.

The checks themselves live in ksparity.reproduce and are shared with the
``reproduce-paper`` command; this suite runs them once per session and
additionally pins the headline numbers so a regression cannot hide
behind a summary flag.
"""

import pytest

from ksparity.reproduce import run_all

IDS = {
    1: "four-qubit-table-product",
    2: "four-qubit-ghz-infeasibility",
    3: "star-family-structure",
    4: "genuine-multipartiteness",
    5: "four-qubit-eigenstate",
    6: "six-qubit-decompositions",
    7: "eight-qubit-bell-support",
    8: "economical-tables",
    9: "kite-quadruple-signs",
    10: "kite-census",
    11: "square-pipeline",
    12: "oracle-equivalence",
    13: "two-power-h-report",
}


@pytest.fixture(scope="session")
def results(request):
    res = {r.number: r for r in run_all()}
    reporter = request.config.pluginmanager.get_plugin("terminalreporter")
    emit = reporter.write_line if reporter else print
    emit("")
    for number in sorted(res):
        r = res[number]
        emit(
            f"criterion {number:2d} [{r.status.upper():4s}] "
            f"({r.seconds:8.2f}s) {r.name}"
        )
    return res


@pytest.mark.parametrize(
    "number", sorted(IDS), ids=[IDS[k] for k in sorted(IDS)]
)
def test_criterion(results, number):
    r = results[number]
    assert r.status == "pass", r.detail


def test_criterion_2_counts(results):
    detail = results[2].detail
    assert detail["satisfying"] == 0
    assert detail["total_assignments"] == 256


def test_criterion_4_covers_three_sizes(results):
    detail = results[4].detail
    assert detail["4-qubit"] is True
    assert detail["6-qubit"] is True
    assert detail["8-qubit"] is True
    assert detail["10-qubit"] is True


def test_criterion_7_magnitudes(results):
    detail = results[7].detail
    assert detail["terms"] == 8
    assert len(detail["magnitudes"]) == 8


def test_criterion_10_headline_numbers(results):
    detail = results[10].detail
    assert detail["projectors"] == 32
    assert detail["bases"] == 36
    assert detail["pure"] == 6
    assert detail["hybrid"] == 30
    assert detail["saturated"] is True
    assert detail["total_critical_proofs"] == 33152
    assert detail["symbol_types"] == 33
    assert sorted(detail["basis_count_histogram"]) == [9, 11, 13, 15, 17]
    assert detail["smallest"] == {
        "projectors": 24,
        "bases": 9,
        "symbol": "12²₂12⁴₂−4₄4₆1₈",
    }
    assert detail["brute_force_agrees"] is True


def test_criterion_11_witness(results):
    witness = results[11].detail["witness"]
    assert witness["projectors_in_proof"] == 18
    assert witness["bases_in_proof"] == 9


def test_criterion_12_zero_mismatches(results):
    detail = results[12].detail
    assert detail["mismatches"] == 0
    assert detail["pauli_pair_cases"] >= 10_000


def test_criterion_13_report_is_complete(results):
    detail = results[13].detail
    assert detail["H"] is not None
    assert detail["holds"] is not None
    assert "reconstruction" in detail
