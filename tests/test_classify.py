"""Suite classification: pools, conformance, distinguishing sets, reports."""

import json
import logging
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import progress_lab
from conftest import IDIOM_DIR, capped_tests
from progress_lab import classify
from progress_lab.axb import AxbInstruction, LitmusTest, relabel_locations
from progress_lab.classify import (
    classify_suite,
    load_partitions,
    matrix_csv,
    partitions_json_dict,
    summary_from_partitions,
    write_report,
)
from progress_lab.models import all_model_variants
from progress_lab.oracle import check_matrix

I = AxbInstruction


@pytest.fixture(scope="module")
def report(idioms):
    return classify_suite(sorted(idioms.values(), key=lambda t: t.name))


def test_pools(report):
    assert set(report.weak_tests) == {
        "mutex", "simplified-mutex", "prodcons-increasing",
        "prodcons-decreasing", "bidirectional",
    }
    assert set(report.strong_tests) == {"dining"}
    assert report.unclassified == ()
    assert report.weak_fraction == pytest.approx(5 / 6)


def test_matrix_rows_are_complete(report):
    assert set(report.names) == set(report.matrix)
    for row in report.matrix.values():
        assert set(row) == {
            "unfair",
            "weak-hsa", "weak-obe", "weak-hsa+obe", "weak-lobe", "weak-fair",
            "strong-hsa", "strong-obe", "strong-hsa+obe", "strong-lobe",
            "strong-fair",
        }


def test_conformance_followed_hierarchy(report):
    assert report.hierarchy_tokens == (
        "unfair",
        "weak-hsa", "weak-obe", "weak-lobe", "weak-fair",
        "strong-hsa", "strong-obe", "strong-lobe", "strong-fair",
    )
    c = report.conformance
    assert set(c["unfair"]) == set()
    assert set(c["weak-hsa"]) == {"prodcons-increasing"}
    assert set(c["weak-obe"]) == {"mutex", "simplified-mutex"}
    assert set(c["weak-lobe"]) == {"mutex", "simplified-mutex", "prodcons-increasing"}
    assert set(c["weak-fair"]) == set(report.weak_tests)
    # strong variants are scored against the strong pool only
    assert set(c["strong-hsa"]) == {"dining"}
    assert set(c["strong-obe"]) == {"dining"}
    assert set(c["strong-fair"]) == {"dining"}


def test_distinguishing_subtracts_lower_models(report, idioms):
    d = report.distinguishing
    assert set(d["weak-hsa"]) == {"prodcons-increasing"}
    assert set(d["weak-obe"]) == {"mutex", "simplified-mutex"}
    assert set(d["weak-lobe"]) == set()
    assert set(d["weak-fair"]) == {"prodcons-decreasing", "bidirectional"}
    assert set(d["strong-lobe"]) == set()
    for token, tests in d.items():
        assert set(tests) <= set(report.conformance[token])
    # dining conforms to both incomparable strong models, so it has no
    # least model and distinguishes neither
    assert "dining" not in d["strong-hsa"]
    assert "dining" not in d["strong-obe"]
    for rep in (
        report,
        classify_suite(list(idioms.values()), all_model_variants(include_hsa_obe=True)),
    ):
        seen: dict[str, str] = {}
        for token, tests in rep.distinguishing.items():
            for name in tests:
                assert name not in seen, (name, seen[name], token)
                seen[name] = token


def test_no_anomalies_or_errors_on_idioms(report):
    assert report.anomalies == ()
    assert report.errors == {}


def test_hierarchy_with_combined_model(idioms):
    rep = classify_suite(
        list(idioms.values()), all_model_variants(include_hsa_obe=True)
    )
    assert "weak-hsa+obe" in rep.hierarchy_tokens
    assert set(rep.conformance["weak-hsa+obe"]) == {
        "mutex", "simplified-mutex", "prodcons-increasing",
    }
    # everything it passes is already covered below it, so nothing distinguishes
    assert set(rep.distinguishing["weak-hsa+obe"]) == set()


# Makes dining pass unfair, weak HSA and weak OBE but still fail weak LOBE
# and weak fairness, then prints the anomalies of classifying it alone.
_PATCHED_DINING = """
import sys
from progress_lab import classify
from progress_lab.oracle import Verdict
from progress_lab.suiteio import load_suite

real = classify.check_matrix

def check_matrix(test, *args):
    verdicts = real(test, *args)
    for tok in ("unfair", "weak-hsa", "weak-obe"):
        verdicts[tok] = Verdict(True, None)
    return verdicts

classify.check_matrix = check_matrix
dining = [t for t in load_suite(sys.argv[1]) if t.name == "dining"]
print("\\n".join(classify.classify_suite(dining).anomalies))
"""


def test_anomalies_come_in_column_order_under_every_hash_seed():
    src = str(Path(progress_lab.__file__).parent.parent)
    expected = "".join(
        f"dining: passes {low} but fails {high}\n"
        for high in ("weak-lobe", "weak-fair")
        for low in ("unfair", "weak-hsa", "weak-obe")
    )
    for seed in ("1", "2"):
        proc = subprocess.run(
            [sys.executable, "-c", _PATCHED_DINING, str(IDIOM_DIR)],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        )
        assert (proc.returncode, proc.stdout) == (0, expected), (seed, proc.stderr)


def test_matrix_csv_layout(report):
    lines = matrix_csv(report).strip().splitlines()
    assert lines[0].startswith("test,unfair,weak-hsa")
    assert len(lines) == 1 + len(report.names)
    assert lines[1].startswith("bidirectional,fail,")
    cells = lines[1].split(",")
    assert set(cells[1:]) <= {"pass", "fail"}


def test_partitions_roundtrip_and_summary(report):
    data = partitions_json_dict(report)
    again = json.loads(json.dumps(data))
    assert summary_from_partitions(again) == summary_from_partitions(data)
    text = summary_from_partitions(data)
    assert "weak tests: 5" in text
    assert "strong tests: 1" in text
    assert "weak D" in text and "full" in text


def test_summary_mentions_problems():
    # a test that cannot finish under any model: classification still works,
    # it lands outside both pools and is reported
    spin = LitmusTest("spin", 1, 1, ((I(0, 0, 0),), (I(0, 0, 0),)))
    rep = classify_suite([spin])
    assert rep.unclassified == ("spin",)
    assert "failing even strong full fairness: 1" in summary_from_partitions(
        partitions_json_dict(rep)
    )


def test_error_capture():
    big = LitmusTest("big", 1, 1, ((I(0, 0, 0),), (I(0, 0, 0),)))
    rep = classify_suite([big], max_states=1)
    assert "big" in rep.errors
    assert rep.matrix == {} or "big" not in rep.matrix
    assert "errors" in summary_from_partitions(partitions_json_dict(rep))


def test_write_report_files(report, tmp_path):
    paths = write_report(report, tmp_path / "out")
    for key in ("matrix", "partitions", "summary"):
        assert key in paths and paths[key].is_file()
    data = json.loads(paths["partitions"].read_text())
    assert data["weak_tests"] == sorted(report.weak_tests)
    assert (tmp_path / "out" / "matrix.csv").exists()


@pytest.mark.parametrize(
    "doc, key",
    [
        ({"anomalies": [1]}, "anomalies"),
        ({"errors": []}, "errors"),
        ({"errors": {"a": 1}}, "errors"),
    ],
)
def test_load_partitions_checks_anomalies_and_errors(tmp_path, doc, key):
    path = tmp_path / "partitions.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=f"^{re.escape(str(path))}: expected .*'{key}'"):
        load_partitions(path)


def test_duplicate_names_are_rejected(idioms):
    twin = idioms["dining"]
    with pytest.raises(ValueError, match="duplicate test names: dining"):
        classify_suite([idioms["mutex"], twin, twin])


def _count_checks(monkeypatch):
    """Names of the tests `classify_suite` runs the oracle on."""
    checked = []
    original = classify.check_matrix

    def counting(test, *args, **kwargs):
        checked.append(test.name)
        return original(test, *args, **kwargs)

    monkeypatch.setattr(classify, "check_matrix", counting)
    return checked


# A spinner waiting on a flag at location 1, over two locations.
SPIN = LitmusTest("a", 2, 2, ((I(0, 0, 1, exch=1), I(1, 0, 2, exch=1)), (I(1, 0, 0),)))


@pytest.mark.parametrize("bounds", [None, (2, 2), (2, 3), (3, 3)])
def test_rows_equal_direct_checks(bounds, idioms, suites):
    """Every row `classify_suite` shares equals the test's own matrix."""
    tests = list(idioms.values()) if bounds is None else capped_tests(suites(*bounds), bounds)
    report = classify_suite(tests)
    assert report.errors == {}
    for test in tests:
        direct = {tok: v.passed for tok, v in check_matrix(test).items()}
        assert report.matrix[test.name] == direct, test.name


def test_one_check_per_distinct_plain_lts(suites, monkeypatch):
    # 464 location orbits share 240 plain state spaces.
    tests = capped_tests(suites(2, 3), (2, 3))
    checked = _count_checks(monkeypatch)
    report = classify_suite(tests)
    assert (len(tests), len(checked), len(report.matrix)) == (928, 240, 928)


def test_each_twin_error_names_its_own_test(monkeypatch):
    twin = LitmusTest("b", 2, 2, relabel_locations(SPIN.threads, (1, 0)))
    checked = _count_checks(monkeypatch)
    # One state is too few for the plain LTS, which classify builds itself.
    report = classify_suite([SPIN, twin], max_states=1)
    assert checked == []
    assert report.matrix == {}
    assert report.errors == {
        "a": "ExplorationLimitError: plain LTS of 'a' exceeds 1 states",
        "b": "ExplorationLimitError: plain LTS of 'b' exceeds 1 states",
    }
    # SPIN's plain LTS has 4 states and its monitored LTS 7, so with 4
    # the check itself raises, and the twin sharing the state space is
    # checked again.
    report = classify_suite([SPIN, twin], max_states=4)
    assert checked == ["a", "b"]
    assert report.matrix == {}
    assert report.errors == {
        "a": "ExplorationLimitError: monitored LTS of 'a' exceeds 4 states",
        "b": "ExplorationLimitError: monitored LTS of 'b' exceeds 4 states",
    }


def test_twins_get_their_own_rows(monkeypatch):
    twin = LitmusTest("b", 2, 2, relabel_locations(SPIN.threads, (1, 0)))
    checked = _count_checks(monkeypatch)
    report = classify_suite([SPIN, twin])
    assert checked == ["a"]
    assert report.matrix["a"] == report.matrix["b"]
    before = dict(report.matrix["b"])
    report.matrix["a"]["unfair"] = not report.matrix["a"]["unfair"]
    assert report.matrix["b"] == before


def test_orbit_key_ignores_unused_locations(monkeypatch):
    # Locations 0 and 2 of three, relabeled onto 0 and 1: one orbit.  The
    # same threads over two locations are a different orbit, but with the
    # same plain LTS, so it shares the row too.
    uses_0_2 = LitmusTest("uses-0-2", 3, 2, relabel_locations(SPIN.threads, (0, 2)))
    uses_0_1 = LitmusTest("uses-0-1", 3, 2, SPIN.threads)
    checked = _count_checks(monkeypatch)
    report = classify_suite([uses_0_2, uses_0_1, SPIN])
    assert checked == ["uses-0-2"]
    assert report.matrix["uses-0-2"] == report.matrix["uses-0-1"] == report.matrix["a"]


def test_logs_one_line_per_suite(idioms, caplog):
    with caplog.at_level(logging.INFO, logger="progress_lab.classify"):
        classify_suite(idioms.values())
    [record] = caplog.records
    assert record.levelno == logging.INFO
    assert re.fullmatch(
        r"classified 6 tests: 6 location orbits, 6 distinct LTSs checked, 0 errors, \d+\.\d\d s",
        record.getMessage(),
    )
