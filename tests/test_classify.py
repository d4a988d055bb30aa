"""Suite classification: pools, conformance, distinguishing sets, reports."""

import json

import pytest

from progress_lab.axb import AxbInstruction, LitmusTest
from progress_lab.classify import (
    classify_suite,
    matrix_csv,
    partitions_json_dict,
    summary_from_partitions,
    summary_text,
    write_report,
)
from progress_lab.models import default_hierarchy

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
        classify_suite(list(idioms.values()), default_hierarchy(include_hsa_obe=True)),
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
        list(idioms.values()), default_hierarchy(include_hsa_obe=True)
    )
    assert "weak-hsa+obe" in rep.hierarchy_tokens
    assert set(rep.conformance["weak-hsa+obe"]) == {
        "mutex", "simplified-mutex", "prodcons-increasing",
    }
    # everything it passes is already covered below it, so nothing distinguishes
    assert set(rep.distinguishing["weak-hsa+obe"]) == set()


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
    text = summary_text(report)
    assert "weak tests: 5" in text
    assert "strong tests: 1" in text
    assert "weak D" in text and "full" in text


def test_summary_mentions_problems():
    # a test that cannot finish under any model: classification still works,
    # it lands outside both pools and is reported
    spin = LitmusTest("spin", 1, 1, ((I(0, 0, 0),), (I(0, 0, 0),)))
    rep = classify_suite([spin])
    assert rep.unclassified == ("spin",)
    assert "failing even strong full fairness: 1" in summary_text(rep)


def test_error_capture():
    big = LitmusTest("big", 1, 1, ((I(0, 0, 0),), (I(0, 0, 0),)))
    rep = classify_suite([big], max_states=1)
    assert "big" in rep.errors
    assert rep.matrix == {} or "big" not in rep.matrix
    assert "errors" in summary_text(rep)


def test_write_report_files(report, tmp_path):
    paths = write_report(report, tmp_path / "out")
    for key in ("matrix", "partitions", "summary"):
        assert key in paths and paths[key].is_file()
    data = json.loads(paths["partitions"].read_text())
    assert data["weak_tests"] == sorted(report.weak_tests)
    assert (tmp_path / "out" / "matrix.csv").exists()


def test_duplicate_names_are_rejected(idioms):
    twin = idioms["dining"]
    with pytest.raises(ValueError, match="duplicate test names: dining"):
        classify_suite([idioms["mutex"], twin, twin])
