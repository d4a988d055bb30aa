"""Suite directory round-trips."""

import json
from dataclasses import replace

import pytest

from progress_lab.suiteio import load_suite, save_suite


def test_roundtrip_with_index(idioms, tmp_path):
    tests = list(idioms.values())
    sizes = [(i, i + 1) for i in range(len(tests))]
    index = save_suite(tests, tmp_path, sizes)
    assert index == tmp_path / "suite.json"
    doc = json.loads(index.read_text())
    assert [e["name"] for e in doc["tests"]] == [t.name for t in tests]
    assert doc["tests"][2]["states"] == 2
    assert load_suite(tmp_path) == tests  # index preserves order


def test_load_without_index_sorts_filenames(idioms, tmp_path):
    tests = [idioms["mutex"], idioms["dining"]]
    save_suite(tests, tmp_path)
    (tmp_path / "suite.json").unlink()
    assert [t.name for t in load_suite(tmp_path)] == ["dining", "mutex"]


def test_save_rejects_tests_that_share_a_name(idioms, tmp_path):
    renamed = replace(idioms["dining"], name="mutex")
    with pytest.raises(ValueError, match=r"^tests share file names: mutex\.litmus$"):
        save_suite([idioms["mutex"], renamed], tmp_path / "suite")
    assert not (tmp_path / "suite").exists()


def test_load_missing_directory(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_suite(tmp_path / "nope")
    assert load_suite(tmp_path) == []  # empty dir is an empty suite


def test_load_rejects_entries_outside_the_suite(idioms, tmp_path):
    suite = tmp_path / "suite"
    save_suite([idioms["mutex"]], suite)
    save_suite([idioms["dining"]], tmp_path)  # a readable file one level up
    index = suite / "suite.json"
    doc = json.loads(index.read_text())
    for escape in ("../dining.litmus", "x/../../dining.litmus", str(tmp_path / "dining.litmus")):
        doc["tests"][0]["file"] = escape
        index.write_text(json.dumps(doc))
        with pytest.raises(ValueError, match="outside"):
            load_suite(suite)


def test_load_names_the_file_that_fails_to_parse(idioms, tmp_path):
    save_suite([idioms["mutex"], idioms["dining"]], tmp_path)
    bad = tmp_path / "dining.litmus"
    bad.write_text(bad.read_text().replace("cmp=1", "cmp=5", 1))
    with pytest.raises(ValueError, match=r"dining\.litmus: line \d+, column \d+: compare value 5"):
        load_suite(tmp_path)


@pytest.mark.parametrize(
    "index", [{}, {"tests": [{"name": "a"}]}, {"tests": [{"name": "a", "file": 5}]}]
)
def test_load_rejects_a_malformed_index(tmp_path, index):
    (tmp_path / "suite.json").write_text(json.dumps(index))
    with pytest.raises(ValueError, match=r"suite\.json: expected an object with a 'tests' list"):
        load_suite(tmp_path)
