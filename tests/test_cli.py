"""End-to-end command-line behavior through cli.main."""

import csv
import json
from pathlib import Path

import pytest

from progress_lab.cli import main

IDIOM_DIR = Path(__file__).parent.parent / "docs" / "idioms"
MUTEX = str(IDIOM_DIR / "mutex.litmus")
DINING = str(IDIOM_DIR / "dining.litmus")


@pytest.fixture(scope="module")
def suite22(tmp_path_factory):
    out = tmp_path_factory.mktemp("suite22")
    assert main(["synth", "--threads", "2", "--instrs", "2", "--out", str(out)]) == 0
    return out


def test_synth_outputs(suite22, capsys):
    doc = json.loads((suite22 / "suite.json").read_text())
    assert len(doc["tests"]) == 20
    assert all("states" in e and "actions" in e for e in doc["tests"])
    assert len(list(suite22.glob("*.litmus"))) == 20
    stats = json.loads((suite22 / "stats.json").read_text())
    assert stats["config"]["threads"] == 2
    assert stats["candidates"] == 324
    assert stats["explored"] == 60  # one check per orbit past the prefilters
    assert stats["unique"] == 20


def test_synth_prints_count(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["synth", "--threads", "2", "--instrs", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"20 tests written to {out}\n"


def test_check_single_prints_bare_token(capsys):
    assert main(["check", MUTEX, "--model", "obe", "--fairness", "weak"]) == 0
    assert capsys.readouterr().out == "pass\n"


def test_check_failure_with_witness(capsys):
    rc = main(["check", MUTEX, "--model", "hsa", "--fairness", "weak", "--witness"])
    assert rc == 0  # no --expect, so reporting a fail is still success
    out = capsys.readouterr().out
    assert out.startswith("fail\n")
    assert "# path" in out
    assert "# cycle" in out


def test_check_multiple_files_labels_lines(capsys):
    rc = main(["check", DINING, MUTEX, "--model", "fair", "--fairness", "weak"])
    assert rc == 0
    assert capsys.readouterr().out == "dining: fail\nmutex: pass\n"


def test_check_expect():
    assert main(["check", MUTEX, "--model", "fair", "--fairness", "weak",
                 "--expect", "pass"]) == 0
    assert main(["check", MUTEX, "--model", "fair", "--fairness", "weak",
                 "--expect", "fail"]) == 1
    assert main(["check", MUTEX, "--model", "unfair", "--expect", "fail"]) == 0


def test_check_usage_errors():
    with pytest.raises(SystemExit) as exc:
        main(["check", MUTEX, "--model", "unfair", "--fairness", "weak"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["check", MUTEX, "--model", "lobe"])
    assert exc.value.code == 2


def test_check_missing_file_reports_error(capsys):
    assert main(["check", "no-such-file.litmus", "--model", "unfair"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error [check]:")


def test_check_and_dump_name_the_file_that_fails_to_parse(tmp_path, capsys):
    bad = tmp_path / "bad.litmus"
    bad.write_text(Path(MUTEX).read_text().replace("cmp=1", "cmp=5", 1))
    assert main(["check", MUTEX, str(bad), "--model", "unfair"]) == 2
    out, err = capsys.readouterr()
    assert out == "mutex: fail\n"
    assert err.startswith(f"error [check]: {bad}: line ")
    assert "compare value 5 out of range" in err
    assert main(["lts-dump", str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error [lts-dump]: {bad}: line ")


def test_check_bounds_the_monitored_lts_for_every_model(capsys):
    # mutex has 8 plain and 12 monitored states; the unfair verdict needs
    # only the plain LTS, but check builds the monitored one as well.
    assert main(["check", MUTEX, "--model", "unfair", "--max-states", "12"]) == 0
    assert capsys.readouterr().out == "fail\n"
    assert main(["check", MUTEX, "--model", "unfair", "--max-states", "8"]) == 2
    assert "monitored LTS of 'mutex' exceeds 8 states" in capsys.readouterr().err


def test_lts_dump_dot_to_stdout(capsys):
    assert main(["lts-dump", MUTEX]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph lts {")
    assert out.count("->") == 10


def test_lts_dump_json_to_file(tmp_path):
    target = tmp_path / "lts.json"
    rc = main(["lts-dump", MUTEX, "--format", "json", "--out", str(target)])
    assert rc == 0
    doc = json.loads(target.read_text())
    assert doc["test"] == "mutex"
    assert doc["model"] is None
    assert len(doc["states"]) == 8


def test_lts_dump_monitored(tmp_path):
    target = tmp_path / "lts.json"
    rc = main(["lts-dump", MUTEX, "--model", "lobe", "--format", "json",
               "--out", str(target)])
    assert rc == 0
    doc = json.loads(target.read_text())
    assert doc["model"] == "lobe"
    assert all(t["fair"] is not None for t in doc["transitions"])


def test_classify_then_report(suite22, tmp_path, capsys):
    report_dir = tmp_path / "rep"
    assert main(["classify", "--suite", str(suite22), "--out", str(report_dir)]) == 0
    first = capsys.readouterr().out
    assert "tests classified: 20" in first
    assert "weak fraction" in first
    for name in ("matrix.csv", "partitions.json", "summary.txt"):
        assert (report_dir / name).is_file()
    assert main(["report", str(report_dir)]) == 0
    assert "tests classified: 20" in capsys.readouterr().out


def test_classify_rejects_duplicate_names(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    text = Path(MUTEX).read_text()
    for fname in ("a.litmus", "b.litmus"):
        (suite / fname).write_text(text)
    rc = main(["classify", "--suite", str(suite), "--out", str(tmp_path / "rep")])
    assert rc == 2
    assert "duplicate test names: mutex" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


def test_report_without_data(tmp_path, capsys):
    assert main(["report", str(tmp_path)]) == 0
    assert capsys.readouterr().out == "no data\n"


@pytest.mark.parametrize(
    "doc",
    [[], {"conformance": {"weak-fair": 3}, "hierarchy": ["weak-fair"]}],
)
def test_report_rejects_malformed_partitions(tmp_path, capsys, doc):
    path = tmp_path / "partitions.json"
    path.write_text(json.dumps(doc))
    assert main(["report", str(tmp_path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error [report]: {path}: expected")


def test_report_names_partitions_file_with_a_json_syntax_error(tmp_path, capsys):
    path = tmp_path / "partitions.json"
    path.write_text("{")
    assert main(["report", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"error [report]: {path}: Expecting")


def test_classify_names_suite_index_with_a_json_syntax_error(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "suite.json").write_text("{")
    assert main(["classify", "--suite", str(suite), "--out", str(tmp_path / "rep")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error [classify]: {suite / 'suite.json'}: Expecting")


def test_emit_suite(suite22, tmp_path, capsys):
    out = tmp_path / "kernels"
    rc = main(["emit", "--suite", str(suite22), "--backend", "glsl",
               "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == f"emitted 20 artifacts to {out}\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert len(manifest["entries"]) == 20
    assert manifest["errors"] == []
    assert len(list(out.glob("*.comp"))) == 20
    assert len(list(out.glob("*.amber"))) == 20


def test_emit_rejects_bad_instances(suite22, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["emit", "--suite", str(suite22), "--backend", "cuda",
              "--instances", "many", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


def test_simulate_writes_csv(tmp_path, capsys):
    target = tmp_path / "runs.csv"
    rc = main(["simulate", "--suite", str(IDIOM_DIR),
               "--scheduler", "fair-round-robin",
               "--iterations", "2", "--budget", "5000", "--out", str(target)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "fair-round-robin slots=1:" in out
    assert "(deterministic)" in out
    with open(target, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 6 * 2
    assert all(r["terminated"] == "True" for r in rows)


def test_simulate_nonplain_needs_instances():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--suite", str(IDIOM_DIR),
              "--scheduler", "fair-round-robin", "--variant", "chunked"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "args, message",
    [
        (["--variant", "chunked", "--instances", "0"], "instance count must be positive"),
        (["--iterations", "0"], "iterations must be positive"),
    ],
)
def test_simulate_rejects_nonpositive_counts(args, message, capsys):
    rc = main(["simulate", "--suite", str(IDIOM_DIR),
               "--scheduler", "fair-round-robin", *args])
    assert rc == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert captured.out == ""


def test_seed_env_fallback(tmp_path, monkeypatch, capsys):
    args = ["simulate", "--suite", str(IDIOM_DIR),
            "--scheduler", "unfair-random",
            "--iterations", "1", "--budget", "200"]
    explicit = tmp_path / "a.csv"
    monkeypatch.delenv("PROGRESS_LAB_SEED", raising=False)
    assert main(["--seed", "5", *args, "--out", str(explicit)]) == 0
    via_env = tmp_path / "b.csv"
    monkeypatch.setenv("PROGRESS_LAB_SEED", "5")
    assert main([*args, "--out", str(via_env)]) == 0
    capsys.readouterr()
    assert explicit.read_text() == via_env.read_text()

    monkeypatch.setenv("PROGRESS_LAB_SEED", "abc")
    with pytest.raises(SystemExit) as exc:
        main(args)
    assert "not an integer" in str(exc.value)


def test_emit_rejects_name_escaping_the_output(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    text = Path(MUTEX).read_text().replace("test mutex", "test ../escape")
    (suite / "x.litmus").write_text(text)
    out = tmp_path / "out" / "kernels"
    rc = main(["emit", "--suite", str(suite), "--backend", "glsl", "--out", str(out)])
    assert rc == 2
    assert "single path component" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_classify_rejects_entry_outside_the_suite(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    (tmp_path / "secret.litmus").write_text(Path(MUTEX).read_text())
    (suite / "suite.json").write_text(
        json.dumps({"tests": [{"name": "mutex", "file": "../secret.litmus"}]})
    )
    rc = main(["classify", "--suite", str(suite), "--out", str(tmp_path / "rep")])
    assert rc == 2
    assert "outside" in capsys.readouterr().err
    assert not (tmp_path / "rep").exists()


@pytest.mark.parametrize(
    "index", [{}, {"tests": [{"name": "a"}]}, {"tests": [{"name": "a", "file": 5}]}]
)
def test_classify_rejects_a_malformed_index(tmp_path, capsys, index):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "suite.json").write_text(json.dumps(index))
    rc = main(["classify", "--suite", str(suite), "--out", str(tmp_path / "rep")])
    assert rc == 2
    assert capsys.readouterr().err.startswith(f"error [classify]: {suite / 'suite.json'}: ")
    assert not (tmp_path / "rep").exists()


def test_classify_names_the_file_that_fails_to_parse(tmp_path, capsys):
    suite = tmp_path / "suite"
    suite.mkdir()
    (suite / "a.litmus").write_text(Path(MUTEX).read_text().replace("cmp=1", "cmp=5", 1))
    rc = main(["classify", "--suite", str(suite), "--out", str(tmp_path / "rep")])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"{suite / 'a.litmus'}: line " in err and "compare value 5 out of range" in err
    assert not (tmp_path / "rep").exists()
