"""End-to-end command-line behavior through cli.main."""

import csv
import json
import logging
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import progress_lab
from conftest import SUITE_CAPPED, capped_tests
from progress_lab import cli, oracle
from progress_lab.axb import AxbInstruction, LitmusTest
from progress_lab.classify import summary_from_partitions
from progress_lab.cli import main
from progress_lab.litmus_io import serialize_body
from progress_lab.models import all_model_variants, variant_token
from progress_lab.suiteio import load_suite, save_suite

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
    assert stats["explored"] == 30  # one check per thread-and-location orbit past the prefilters
    assert stats["unique"] == 20


def test_synth_prints_count(tmp_path, capsys):
    out = tmp_path / "s"
    assert main(["synth", "--threads", "2", "--instrs", "2", "--out", str(out)]) == 0
    assert capsys.readouterr().out == f"20 tests written to {out}\n"


def test_synth_symmetry_writes_one_test_per_location_orbit(tmp_path, capsys):
    out = tmp_path / "s"
    argv = ["synth", "--threads", "2", "--instrs", "2", "--symmetry", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"10 tests written to {out}\n"
    assert len(list(out.glob("*.litmus"))) == 10
    stats = json.loads((out / "stats.json").read_text())
    assert stats["config"]["symmetry_reduction"] is True
    counts = [stats[k] for k in ("candidates", "explored", "duplicates", "unique")]
    assert counts == [324, 30, 10, 10]


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


def test_check_rejects_a_witness_that_fails_verification(monkeypatch, capsys):
    # A cycle that skips its last step no longer closes; check refuses to
    # report the fail, with or without --witness.
    def broken(test, max_states):
        matrix = oracle.check_matrix(test, max_states)
        witness = matrix["weak-hsa"].witness
        matrix["weak-hsa"] = oracle.Verdict(False, replace(witness, cycle=witness.cycle[:-1]))
        return matrix

    monkeypatch.setattr(cli, "check_matrix", broken)
    for extra in ([], ["--witness"]):
        assert main(["check", MUTEX, "--model", "hsa", "--fairness", "weak", *extra]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error [check]: witness cycle does not close\n"
    assert main(["check", MUTEX, "--model", "obe", "--fairness", "weak"]) == 0


def test_check_logs_its_matrix_at_debug(caplog, package_log_level, capsys):
    argv = ["--log-level", "debug", "check", MUTEX, "--model", "hsa", "--fairness", "weak"]
    assert main(argv) == 0
    assert capsys.readouterr().out == "fail\n"
    [record] = [r for r in caplog.records if r.name == "progress_lab.oracle"]
    assert record.levelno == logging.DEBUG
    assert record.getMessage() == (
        "checked mutex: 8 plain states, 12 monitored states, 2 nontrivial SCCs, "
        "failing unfair weak-hsa strong-hsa"
    )


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


def test_classify_with_hsa_obe_in_hierarchy(tmp_path, capsys):
    out = tmp_path / "rep"
    argv = ["classify", "--suite", str(IDIOM_DIR), "--out", str(out), "--hsa-obe-in-hierarchy"]
    assert main(argv) == 0
    doc = json.loads((out / "partitions.json").read_text(encoding="utf-8"))
    assert doc["hierarchy"] == [variant_token(v) for v in all_model_variants()]
    assert doc["conformance"]["weak-hsa+obe"] == ["mutex", "prodcons-increasing", "simplified-mutex"]
    assert doc["distinguishing"]["weak-hsa+obe"] == []
    assert "hsa+obe          0       3         0         1" in capsys.readouterr().out.splitlines()


def test_synth_caps_keep_the_capped_suite(tmp_path, capsys, suites):
    out = tmp_path / "s"
    argv = ["synth", "--threads", "2", "--instrs", "3", "--max-states", "12",
            "--max-actions", "14", "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().out == f"{SUITE_CAPPED[(2, 3)]} tests written to {out}\n"
    stats = json.loads((out / "stats.json").read_text(encoding="utf-8"))
    assert (stats["unique"], stats["rejected"]["lts_bounds_exceeded"]) == (928, 84)

    def bodies(tests):
        return [serialize_body(t.threads, t.num_locations, t.value_domain) for t in tests]

    assert bodies(load_suite(out)) == bodies(capped_tests(suites(2, 3), (2, 3)))


def test_jobs_default_counts_the_cpus_this_process_may_run_on(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert cli.build_parser().parse_args(["report", "x"]).jobs == 1


def _package_env() -> dict:
    """The environment for a fresh process that imports this package."""
    paths = [str(Path(progress_lab.__file__).parent.parent), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}


def test_classify_logs_its_summary_at_info(suite22, tmp_path, capsys):
    # A fresh process, since the test runner's own logging handlers keep
    # `--log-level` from installing one here.
    assert main(["classify", "--suite", str(suite22), "--out", str(tmp_path / "quiet")]) == 0
    quiet = capsys.readouterr().out
    env = _package_env()
    script = "import sys; from progress_lab.cli import main; sys.exit(main(sys.argv[1:]))"
    argv = ["--log-level", "info", "classify", "--suite", str(suite22), "--out", str(tmp_path / "info")]
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == quiet
    assert re.fullmatch(
        r"INFO progress_lab\.classify: classified 20 tests: 10 location orbits, "
        r"8 distinct LTSs checked, 0 errors, \d+\.\d\d s\n",
        proc.stderr,
    )


@pytest.fixture
def package_log_level():
    yield
    logging.getLogger("progress_lab").setLevel(logging.NOTSET)


def test_log_level_applies_in_process(suite22, tmp_path, caplog, package_log_level):
    # The test runner has already given the root logger handlers, so
    # `basicConfig` alone would leave the package's info line unlogged.
    argv = ["--log-level", "info", "classify", "--suite", str(suite22), "--out", str(tmp_path)]
    assert main(argv) == 0
    [record] = [r for r in caplog.records if r.name == "progress_lab.classify"]
    assert record.levelno == logging.INFO
    assert re.fullmatch(
        r"classified 20 tests: 10 location orbits, 8 distinct LTSs checked, 0 errors, "
        r"\d+\.\d\d s",
        record.getMessage(),
    )


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


def test_module_form_runs_the_command_line(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "progress_lab", "report", str(tmp_path)],
        capture_output=True, text=True, env=_package_env(), timeout=120,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "no data\n", "")


def test_module_form_checks_a_litmus_file():
    check = [sys.executable, "-m", "progress_lab", "check", MUTEX, "--fairness", "weak"]
    run = dict(capture_output=True, text=True, env=_package_env(), timeout=120)
    proc = subprocess.run([*check, "--model", "obe"], **run)
    assert (proc.returncode, proc.stdout) == (0, "pass\n"), proc.stderr
    proc = subprocess.run([*check, "--model", "hsa", "--expect", "pass"], **run)
    assert (proc.returncode, proc.stdout) == (1, "fail\n"), proc.stderr


def test_report_lists_hierarchy_anomalies_before_errors(tmp_path, capsys):
    doc = {
        "weak_tests": ["a", "b"],
        "anomalies": [
            "a: passes weak-obe but fails weak-fair",
            "b: passes weak-hsa but fails weak-fair",
        ],
        "errors": {"c": "ExplorationLimitError: plain LTS of 'c' exceeds 6 states"},
        "hierarchy": ["weak-obe", "weak-hsa", "weak-fair"],
    }
    (tmp_path / "partitions.json").write_text(json.dumps(doc))
    text = summary_from_partitions(doc)
    assert text.endswith(
        "\n\nhierarchy anomalies:\n"
        "  a: passes weak-obe but fails weak-fair\n"
        "  b: passes weak-hsa but fails weak-fair\n"
        "\nerrors:\n"
        "  c: ExplorationLimitError: plain LTS of 'c' exceeds 6 states\n"
    )
    assert text.count("\n  ") == 3
    assert main(["report", str(tmp_path)]) == 0
    assert capsys.readouterr().out == text


IDIOM_ERRORS = (
    "errors:\n"
    "  bidirectional: ExplorationLimitError: monitored LTS of 'bidirectional' exceeds 6 states\n"
    "  dining: ExplorationLimitError: plain LTS of 'dining' exceeds 6 states\n"
    "  mutex: ExplorationLimitError: plain LTS of 'mutex' exceeds 6 states\n"
    "  simplified-mutex: ExplorationLimitError: "
    "monitored LTS of 'simplified-mutex' exceeds 6 states\n"
)


@pytest.mark.parametrize(
    "suite, bounds, ending",
    [
        ("idioms", ["--max-states", "6"], "\n\n" + IDIOM_ERRORS),
        ("spin", [], "\n\ntests failing even strong full fairness: 1\n"),
    ],
    ids=["idioms", "spin"],
)
def test_report_prints_what_classify_printed(tmp_path, capsys, suite, bounds, ending):
    suite_dir = IDIOM_DIR
    if suite == "spin":
        # Cannot finish under any model, so it is left unclassified.
        spin = LitmusTest("spin", 1, 1, ((AxbInstruction(0, 0, 0),), (AxbInstruction(0, 0, 0),)))
        suite_dir = tmp_path / "spin"
        save_suite([spin], suite_dir)
    out = tmp_path / "rep"
    assert main(["classify", "--suite", str(suite_dir), "--out", str(out), *bounds]) == 0
    printed = capsys.readouterr().out
    assert printed.endswith(ending)
    assert printed == (out / "summary.txt").read_text(encoding="utf-8")
    assert main(["report", str(out)]) == 0
    assert capsys.readouterr().out == printed


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


def test_emit_has_no_workgroup_size_option(tmp_path, capsys):
    # Each workgroup runs one test thread; the kernels cannot take a larger size.
    out = tmp_path / "k"
    with pytest.raises(SystemExit) as exc:
        main(["emit", "--suite", str(IDIOM_DIR), "--backend", "glsl",
              "--workgroup-size", "2", "--out", str(out)])
    assert exc.value.code == 2
    assert "unrecognized arguments: --workgroup-size 2" in capsys.readouterr().err
    assert not out.exists()


def test_emit_rejects_tests_that_share_a_name(tmp_path, capsys):
    # Two files whose `test` lines agree would write one kernel over the other.
    suite = tmp_path / "suite"
    suite.mkdir()
    for fname in ("a.litmus", "b.litmus"):
        (suite / fname).write_text(Path(MUTEX).read_text())
    out = tmp_path / "kernels"
    assert main(["emit", "--suite", str(suite), "--backend", "glsl", "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err == "error [emit]: artifacts share file names: mutex.plain.comp\n"
    assert captured.out == ""
    assert not out.exists()


def test_emit_rejects_bad_instances(suite22, tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["emit", "--suite", str(suite22), "--backend", "cuda", "--variant", "chunked",
              "--instances", "many", "--out", str(tmp_path / "x")])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["emit", "--suite", str(IDIOM_DIR), "--backend", "cuda", "--instances", "5",
         "--out", "unused"],
        ["emit", "--suite", str(IDIOM_DIR), "--backend", "cuda", "--instances", "auto",
         "--out", "unused"],
        ["simulate", "--suite", str(IDIOM_DIR), "--scheduler", "lobe-nonpreemptive",
         "--instances", "2"],
    ],
)
def test_instances_with_the_plain_layout_is_a_usage_error(argv, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--instances does not apply to the plain layout" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "unused").exists()


def test_emit_chunked_defaults_to_auto_instances(tmp_path, capsys):
    out = tmp_path / "kernels"
    rc = main(["emit", "--suite", str(IDIOM_DIR), "--backend", "cuda",
               "--variant", "chunked", "--out", str(out)])
    assert rc == 0
    assert capsys.readouterr().out == f"emitted 6 artifacts to {out}\n"


def test_emit_exits_2_when_an_artifact_fails(tmp_path, capsys):
    # 30,000 instances fit two threads (60,000 workgroups), not three.
    suite = tmp_path / "suite"
    suite.mkdir()
    trio = Path(MUTEX).read_text().replace("test mutex", "test trio")
    trio += "thread 2:\n  0: axb loc=0 cmp=1 jump=0 exch=1\n"
    (suite / "trio.litmus").write_text(trio)
    (suite / "mutex.litmus").write_text(Path(MUTEX).read_text())
    out = tmp_path / "kernels"
    rc = main(["emit", "--suite", str(suite), "--backend", "cuda", "--variant", "chunked",
               "--instances", "30000", "--out", str(out)])
    assert rc == 2
    captured = capsys.readouterr()
    assert captured.out == f"emitted 1 artifacts to {out} (1 errors)\n"
    assert captured.err == (
        f"error [emit]: 1 of 2 artifacts failed; see {out / 'manifest.json'}\n"
    )
    manifest = json.loads((out / "manifest.json").read_text())
    assert [e["file"] for e in manifest["entries"]] == ["mutex.chunked.cu"]
    assert [e["test"] for e in manifest["errors"]] == ["trio"]
    assert (out / "mutex.chunked.cu").is_file()
    assert not (out / "trio.chunked.cu").exists()


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


def test_simulate_writes_the_header_for_an_empty_suite(tmp_path, capsys):
    suite = tmp_path / "empty"
    suite.mkdir()
    target = tmp_path / "runs.csv"
    rc = main(["simulate", "--suite", str(suite), "--scheduler", "fair-round-robin",
               "--out", str(target)])
    assert rc == 0
    assert capsys.readouterr().out == ""
    assert target.read_bytes() == (
        b"test,scheduler,slots,iteration,seed,terminated,steps_used,nontermination_proved\r\n"
    )


def test_simulate_logs_its_campaign_at_info(caplog, package_log_level):
    argv = ["--log-level", "info", "simulate", "--suite", str(IDIOM_DIR),
            "--scheduler", "lobe-nonpreemptive", "--iterations", "2", "--budget", "5000"]
    assert main(argv) == 0
    [record] = [r for r in caplog.records if r.name == "progress_lab.schedsim"]
    assert record.levelno == logging.INFO
    assert re.fullmatch(
        r"simulated 12 runs: 32 steps, 4 proved loops, 0 out of budget, \d+\.\d\d s",
        record.getMessage(),
    )


def test_simulate_reports_proved_loops_apart_from_the_budget(capsys):
    rc = main(["simulate", "--suite", str(IDIOM_DIR), "--scheduler", "lobe-nonpreemptive",
               "--iterations", "2", "--budget", "5000"])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 6
    assert lines[0] == (
        "bidirectional lobe-nonpreemptive slots=1: "
        "0/2 terminated, 2 proved non-terminating, 0 out of budget (deterministic)"
    )
    assert lines[1] == (
        "dining lobe-nonpreemptive slots=1: "
        "2/2 terminated, 0 proved non-terminating, 0 out of budget (deterministic)"
    )


def test_simulate_counts_unproved_hangs_as_out_of_budget(capsys):
    rc = main(["simulate", "--suite", str(IDIOM_DIR), "--scheduler", "hsa-priority",
               "--priority-prob", "1", "--iterations", "1", "--budget", "50"])
    assert rc == 0
    assert (
        "prodcons-decreasing hsa-priority slots=1: "
        "0/1 terminated, 0 proved non-terminating, 1 out of budget (deterministic)\n"
    ) in capsys.readouterr().out


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
    assert main(args) == 2  # 1 means an --expect mismatch
    assert capsys.readouterr().err == (
        "error [simulate]: PROGRESS_LAB_SEED is not an integer: 'abc'\n"
    )


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
