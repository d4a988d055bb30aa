"""Committed digests of whole artifact families (characterization tests).

Each family hashes a canonical JSON rendering of its outputs into one
digest in `tests/golden/contract.json`, so a refactor that keeps the
digest kept every byte, and a failure names the family that changed.
A digest may change only with an intended output change.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict

from conftest import GOLDEN_DIR, capped_tests
from progress_lab.classify import classify_suite, matrix_csv, partitions_json_dict, write_report
from progress_lab.emit import Backend, EmitConfig, Variant, emit_suite, expand_layout
from progress_lab.litmus_io import serialize_litmus
from progress_lab.lts import build_monitored_lts, build_plain_lts
from progress_lab.models import ProgressModel, all_model_variants
from progress_lab.oracle import check_matrix
from progress_lab.schedsim import campaign
from progress_lab.synth import SynthConfig, synthesize

CONTRACT = json.loads(GOLDEN_DIR.joinpath("contract.json").read_text(encoding="utf-8"))


def _digest(files: dict[str, bytes]) -> str:
    doc = {key: hashlib.sha256(data).hexdigest() for key, data in sorted(files.items())}
    return hashlib.sha256(json.dumps(doc, separators=(",", ":")).encode()).hexdigest()


def test_classify_outputs_are_pinned(suites, tmp_path):
    """`matrix.csv`, `partitions.json` and `summary.txt` for the capped
    (2,3) and (3,3) suites, with and without HSA+OBE in the hierarchy."""
    files = {}
    for bounds in ((2, 3), (3, 3)):
        tests = capped_tests(suites(*bounds), bounds)
        for include_hsa_obe in (False, True):
            report = classify_suite(tests, all_model_variants(include_hsa_obe))
            label = f"{bounds[0]}x{bounds[1]}.hsa_obe={include_hsa_obe}"
            for kind, path in write_report(report, tmp_path / label).items():
                files[f"{label}/{kind}"] = path.read_bytes()
    assert len(files) == 12
    assert _digest(files) == CONTRACT["classify"]


def test_all_bounds_classification_is_pinned(all_bounds_report):
    """`matrix_csv` and `partitions_json_dict` of check 6's classification
    of the 24,796 capped tests of every fixture bound, which reaches the
    (2,4) and (3,4) suites that the `classify` family leaves out."""
    files = {
        "matrix.csv": matrix_csv(all_bounds_report).encode(),
        "partitions.json": json.dumps(partitions_json_dict(all_bounds_report), indent=2).encode(),
    }
    assert _digest(files) == CONTRACT["classify-all-bounds"]


def test_synthesis_outputs_are_pinned(suites):
    """The serialized suite, `lts_sizes` and every `SynthStats` counter
    but the elapsed time, for the fixture bounds (2,2) to (3,4), (2,3)
    with symmetry reduction and (3,3) with two jobs."""
    runs = {f"{t}x{i}": suites(t, i) for t, i in ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4))}
    runs["2x3.symmetry"] = synthesize(SynthConfig(2, 3, symmetry_reduction=True))
    runs["3x3.jobs=2"] = synthesize(SynthConfig(3, 3, jobs=2))
    files = {}
    for label, result in runs.items():
        stats = result.stats.to_json_dict()
        del stats["elapsed_seconds"]
        files[f"{label}/suite"] = "".join(map(serialize_litmus, result.tests)).encode()
        files[f"{label}/meta"] = json.dumps(
            {"lts_sizes": result.lts_sizes, "stats": stats}, separators=(",", ":")
        ).encode()
    assert len(files) == 14
    assert _digest(files) == CONTRACT["synthesis"]


def test_emit_suite_outputs_are_pinned(idioms, tmp_path):
    """Every file `emit_suite` writes, `manifest.json` included, for the
    six idioms on every backend, plain and in chunked and round-robin
    layouts of three instances."""
    files = {}
    for backend in Backend:
        configs = [EmitConfig(backend)]
        configs += [EmitConfig(backend, v, 3) for v in (Variant.CHUNKED, Variant.ROUND_ROBIN)]
        manifest = emit_suite(list(idioms.values()), configs, tmp_path / backend.value)
        assert manifest["errors"] == []
        for path in (tmp_path / backend.value).iterdir():
            files[f"{backend.value}/{path.name}"] = path.read_bytes()
    assert len(files) == 94  # 18 artifacts and a manifest per backend, 18 Amber scripts
    assert _digest(files) == CONTRACT["emit_suite"]


def test_lts_dumps_are_pinned(idioms):
    """`to_dot` and `to_json` of every idiom's plain LTS, and of its
    monitored LTS under each of the five models with fair sets."""
    files = {}
    for name, test in idioms.items():
        plain = build_plain_lts(test)
        monitored = build_monitored_lts(plain)
        dumps = [("plain", plain, None)]
        dumps += [(m.value, monitored, m) for m in ProgressModel if m is not ProgressModel.UNFAIR]
        for label, lts, model in dumps:
            files[f"{name}/{label}.dot"] = lts.to_dot(model).encode()
            files[f"{name}/{label}.json"] = lts.to_json(model).encode()
    assert len(files) == 72
    assert _digest(files) == CONTRACT["lts-dump"]


def test_check_matrix_outputs_are_pinned(idioms, suites):
    """Every column's verdict and witness of `check_matrix` for the
    capped (2,2), (2,3) and (3,3) suites, the idioms, and the idioms in
    chunked and round-robin layouts of two and three instances plus the
    chunked four-instance mutex."""
    tests = {}
    for bounds in ((2, 2), (2, 3), (3, 3)):
        for i, test in enumerate(capped_tests(suites(*bounds), bounds)):
            tests[f"{bounds[0]}x{bounds[1]}/{i}"] = test
    for name, test in idioms.items():
        tests[f"idiom/{name}"] = test
        for variant in (Variant.CHUNKED, Variant.ROUND_ROBIN):
            for m in (2, 3):
                tests[f"layout/{name}.{variant.value}.{m}"] = expand_layout(test, variant, m)
    tests["layout/mutex.chunked.4"] = expand_layout(idioms["mutex"], Variant.CHUNKED, 4)
    files = {
        label: json.dumps(
            {tok: asdict(v) for tok, v in check_matrix(test).items()},
            default=sorted,
            separators=(",", ":"),
            sort_keys=True,
        ).encode()
        for label, test in tests.items()
    }
    assert len(files) == 1_171
    assert _digest(files) == CONTRACT["check_matrix"]


def test_campaign_outputs_are_pinned(idioms):
    """`campaign`'s rows and summaries for the six idioms in chunked and
    round-robin layouts of one and four instances, under the benchmark's
    nine scheduler settings, base seed 0, three iterations each."""
    from test_schedsim import PINNED_SPECS

    layouts = [
        expand_layout(test, variant, m)
        for test in idioms.values()
        for variant in (Variant.CHUNKED, Variant.ROUND_ROBIN)
        for m in (1, 4)
    ]
    rows, summaries = campaign(layouts, PINNED_SPECS, iterations=3, base_seed=0)
    assert (len(rows), len(summaries)) == (648, 216)
    files = {
        "rows.json": json.dumps(rows, separators=(",", ":")).encode(),
        "summaries.json": json.dumps(summaries, separators=(",", ":")).encode(),
    }
    assert _digest(files) == CONTRACT["campaign"]
