"""Committed digests of whole artifact families (characterization tests).

Each family hashes a canonical JSON rendering of its outputs into one
digest in `tests/golden/contract.json`, so a refactor that keeps the
digest kept every byte, and a failure names the family that changed.
A digest may change only with an intended output change.
"""

from __future__ import annotations

import hashlib
import json

from conftest import GOLDEN_DIR, capped_tests
from progress_lab.classify import classify_suite, write_report
from progress_lab.litmus_io import serialize_litmus
from progress_lab.models import default_hierarchy
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
            report = classify_suite(tests, default_hierarchy(include_hsa_obe))
            label = f"{bounds[0]}x{bounds[1]}.hsa_obe={include_hsa_obe}"
            for kind, path in write_report(report, tmp_path / label).items():
                files[f"{label}/{kind}"] = path.read_bytes()
    assert len(files) == 12
    assert _digest(files) == CONTRACT["classify"]


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
