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
from progress_lab.models import default_hierarchy

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
