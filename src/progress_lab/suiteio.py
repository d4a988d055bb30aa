"""Suites on disk: a directory of `.litmus` files plus a `suite.json` index."""

from __future__ import annotations

import json
import os
from collections import Counter
from pathlib import Path

from .axb import LitmusTest
from .litmus_io import parse_litmus, serialize_litmus


def save_suite(
    tests,
    out_dir: str | Path,
    lts_sizes=None,
) -> Path:
    """Write one file per test and the index; returns the index path.

    Raises ValueError, before writing anything, if two tests would share
    a file.
    """
    tests = list(tests)
    fnames = [f"{test.name}.litmus" for test in tests]
    clashes = sorted(f for f, count in Counter(fnames).items() if count > 1)
    if clashes:
        raise ValueError(f"tests share file names: {', '.join(clashes)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    for i, (test, fname) in enumerate(zip(tests, fnames)):
        (out / fname).write_text(serialize_litmus(test), encoding="utf-8")
        entry = {"name": test.name, "file": fname}
        if lts_sizes is not None:
            entry["states"], entry["actions"] = lts_sizes[i]
        entries.append(entry)
    index = out / "suite.json"
    index.write_text(
        json.dumps({"tests": entries}, indent=2) + "\n", encoding="utf-8"
    )
    return index


def load_test(path: str | Path) -> LitmusTest:
    """Read one `.litmus` file; a parse error names the file."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        return parse_litmus(text)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def load_suite(suite_dir: str | Path) -> list[LitmusTest]:
    """Read a suite back, in index order (or sorted filenames without one)."""
    root = Path(suite_dir)
    if not root.is_dir():
        raise FileNotFoundError(f"not a suite directory: {root}")
    index = root / "suite.json"
    if index.is_file():
        try:
            doc = json.loads(index.read_text(encoding="utf-8"))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{index}: {exc}") from exc
        entries = doc.get("tests") if isinstance(doc, dict) else None
        if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("file"), str) for e in entries
        ):
            raise ValueError(
                f"{index}: expected an object with a 'tests' list of entries, "
                "each with a string 'file'"
            )
        files = []
        for e in entries:
            # Checked lexically: resolving every entry costs more than
            # reading it.
            rel = os.path.normpath(e["file"])
            if os.path.isabs(rel) or rel.split(os.sep)[0] == os.pardir:
                raise ValueError(f"suite entry {e['file']!r} lies outside {root}")
            files.append(root / rel)
    else:
        files = sorted(root.glob("*.litmus"))
    return [load_test(f) for f in files]
