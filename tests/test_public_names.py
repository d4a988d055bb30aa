"""No public name without a library caller: each one is used in `src/` or
exported; no module imports a name it does not use or export; every name
the benchmark's tracer wraps still exists; and the naive reference
oracles import nothing from the package."""

import ast
import importlib.util
from pathlib import Path

import progress_lab

SRC = Path(progress_lab.__file__).parent


def _public_top_level_names(tree: ast.Module):
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, ast.Assign):
            targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            targets = [node.target.id]
        else:
            continue
        yield from (name for name in targets if not name.startswith("_"))


def test_every_public_name_is_used_in_src_or_exported():
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in SRC.glob("*.py")}
    loaded = {
        node.id
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    unused = sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name in _public_top_level_names(tree)
        if name not in loaded and name not in progress_lab.__all__
    )
    assert unused == []


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def test_every_imported_name_is_used_or_exported():
    imports = 0
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = [
            alias.asname or alias.name.split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        ]
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        loaded |= _exported(tree)
        imports += len(imported)
        unused += [f"{path.stem}.{name}" for name in imported if name not in loaded]
    assert imports
    assert unused == []


def test_every_traced_name_resolves():
    # bench/tracing.py imports only the standard library, so loading it
    # runs nothing of the benchmark.  A target the tracer cannot find is
    # silently left untraced, so a rename in src/ must fail here.
    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [t[:2] for t in tracing.SPAN_TARGETS + tracing.COUNT_TARGETS]
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr in targets
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


def test_naive_reference_imports_nothing_from_the_package():
    # The differential tests compare the package with tests/naive.py, so
    # that agreement means something only while naive.py shares no code
    # with it.
    path = Path(__file__).resolve().parent / "naive.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
                for alias in node.names]
    imported += [node.module or "" for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert imported
    assert [m for m in imported if m.split(".")[0] == progress_lab.__name__] == []


def test_traced_observers_read_the_library_results(idioms):
    # The observers read fields of the wrapped calls' results (LTS sizes,
    # synthesis stats, verdicts, kernel sources, run outcomes), which
    # only a traced run exercises; each reading must match the library's.
    from progress_lab import emit, oracle, schedsim, synth
    from progress_lab.lts import build_monitored_lts, build_plain_lts

    path = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    checked = [idioms["mutex"], idioms["dining"]]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        synth.synthesize(synth.SynthConfig(2, 2))
        for test in checked:
            oracle.check_matrix(test)
        emit.emit_kernel(idioms["mutex"], emit.EmitConfig(emit.Backend.HARNESS))
        schedsim.simulate(
            idioms["mutex"], schedsim.SchedulerSpec(schedsim.SchedulerKind.FAIR_ROUND_ROBIN)
        )
    finally:
        tracer.restore()
    assert tracer.absent == []
    totals = tracer.totals
    monitored = [build_monitored_lts(build_plain_lts(test)) for test in checked]
    assert totals["lts.monitored_transitions"] == sum(len(lts.transitions) for lts in monitored)
    assert totals["lts.plain_states"] == sum(len(build_plain_lts(test)) for test in checked)
    assert totals["synth.unique"] > 0 and totals["emit.bytes"] > 0 and totals["schedsim.steps"] > 0
