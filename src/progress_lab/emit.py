"""Kernel source generation for GLSL compute, CUDA, Metal, plus a JSON harness.

Each test thread becomes straight-line switch dispatch inside a while
loop over an integer program counter; exchanges map to the backend's
atomic exchange and plain reads to an atomic add of zero so every
access hits the same coherence point.  The three C-like backends share
one template and differ only in their `BACKENDS` dialect.  Multi-instance
layouts replicate the test across disjoint memory regions and remap
workgroup ids so the relative thread order inside every instance is
preserved.  Every kernel runs one invocation per workgroup, and each
workgroup runs one test thread: the kernels have no per-invocation
guard, so a larger workgroup would run racing copies of its thread.
The manifest's `workgroup_size` is therefore the constant 1, the size
runners launch each kernel with.  The JSON harness equals
`json.dumps(doc, indent=2)` of its document plus a final newline by
construction: each test thread's workgroup entry is dumped once as a
template, and every workgroup fills its thread's template with its ids
and locations, without building the multi-instance test.  One `"".join` over the header, the workgroup texts
and their separators assembles the document, so no other string of its
size is built.  `load_harness` decodes it with an object hook that turns
each instruction object into its `AxbInstruction` and each workgroup
object into its program tuple as the decoder reads them, so no dict per
instruction or workgroup outlives its own object.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from .axb import AxbInstruction, LitmusTest

MAX_TOTAL_WORKGROUPS = 65535


class Backend(str, Enum):
    GLSL = "glsl"
    CUDA = "cuda"
    METAL = "metal"
    HARNESS = "harness"


class Variant(str, Enum):
    PLAIN = "plain"
    ROUND_ROBIN = "round-robin"
    CHUNKED = "chunked"


@dataclass(frozen=True, slots=True)
class _Dialect:
    """How one C-like language spells the kernel around the shared pc loops."""

    header: tuple[str, ...]  # ends with `w` bound
    uint: str
    exchange: str  # template over loc and val
    load: str  # template over loc


@dataclass(frozen=True, slots=True)
class BackendSpec:
    extension: str
    entry_point: str
    timeout_seconds: int | None  # recommended for external runners
    dialect: _Dialect | None  # None: the JSON harness


BACKENDS: dict[Backend, BackendSpec] = {
    Backend.GLSL: BackendSpec(
        "comp",
        "main",
        5,
        _Dialect(
            (
                "#version 450",
                "layout(local_size_x = 1) in;",
                "layout(set = 0, binding = 0) buffer Mem {",
                "  uint mem[];",
                "};",
                "",
                "void main() {",
                "  uint w = gl_WorkGroupID.x;",
            ),
            "uint",
            "atomicExchange(mem[base + {loc}u], {val}u)",
            "atomicAdd(mem[base + {loc}u], 0u)",
        ),
    ),
    Backend.CUDA: BackendSpec(
        "cu",
        "progress_test",
        20,
        _Dialect(
            (
                'extern "C" __global__ void progress_test(unsigned int* mem) {',
                "  unsigned int w = blockIdx.x;",
            ),
            "unsigned int",
            "atomicExch(&mem[base + {loc}u], {val}u)",
            "atomicAdd(&mem[base + {loc}u], 0u)",
        ),
    ),
    Backend.METAL: BackendSpec(
        "metal",
        "progress_test",
        None,
        _Dialect(
            (
                "#include <metal_stdlib>",
                "using namespace metal;",
                "",
                "kernel void progress_test(device atomic_uint* mem [[buffer(0)]],",
                "                          uint w [[threadgroup_position_in_grid]]) {",
            ),
            "uint",
            "atomic_exchange_explicit(&mem[base + {loc}u], {val}u, memory_order_relaxed)",
            "atomic_fetch_add_explicit(&mem[base + {loc}u], 0u, memory_order_relaxed)",
        ),
    ),
    Backend.HARNESS: BackendSpec("json", "run", None, None),
}


@dataclass(frozen=True, slots=True)
class EmitConfig:
    backend: Backend
    variant: Variant = Variant.PLAIN
    instances: int | None = None  # None = auto

    def __post_init__(self) -> None:
        if self.instances is not None and self.instances < 1:
            raise ValueError("instance count must be positive")


def resolve_instances(
    variant: Variant, num_threads: int, instances: int | None = None
) -> int:
    """Explicit count, or the largest count the workgroup limit allows."""
    if instances is not None and instances < 1:
        raise ValueError("instance count must be positive")
    if variant is Variant.PLAIN:
        if instances not in (None, 1):
            raise ValueError("the plain layout runs exactly one instance")
        return 1
    if instances is None:
        return MAX_TOTAL_WORKGROUPS // num_threads
    if instances * num_threads > MAX_TOTAL_WORKGROUPS:
        raise ValueError(
            f"{instances} instances of {num_threads} threads exceed "
            f"{MAX_TOTAL_WORKGROUPS} workgroups"
        )
    return instances


def map_workgroup(
    variant: Variant, w: int, num_threads: int, instances: int
) -> tuple[int, int]:
    """Workgroup id -> (instance, test-thread id); bijective, order-keeping.

    The plain layout has exactly one instance; any other count raises
    `resolve_instances`' ValueError."""
    if not 0 <= w < num_threads * instances:
        raise ValueError(f"workgroup {w} out of range for {num_threads}x{instances}")
    if variant is Variant.PLAIN:
        resolve_instances(variant, num_threads, instances)
        return 0, w
    if variant is Variant.ROUND_ROBIN:
        return w // num_threads, w % num_threads
    return w % instances, w // instances


def expand_layout(test: LitmusTest, variant: Variant, instances: int | None) -> LitmusTest:
    """The multi-instance test as one big litmus test.

    `instances` is resolved by `resolve_instances`, so None means the
    most that fit and a count the layout does not allow raises
    ValueError.  The plain layout returns `test` itself.  Thread order
    follows workgroup ids; instance m owns memory cells [m*L, (m+1)*L).
    """
    instances = resolve_instances(variant, test.num_threads, instances)
    if variant is Variant.PLAIN:
        return test
    n = test.num_threads
    threads = []
    for w in range(n * instances):
        m, i = map_workgroup(variant, w, n, instances)
        offset = m * test.num_locations
        threads.append(
            tuple(
                AxbInstruction(ins.loc + offset, ins.cmp, ins.jump, ins.exch)
                for ins in test.threads[i]
            )
        )
    return LitmusTest(
        name=f"{test.name}-{variant.value}-x{instances}",
        num_locations=test.num_locations * instances,
        value_domain=test.value_domain,
        threads=tuple(threads),
    )


@dataclass(frozen=True, slots=True)
class KernelArtifact:
    source: str
    entry_point: str
    instances: int
    workgroups: int
    cells_per_instance: int

    @property
    def buffer_cells(self) -> int:
        return self.cells_per_instance * self.instances


def _mapping_lines(variant: Variant, n: int, m: int, uint: str) -> list[str]:
    if variant is Variant.PLAIN:
        return [f"{uint} m = 0u;", f"{uint} i = w;"]
    if variant is Variant.ROUND_ROBIN:
        return [f"{uint} m = w / {n}u;", f"{uint} i = w % {n}u;"]
    return [f"{uint} m = w % {m}u;", f"{uint} i = w / {m}u;"]


def _thread_body(program, dialect: _Dialect) -> list[str]:
    """The pc loop of one thread, indented to sit inside its `if (i == ...)`."""
    end = len(program)
    lines = ["    int pc = 0;", f"    while (pc != {end}) {{", "      switch (pc) {"]
    for idx, ins in enumerate(program):
        if ins.exch is None:
            op = dialect.load.format(loc=ins.loc)
        else:
            op = dialect.exchange.format(loc=ins.loc, val=ins.exch)
        lines.append(f"        case {idx}:")
        if ins.jump == idx + 1:
            # Both branch outcomes fall through; no conditional needed.
            lines.append(f"          {op};")
            lines.append("          pc += 1;")
        else:
            lines.append(f"          if ({op} == {ins.cmp}u) {{")
            lines.append(f"            pc = {ins.jump};")
            lines.append("          } else {")
            lines.append("            pc += 1;")
            lines.append("          }")
        lines.append("          break;")
    return lines + ["      }", "    }"]


def _c_like_source(
    test: LitmusTest, config: EmitConfig, instances: int, dialect: _Dialect
) -> str:
    uint = dialect.uint
    lines = list(dialect.header)
    lines += ["  " + s for s in _mapping_lines(config.variant, test.num_threads, instances, uint)]
    lines.append(f"  {uint} base = m * {test.num_locations}u;")
    for tid, program in enumerate(test.threads):
        lines.append(f"  if (i == {tid}u) {{")
        lines += _thread_body(program, dialect)
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _harness_source(test: LitmusTest, config: EmitConfig, instances: int) -> str:
    n = test.num_threads
    header = {
        "kind": "axb-harness",
        "name": test.name,
        "variant": config.variant.value,
        "instances": instances,
        "threads_per_instance": n,
        "memory_cells": test.num_locations * instances,
        "value_domain": test.value_domain,
        "workgroups": [],
    }
    # The header text ends with the empty list: '"workgroups": []\n}'.
    head = json.dumps(header, indent=2).removesuffix("[]\n}")
    # One %-template per test thread: its workgroup entry as json.dumps
    # lays it out one level deep.  Its only strings, "%d", are un-quoted
    # into placeholders for the workgroup, instance and thread ids and
    # each instruction's location, offset into its instance's memory.
    templates = []
    for program in test.threads:
        instructions = [
            {"loc": "%d", "cmp": ins.cmp, "jump": ins.jump, "exch": ins.exch} for ins in program
        ]
        group = {"workgroup": "%d", "instance": "%d", "thread": "%d", "program": instructions}
        text = json.dumps(group, indent=2).replace('"%d"', "%d")
        templates.append("    " + text.replace("\n", "\n    "))
    locs = [tuple(ins.loc for ins in program) for program in test.threads]
    # Each workgroup text follows its separator; one join builds the
    # document with no other string of its size alive.
    parts = [head, "["]
    for w in range(n * instances):
        m, i = map_workgroup(config.variant, w, n, instances)
        offset = m * test.num_locations
        parts.append(",\n" if w else "\n")
        parts.append(templates[i] % (w, m, i, *(loc + offset for loc in locs[i])))
    parts.append("\n  ]\n}\n")
    return "".join(parts)


def _int(doc: dict, key: str) -> int:
    """`doc[key]`, which must be an int; JSON `true` and `1.0` are not."""
    value = doc[key]
    if type(value) is not int:
        raise TypeError(f"{key} must be an integer, got {json.dumps(value)}")
    return value


def _harness_object(obj: dict):
    """`json.loads` object hook: an instruction object becomes its
    `AxbInstruction` and a workgroup object its program tuple, so no
    per-instruction or per-workgroup dict outlives its own object."""
    if "program" in obj:
        program = obj["program"]
        if type(program) is not list or any(type(ins) is not AxbInstruction for ins in program):
            raise TypeError("program must be a list of instruction objects")
        return tuple(program)
    if "loc" in obj:
        exch = obj["exch"]
        return AxbInstruction(
            _int(obj, "loc"),
            _int(obj, "cmp"),
            _int(obj, "jump"),
            None if exch is None else _int(obj, "exch"),
        )
    return obj


def load_harness(source: str) -> LitmusTest:
    """Rebuild the runnable litmus test from a harness artifact.

    Raises ValueError("malformed harness artifact: <Type>: <message>")
    for any input that is not such an artifact."""
    try:
        doc = json.loads(source, object_hook=_harness_object)
        if doc.get("kind") != "axb-harness":
            raise ValueError(f'kind must be "axb-harness", got {json.dumps(doc.get("kind"))}')
        threads = doc["workgroups"]
        if type(threads) is not list or any(type(program) is not tuple for program in threads):
            raise TypeError("workgroups must be a list of workgroup objects")
        expected = _int(doc, "instances") * _int(doc, "threads_per_instance")
        if len(threads) != expected:
            raise ValueError(
                f"{len(threads)} workgroups, but instances x threads_per_instance is {expected}"
            )
        return LitmusTest(
            name=doc["name"],
            num_locations=_int(doc, "memory_cells"),
            value_domain=_int(doc, "value_domain"),
            threads=tuple(threads),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"malformed harness artifact: {type(exc).__name__}: {exc}") from exc


def emit_kernel(test: LitmusTest, config: EmitConfig) -> KernelArtifact:
    instances = resolve_instances(config.variant, test.num_threads, config.instances)
    spec = BACKENDS[config.backend]
    if spec.dialect is None:
        source = _harness_source(test, config, instances)
    else:
        source = _c_like_source(test, config, instances, spec.dialect)
    return KernelArtifact(
        source=source,
        entry_point=spec.entry_point,
        instances=instances,
        workgroups=test.num_threads * instances,
        cells_per_instance=test.num_locations,
    )


def _amber_script(artifact: KernelArtifact) -> str:
    lines = [
        "#!amber",
        "",
        "SHADER compute test_shader GLSL",
        artifact.source.rstrip("\n"),
        "END",
        "",
        f"BUFFER mem DATA_TYPE uint32 SIZE {artifact.buffer_cells} FILL 0",
        "",
        "PIPELINE compute pipeline",
        "  ATTACH test_shader",
        "  BIND BUFFER mem AS storage DESCRIPTOR_SET 0 BINDING 0",
        "END",
        "",
        f"RUN pipeline {artifact.workgroups} 1 1",
    ]
    return "\n".join(lines) + "\n"


def emit_suite(tests, configs, out_dir: str | Path) -> dict:
    """One artifact per (test, config); returns and writes the manifest.

    Raises ValueError, before writing anything, if two (test, config)
    pairs would share a file.
    """
    jobs = [
        (test, config, f"{test.name}.{config.variant.value}.{BACKENDS[config.backend].extension}")
        for test in tests
        for config in configs
    ]
    # An Amber companion is named after its GLSL kernel, so the kernels'
    # names decide every clash.
    fnames = Counter(fname for _, _, fname in jobs)
    clashes = sorted(f for f, count in fnames.items() if count > 1)
    if clashes:
        raise ValueError(f"artifacts share file names: {', '.join(clashes)}")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    entries = []
    errors = []
    for test, config, fname in jobs:
        try:
            artifact = emit_kernel(test, config)
            spec = BACKENDS[config.backend]
            (out / fname).write_text(artifact.source, encoding="utf-8")
            entry = {
                "test": test.name,
                "backend": config.backend.value,
                "variant": config.variant.value,
                "file": fname,
                "entry_point": artifact.entry_point,
                "instances": artifact.instances,
                "workgroups": artifact.workgroups,
                "workgroup_size": 1,
                "buffer_cells": artifact.buffer_cells,
                "cells_per_instance": artifact.cells_per_instance,
                "timeout_seconds": spec.timeout_seconds,
            }
            if config.backend is Backend.GLSL:
                amber_name = f"{test.name}.{config.variant.value}.amber"
                (out / amber_name).write_text(_amber_script(artifact), encoding="utf-8")
                entry["companion"] = amber_name
            entries.append(entry)
        except Exception as exc:  # noqa: BLE001 - partial failures recorded
            errors.append(
                {
                    "test": test.name,
                    "backend": config.backend.value,
                    "variant": config.variant.value,
                    "error": f"{type(exc).__name__}: {exc}",
                }
            )
    manifest = {"entries": entries, "errors": errors}
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )
    return manifest
