"""Kernel emission: golden source, workgroup mapping, layouts, manifests."""

import hashlib
import json
from pathlib import Path

import pytest

from progress_lab.axb import AxbInstruction, LitmusTest
from progress_lab.emit import (
    BACKENDS,
    MAX_TOTAL_WORKGROUPS,
    Backend,
    EmitConfig,
    Variant,
    emit_kernel,
    emit_suite,
    expand_layout,
    load_harness,
    map_workgroup,
    resolve_instances,
)
from progress_lab.lts import build_plain_lts

GOLDEN = Path(__file__).parent / "golden"


# Backend -> (golden file, entry point) for the plain mutex kernel.
GOLDEN_KERNELS = {
    Backend.GLSL: ("mutex.comp", "main"),
    Backend.CUDA: ("mutex.cu", "progress_test"),
    Backend.METAL: ("mutex.metal", "progress_test"),
}


@pytest.mark.parametrize("backend", list(GOLDEN_KERNELS))
def test_glsl_mutex_matches_golden(idioms, backend):
    golden, entry_point = GOLDEN_KERNELS[backend]
    artifact = emit_kernel(idioms["mutex"], EmitConfig(backend=backend))
    assert artifact.source == GOLDEN.joinpath(golden).read_text()
    assert artifact.entry_point == entry_point
    assert artifact.workgroups == 2
    assert artifact.instances == 1


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("n,m", [(1, 1), (2, 3), (3, 2), (4, 7), (5, 5)])
def test_map_workgroup_bijective_and_ordered(variant, n, m):
    if variant is Variant.PLAIN and m != 1:
        return
    pairs = [map_workgroup(variant, w, n, m) for w in range(n * m)]
    assert sorted(pairs) == [(inst, i) for inst in range(m) for i in range(n)]
    # Within one instance, increasing workgroup id means increasing thread id.
    for inst in range(m):
        local = [i for (mm, i) in pairs if mm == inst]
        assert local == list(range(n))


def test_map_workgroup_rejects_out_of_range():
    with pytest.raises(ValueError):
        map_workgroup(Variant.ROUND_ROBIN, 6, 2, 3)
    with pytest.raises(ValueError):
        map_workgroup(Variant.CHUNKED, -1, 2, 3)


def test_resolve_instances():
    assert resolve_instances(Variant.PLAIN, 2) == 1
    assert resolve_instances(Variant.PLAIN, 2, 1) == 1
    assert resolve_instances(Variant.ROUND_ROBIN, 2) == MAX_TOTAL_WORKGROUPS // 2
    assert resolve_instances(Variant.ROUND_ROBIN, 2) == 32767
    assert resolve_instances(Variant.CHUNKED, 3, 100) == 100
    with pytest.raises(ValueError):
        resolve_instances(Variant.PLAIN, 2, 5)
    with pytest.raises(ValueError):
        resolve_instances(Variant.CHUNKED, 2, 32768)
    for variant in Variant:
        with pytest.raises(ValueError, match="instance count must be positive"):
            resolve_instances(variant, 2, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        EmitConfig(backend=Backend.GLSL, workgroup_size=0)
    with pytest.raises(ValueError):
        EmitConfig(backend=Backend.GLSL, instances=0)


def test_expand_layout_plain_is_identity(idioms):
    test = idioms["mutex"]
    assert expand_layout(test, Variant.PLAIN, 1) is test


@pytest.mark.parametrize("variant", [Variant.ROUND_ROBIN, Variant.CHUNKED])
def test_expand_layout_structure(idioms, variant):
    test = idioms["prodcons-increasing"]
    big = expand_layout(test, variant, 3)
    assert big.name == f"prodcons-increasing-{variant.value}-x3"
    assert big.num_threads == test.num_threads * 3
    assert big.num_locations == test.num_locations * 3
    assert big.value_domain == test.value_domain
    for w, program in enumerate(big.threads):
        m, i = map_workgroup(variant, w, test.num_threads, 3)
        offset = m * test.num_locations
        assert program == tuple(
            AxbInstruction(ins.loc + offset, ins.cmp, ins.jump, ins.exch)
            for ins in test.threads[i]
        )


def test_expand_layout_single_instance_is_isomorphic(idioms):
    # Same behaviour, just a renamed copy: identical state graph sizes.
    test = idioms["mutex"]
    big = expand_layout(test, Variant.ROUND_ROBIN, 1)
    assert big.threads == test.threads
    a, b = build_plain_lts(test), build_plain_lts(big)
    assert (len(a.states), len(a.transitions)) == (len(b.states), len(b.transitions))


def test_glsl_shape(idioms):
    src = emit_kernel(idioms["simplified-mutex"], EmitConfig(backend=Backend.GLSL)).source
    assert src.startswith("#version 450\n")
    assert "layout(local_size_x = 1) in;" in src
    assert "uint w = gl_WorkGroupID.x;" in src
    # The exchange-free instruction still goes through the coherence point.
    assert "atomicAdd(mem[base + 0u], 0u)" in src
    assert "atomicExchange(mem[base + 0u], 1u)" in src


def test_cuda_shape(idioms):
    artifact = emit_kernel(idioms["mutex"], EmitConfig(backend=Backend.CUDA))
    assert artifact.entry_point == "progress_test"
    assert 'extern "C" __global__ void progress_test(unsigned int* mem)' in artifact.source
    assert "unsigned int w = blockIdx.x;" in artifact.source
    assert "atomicExch(&mem[base + 0u], 1u)" in artifact.source


def test_metal_shape(idioms):
    artifact = emit_kernel(idioms["mutex"], EmitConfig(backend=Backend.METAL))
    assert artifact.entry_point == "progress_test"
    assert artifact.source.startswith("#include <metal_stdlib>\n")
    assert "kernel void progress_test" in artifact.source
    assert "atomic_exchange_explicit(&mem[base + 0u], 1u, memory_order_relaxed)" in artifact.source


def test_fallthrough_jump_is_unconditional():
    # jump == idx+1 on both outcomes: no branch in the emitted case.
    test = LitmusTest(
        name="fall",
        num_locations=1,
        value_domain=2,
        threads=((AxbInstruction(0, 1, 1, 1),), (AxbInstruction(0, 0, 1, None),)),
    )
    src = emit_kernel(test, EmitConfig(backend=Backend.GLSL)).source
    assert "if (" not in src.replace("if (i ==", "")
    assert "atomicExchange(mem[base + 0u], 1u);" in src


def test_mapping_lines_per_variant(idioms):
    test = idioms["mutex"]
    rr = emit_kernel(test, EmitConfig(backend=Backend.GLSL, variant=Variant.ROUND_ROBIN, instances=5))
    assert "uint m = w / 2u;" in rr.source
    assert "uint i = w % 2u;" in rr.source
    ch = emit_kernel(test, EmitConfig(backend=Backend.GLSL, variant=Variant.CHUNKED, instances=5))
    assert "uint m = w % 5u;" in ch.source
    assert "uint i = w / 5u;" in ch.source
    assert ch.workgroups == 10
    assert ch.buffer_cells == 10


def test_artifact_buffer_layout(idioms):
    artifact = emit_kernel(
        idioms["bidirectional"],
        EmitConfig(backend=Backend.CUDA, variant=Variant.ROUND_ROBIN, instances=4),
    )
    assert artifact.cells_per_instance == idioms["bidirectional"].num_locations
    assert artifact.buffer_cells == artifact.cells_per_instance * 4


def test_harness_roundtrip_plain(idioms):
    test = idioms["mutex"]
    artifact = emit_kernel(test, EmitConfig(backend=Backend.HARNESS))
    assert artifact.entry_point == "run"
    doc = json.loads(artifact.source)
    assert doc["kind"] == "axb-harness"
    assert doc["threads_per_instance"] == 2
    assert load_harness(artifact.source) == test


def test_harness_roundtrip_expanded(idioms):
    test = idioms["prodcons-decreasing"]
    config = EmitConfig(backend=Backend.HARNESS, variant=Variant.CHUNKED, instances=3)
    rebuilt = load_harness(emit_kernel(test, config).source)
    expanded = expand_layout(test, Variant.CHUNKED, 3)
    assert rebuilt.threads == expanded.threads
    assert rebuilt.num_locations == expanded.num_locations
    assert rebuilt.value_domain == expanded.value_domain


def test_load_harness_rejects_other_json(idioms):
    source = emit_kernel(idioms["mutex"], EmitConfig(Backend.HARNESS)).source
    no_workgroups = json.loads(source)
    del no_workgroups["workgroups"]
    no_cmp = json.loads(source)
    del no_cmp["workgroups"][0]["program"][0]["cmp"]
    for other in (
        '{"kind": "something-else"}',
        "[]",
        json.dumps(no_workgroups),
        json.dumps(no_cmp),
    ):
        with pytest.raises(ValueError):
            load_harness(other)


def test_timeouts_and_extensions():
    assert BACKENDS[Backend.CUDA].timeout_seconds == 20
    assert BACKENDS[Backend.GLSL].timeout_seconds == 5
    assert BACKENDS[Backend.METAL].timeout_seconds is None
    assert BACKENDS[Backend.HARNESS].timeout_seconds is None
    assert {backend: spec.extension for backend, spec in BACKENDS.items()} == {
        Backend.GLSL: "comp",
        Backend.CUDA: "cu",
        Backend.METAL: "metal",
        Backend.HARNESS: "json",
    }


def test_amber_wrapper(idioms, tmp_path):
    configs = [EmitConfig(backend=Backend.GLSL), EmitConfig(backend=Backend.CUDA)]
    glsl, cuda = emit_suite([idioms["mutex"]], configs, tmp_path)["entries"]
    script = (tmp_path / glsl["companion"]).read_text()
    assert script.startswith("#!amber\n")
    assert "SHADER compute test_shader GLSL" in script
    assert "#version 450" in script
    assert "BUFFER mem DATA_TYPE uint32 SIZE 2 FILL 0" in script
    assert "RUN pipeline 2 1 1" in script
    # Amber runs GLSL only: other backends get no companion script.
    assert "companion" not in cuda


def test_emit_suite_manifest(idioms, tmp_path):
    tests = [idioms["mutex"], idioms["dining"]]
    configs = [
        EmitConfig(backend=Backend.GLSL),
        EmitConfig(backend=Backend.HARNESS, variant=Variant.ROUND_ROBIN, instances=2),
        EmitConfig(backend=Backend.CUDA, variant=Variant.PLAIN, instances=9),  # invalid
    ]
    manifest = emit_suite(tests, configs, tmp_path)
    assert manifest == json.loads((tmp_path / "manifest.json").read_text())
    assert len(manifest["entries"]) == 4
    assert len(manifest["errors"]) == 2
    for err in manifest["errors"]:
        assert err["backend"] == "cuda"
        assert "ValueError" in err["error"]
    for entry in manifest["entries"]:
        assert (tmp_path / entry["file"]).exists()
        assert entry["timeout_seconds"] == BACKENDS[Backend(entry["backend"])].timeout_seconds
        if entry["backend"] == "glsl":
            assert entry["file"].endswith(".comp")
            assert (tmp_path / entry["companion"]).read_text().startswith("#!amber")
        if entry["backend"] == "harness":
            assert entry["instances"] == 2
            assert entry["workgroups"] == 4


def test_emit_suite_emits_each_glsl_kernel_once(idioms, tmp_path, monkeypatch):
    from progress_lab import emit

    calls = []
    original = emit.emit_kernel

    def counting(test, config):
        calls.append((test.name, config.variant))
        return original(test, config)

    monkeypatch.setattr(emit, "emit_kernel", counting)
    configs = [
        EmitConfig(backend=Backend.GLSL),
        EmitConfig(backend=Backend.GLSL, variant=Variant.CHUNKED, instances=3),
    ]
    manifest = emit_suite([idioms["mutex"], idioms["dining"]], configs, tmp_path)
    assert len(manifest["entries"]) == 4
    assert all("companion" in entry for entry in manifest["entries"])
    assert len(calls) == 4
    assert len(set(calls)) == 4


def test_emission_is_deterministic(idioms):
    config = EmitConfig(backend=Backend.METAL, variant=Variant.CHUNKED, instances=7)
    first = emit_kernel(idioms["bidirectional"], config)
    second = emit_kernel(idioms["bidirectional"], config)
    assert first == second


HARNESS_LAYOUTS = [(Variant.PLAIN, 1)] + [
    (variant, m)
    for variant, counts in ((Variant.CHUNKED, (1, 2, 3, 64)), (Variant.ROUND_ROBIN, (1, 2, 3, 4, 64)))
    for m in counts
]


def test_harness_bytes_are_pinned(idioms):
    """Every harness artifact's sha256, against committed digests.

    The auto-instance chunked mutex harness is the largest the workgroup
    limit allows (65,534 workgroups); it must also load back as its layout.
    """
    digests = {}
    for name, test in idioms.items():
        for variant, m in HARNESS_LAYOUTS:
            source = emit_kernel(test, EmitConfig(Backend.HARNESS, variant, m)).source
            digests[f"{name}.{variant.value}.x{m}"] = hashlib.sha256(source.encode()).hexdigest()
    mutex = idioms["mutex"]
    artifact = emit_kernel(mutex, EmitConfig(Backend.HARNESS, Variant.CHUNKED))
    digests["mutex.chunked.auto"] = hashlib.sha256(artifact.source.encode()).hexdigest()
    assert digests == json.loads(GOLDEN.joinpath("harness_sha256.json").read_text())

    loaded = load_harness(artifact.source)
    expected = expand_layout(mutex, Variant.CHUNKED, 32767)
    assert loaded.threads == expected.threads
    assert loaded.num_locations == expected.num_locations
    assert loaded.value_domain == expected.value_domain
