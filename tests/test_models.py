"""Fair-set formulas, variant tokens, and the fairness partial order."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import naive
from progress_lab.models import (
    UNFAIR_VARIANT,
    Fairness,
    ProgressModel,
    all_model_variants,
    fair_set,
    less_fair,
    thread_ids,
    variant_token,
)

M = ProgressModel

# Thread sets are bitmasks, bit t for thread t: 0b101 is {0, 2}.


@st.composite
def fact_values(draw, max_threads=4):
    """(stepped, terminated, n) with terminated within stepped within n threads."""
    n = draw(st.integers(1, max_threads))
    stepped = draw(st.integers(0, (1 << n) - 1))
    terminated = draw(st.integers(0, (1 << n) - 1)) & stepped
    return stepped, terminated, n


def test_unfair_promises_nothing():
    assert fair_set(M.UNFAIR, 0b011, 0b001, 3) == 0


def test_fair_promises_every_live_thread():
    assert fair_set(M.FAIR, 0, 0, 3) == 0b111
    assert fair_set(M.FAIR, 0b011, 0b010, 3) == 0b101


def test_obe_promises_started_unfinished():
    assert fair_set(M.OBE, 0, 0, 3) == 0
    assert fair_set(M.OBE, 0b101, 0b100, 3) == 0b001


def test_hsa_promises_lowest_live():
    assert fair_set(M.HSA, 0, 0, 3) == 0b001
    assert fair_set(M.HSA, 0b001, 0b001, 3) == 0b010
    assert fair_set(M.HSA, 0b111, 0b111, 3) == 0


def test_lobe_promises_up_to_highest_stepped():
    assert fair_set(M.LOBE, 0, 0, 3) == 0
    assert fair_set(M.LOBE, 0b100, 0, 3) == 0b111
    assert fair_set(M.LOBE, 0b010, 0, 3) == 0b011
    # the highest stepped thread may already be gone; the bound remains
    assert fair_set(M.LOBE, 0b100, 0b100, 3) == 0b011
    # all stepped threads done, nothing promised to the rest
    assert fair_set(M.LOBE, 0b001, 0b001, 3) == 0


def test_combined_model_is_a_union():
    f = (0b100, 0, 3)
    assert fair_set(M.HSA_OBE, *f) == fair_set(M.HSA, *f) | fair_set(M.OBE, *f)


@given(fact_values())
def test_fair_set_containments(f):
    stepped, terminated, n = f
    alive = ((1 << n) - 1) & ~terminated
    obe = fair_set(M.OBE, *f)
    hsa = fair_set(M.HSA, *f)
    lobe = fair_set(M.LOBE, *f)
    fair = fair_set(M.FAIR, *f)
    assert fair_set(M.UNFAIR, *f) == 0
    for s in (obe, hsa, lobe, fair):
        assert s & ~alive == 0
    assert obe & ~lobe == 0 and lobe & ~fair == 0
    assert len(thread_ids(hsa)) <= 1
    assert fair_set(M.HSA_OBE, *f) == hsa | obe


def test_fair_set_matches_naive_on_every_fact_pair():
    """Every model, every n <= 4 and every terminated within stepped:
    3**n fact pairs for n threads, 120 in all."""
    pairs = 0
    for n in range(1, 5):
        for stepped in range(1 << n):
            for terminated in range(1 << n):
                if terminated & ~stepped:
                    continue
                pairs += 1
                sets = (frozenset(thread_ids(stepped)), frozenset(thread_ids(terminated)))
                for model in M:
                    got = frozenset(thread_ids(fair_set(model, stepped, terminated, n)))
                    want = naive.naive_fair(model.value, *sets, n)
                    assert got == want, (model, stepped, terminated, n)
    assert pairs == 120


def test_variant_tokens_roundtrip():
    variants = all_model_variants()
    by_token = {variant_token(v): v for v in variants}
    assert [by_token[variant_token(v)] for v in variants] == list(variants)
    assert by_token["unfair"] == UNFAIR_VARIANT
    with pytest.raises(ValueError):
        variant_token((M.FAIR, None))


def test_variant_column_order():
    tokens = [variant_token(v) for v in all_model_variants()]
    assert tokens == [
        "unfair",
        "weak-hsa", "weak-obe", "weak-hsa+obe", "weak-lobe", "weak-fair",
        "strong-hsa", "strong-obe", "strong-hsa+obe", "strong-lobe", "strong-fair",
    ]
    assert len(all_model_variants(include_hsa_obe=False)) == 9


def test_less_fair_relations():
    W, S = Fairness.WEAK, Fairness.STRONG
    for f in (W, S):
        assert less_fair(UNFAIR_VARIANT, (M.HSA, f))
        assert less_fair(UNFAIR_VARIANT, (M.FAIR, f))  # via closure
        assert less_fair((M.HSA, f), (M.LOBE, f))
        assert less_fair((M.OBE, f), (M.LOBE, f))
        assert less_fair((M.LOBE, f), (M.FAIR, f))
        assert not less_fair((M.HSA, f), (M.OBE, f))
        assert not less_fair((M.OBE, f), (M.HSA, f))
    for m in (M.HSA, M.OBE, M.LOBE, M.FAIR):
        assert less_fair((m, W), (m, S))
        assert not less_fair((m, S), (m, W))
    # strong-hsa and weak-lobe are incomparable across flavors
    assert not less_fair((M.HSA, S), (M.LOBE, W))
    assert not less_fair((M.LOBE, W), (M.HSA, S))
    assert (M.HSA_OBE, W) not in all_model_variants(include_hsa_obe=False)


def test_hierarchy_with_combined_model():
    W = Fairness.WEAK
    assert less_fair((M.HSA, W), (M.HSA_OBE, W))
    assert less_fair((M.OBE, W), (M.HSA_OBE, W))
    assert less_fair((M.HSA_OBE, W), (M.LOBE, W))
    assert less_fair((M.HSA_OBE, W), (M.FAIR, W))


def test_hierarchy_is_a_strict_order():
    variants = all_model_variants(include_hsa_obe=True)
    for a in variants:
        assert not less_fair(a, a)
        for b in variants:
            if less_fair(a, b):
                assert not less_fair(b, a)
                for c in variants:
                    if less_fair(b, c):
                        assert less_fair(a, c)


def _reference_edges(include_hsa_obe):
    """The covering relation of the order, written out edge by edge."""
    W, S = Fairness.WEAK, Fairness.STRONG
    edges = []
    for f in (W, S):
        edges += [
            (UNFAIR_VARIANT, (M.HSA, f)),
            (UNFAIR_VARIANT, (M.OBE, f)),
            ((M.HSA, f), (M.LOBE, f)),
            ((M.OBE, f), (M.LOBE, f)),
            ((M.LOBE, f), (M.FAIR, f)),
        ]
        if include_hsa_obe:
            edges += [
                ((M.HSA, f), (M.HSA_OBE, f)),
                ((M.OBE, f), (M.HSA_OBE, f)),
                ((M.HSA_OBE, f), (M.LOBE, f)),
            ]
    models = [M.HSA, M.OBE, M.LOBE, M.FAIR] + ([M.HSA_OBE] if include_hsa_obe else [])
    edges += [((m, W), (m, S)) for m in models]
    return edges


@pytest.mark.parametrize("include_hsa_obe", [False, True])
def test_hierarchy_matches_the_closed_reference_edges(include_hsa_obe):
    closure = set(_reference_edges(include_hsa_obe))
    while True:
        extra = {(a, d) for a, b in closure for c, d in closure if b == c} - closure
        if not extra:
            break
        closure |= extra
    variants = all_model_variants(include_hsa_obe)
    for a in variants:
        for b in variants:
            assert less_fair(a, b) == ((a, b) in closure), (a, b)


def test_unfair_is_below_every_variant():
    assert less_fair(UNFAIR_VARIANT, (M.FAIR, Fairness.WEAK))
    assert not less_fair((M.FAIR, Fairness.STRONG), UNFAIR_VARIANT)
