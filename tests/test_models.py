"""Fair-set formulas, variant tokens, and the fairness partial order."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from progress_lab.models import (
    UNFAIR_VARIANT,
    Fairness,
    Hierarchy,
    ProgressModel,
    SchedulerFacts,
    all_model_variants,
    default_hierarchy,
    fair_set,
    variant_token,
)

M = ProgressModel


def facts(stepped=(), terminated=(), n=3):
    return SchedulerFacts(frozenset(stepped), frozenset(terminated), n)


@st.composite
def fact_values(draw, max_threads=4):
    n = draw(st.integers(1, max_threads))
    stepped = draw(st.frozensets(st.integers(0, n - 1)))
    terminated = draw(st.frozensets(st.sampled_from(sorted(stepped)))) if stepped else frozenset()
    return SchedulerFacts(stepped, frozenset(terminated), n)


def test_unfair_promises_nothing():
    assert fair_set(M.UNFAIR, facts(stepped={0, 1}, terminated={0})) == frozenset()


def test_fair_promises_every_live_thread():
    assert fair_set(M.FAIR, facts()) == {0, 1, 2}
    assert fair_set(M.FAIR, facts(stepped={0, 1}, terminated={1})) == {0, 2}


def test_obe_promises_started_unfinished():
    assert fair_set(M.OBE, facts()) == frozenset()
    assert fair_set(M.OBE, facts(stepped={0, 2}, terminated={2})) == {0}


def test_hsa_promises_lowest_live():
    assert fair_set(M.HSA, facts()) == {0}
    assert fair_set(M.HSA, facts(stepped={0}, terminated={0})) == {1}
    all_done = facts(stepped={0, 1, 2}, terminated={0, 1, 2})
    assert fair_set(M.HSA, all_done) == frozenset()


def test_lobe_promises_up_to_highest_stepped():
    assert fair_set(M.LOBE, facts()) == frozenset()
    assert fair_set(M.LOBE, facts(stepped={2})) == {0, 1, 2}
    assert fair_set(M.LOBE, facts(stepped={1})) == {0, 1}
    # the highest stepped thread may already be gone; the bound remains
    assert fair_set(M.LOBE, facts(stepped={2}, terminated={2})) == {0, 1}
    # all stepped threads done, nothing promised to the rest
    assert fair_set(M.LOBE, facts(stepped={0}, terminated={0})) == frozenset()


def test_combined_model_is_a_union():
    f = facts(stepped={2})
    assert fair_set(M.HSA_OBE, f) == fair_set(M.HSA, f) | fair_set(M.OBE, f)


@given(fact_values())
def test_fair_set_containments(f):
    alive = frozenset(range(f.num_threads)) - f.terminated
    obe = fair_set(M.OBE, f)
    hsa = fair_set(M.HSA, f)
    lobe = fair_set(M.LOBE, f)
    fair = fair_set(M.FAIR, f)
    assert fair_set(M.UNFAIR, f) == frozenset()
    for s in (obe, hsa, lobe, fair):
        assert s <= alive
    assert obe <= lobe <= fair
    assert len(hsa) <= 1
    assert fair_set(M.HSA_OBE, f) == hsa | obe


def test_facts_validation():
    with pytest.raises(ValueError):
        SchedulerFacts(frozenset({5}), frozenset(), 2)
    with pytest.raises(ValueError):
        SchedulerFacts(frozenset(), frozenset({0}), 2)
    with pytest.raises(ValueError):
        SchedulerFacts(frozenset(), frozenset(), 0)


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


def test_default_hierarchy_relations():
    h = default_hierarchy()
    W, S = Fairness.WEAK, Fairness.STRONG
    for f in (W, S):
        assert h.less_fair(UNFAIR_VARIANT, (M.HSA, f))
        assert h.less_fair(UNFAIR_VARIANT, (M.FAIR, f))  # via closure
        assert h.less_fair((M.HSA, f), (M.LOBE, f))
        assert h.less_fair((M.OBE, f), (M.LOBE, f))
        assert h.less_fair((M.LOBE, f), (M.FAIR, f))
        assert not h.less_fair((M.HSA, f), (M.OBE, f))
        assert not h.less_fair((M.OBE, f), (M.HSA, f))
    for m in (M.HSA, M.OBE, M.LOBE, M.FAIR):
        assert h.less_fair((m, W), (m, S))
        assert not h.less_fair((m, S), (m, W))
    # strong-hsa and weak-lobe are incomparable across flavors
    assert not h.less_fair((M.HSA, S), (M.LOBE, W))
    assert not h.less_fair((M.LOBE, W), (M.HSA, S))
    assert (M.HSA_OBE, W) not in h.variants


def test_hierarchy_with_combined_model():
    h = default_hierarchy(include_hsa_obe=True)
    W = Fairness.WEAK
    assert h.less_fair((M.HSA, W), (M.HSA_OBE, W))
    assert h.less_fair((M.OBE, W), (M.HSA_OBE, W))
    assert h.less_fair((M.HSA_OBE, W), (M.LOBE, W))
    assert h.less_fair((M.HSA_OBE, W), (M.FAIR, W))


def test_hierarchy_is_a_strict_order():
    h = default_hierarchy(include_hsa_obe=True)
    for a in h.variants:
        assert not h.less_fair(a, a)
        for b in h.variants:
            if h.less_fair(a, b):
                assert not h.less_fair(b, a)
                for c in h.variants:
                    if h.less_fair(b, c):
                        assert h.less_fair(a, c)


def test_hierarchy_rejects_cycles():
    a, b = (M.HSA, Fairness.WEAK), (M.OBE, Fairness.WEAK)
    with pytest.raises(ValueError):
        Hierarchy([(a, b), (b, a)])


def test_unfair_is_below_every_variant():
    h = default_hierarchy()
    assert h.less_fair(UNFAIR_VARIANT, (M.FAIR, Fairness.WEAK))
    assert not h.less_fair((M.FAIR, Fairness.STRONG), UNFAIR_VARIANT)
