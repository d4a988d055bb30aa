"""Progress models: which threads a scheduler must treat fairly.

A progress model maps scheduler-visible facts (who has stepped, who has
terminated) to the fair set F: the threads that are guaranteed eventual
execution from that point on.  `fair_set` states each model's rule once,
over thread sets held as int bitmasks.  Six models are supported; all
except `unfair` split into a weak and a strong flavor at verdict time,
giving eleven distinct verdict-producing models.

Classifying uses the order "strictly less fair than" (Sorensen, Evrard
& Donaldson, CONCUR 2018), which `less_fair` states over any two
variants: unfair < {HSA, OBE} < HSA+OBE < LOBE < fair within a flavor,
HSA and OBE incomparable, and weak < strong.  A variant is below another
when both its model and its flavor are at most the other's; unfair,
which has no flavor, is below every other variant.
"""

from __future__ import annotations

from enum import Enum


class ProgressModel(str, Enum):
    UNFAIR = "unfair"
    HSA = "hsa"
    OBE = "obe"
    LOBE = "lobe"
    HSA_OBE = "hsa+obe"
    FAIR = "fair"


class Fairness(str, Enum):
    WEAK = "weak"
    STRONG = "strong"


# A verdict-producing model: (model, flavor), flavor None only for unfair.
ModelVariant = tuple[ProgressModel, "Fairness | None"]

UNFAIR_VARIANT: ModelVariant = (ProgressModel.UNFAIR, None)


def fair_set(model: ProgressModel, stepped: int, terminated: int, num_threads: int) -> int:
    """Threads guaranteed eventual execution under `model`, as a bitmask.

    Thread sets are int bitmasks, bit t standing for thread t (Knuth,
    TAOCP Vol. 4A, 7.1.3).  `stepped` holds the threads that have
    executed at least one instruction, `terminated` the subset of those
    that have finished their program; a thread cannot terminate without
    stepping, since every thread has at least one instruction.
    """
    alive = ((1 << num_threads) - 1) & ~terminated
    if model is ProgressModel.UNFAIR:
        return 0
    if model is ProgressModel.FAIR:
        return alive
    if model is ProgressModel.OBE:
        return stepped & alive
    if model is ProgressModel.HSA:
        return alive & -alive  # the lowest live thread
    if model is ProgressModel.LOBE:
        return alive & ((1 << stepped.bit_length()) - 1)  # up to the highest stepped
    if model is ProgressModel.HSA_OBE:
        return (alive & -alive) | (stepped & alive)
    raise ValueError(f"unknown progress model {model!r}")


def thread_ids(mask: int) -> list[int]:
    """The members of thread-set bitmask `mask`, in ascending order."""
    return [t for t in range(mask.bit_length()) if mask >> t & 1]


def variant_token(variant: ModelVariant) -> str:
    model, flavor = variant
    if model is ProgressModel.UNFAIR:
        return "unfair"
    if flavor is None:
        raise ValueError(f"model {model.value} needs a fairness flavor")
    return f"{flavor.value}-{model.value}"


def all_model_variants(include_hsa_obe: bool = True) -> tuple[ModelVariant, ...]:
    """The verdict-producing models, in report column order."""
    chain = [ProgressModel.HSA, ProgressModel.OBE]
    if include_hsa_obe:
        chain.append(ProgressModel.HSA_OBE)
    chain += [ProgressModel.LOBE, ProgressModel.FAIR]
    variants: list[ModelVariant] = [UNFAIR_VARIANT]
    for flavor in (Fairness.WEAK, Fairness.STRONG):
        variants.extend((model, flavor) for model in chain)
    return tuple(variants)


# Within one flavor, the models each model is at least as fair as.
_AT_LEAST_AS_FAIR: dict[ProgressModel, frozenset[ProgressModel]] = {
    high: frozenset(ProgressModel(m) for m in lows.split())
    for high, lows in (
        (ProgressModel.UNFAIR, "unfair"),
        (ProgressModel.HSA, "unfair hsa"),
        (ProgressModel.OBE, "unfair obe"),
        (ProgressModel.HSA_OBE, "unfair hsa obe hsa+obe"),
        (ProgressModel.LOBE, "unfair hsa obe hsa+obe lobe"),
        (ProgressModel.FAIR, "unfair hsa obe hsa+obe lobe fair"),
    )
}


def less_fair(a: ModelVariant, b: ModelVariant) -> bool:
    """True when variant `a` is strictly less fair than variant `b`.

    They differ, `a`'s model is in `b`'s row of `_AT_LEAST_AS_FAIR`,
    and `a` is not strong where `b` is weak.
    """
    return (
        a != b
        and a[0] in _AT_LEAST_AS_FAIR[b[0]]
        and (a[1], b[1]) != (Fairness.STRONG, Fairness.WEAK)
    )
