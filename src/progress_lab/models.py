"""Progress models: which threads a scheduler must treat fairly.

A progress model maps scheduler-visible facts (who has stepped, who has
terminated) to the fair set F: the threads that are guaranteed eventual
execution from that point on.  Six models are supported; all except
`unfair` split into a weak and a strong flavor at verdict time, giving
eleven distinct verdict-producing models.

Classifying uses the order "strictly less fair than" (Sorensen, Evrard
& Donaldson, CONCUR 2018): unfair < {HSA, OBE} < HSA+OBE < LOBE < fair
within a flavor, HSA and OBE incomparable, and weak < strong.  A variant
is below another when both its model and its flavor are at most the
other's; unfair, which has no flavor, is below every other variant.
"""

from __future__ import annotations

from dataclasses import dataclass
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


@dataclass(frozen=True, slots=True)
class SchedulerFacts:
    """What a scheduler has observably done so far.

    `stepped` is the set of threads that have executed at least one
    instruction, `terminated` the subset of those that have finished
    their program.  A thread cannot terminate without stepping, since
    every thread has at least one instruction.
    """

    stepped: frozenset[int]
    terminated: frozenset[int]
    num_threads: int

    def __post_init__(self) -> None:
        if self.num_threads < 1:
            raise ValueError("facts need at least one thread")
        everyone = range(self.num_threads)
        if not self.stepped <= frozenset(everyone):
            raise ValueError("stepped contains unknown thread ids")
        if not self.terminated <= self.stepped:
            raise ValueError("terminated threads must have stepped")


def fair_set(model: ProgressModel, facts: SchedulerFacts) -> frozenset[int]:
    """Threads guaranteed eventual execution under `model`, given `facts`."""
    alive = frozenset(range(facts.num_threads)) - facts.terminated
    if model is ProgressModel.UNFAIR:
        return frozenset()
    if model is ProgressModel.FAIR:
        return alive
    if model is ProgressModel.OBE:
        return facts.stepped - facts.terminated
    if model is ProgressModel.HSA:
        return frozenset((min(alive),)) if alive else frozenset()
    if model is ProgressModel.LOBE:
        if not facts.stepped:
            return frozenset()
        bound = max(facts.stepped)
        return frozenset(t for t in alive if t <= bound)
    if model is ProgressModel.HSA_OBE:
        return fair_set(ProgressModel.HSA, facts) | fair_set(ProgressModel.OBE, facts)
    raise ValueError(f"unknown progress model {model!r}")


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


class Hierarchy:
    """The order "strictly less fair than" over `variants`, in report column order.

    `a` is below `b` when they differ, `a`'s model is in `b`'s row of
    `_AT_LEAST_AS_FAIR`, and `a` is not strong where `b` is weak.
    Variants outside the hierarchy are comparable to nothing.
    """

    def __init__(self, variants: tuple[ModelVariant, ...]):
        self._variants = tuple(variants)

    @property
    def variants(self) -> tuple[ModelVariant, ...]:
        return self._variants

    def strictly_below(self, variant: ModelVariant) -> frozenset[ModelVariant]:
        return frozenset(v for v in self._variants if self.less_fair(v, variant))

    def less_fair(self, a: ModelVariant, b: ModelVariant) -> bool:
        """True when `a` is strictly less fair than `b`."""
        return (
            a != b
            and a in self._variants
            and b in self._variants
            and a[0] in _AT_LEAST_AS_FAIR[b[0]]
            and (a[1], b[1]) != (Fairness.STRONG, Fairness.WEAK)
        )


def default_hierarchy(include_hsa_obe: bool = False) -> Hierarchy:
    """The order over the report's variants; `hsa+obe` only when requested."""
    return Hierarchy(all_model_variants(include_hsa_obe))
