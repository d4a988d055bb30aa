"""Progress models: which threads a scheduler must treat fairly.

A progress model maps scheduler-visible facts (who has stepped, who has
terminated) to the fair set F: the threads that are guaranteed eventual
execution from that point on.  Six models are supported; all except
`unfair` split into a weak and a strong flavor at verdict time, giving
eleven distinct verdict-producing models.  The models form a strict
partial order "strictly less fair than", used when classifying suites.
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


class Hierarchy:
    """The strict partial order "strictly less fair than" over variants.

    Stored as its transitive closure, keyed by the upper variant.
    """

    def __init__(self, edges: list[tuple[ModelVariant, ModelVariant]]):
        nodes: set[ModelVariant] = set()
        for low, high in edges:
            nodes.update((low, high))
        below: dict[ModelVariant, set[ModelVariant]] = {n: set() for n in nodes}
        for low, high in edges:
            below[high].add(low)
        # Transitive closure by iteration to a fixed point; the order is tiny.
        changed = True
        while changed:
            changed = False
            for high, lows in below.items():
                extra = set().union(*(below[low] for low in lows)) - lows if lows else set()
                if extra:
                    lows.update(extra)
                    changed = True
        if any(high in lows for high, lows in below.items()):
            raise ValueError("hierarchy edges form a cycle")
        self._below = {high: frozenset(lows) for high, lows in below.items()}
        order = all_model_variants(include_hsa_obe=True)
        self._variants = tuple(v for v in order if v in nodes)

    @property
    def variants(self) -> tuple[ModelVariant, ...]:
        return self._variants

    def strictly_below(self, variant: ModelVariant) -> frozenset[ModelVariant]:
        return self._below.get(variant, frozenset())

    def less_fair(self, a: ModelVariant, b: ModelVariant) -> bool:
        """True when `a` is strictly less fair than `b`."""
        return a in self._below.get(b, frozenset())


def default_hierarchy(include_hsa_obe: bool = False) -> Hierarchy:
    """unfair < {HSA, OBE} < LOBE < fair per flavor, plus weak < strong.

    HSA and OBE stay incomparable.  `hsa+obe` sits between {HSA, OBE}
    and LOBE when requested; it is excluded by default.
    """
    W, S = Fairness.WEAK, Fairness.STRONG
    edges: list[tuple[ModelVariant, ModelVariant]] = []
    for f in (W, S):
        edges += [
            (UNFAIR_VARIANT, (ProgressModel.HSA, f)),
            (UNFAIR_VARIANT, (ProgressModel.OBE, f)),
            ((ProgressModel.HSA, f), (ProgressModel.LOBE, f)),
            ((ProgressModel.OBE, f), (ProgressModel.LOBE, f)),
            ((ProgressModel.LOBE, f), (ProgressModel.FAIR, f)),
        ]
        if include_hsa_obe:
            edges += [
                ((ProgressModel.HSA, f), (ProgressModel.HSA_OBE, f)),
                ((ProgressModel.OBE, f), (ProgressModel.HSA_OBE, f)),
                ((ProgressModel.HSA_OBE, f), (ProgressModel.LOBE, f)),
            ]
    models = [ProgressModel.HSA, ProgressModel.OBE, ProgressModel.LOBE, ProgressModel.FAIR]
    if include_hsa_obe:
        models.append(ProgressModel.HSA_OBE)
    edges += [((m, W), (m, S)) for m in models]
    return Hierarchy(edges)

