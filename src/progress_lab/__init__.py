"""Toolkit for studying forward-progress guarantees of tiny atomic programs.

The pieces compose in a pipeline: synthesize candidate litmus tests, decide
pass/fail verdicts under a family of scheduler fairness models, classify
whole suites against the model hierarchy, emit GPU kernels, and replay
tests under software schedulers.
"""

from .axb import AxbInstruction, LitmusTest, MachineState, step
from .classify import SuiteReport, classify_suite, write_report
from .emit import (
    Backend,
    EmitConfig,
    KernelArtifact,
    Variant,
    emit_kernel,
    emit_suite,
    load_harness,
)
from .litmus_io import LitmusParseError, parse_litmus, serialize_litmus
from .lts import (
    ExplorationLimitError,
    Lts,
    build_monitored_lts,
    build_plain_lts,
    scc_decompose,
)
from .models import (
    Fairness,
    ModelVariant,
    ProgressModel,
    all_model_variants,
    fair_set,
    less_fair,
    variant_token,
)
from .oracle import Verdict, Witness, check_matrix, verify_witness
from .schedsim import RunOutcome, SchedulerKind, SchedulerSpec, campaign, simulate
from .suiteio import load_suite, save_suite
from .synth import SynthConfig, SynthResult, synthesize

__version__ = "0.1.0"

__all__ = [
    "AxbInstruction",
    "Backend",
    "EmitConfig",
    "ExplorationLimitError",
    "Fairness",
    "KernelArtifact",
    "LitmusParseError",
    "LitmusTest",
    "Lts",
    "MachineState",
    "ModelVariant",
    "ProgressModel",
    "RunOutcome",
    "SchedulerKind",
    "SchedulerSpec",
    "SuiteReport",
    "SynthConfig",
    "SynthResult",
    "Variant",
    "Verdict",
    "Witness",
    "all_model_variants",
    "build_monitored_lts",
    "build_plain_lts",
    "campaign",
    "check_matrix",
    "classify_suite",
    "emit_kernel",
    "emit_suite",
    "fair_set",
    "less_fair",
    "load_harness",
    "load_suite",
    "parse_litmus",
    "save_suite",
    "scc_decompose",
    "serialize_litmus",
    "simulate",
    "step",
    "synthesize",
    "variant_token",
    "verify_witness",
    "write_report",
]
