"""Quality-ranked multi-path mixture-of-agents pipeline for Verilog generation."""

__version__ = "0.1.0"

from .agents import gated_evaluation
from .analyzer import StructuralFacts, extract_facts, tokenize
from .cache import (
    AgentPath,
    CandidateId,
    GlobalCache,
    HdlCacheEntry,
    IntermediateLanguage,
)
from .errors import VerimoaError
from .harness import build_report, pass_at_k, vendi_score
from .problems import Benchmark, DesignProblem, RunConfig, load_benchmark, load_config
from .scoring import QualityScore, ScoreBranch, ScoreConstants
from .simulator import ExternalSimulator, SimulatorConfig, stub_simulator

__all__ = [
    "AgentPath",
    "Benchmark",
    "CandidateId",
    "DesignProblem",
    "ExternalSimulator",
    "GlobalCache",
    "HdlCacheEntry",
    "IntermediateLanguage",
    "QualityScore",
    "RunConfig",
    "ScoreBranch",
    "ScoreConstants",
    "SimulatorConfig",
    "StructuralFacts",
    "VerimoaError",
    "__version__",
    "build_report",
    "extract_facts",
    "gated_evaluation",
    "load_benchmark",
    "load_config",
    "pass_at_k",
    "stub_simulator",
    "tokenize",
    "vendi_score",
]
