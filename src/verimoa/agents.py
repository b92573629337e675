"""Agent generation protocols.

Three proposer paths plus the final aggregator:

  Base  -- one call: design description (+ cached HDL references) to HDL.
  Cpp   -- stage 1 models behavior in C++ with checker-driven refinement,
  Py       stage 2 translates the model to HDL with cached HDL references.
  Aggregator -- merges the final TopN into the answer.

Every LLM exchange is one Caller.ask: it formats the template, sends the
request and records the answer in the slot's (or aggregator's) prompts.

Stage-1 prompts carry only same-language intermediate references and
stage-2 prompts carry only HDL references; layer-1 prompts carry no cached
material at all.  Reference blocks embed candidate markers so transcript
audits can verify those rules mechanically.
"""

from __future__ import annotations

import os
import re
import subprocess
from dataclasses import dataclass, field
from typing import Mapping

from .analyzer import extract_facts
from .backends import GenerationRequest, extract_code_block
from .cache import (
    AgentPath,
    HdlCacheEntry,
    IntermediateLanguage,
    PATH_LANGUAGE,
)
from .errors import (
    AuthError,
    SchemaError,
    SimulatorUnavailableError,
    VerimoaError,
    WorkspaceError,
)
from .memo import VerdictMemo
from .problems import DesignProblem, Sampling, read_text
from .scoring import QualityScore, ScoreConstants, score_from_facts
from .simulator import (
    SimPhase,
    WorkspacePool,
    check_template,
    split_template,
    run_in_session,
    stub_script_cmd,
)

TEMPLATE_NAMES = {
    "base": ("direct", "sim_refine"),
    "cpp": ("stage1", "stage1_refine", "stage2", "sim_refine"),
    "py": ("stage1", "stage1_refine", "stage2", "sim_refine"),
    "aggregator": ("aggregate", "sim_refine"),
}

# The keywords each template's call site formats it with, in every group.
TEMPLATE_PLACEHOLDERS = {
    **dict.fromkeys(("direct", "stage1", "aggregate"), ("description", "references")),
    "stage1_refine": ("description", "intermediate", "feedback"),
    "stage2": ("description", "intermediate", "references"),
    "sim_refine": ("description", "candidate", "feedback"),
}

SYSTEM_PROMPTS = {
    "hdl": "You are an expert digital hardware engineer who writes correct, "
           "synthesizable Verilog.",
    "cpp": "You are an expert C++ programmer who models hardware behavior "
           "precisely in software.",
    "python": "You are an expert Python programmer who models hardware "
              "behavior precisely in software.",
    "aggregator": "You are an expert digital hardware engineer who merges "
                  "candidate Verilog designs into one superior implementation.",
}

# Keyed by the references' intermediate language; None for HDL references.
REFS_HEADERS = {
    None: "Reference HDL implementations from earlier layers, best first:",
    IntermediateLanguage.CPP: "Reference C++ behavior models from earlier layers, best first:",
    IntermediateLanguage.PYTHON: (
        "Reference Python behavior models from earlier layers, best first:"
    ),
}

# How much failing-log context a refinement prompt gets.
FEEDBACK_TAIL_CHARS = 4000

CANDIDATE_MARKER_RE = re.compile(r"<<candidate L(\d+)\.S(\d+)\.([a-z]+)\.r(\d+)>>")


def candidate_marker(cid) -> str:
    return "<<candidate L%d.S%d.%s.r%d>>" % (
        cid.layer, cid.slot, cid.path.value, cid.refine_round,
    )


def format_references(
    entries: list[HdlCacheEntry], language: IntermediateLanguage | None = None
) -> str:
    """The references block of a prompt: each entry's HDL source, or with a
    language its intermediate model, best first."""
    if not entries:
        return ""
    parts = [REFS_HEADERS[language]]
    for entry in entries:
        parts.append(
            "%s quality %.3f\n```%s\n%s\n```"
            % (
                candidate_marker(entry.id),
                entry.score.value,
                language.value if language else "verilog",
                entry.intermediate if language else entry.source,
            )
        )
    return "\n\n".join(parts)


def load_templates(root: str | None = None) -> dict[str, dict[str, str]]:
    """Load prompt templates, from the package or an override directory; a
    template that is not UTF-8 or does not format with its TEMPLATE_PLACEHOLDERS,
    and so would fail mid-run, is a SchemaError naming it."""
    base = os.path.join(os.path.dirname(__file__), "templates") if root is None else root
    out: dict[str, dict[str, str]] = {}
    for group, names in TEMPLATE_NAMES.items():
        out[group] = {}
        for name in names:
            text = read_text(os.path.join(base, group, name + ".txt"), SchemaError)
            try:
                text.format(**dict.fromkeys(TEMPLATE_PLACEHOLDERS[name], ""))
            except (KeyError, IndexError, ValueError, AttributeError, TypeError) as exc:
                raise SchemaError("template %s/%s does not format with %s: %r"
                                  % (group, name, TEMPLATE_PLACEHOLDERS[name], exc))
            out[group][name] = text
    return out


@dataclass(frozen=True)
class AgentSpec:
    path: AgentPath
    slot: int
    templates: Mapping[str, str]

    def __post_init__(self) -> None:
        required = TEMPLATE_NAMES[self.path.value]
        missing = [n for n in required if n not in self.templates]
        if missing:
            raise ValueError(
                "%s agent lacks template(s): %s" % (self.path.value, ", ".join(missing))
            )


@dataclass(frozen=True)
class PromptRecord:
    stage: str
    request_tag: str
    system_prompt: str
    user_prompt: str
    response_text: str
    extracted_source: str


@dataclass(frozen=True)
class CheckerRecord:
    round: int
    status: str  # pass | fail | error
    diagnostics: str


@dataclass(frozen=True)
class RefineRound:
    round_index: int
    source: str
    score: QualityScore


CHECKER_TIMEOUT_MS = 60_000
CHECKER_TIMEOUT_DIAGNOSTICS = "[checker timeout after %d ms]" % CHECKER_TIMEOUT_MS

# The checked source's name inside the checker's private directory.
_CHECKER_SOURCE = {
    IntermediateLanguage.CPP: "candidate.cpp",
    IntermediateLanguage.PYTHON: "candidate.py",
}


@dataclass(frozen=True)
class IntermediateChecker:
    """One language's checker command; each run gets CHECKER_TIMEOUT_MS."""

    language: IntermediateLanguage
    check_cmd: str  # template with a {source} placeholder
    max_rounds: int = 1
    _pool: WorkspacePool = field(
        default_factory=lambda: WorkspacePool("verimoa-check-"),
        init=False, repr=False, compare=False,
    )

    def __post_init__(self) -> None:
        if self.max_rounds > 0:
            check_template("check_cmd", self.check_cmd, "{source}")

    def run(self, source: str) -> tuple[str, str]:
        """Check one intermediate; returns (pass|fail|error, diagnostics).

        The source is written under a fixed name into a private directory
        leased from the checker's own pool, which is the checker's working
        directory, so diagnostics never quote a temp path.  A directory
        that cannot be made, like a checker that cannot be launched, is an
        error, not a crash.  The directory is reused only after a command
        that ran to its end.  Diagnostics are capped like a simulator log.
        """
        name = _CHECKER_SOURCE[self.language]
        try:
            workdir = self._pool.lease([(name, source)])
        except WorkspaceError as exc:
            return "error", "checker unavailable: %s" % exc
        argv = [token.replace("{source}", name) for token in split_template(self.check_cmd)]
        finished = False
        try:
            code, output, _ = run_in_session(argv, workdir, CHECKER_TIMEOUT_MS / 1000.0, None)
            finished = True
        except subprocess.TimeoutExpired:
            return "fail", CHECKER_TIMEOUT_DIAGNOSTICS
        except OSError as exc:
            return "error", "checker unavailable: %s" % exc
        finally:
            self._pool.release(workdir, finished)
        log = output.decode("utf-8", errors="replace")
        return ("pass", log) if code == 0 else ("fail", log)


def stub_checker(language: IntermediateLanguage, max_rounds: int = 1) -> IntermediateChecker:
    return IntermediateChecker(
        language=language,
        check_cmd="%s {source}" % stub_script_cmd("check.awk"),
        max_rounds=max_rounds,
    )


# The fence each role's answer is read from; a language's value is its role.
_ROLE_FENCE = {"hdl": "verilog", "aggregator": "verilog", "cpp": "cpp", "python": "python"}


@dataclass
class Caller:
    """One slot's, or the aggregator's, record: each answered ask is appended
    to prompts (one that raises appends nothing), each check to checks."""

    backend: object
    sampling: Sampling
    tag_prefix: str
    prompts: list[PromptRecord] = field(default_factory=list)
    checks: list[CheckerRecord] = field(default_factory=list)

    def ask(self, stage: str, template: str, role: str, **fields) -> str:
        """Format template with fields, send it tagged tag_prefix/stage under
        role's system prompt (a SYSTEM_PROMPTS key); returns the answer's code block."""
        tag = "%s/%s" % (self.tag_prefix, stage)
        system, user = SYSTEM_PROMPTS[role], template.format(**fields)
        response = self.backend.generate(
            GenerationRequest(
                system_prompt=system,
                user_prompt=user,
                temperature=self.sampling.temperature,
                top_p=self.sampling.top_p,
                request_tag=tag,
            )
        )
        source = extract_code_block(response.text, _ROLE_FENCE[role])
        self.prompts.append(PromptRecord(stage, tag, system, user, response.text, source))
        return source


def run_base_agent(
    spec: AgentSpec,
    problem: DesignProblem,
    hdl_refs: list[HdlCacheEntry],
    layer: int,
    caller: Caller,
) -> str:
    """Direct description-to-HDL generation; returns the source."""
    assert layer >= 2 or not hdl_refs, "layer 1 receives no references"
    return caller.ask(
        "direct",
        spec.templates["direct"],
        "hdl",
        description=problem.description,
        references=format_references(hdl_refs),
    )


def run_twostage_agent(
    spec: AgentSpec,
    problem: DesignProblem,
    hdl_refs: list[HdlCacheEntry],
    int_refs: list[HdlCacheEntry],
    checker: IntermediateChecker,
    layer: int,
    caller: Caller,
    *,
    memo: VerdictMemo,
) -> tuple[str, str]:
    """Two-stage generation through an intermediate language.

    Returns (hdl_source, intermediate_source).  Each check is appended to
    caller.checks as it arrives, like each answered call to caller.prompts,
    so a failing stage 2 leaves them there.  A broken checker downgrades to
    zero refinement rounds rather than failing the agent.  Each check is
    looked up in memo by language, check command and source, and is not
    kept if it is an error or a timeout.
    """
    assert layer >= 2 or (not hdl_refs and not int_refs), "layer 1 receives no references"
    language = PATH_LANGUAGE[spec.path]
    assert all(PATH_LANGUAGE[e.id.path] is language for e in int_refs), (
        "cross-language reference"
    )

    intermediate = caller.ask(
        "stage1",
        spec.templates["stage1"],
        language.value,
        description=problem.description,
        references=format_references(int_refs, language),
    )
    for round_index in range(1, checker.max_rounds + 1):
        status, diagnostics = memo.get(
            (language.value, checker.check_cmd, intermediate),
            lambda: checker.run(intermediate),
            lambda check: check[0] != "error" and check[1] != CHECKER_TIMEOUT_DIAGNOSTICS,
        )
        caller.checks.append(CheckerRecord(round_index, status, diagnostics))
        if status != "fail":
            break
        intermediate = caller.ask(
            "stage1_refine",
            spec.templates["stage1_refine"],
            language.value,
            description=problem.description,
            intermediate=intermediate,
            feedback=diagnostics[-FEEDBACK_TAIL_CHARS:],
        )

    hdl = caller.ask(
        "stage2",
        spec.templates["stage2"],
        "hdl",
        description=problem.description,
        intermediate=intermediate,
        references=format_references(hdl_refs),
    )
    return hdl, intermediate


def gated_evaluation(
    source: str,
    problem: DesignProblem,
    sim,
    constants: ScoreConstants,
    run_functional: bool = True,
    memo: VerdictMemo | None = None,
) -> tuple[QualityScore, str]:
    """Run the gates and score; also returns the failing log for feedback.

    With the functional gate on, the candidate is compiled once, together
    with the testbench.  Only when that compile fails does a candidate-only
    compile decide between the syntax-fail and the functional-fail branch.
    With it off, a compiling candidate scores on the functional-fail branch
    (it cannot claim the perfect score unverified).  Timeouts count as the
    gate failing; simulator unavailability propagates.  Verdicts (not kept
    if timed out) and facts are looked up in memo, a fresh one if None.
    """
    memo = VerdictMemo() if memo is None else memo
    support = tuple(sorted(problem.support_files.items()))

    def gate(name: str):
        key = (name, problem.id, problem.testbench_source, support, source)
        return memo.get(key, lambda: getattr(sim, name)(source, problem),
                        lambda verdict: not verdict.timed_out)

    func = gate("function_test") if run_functional else None
    if func is not None and func.phase is SimPhase.RUN:
        syntax_pass, functional_pass = True, func.passed
        feedback = "" if func.passed else func.log
    else:
        syntax = gate("syntax_test")
        syntax_pass, functional_pass = syntax.passed, False
        if not syntax.passed:
            feedback = syntax.log
        else:
            feedback = "" if func is None else func.log
    # The perfect branch scores without structural facts.
    perfect = syntax_pass and functional_pass
    facts = None if perfect else memo.get(("facts", source), lambda: extract_facts(source))
    score = score_from_facts(facts, constants, syntax_pass, functional_pass)
    return score, feedback


def sim_refine(
    source: str,
    problem: DesignProblem,
    sim,
    constants: ScoreConstants,
    templates: Mapping[str, str],
    max_rounds: int,
    caller: Caller,
    run_functional: bool = True,
    *,
    memo: VerdictMemo,
) -> list[RefineRound]:
    """Evaluate a draft and iterate on simulator feedback.

    Always returns at least round 0 (the plain evaluation); with
    max_rounds=0 that is all.  Backend or simulator trouble mid-refinement
    ends the loop early, keeping the rounds already evaluated; an AuthError
    propagates, since no later request can succeed.  The round-0
    evaluation propagates simulator errors: an unevaluable draft has no
    score at all.
    """
    score, feedback = gated_evaluation(source, problem, sim, constants, run_functional, memo)
    rounds = [RefineRound(0, source, score)]
    for round_index in range(1, max_rounds + 1):
        if rounds[-1].score.syntax_pass and rounds[-1].score.functional_pass:
            break
        try:
            revised = caller.ask(
                "sim_refine%d" % round_index,
                templates["sim_refine"],
                "hdl",
                description=problem.description,
                candidate=rounds[-1].source,
                feedback=feedback[-FEEDBACK_TAIL_CHARS:],
            )
        except AuthError:
            raise
        except VerimoaError:
            break
        try:
            score, feedback = gated_evaluation(
                revised, problem, sim, constants, run_functional, memo
            )
        except (SimulatorUnavailableError, WorkspaceError):
            break
        rounds.append(RefineRound(round_index, revised, score))
    return rounds


def best_round(rounds: list[RefineRound]) -> RefineRound:
    """Highest score wins; ties go to the latest round."""
    return max(rounds, key=lambda r: (r.score.value, r.round_index))


def run_aggregator(
    problem: DesignProblem,
    hdl_refs: list[HdlCacheEntry],
    templates: Mapping[str, str],
    caller: Caller,
) -> tuple[str, bool]:
    """Synthesize the final answer from the TopN references.

    Returns (source, fallback_used); on backend failure the highest-ranked
    cached candidate becomes the answer.  An AuthError propagates.
    """
    if not hdl_refs:
        raise ValueError("aggregator needs at least one cached reference")
    try:
        source = caller.ask(
            "aggregate",
            templates["aggregate"],
            "aggregator",
            description=problem.description,
            references=format_references(hdl_refs),
        )
    except AuthError:
        raise
    except VerimoaError:
        return hdl_refs[0].source, True
    return source, False
