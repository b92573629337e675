"""Hierarchical quality scoring of HDL candidates.

Three branches, strictly ordered by value:

  1. syntax gate and functional gate both pass  -> the perfect score;
  2. syntax passes, function fails              -> base score minus capped
     severity penalties from static analysis;
  3. syntax fails                               -> capped structural credits
     only, tightened below the worst branch-2 score.

The orderings Perfect > FunctionalFail >= floor > SyntaxFail ceiling are
enforced by ScoreConstants.validate, not by clamping at score time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping

from .analyzer import Sensitivity, StructuralFacts
from .errors import InvariantViolationError

# Rule identifiers, grouped by severity class.
RULE_MULTI_DRIVEN = "multi_driven_signal"
RULE_COMB_FEEDBACK = "combinational_feedback"
RULE_BLOCKING_IN_SEQ = "blocking_in_sequential"
RULE_NONBLOCKING_IN_COMB = "nonblocking_in_combinational"
RULE_CASE_NO_DEFAULT = "case_without_default"
RULE_SEQ_NO_RESET = "sequential_without_reset"
RULE_INCOMPLETE_COND = "incomplete_conditional"
RULE_UNBALANCED = "unbalanced_begin_end"
RULE_OVERLONG = "overlong_source"
RULE_NO_PORT_DIRS = "missing_port_directions"

SEVERE_RULES = (RULE_MULTI_DRIVEN, RULE_COMB_FEEDBACK)
MODERATE_RULES = (
    RULE_BLOCKING_IN_SEQ,
    RULE_NONBLOCKING_IN_COMB,
    RULE_CASE_NO_DEFAULT,
    RULE_SEQ_NO_RESET,
    RULE_INCOMPLETE_COND,
)
MINOR_RULES = (RULE_UNBALANCED, RULE_OVERLONG, RULE_NO_PORT_DIRS)

DEFAULT_RULE_WEIGHTS: dict[str, float] = {
    **{r: 0.15 for r in SEVERE_RULES},
    **{r: 0.05 for r in MODERATE_RULES},
    **{r: 0.02 for r in MINOR_RULES},
}

# A candidate longer than this many code tokens is penalized as bloat.
OVERLONG_TOKEN_THRESHOLD = 1000


@dataclass(frozen=True)
class ScoreConstants:
    q_perfect: float = 1.0
    q_base: float = 0.8
    cap_severe: float = 0.30
    cap_moderate: float = 0.15
    cap_minor: float = 0.05
    cap_structure: float = 0.15
    cap_logic: float = 0.10
    cap_format: float = 0.05
    # Multiplier < 1 keeping the syntax-fail ceiling strictly under the
    # functional-fail floor when the cap sums are equal.
    fallback_tighten: float = 0.999
    rule_weights: Mapping[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Rules the caller leaves out keep their default weights.
        weights = {**DEFAULT_RULE_WEIGHTS, **self.rule_weights}
        object.__setattr__(self, "rule_weights", weights)

    def validate(self) -> None:
        caps = (
            self.cap_severe, self.cap_moderate, self.cap_minor,
            self.cap_structure, self.cap_logic, self.cap_format,
        )
        if any(c < 0 for c in caps):
            raise InvariantViolationError("score caps must be non-negative")
        if any(w < 0 for w in self.rule_weights.values()):
            raise InvariantViolationError("rule weights must be non-negative")
        unknown = set(self.rule_weights) - set(DEFAULT_RULE_WEIGHTS)
        if unknown:
            raise InvariantViolationError(
                "unknown rule ids in weights: %s" % ", ".join(sorted(unknown))
            )
        syntax_ceiling = self.cap_structure + self.cap_logic + self.cap_format
        if not (self.q_perfect > self.q_base > syntax_ceiling):
            raise InvariantViolationError(
                "require q_perfect > q_base > sum of fallback caps"
            )
        floor = self.q_base - self.cap_severe - self.cap_moderate - self.cap_minor
        if floor < syntax_ceiling:
            raise InvariantViolationError(
                "functional-fail floor %g is below syntax-fail cap sum %g"
                % (floor, syntax_ceiling)
            )
        if not 0 <= self.fallback_tighten < 1:
            raise InvariantViolationError("fallback_tighten must be in [0, 1)")
        if floor <= self.fallback_tighten * syntax_ceiling:
            raise InvariantViolationError(
                "tightened syntax-fail ceiling must stay below the "
                "functional-fail floor"
            )
        if floor < 0:
            raise InvariantViolationError("functional-fail floor is negative")

    def weight(self, rule: str) -> float:
        return float(self.rule_weights[rule])


class ScoreBranch(Enum):
    PERFECT = "perfect"
    FUNCTIONAL_FAIL = "functional_fail"
    SYNTAX_FAIL = "syntax_fail"


@dataclass(frozen=True)
class QualityScore:
    value: float
    branch: ScoreBranch
    breakdown: tuple[tuple[str, float], ...]
    syntax_pass: bool
    functional_pass: bool

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "branch": self.branch.value,
            "breakdown": [[rule, amount] for rule, amount in self.breakdown],
            "syntax_pass": self.syntax_pass,
            "functional_pass": self.functional_pass,
        }


def fired_rules(facts: StructuralFacts) -> dict[str, list[str]]:
    """Which penalty rules fire on these facts, grouped by severity class.

    Each rule fires at most once per candidate; the caps would swallow
    repeats anyway and a boolean rule set keeps breakdowns readable.
    """
    severe: list[str] = []
    moderate: list[str] = []
    minor: list[str] = []

    if any(count >= 2 for count in facts.driven_signals.values()):
        severe.append(RULE_MULTI_DRIVEN)
    if any(
        b.sensitivity is Sensitivity.COMBINATIONAL
        and b.assigned_signals & b.read_signals
        for b in facts.always_blocks
    ):
        severe.append(RULE_COMB_FEEDBACK)

    if any(
        b.sensitivity is Sensitivity.EDGE_TRIGGERED and b.uses_blocking
        for b in facts.always_blocks
    ):
        moderate.append(RULE_BLOCKING_IN_SEQ)
    if any(
        b.sensitivity is Sensitivity.COMBINATIONAL and b.uses_nonblocking
        for b in facts.always_blocks
    ):
        moderate.append(RULE_NONBLOCKING_IN_COMB)
    if facts.case_without_default > 0:
        moderate.append(RULE_CASE_NO_DEFAULT)
    has_sequential = any(
        b.sensitivity is Sensitivity.EDGE_TRIGGERED for b in facts.always_blocks
    )
    if has_sequential and not facts.has_reset_in_sequential:
        moderate.append(RULE_SEQ_NO_RESET)
    if any(b.has_incomplete_conditional for b in facts.always_blocks):
        moderate.append(RULE_INCOMPLETE_COND)

    if not facts.begin_end_balanced:
        minor.append(RULE_UNBALANCED)
    if facts.token_count > OVERLONG_TOKEN_THRESHOLD:
        minor.append(RULE_OVERLONG)
    if facts.has_module_decl and facts.port_count >= 1 and not facts.has_port_directions:
        minor.append(RULE_NO_PORT_DIRS)

    return {"severe": severe, "moderate": moderate, "minor": minor}


# (check-id, cap attribute, predicate) tables for the fallback branch.
# Logic credits are gated on the source containing any logic at all, so a
# bare port-list module earns structure and format credit but zero logic.
def _structure_checks(facts: StructuralFacts) -> list[tuple[str, bool]]:
    return [
        ("structure_module_decl", facts.has_module_decl),
        ("structure_endmodule", facts.has_endmodule),
        ("structure_ports", facts.port_count >= 1),
    ]


def _logic_checks(facts: StructuralFacts) -> list[tuple[str, bool]]:
    has_logic = facts.assign_count > 0 or bool(facts.always_blocks)
    return [
        ("logic_constructs", has_logic),
        ("logic_begin_end_balanced", has_logic and facts.begin_end_balanced),
        # Behavioral blocks ought to branch somewhere; pure assign netlists
        # are excused.
        ("logic_conditional", has_logic and (not facts.always_blocks or facts.has_conditional)),
    ]


def _format_checks(facts: StructuralFacts) -> list[tuple[str, bool]]:
    return [
        ("format_nonempty", facts.token_count > 0),
        ("format_length", facts.token_count >= 10),
    ]


def _functional_fail_score(facts: StructuralFacts, constants: ScoreConstants) -> QualityScore:
    fired = fired_rules(facts)
    breakdown: list[tuple[str, float]] = []
    for cls, cap in (
        ("severe", constants.cap_severe),
        ("moderate", constants.cap_moderate),
        ("minor", constants.cap_minor),
    ):
        raw = 0.0
        for rule in fired[cls]:
            w = constants.weight(rule)
            breakdown.append((rule, -w))
            raw += w
        if raw > cap:
            # Restores the mass the cap absorbed, keeping the audit exact.
            breakdown.append(("%s_cap_adjustment" % cls, raw - cap))
    value = constants.q_base + sum(amount for _, amount in breakdown)
    return QualityScore(
        value=value,
        branch=ScoreBranch.FUNCTIONAL_FAIL,
        breakdown=tuple(breakdown),
        syntax_pass=True,
        functional_pass=False,
    )


def _syntax_fail_score(facts: StructuralFacts, constants: ScoreConstants) -> QualityScore:
    breakdown: list[tuple[str, float]] = []
    raw = 0.0
    for checks, cap in (
        (_structure_checks(facts), constants.cap_structure),
        (_logic_checks(facts), constants.cap_logic),
        (_format_checks(facts), constants.cap_format),
    ):
        share = cap / len(checks)
        for check_id, ok in checks:
            if ok:
                breakdown.append((check_id, share))
                raw += share
    value = constants.fallback_tighten * raw
    if breakdown:
        breakdown.append(("fallback_tighten", value - raw))
    return QualityScore(
        value=value,
        branch=ScoreBranch.SYNTAX_FAIL,
        breakdown=tuple(breakdown),
        syntax_pass=False,
        functional_pass=False,
    )


def score_from_facts(
    facts: StructuralFacts | None,
    constants: ScoreConstants,
    syntax_pass: bool,
    functional_pass: bool,
) -> QualityScore:
    """Pure scoring core: simulator verdicts in, QualityScore out.

    The perfect branch ignores the facts, so there they may be None.
    """
    if syntax_pass and functional_pass:
        return QualityScore(
            value=constants.q_perfect,
            branch=ScoreBranch.PERFECT,
            breakdown=(),
            syntax_pass=True,
            functional_pass=True,
        )
    if syntax_pass:
        return _functional_fail_score(facts, constants)
    return _syntax_fail_score(facts, constants)

