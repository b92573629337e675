import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FakeSimulator, make_problem, random_facts
from verimoa.agents import gated_evaluation
from verimoa.analyzer import AlwaysBlockFacts, Sensitivity, StructuralFacts, extract_facts
from verimoa.errors import InvariantViolationError, SchemaError
from verimoa.problems import config_from_json
from verimoa.scoring import (
    DEFAULT_RULE_WEIGHTS,
    MODERATE_RULES,
    RULE_BLOCKING_IN_SEQ,
    RULE_CASE_NO_DEFAULT,
    RULE_COMB_FEEDBACK,
    RULE_INCOMPLETE_COND,
    RULE_MULTI_DRIVEN,
    RULE_NO_PORT_DIRS,
    RULE_NONBLOCKING_IN_COMB,
    RULE_OVERLONG,
    RULE_SEQ_NO_RESET,
    RULE_UNBALANCED,
    ScoreBranch,
    ScoreConstants,
    fired_rules,
    score_from_facts,
)

GOOD = "module m(input a, output y); assign y = a; endmodule"


def facts_firing(**kwargs):
    base = dict(
        has_module_decl=True,
        has_endmodule=True,
        module_name="m",
        port_count=2,
        has_port_directions=True,
        token_count=20,
    )
    base.update(kwargs)
    return StructuralFacts(**base)


class TestConstants:
    def test_defaults_valid(self):
        ScoreConstants()

    def test_negative_cap_rejected(self):
        with pytest.raises(InvariantViolationError):
            ScoreConstants(cap_minor=-0.1)

    def test_unknown_rule_id_rejected(self):
        with pytest.raises(InvariantViolationError):
            ScoreConstants(rule_weights={"made_up_rule": 0.1})

    def test_floor_must_clear_fallback_ceiling(self):
        # floor = 0.8 - penalties; pushing severe cap to 0.5 sinks it to 0.1,
        # below the 0.3 fallback ceiling.
        with pytest.raises(InvariantViolationError):
            ScoreConstants(cap_severe=0.5)

    def test_tighten_range(self):
        with pytest.raises(InvariantViolationError):
            ScoreConstants(fallback_tighten=1.0)

    def test_equal_floor_and_ceiling_made_legal_by_tightening(self):
        # Caps summing exactly to the floor are legal only because the
        # tighten multiplier keeps the realized ceiling strictly below.
        constants = ScoreConstants()
        floor = (
            constants.q_base
            - constants.cap_severe - constants.cap_moderate - constants.cap_minor
        )
        ceiling = constants.cap_structure + constants.cap_logic + constants.cap_format
        assert floor == pytest.approx(ceiling)

    def test_zero_tighten_collapses_syntax_scores(self):
        constants = ScoreConstants(fallback_tighten=0.0)
        score = score_from_facts(extract_facts(GOOD), constants, False, False)
        assert score.value == 0.0

    def test_json_round_trip(self):
        blob = {"score_constants": {"rule_weights": {RULE_OVERLONG: 0.01}}}
        parsed = config_from_json(blob).score_constants
        assert parsed.weight(RULE_OVERLONG) == 0.01
        # Unmentioned rules keep their default weights.
        assert parsed.weight(RULE_MULTI_DRIVEN) == DEFAULT_RULE_WEIGHTS[RULE_MULTI_DRIVEN]
        assert parsed == ScoreConstants(rule_weights={RULE_OVERLONG: 0.01})

    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError, match="config.score_constants: .*q_typo"):
            config_from_json({"score_constants": {"q_typo": 1.0}})


class TestRules:
    def test_multi_driven(self):
        facts = facts_firing(driven_signals={"y": 2})
        assert RULE_MULTI_DRIVEN in fired_rules(facts)["severe"]

    def test_combinational_feedback(self):
        block = AlwaysBlockFacts(
            sensitivity=Sensitivity.COMBINATIONAL,
            assigned_signals={"s"},
            read_signals={"s", "a"},
        )
        facts = facts_firing(always_blocks=[block])
        assert RULE_COMB_FEEDBACK in fired_rules(facts)["severe"]

    def test_blocking_in_sequential(self):
        block = AlwaysBlockFacts(
            sensitivity=Sensitivity.EDGE_TRIGGERED, uses_blocking=True
        )
        facts = facts_firing(always_blocks=[block], has_reset_in_sequential=True)
        assert RULE_BLOCKING_IN_SEQ in fired_rules(facts)["moderate"]

    def test_nonblocking_in_combinational(self):
        block = AlwaysBlockFacts(
            sensitivity=Sensitivity.COMBINATIONAL, uses_nonblocking=True
        )
        facts = facts_firing(always_blocks=[block])
        assert RULE_NONBLOCKING_IN_COMB in fired_rules(facts)["moderate"]

    def test_case_and_reset_and_incomplete(self):
        block = AlwaysBlockFacts(
            sensitivity=Sensitivity.EDGE_TRIGGERED, has_incomplete_conditional=True
        )
        facts = facts_firing(always_blocks=[block], case_without_default=1)
        moderate = fired_rules(facts)["moderate"]
        assert RULE_CASE_NO_DEFAULT in moderate
        assert RULE_SEQ_NO_RESET in moderate
        assert RULE_INCOMPLETE_COND in moderate

    def test_minor_rules(self):
        facts = facts_firing(
            begin_end_balanced=False,
            token_count=1001,
            has_port_directions=False,
        )
        assert set(fired_rules(facts)["minor"]) == {
            RULE_UNBALANCED, RULE_OVERLONG, RULE_NO_PORT_DIRS,
        }

    def test_port_direction_rule_needs_ports(self):
        facts = facts_firing(port_count=0, has_port_directions=False)
        assert RULE_NO_PORT_DIRS not in fired_rules(facts)["minor"]

    def test_rules_fire_once_despite_repeats(self):
        # Three multi-driven nets still cost one severe penalty.
        facts = facts_firing(driven_signals={"a": 2, "b": 3, "c": 2})
        assert fired_rules(facts)["severe"].count(RULE_MULTI_DRIVEN) == 1


def credit_by_class(breakdown):
    """The fallback breakdown's credit summed per check class."""
    totals = {}
    for rule, amount in breakdown:
        cls = rule.split("_")[0]
        if cls in ("structure", "logic", "format"):
            totals[cls] = totals.get(cls, 0.0) + amount
    return totals


class TestPenaltiesAndCredits:
    def test_moderate_penalties_capped(self):
        block = AlwaysBlockFacts(
            sensitivity=Sensitivity.EDGE_TRIGGERED,
            uses_blocking=True,
            has_incomplete_conditional=True,
        )
        comb = AlwaysBlockFacts(
            sensitivity=Sensitivity.COMBINATIONAL, uses_nonblocking=True
        )
        facts = facts_firing(always_blocks=[block, comb], case_without_default=1)
        constants = ScoreConstants()
        score = score_from_facts(facts, constants, True, False)
        # Five moderate rules at 0.05 would be 0.25; the cap holds at 0.15.
        moderate = [(r, a) for r, a in score.breakdown if r in MODERATE_RULES]
        assert sorted(moderate) == sorted((r, -0.05) for r in MODERATE_RULES)
        adjustment = dict(score.breakdown)["moderate_cap_adjustment"]
        assert adjustment == pytest.approx(0.25 - constants.cap_moderate)
        assert len(score.breakdown) == 6
        assert score.value == pytest.approx(constants.q_base - constants.cap_moderate)

    def test_fallback_full_credit(self):
        facts = facts_firing(assign_count=1, has_conditional=True, token_count=20)
        constants = ScoreConstants()
        score = score_from_facts(facts, constants, False, False)
        assert credit_by_class(score.breakdown) == {
            "structure": pytest.approx(constants.cap_structure),
            "logic": pytest.approx(constants.cap_logic),
            "format": pytest.approx(constants.cap_format),
        }
        full = constants.cap_structure + constants.cap_logic + constants.cap_format
        assert score.value == pytest.approx(constants.fallback_tighten * full)

    def test_logic_credit_gated_on_logic(self):
        # A bare port-list module has structure and format but no logic.
        facts = facts_firing(assign_count=0, always_blocks=[])
        constants = ScoreConstants()
        score = score_from_facts(facts, constants, False, False)
        credits = credit_by_class(score.breakdown)
        assert "logic" not in credits
        assert set(credits) == {"structure", "format"}
        assert score.value == pytest.approx(
            constants.fallback_tighten * sum(credits.values())
        )


class TestScoreFromFacts:
    def test_perfect(self):
        score = score_from_facts(extract_facts(GOOD), ScoreConstants(), True, True)
        assert score.branch is ScoreBranch.PERFECT
        assert score.value == 1.0
        assert score.breakdown == ()

    def test_functional_fail_clean_code(self):
        score = score_from_facts(extract_facts(GOOD), ScoreConstants(), True, False)
        assert score.branch is ScoreBranch.FUNCTIONAL_FAIL
        assert score.value == 0.8

    def test_functional_fail_with_penalty(self):
        facts = facts_firing(driven_signals={"y": 2})
        score = score_from_facts(facts, ScoreConstants(), True, False)
        assert score.value == pytest.approx(0.65)
        assert (RULE_MULTI_DRIVEN, -0.15) in score.breakdown

    def test_syntax_fail_has_tighten_entry(self):
        score = score_from_facts(extract_facts(GOOD), ScoreConstants(), False, False)
        assert score.branch is ScoreBranch.SYNTAX_FAIL
        names = [name for name, _ in score.breakdown]
        assert "fallback_tighten" in names
        assert 0 < score.value < 0.3

    def test_functional_verdict_ignored_when_syntax_fails(self):
        a = score_from_facts(extract_facts(GOOD), ScoreConstants(), False, True)
        b = score_from_facts(extract_facts(GOOD), ScoreConstants(), False, False)
        assert a == b

    def test_json_shape(self):
        score = score_from_facts(extract_facts(GOOD), ScoreConstants(), True, False)
        blob = score.to_json()
        assert blob["branch"] == "functional_fail"
        assert blob["syntax_pass"] is True
        assert blob["functional_pass"] is False


@st.composite
def facts_strategy(draw):
    seed = draw(st.integers(min_value=0, max_value=2**32 - 1))
    return random_facts(random.Random(seed))


class TestProperties:
    @given(facts=facts_strategy(), syntax=st.booleans(), functional=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_value_reconstructs_from_breakdown(self, facts, syntax, functional):
        constants = ScoreConstants()
        score = score_from_facts(facts, constants, syntax, functional)
        if score.branch is ScoreBranch.PERFECT:
            base = constants.q_perfect
        elif score.branch is ScoreBranch.FUNCTIONAL_FAIL:
            base = constants.q_base
        else:
            base = 0.0
        rebuilt = base + sum(amount for _, amount in score.breakdown)
        assert abs(rebuilt - score.value) < 1e-12

    @given(facts=facts_strategy())
    @settings(max_examples=300, deadline=None)
    def test_branch_bounds(self, facts):
        constants = ScoreConstants()
        funcfail = score_from_facts(facts, constants, True, False)
        syntaxfail = score_from_facts(facts, constants, False, False)
        floor = (
            constants.q_base
            - constants.cap_severe - constants.cap_moderate - constants.cap_minor
        )
        assert floor - 1e-12 <= funcfail.value <= constants.q_base
        ceiling = constants.fallback_tighten * (
            constants.cap_structure + constants.cap_logic + constants.cap_format
        )
        assert 0.0 <= syntaxfail.value <= ceiling + 1e-12
        assert syntaxfail.value < funcfail.value


class TestEvaluate:
    """The one gate sequence: compile with the testbench and run, and a
    candidate-only compile only when that compile fails."""

    def test_perfect_path(self, fake_sim):
        score, _ = gated_evaluation(GOOD, make_problem(), fake_sim, ScoreConstants())
        assert score.branch is ScoreBranch.PERFECT
        assert fake_sim.calls == [("run", "widget")]

    def test_functional_gate_skipped_when_disabled(self, fake_sim):
        score, _ = gated_evaluation(
            GOOD, make_problem(), fake_sim, ScoreConstants(), run_functional=False
        )
        assert score.branch is ScoreBranch.FUNCTIONAL_FAIL
        assert fake_sim.calls == [("compile", "widget")]

    def test_syntax_failure_skips_run(self, fake_sim):
        score, _ = gated_evaluation(
            "module m; SYNTAXERR endmodule", make_problem(), fake_sim, ScoreConstants()
        )
        assert score.branch is ScoreBranch.SYNTAX_FAIL
        assert fake_sim.calls == [("run", "widget"), ("compile", "widget")]

    def test_functional_failure(self, fake_sim):
        score, _ = gated_evaluation(
            GOOD + " // FUNCFAIL", make_problem(), fake_sim, ScoreConstants()
        )
        assert score.branch is ScoreBranch.FUNCTIONAL_FAIL
        assert fake_sim.calls == [("run", "widget")]

    def test_testbench_only_compile_failure_is_functional_fail(self, fake_sim):
        # The candidate compiles alone but not with the testbench: the
        # candidate-only compile puts it on the functional-fail branch, and
        # the feedback is the failing compile's log.
        problem = make_problem(testbench_source="module tb; SYNTAXERR endmodule")
        score, feedback = gated_evaluation(GOOD, problem, fake_sim, ScoreConstants())
        assert score.branch is ScoreBranch.FUNCTIONAL_FAIL
        assert fake_sim.calls == [("run", "widget"), ("compile", "widget")]
        assert "syntax error" in feedback
