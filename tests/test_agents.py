import shlex
import string
import sys
import tempfile

import pytest

import verimoa.agents

from conftest import (
    CLEAN_MODULE,
    FakeSimulator,
    assert_gone_within_a_second,
    make_entry,
    make_problem,
    workspaces_in,
)
from verimoa.agents import (
    CANDIDATE_MARKER_RE,
    SYSTEM_PROMPTS,
    TEMPLATE_NAMES,
    TEMPLATE_PLACEHOLDERS,
    AgentSpec,
    Caller,
    CheckerRecord,
    IntermediateChecker,
    best_round,
    candidate_marker,
    format_references,
    gated_evaluation,
    load_templates,
    run_aggregator,
    run_base_agent,
    run_twostage_agent,
    sim_refine,
    stub_checker,
)
from verimoa.backends import ResponseRule, RuleBackend, ScriptedBackend
from verimoa.cache import AgentPath, CandidateId, IntermediateLanguage
from verimoa.agents import RefineRound
from verimoa.errors import (
    AuthError,
    InvariantViolationError,
    MissingFileError,
    SchemaError,
    SimulatorUnavailableError,
)
from verimoa.memo import VerdictMemo
from verimoa.problems import Sampling
from verimoa.scoring import ScoreBranch, ScoreConstants

SAMPLING = Sampling()


class AuthFailingBackend:
    backend_id = "auth-failing"

    def generate(self, request):
        raise AuthError("backend rejected credentials (HTTP 401)")


TEMPLATES = {
    "direct": "TASK:{description}\n{references}",
    "stage1": "MODEL:{description}\n{references}",
    "stage1_refine": "FIX-MODEL:{description}\nWAS:{intermediate}\nLOG:{feedback}",
    "stage2": "TRANSLATE:{description}\nFROM:{intermediate}\n{references}",
    "sim_refine": "FIX-HDL:{description}\nWAS:{candidate}\nLOG:{feedback}",
    "aggregate": "MERGE:{description}\n{references}",
}


def spec_for(path):
    return AgentSpec(path=path, slot=1, templates=TEMPLATES)


def make_int_entry(layer, slot, value, language=IntermediateLanguage.CPP):
    path = AgentPath.CPP if language is IntermediateLanguage.CPP else AgentPath.PY
    return make_entry(layer, slot, value, path=path, intermediate="int model()")


def verilog_reply(source=CLEAN_MODULE):
    return "Sure.\n```verilog\n%s\n```" % source


class ListChecker:
    """Checker returning a scripted sequence of statuses."""

    def __init__(self, statuses, max_rounds=None):
        self.statuses = list(statuses)
        self.max_rounds = len(statuses) if max_rounds is None else max_rounds
        self.seen = []

    def run(self, source):
        self.seen.append(source)
        return self.statuses.pop(0), "diag line"


class TestMarkers:
    def test_marker_round_trips_through_regex(self):
        cid = CandidateId(layer=3, slot=2, path=AgentPath.PY, refine_round=1)
        match = CANDIDATE_MARKER_RE.search(candidate_marker(cid))
        assert match.groups() == ("3", "2", "py", "1")

    def test_hdl_reference_block(self):
        entries = [make_entry(2, 1, 1.0), make_entry(1, 3, 0.65)]
        block = format_references(entries)
        assert block.startswith("Reference HDL implementations")
        assert "quality 1.000" in block
        assert "quality 0.650" in block
        assert len(CANDIDATE_MARKER_RE.findall(block)) == 2
        assert block.index("L2.S1") < block.index("L1.S3")

    def test_empty_references_render_empty(self):
        assert format_references([]) == ""
        assert format_references([], IntermediateLanguage.CPP) == ""

    def test_intermediate_block_is_language_specific(self):
        cpp = format_references(
            [make_int_entry(1, 2, 0.8)], IntermediateLanguage.CPP
        )
        assert "C++ behavior models" in cpp
        assert "```cpp" in cpp
        py = format_references(
            [make_int_entry(1, 3, 0.8, IntermediateLanguage.PYTHON)],
            IntermediateLanguage.PYTHON,
        )
        assert "Python behavior models" in py
        assert "```python" in py


class TestTemplates:
    def test_packaged_templates_complete(self):
        loaded = load_templates()
        for group, names in TEMPLATE_NAMES.items():
            for name in names:
                assert loaded[group][name].strip()
        assert "{description}" in loaded["base"]["direct"]
        assert "{references}" in loaded["aggregator"]["aggregate"]
        assert "{candidate}" in loaded["base"]["sim_refine"]
        assert "{intermediate}" in loaded["cpp"]["stage2"]

    def test_override_directory(self, tmp_path):
        for group, names in TEMPLATE_NAMES.items():
            (tmp_path / group).mkdir()
            for name in names:
                (tmp_path / group / (name + ".txt")).write_text(
                    "custom %s/%s {description}" % (group, name), encoding="utf-8"
                )
        loaded = load_templates(str(tmp_path))
        assert loaded["base"]["direct"].startswith("custom base/direct")

    def test_packaged_templates_use_exactly_their_placeholders(self):
        loaded = load_templates()
        for group, names in TEMPLATE_NAMES.items():
            for name in names:
                used = {f for _, f, _, _ in string.Formatter().parse(loaded[group][name]) if f}
                assert used == set(TEMPLATE_PLACEHOLDERS[name]), (group, name)

    @pytest.mark.parametrize("text", [
        "{description} {bogus}", "{}", "{description.bogus}", "{description[x]}",
        "{description:d}", "{",
    ])
    def test_override_with_a_bad_placeholder(self, tmp_path, text):
        for group, names in TEMPLATE_NAMES.items():
            (tmp_path / group).mkdir()
            for name in names:
                (tmp_path / group / (name + ".txt")).write_text(
                    "{description}", encoding="utf-8"
                )
        (tmp_path / "cpp" / "stage2.txt").write_text(text, encoding="utf-8")
        with pytest.raises(SchemaError, match="template cpp/stage2 "):
            load_templates(str(tmp_path))

    def test_override_missing_file(self, tmp_path):
        (tmp_path / "base").mkdir()
        (tmp_path / "base" / "direct.txt").write_text("x", encoding="utf-8")
        with pytest.raises(MissingFileError, match="sim_refine"):
            load_templates(str(tmp_path))

    def test_agent_spec_requires_its_templates(self):
        with pytest.raises(ValueError, match="sim_refine"):
            AgentSpec(path=AgentPath.BASE, slot=1, templates={"direct": "x"})


class TestBaseAgent:
    def test_prompt_carries_description_and_references(self):
        backend = ScriptedBackend([verilog_reply()])
        refs = [make_entry(1, 1, 0.8, source="module ref; endmodule")]
        caller = Caller(backend, SAMPLING, "widget/t1/L2/S1")
        source = run_base_agent(
            spec_for(AgentPath.BASE), make_problem(), refs, layer=2, caller=caller
        )
        assert source == CLEAN_MODULE.strip("\n")
        record = caller.prompts[0]
        assert record.stage == "direct"
        assert record.request_tag == "widget/t1/L2/S1/direct"
        assert record.system_prompt == SYSTEM_PROMPTS["hdl"]
        assert "ANDs two bits" in record.user_prompt
        assert "module ref; endmodule" in record.user_prompt

    def test_layer_one_must_be_reference_free(self):
        backend = ScriptedBackend([verilog_reply()])
        with pytest.raises(AssertionError):
            run_base_agent(
                spec_for(AgentPath.BASE), make_problem(), [make_entry(1, 1, 0.8)],
                layer=1, caller=Caller(backend, SAMPLING, "p/t1/L1/S1"),
            )

    def test_layer_one_prompt_has_no_markers(self):
        backend = ScriptedBackend([verilog_reply()])
        caller = Caller(backend, SAMPLING, "p/t1/L1/S1")
        run_base_agent(spec_for(AgentPath.BASE), make_problem(), [], layer=1, caller=caller)
        assert not CANDIDATE_MARKER_RE.search(caller.prompts[0].user_prompt)


class TestTwoStageAgent:
    def run(self, checker, responses, int_refs=(), hdl_refs=(), layer=2):
        caller = Caller(ScriptedBackend(list(responses)), SAMPLING, "p/t1/L%d/S2" % layer)
        checks = []
        hdl, intermediate = run_twostage_agent(
            spec_for(AgentPath.CPP), make_problem(), list(hdl_refs),
            list(int_refs), checker, layer=layer, caller=caller, checks=checks,
        )
        return hdl, intermediate, caller.prompts, checks

    def test_clean_pass_through(self):
        responses = ["```cpp\nint model() { return 1; }\n```", verilog_reply()]
        hdl, intermediate, prompts, checks = self.run(
            ListChecker(["pass"]), responses
        )
        assert hdl == CLEAN_MODULE.strip("\n")
        assert intermediate == "int model() { return 1; }"
        assert [p.stage for p in prompts] == ["stage1", "stage2"]
        assert checks == [CheckerRecord(1, "pass", "diag line")]

    def test_refinement_until_pass(self):
        responses = [
            "```cpp\nbroken v1\n```",
            "```cpp\nfixed v2\n```",
            verilog_reply(),
        ]
        checker = ListChecker(["fail", "pass"])
        hdl, intermediate, prompts, checks = self.run(checker, responses)
        assert intermediate == "fixed v2"
        assert [p.stage for p in prompts] == ["stage1", "stage1_refine", "stage2"]
        assert [c.status for c in checks] == ["fail", "pass"]
        assert checker.seen == ["broken v1", "fixed v2"]
        refine_prompt = prompts[1].user_prompt
        assert "WAS:broken v1" in refine_prompt
        assert "LOG:diag line" in refine_prompt

    def test_rounds_capped(self):
        responses = [
            "```cpp\nv0\n```", "```cpp\nv1\n```", "```cpp\nv2\n```",
            verilog_reply(),
        ]
        _, intermediate, prompts, checks = self.run(
            ListChecker(["fail", "fail"]), responses
        )
        assert intermediate == "v2"
        assert [p.stage for p in prompts] == [
            "stage1", "stage1_refine", "stage1_refine", "stage2",
        ]

    def test_checker_error_downgrades_to_no_refinement(self):
        responses = ["```cpp\nv0\n```", verilog_reply()]
        _, intermediate, prompts, checks = self.run(
            ListChecker(["error"]), responses
        )
        assert intermediate == "v0"
        assert [p.stage for p in prompts] == ["stage1", "stage2"]
        assert checks[0].status == "error"

    def test_checker_without_a_workspace_downgrades_to_no_refinement(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        responses = ["```cpp\nint model();\n```", verilog_reply()]
        _, _, prompts, checks = self.run(
            stub_checker(IntermediateLanguage.CPP, max_rounds=2), responses
        )
        assert [c.status for c in checks] == ["error"]
        assert [p.stage for p in prompts] == ["stage1", "stage2"]

    def test_zero_round_checker_never_runs(self):
        checker = ListChecker([], max_rounds=0)
        responses = ["```cpp\nv0\n```", verilog_reply()]
        _, _, prompts, checks = self.run(checker, responses)
        assert [p.stage for p in prompts] == ["stage1", "stage2"]
        assert checks == []
        assert checker.seen == []

    def test_stage_system_prompts_differ(self):
        responses = ["```cpp\nv0\n```", verilog_reply()]
        _, _, prompts, _ = self.run(ListChecker(["pass"]), responses)
        assert prompts[0].system_prompt == SYSTEM_PROMPTS["cpp"]
        assert prompts[-1].system_prompt == SYSTEM_PROMPTS["hdl"]
        assert "C++" in prompts[0].system_prompt

    def test_stage2_sees_intermediate_and_hdl_refs(self):
        responses = ["```cpp\nthe model\n```", verilog_reply()]
        refs = [make_entry(1, 1, 0.8, source="module seed; endmodule")]
        _, _, prompts, _ = self.run(
            ListChecker(["pass"]), responses, hdl_refs=refs
        )
        stage2 = prompts[-1].user_prompt
        assert "FROM:the model" in stage2
        assert "module seed; endmodule" in stage2

    def test_stage1_rejects_cross_language_references(self):
        refs = [make_int_entry(1, 3, 0.8, IntermediateLanguage.PYTHON)]
        with pytest.raises(AssertionError):
            self.run(ListChecker(["pass"]), ["x", "y"], int_refs=refs)

    def test_layer_one_purity(self):
        refs = [make_int_entry(1, 2, 0.8)]
        with pytest.raises(AssertionError):
            self.run(ListChecker(["pass"]), ["x", "y"], int_refs=refs, layer=1)


class TestIntermediateChecker:
    def test_placeholder_required_when_rounds_positive(self):
        with pytest.raises(InvariantViolationError):
            IntermediateChecker(
                language=IntermediateLanguage.CPP, check_cmd="lint", max_rounds=1
            )
        IntermediateChecker(
            language=IntermediateLanguage.CPP, check_cmd="lint", max_rounds=0
        )

    def test_unparseable_command_is_rejected_up_front(self):
        with pytest.raises(InvariantViolationError, match="check_cmd does not parse"):
            IntermediateChecker(
                language=IntermediateLanguage.PYTHON, check_cmd='awk "{source}'
            )

    def test_stub_pass_and_fail(self):
        checker = stub_checker(IntermediateLanguage.PYTHON)
        assert checker.run("def model(): return 1")[0] == "pass"
        status, diagnostics = checker.run("def model(): CHECKFAIL")
        assert status == "fail"
        assert "CHECKFAIL" in diagnostics

    def test_api_key_stripped_from_environment(self, monkeypatch):
        # The Python checker runs model-written code.
        monkeypatch.setenv("VERIMOA_API_KEY", "secret-value")
        monkeypatch.setenv("VERIMOA_CANARY", "canary-value")
        checker = IntermediateChecker(
            language=IntermediateLanguage.PYTHON,
            check_cmd="%s {source}" % shlex.quote(sys.executable),
        )
        status, diagnostics = checker.run(
            "import os\n"
            "print('key=' + os.environ.get('VERIMOA_API_KEY', 'ABSENT'))\n"
            "print('canary=' + os.environ.get('VERIMOA_CANARY', 'ABSENT'))\n"
        )
        assert status == "pass"
        assert "key=ABSENT" in diagnostics
        assert "secret-value" not in diagnostics
        assert "canary=canary-value" in diagnostics

    def test_timeout_kills_the_checkers_children(self, tmp_path):
        # A shell-wrapped checker may run model-written code that never
        # ends; killing only the shell would leave it running.
        pid_file = tmp_path / "grandchild.pid"
        script = "sleep 30 & echo $! > %s; wait" % shlex.quote(str(pid_file))
        checker = IntermediateChecker(
            language=IntermediateLanguage.CPP,
            check_cmd="sh -c %s {source}" % shlex.quote(script),
            timeout_ms=500,
        )
        assert checker.run("int x;") == ("fail", checker.timeout_diagnostics())
        assert_gone_within_a_second(int(pid_file.read_text()))

    def test_an_uncreatable_workspace_is_error_status(self, tmp_path, monkeypatch):
        # An OSError escaping here would stop the whole run.
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
        status, diagnostics = stub_checker(IntermediateLanguage.CPP).run("int x;")
        assert status == "error"
        assert diagnostics.startswith("checker unavailable: ")

    def test_the_workspace_is_reused_and_holds_only_the_source(self, workspace_leak_guard):
        checker = IntermediateChecker(
            language=IntermediateLanguage.PYTHON,
            check_cmd="sh -c %s sh {source}" % shlex.quote('pwd; ls -A; touch stray; mkdir -p d'),
        )
        first = checker.run("x = 1")[1].splitlines()
        second = checker.run("x = 2")[1].splitlines()
        assert first[1:] == second[1:] == ["candidate.py"]
        assert second[0] == first[0]
        assert len(workspaces_in(workspace_leak_guard)) == 1
        del checker
        assert workspaces_in(workspace_leak_guard) == []

    def test_a_timed_out_workspace_is_not_reused(self, workspace_leak_guard):
        checker = IntermediateChecker(
            language=IntermediateLanguage.CPP,
            check_cmd="sh -c %s sh {source}" % shlex.quote("grep -q SLOW \"$1\" && sleep 30; pwd"),
            timeout_ms=300,
        )
        assert checker.run("SLOW") == ("fail", checker.timeout_diagnostics())
        assert workspaces_in(workspace_leak_guard) == []
        first = checker.run("quick")
        assert first[0] == "pass"
        assert checker.run("quick") == first  # a finished check's workspace is reused
        assert len(workspaces_in(workspace_leak_guard)) == 1

    def test_missing_checker_binary_is_error_status(self):
        checker = IntermediateChecker(
            language=IntermediateLanguage.CPP,
            check_cmd="verimoa-no-such-linter {source}",
        )
        status, diagnostics = checker.run("int x;")
        assert status == "error"
        assert "unavailable" in diagnostics


class TestGatedEvaluation:
    def test_perfect_gives_empty_feedback(self, fake_sim):
        score, feedback = gated_evaluation(
            CLEAN_MODULE, make_problem(), fake_sim, ScoreConstants()
        )
        assert score.branch is ScoreBranch.PERFECT
        assert feedback == ""

    def test_perfect_branch_needs_no_structural_facts(self, fake_sim, monkeypatch):
        def no_facts(source):
            raise AssertionError("extract_facts called on a perfect candidate")

        monkeypatch.setattr(verimoa.agents, "extract_facts", no_facts)
        constants = ScoreConstants()
        score, _ = gated_evaluation(CLEAN_MODULE, make_problem(), fake_sim, constants)
        assert score.branch is ScoreBranch.PERFECT
        assert score.value == constants.q_perfect

    def test_functional_failure_feedback_is_run_log(self, fake_sim):
        score, feedback = gated_evaluation(
            CLEAN_MODULE + "// FUNCFAIL", make_problem(), fake_sim, ScoreConstants()
        )
        assert score.branch is ScoreBranch.FUNCTIONAL_FAIL
        assert "MISMATCH" in feedback

    def test_syntax_failure_feedback_is_compile_log(self, fake_sim):
        score, feedback = gated_evaluation(
            "module m; SYNTAXERR endmodule", make_problem(), fake_sim, ScoreConstants()
        )
        assert score.branch is ScoreBranch.SYNTAX_FAIL
        assert "syntax error" in feedback

    def test_functional_gate_can_be_disabled(self, fake_sim):
        score, feedback = gated_evaluation(
            CLEAN_MODULE, make_problem(), fake_sim, ScoreConstants(),
            run_functional=False,
        )
        assert score.branch is ScoreBranch.FUNCTIONAL_FAIL
        assert feedback == ""
        assert fake_sim.calls == [("compile", "widget")]


class RaisingSimulator(FakeSimulator):
    """Delegates to FakeSimulator until a call budget runs out."""

    def __init__(self, budget):
        super().__init__()
        self.budget = budget

    def _spend(self):
        if self.budget <= 0:
            raise SimulatorUnavailableError("simulator went away")
        self.budget -= 1

    def syntax_test(self, source, problem):
        self._spend()
        return super().syntax_test(source, problem)

    def function_test(self, source, problem):
        self._spend()
        return super().function_test(source, problem)


class TestSimRefine:
    def refine(self, source, backend, sim, max_rounds=2, run_functional=True):
        caller = Caller(backend, SAMPLING, "p/t1/L1/S1")
        rounds = sim_refine(
            source, make_problem(), sim, ScoreConstants(), TEMPLATES,
            max_rounds, caller, run_functional, memo=VerdictMemo(),
        )
        return rounds, caller.prompts

    def test_passing_draft_stops_immediately(self, fake_sim):
        rounds, prompts = self.refine(
            CLEAN_MODULE, ScriptedBackend([]), fake_sim, max_rounds=3
        )
        assert [r.round_index for r in rounds] == [0]
        assert prompts == []

    def test_zero_rounds_still_evaluates(self, fake_sim):
        rounds, prompts = self.refine(
            CLEAN_MODULE + "// FUNCFAIL", ScriptedBackend([]), fake_sim, max_rounds=0
        )
        assert len(rounds) == 1
        assert rounds[0].score.value == 0.8
        assert prompts == []

    def test_refinement_repairs_candidate(self, fake_sim):
        backend = ScriptedBackend([verilog_reply()])
        rounds, prompts = self.refine(
            CLEAN_MODULE + "// FUNCFAIL", backend, fake_sim, max_rounds=3
        )
        assert [r.round_index for r in rounds] == [0, 1]
        assert rounds[1].score.value == 1.0
        assert [p.stage for p in prompts] == ["sim_refine1"]
        assert "WAS:" in prompts[0].user_prompt
        assert "MISMATCH" in prompts[0].user_prompt

    def test_backend_failure_keeps_round_zero(self, fake_sim):
        rounds, prompts = self.refine(
            CLEAN_MODULE + "// FUNCFAIL", ScriptedBackend([]), fake_sim
        )
        assert [r.round_index for r in rounds] == [0]
        assert prompts == []

    def test_auth_error_propagates(self, fake_sim):
        with pytest.raises(AuthError):
            self.refine(CLEAN_MODULE + "// FUNCFAIL", AuthFailingBackend(), fake_sim)

    def test_round_zero_simulator_error_propagates(self):
        with pytest.raises(SimulatorUnavailableError):
            self.refine(CLEAN_MODULE, ScriptedBackend([]), RaisingSimulator(0))

    def test_mid_refinement_simulator_error_keeps_prior_rounds(self):
        # Budget of one covers round 0 (one compile-and-run); the refinement
        # evaluation then dies and the draft's rounds survive.
        sim = RaisingSimulator(1)
        backend = ScriptedBackend([verilog_reply()])
        rounds, prompts = self.refine(CLEAN_MODULE + "// FUNCFAIL", backend, sim)
        assert [r.round_index for r in rounds] == [0]
        assert len(prompts) == 1

    def test_refinement_skips_functional_gate_when_disabled(self, fake_sim):
        rounds, _ = self.refine(
            CLEAN_MODULE, ScriptedBackend([verilog_reply()] * 2), fake_sim,
            max_rounds=2, run_functional=False,
        )
        # Without the functional gate nothing reaches PERFECT, so the loop
        # spends its full budget.
        assert [r.round_index for r in rounds] == [0, 1, 2]
        assert all(("run", "widget") != c for c in fake_sim.calls)


class TestBestRound:
    def build(self, *values):
        from conftest import make_quality
        return [
            RefineRound(i, "src%d" % i, make_quality(v))
            for i, v in enumerate(values)
        ]

    def test_highest_value_wins(self):
        assert best_round(self.build(0.8, 1.0, 0.65)).round_index == 1

    def test_tie_goes_to_latest(self):
        assert best_round(self.build(0.8, 0.8)).round_index == 1

    def test_single_round(self):
        assert best_round(self.build(0.5)).round_index == 0


class TestAggregator:
    def test_auth_error_propagates(self):
        refs = [make_entry(1, 1, 1.0, source="module best; endmodule")]
        with pytest.raises(AuthError):
            run_aggregator(
                make_problem(), refs, TEMPLATES,
                Caller(AuthFailingBackend(), SAMPLING, "p/t1/L3/S1"),
            )

    def test_requires_references(self):
        with pytest.raises(ValueError):
            run_aggregator(
                make_problem(), [], TEMPLATES, Caller(ScriptedBackend([]), SAMPLING, "p/t1/L3/S1")
            )

    def test_merges_references(self):
        refs = [
            make_entry(2, 1, 1.0, source="module a; endmodule"),
            make_entry(1, 2, 0.8, source="module b; endmodule"),
        ]
        caller = Caller(ScriptedBackend([verilog_reply()]), SAMPLING, "p/t1/L3/S1")
        source, fallback = run_aggregator(make_problem(), refs, TEMPLATES, caller)
        assert not fallback
        assert source == CLEAN_MODULE.strip("\n")
        record = caller.prompts[0]
        assert record.stage == "aggregate"
        assert record.request_tag == "p/t1/L3/S1/aggregate"
        assert record.system_prompt == SYSTEM_PROMPTS["aggregator"]
        assert "module a; endmodule" in record.user_prompt
        assert "module b; endmodule" in record.user_prompt

    def test_backend_failure_falls_back_to_best_reference(self):
        refs = [
            make_entry(2, 1, 1.0, source="module best; endmodule"),
            make_entry(1, 2, 0.8, source="module other; endmodule"),
        ]
        caller = Caller(ScriptedBackend([]), SAMPLING, "p/t1/L3/S1")
        source, fallback = run_aggregator(make_problem(), refs, TEMPLATES, caller)
        assert fallback
        assert source == "module best; endmodule"
        assert caller.prompts == []
