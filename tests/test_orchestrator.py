import dataclasses
import json
import os
import sys
import threading
import time
from collections import Counter

import pytest

from conftest import (
    CLEAN_MODULE,
    PROGRESSIVE_CONFIG,
    PROGRESSIVE_RULES,
    TOY_BENCH,
    FakeSimulator,
    make_problem,
    trial_collaborators,
)
from verimoa import __version__
from verimoa.agents import CANDIDATE_MARKER_RE
from verimoa.backends import (
    GenerationResponse,
    HttpBackend,
    ResponseRule,
    RuleBackend,
    ScriptedBackend,
    load_scripted,
)
from verimoa.errors import AuthError, BackendExhaustedError
from verimoa.orchestrator import run_benchmark, run_trial, write_manifest
from verimoa.problems import (
    Benchmark,
    RunConfig,
    config_from_json,
    load_benchmark,
    load_config,
)
from verimoa.simulator import stub_simulator

VERILOG_REPLY = "```verilog\n%s\n```" % CLEAN_MODULE.strip("\n")
BROKEN_REPLY = "```verilog\n%s// FUNCFAIL\n```" % CLEAN_MODULE
CPP_REPLY = "```cpp\nint model() { return 1; }\n```"
PY_REPLY = "```python\ndef model(): return 1\n```"


def happy_rules():
    return [
        ResponseRule(text=CPP_REPLY, tag_contains="stage1", system_contains="C++"),
        ResponseRule(text=PY_REPLY, tag_contains="stage1", system_contains="Python"),
        ResponseRule(text=VERILOG_REPLY),
    ]


def happy_backend():
    return RuleBackend(happy_rules())


def small_config(**overrides):
    fields = dict(
        proposer_layers=2,
        layer_width=3,
        mixture=("Base", "Cpp", "Py"),
        top_n_hdl=2,
        top_k_intermediate=1,
        trials=1,
    )
    fields.update(overrides)
    return RunConfig(**fields)


def read_trace(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def final_verdicts(events):
    """(syntax, functional) of a trace ending in trial_result."""
    assert events[-1]["event"] == "trial_result"
    return events[-1]["syntax_pass"], events[-1]["functional_pass"]


def widget_traces(run_dir, trials):
    return [
        read_trace(str(run_dir / "widget" / str(trial) / "trace.jsonl"))
        for trial in range(trials)
    ]


def run_one(tmp_path, config=None, backend=None, sim=None, **kwargs):
    """Run one trial of the widget problem; returns its trace events."""
    trace = str(tmp_path / "trace.jsonl")
    config = config or small_config()
    run_trial(
        make_problem(),
        config,
        backend or happy_backend(),
        sim or FakeSimulator(),
        seed=7,
        trial_index=0,
        trace_path=trace,
        **trial_collaborators(config) | kwargs,
    )
    return read_trace(trace)


class TestEventOrder:
    def test_canonical_trace_shape(self, tmp_path):
        events = run_one(tmp_path)
        assert events[0] == {
            "event": "trial_start", "problem": "widget", "trial": 0, "seed": 7,
        }
        assert events[-1]["event"] == "trial_result"

        calls = [e for e in events if e["event"] == "llm_call"]
        proposer_calls = [(e["layer"], e["slot"]) for e in calls if e["layer"] <= 2]
        assert proposer_calls == sorted(proposer_calls)

        stats_layers = [e["layer"] for e in events if e["event"] == "layer_stats"]
        assert stats_layers == [1, 2]

        agg_index = next(i for i, e in enumerate(events) if e["event"] == "aggregate")
        last_insert = max(
            i for i, e in enumerate(events) if e["event"] == "cache_insert"
        )
        assert last_insert < agg_index

    def test_layer_barrier_precedes_next_layer(self, tmp_path):
        events = run_one(tmp_path)
        stats_1 = next(
            i for i, e in enumerate(events)
            if e["event"] == "layer_stats" and e["layer"] == 1
        )
        layer2_events = [
            i for i, e in enumerate(events)
            if e.get("layer") == 2 and e["event"] in ("llm_call", "cache_insert")
        ]
        assert all(i > stats_1 for i in layer2_events)

    def test_finished_layers_are_on_disk_when_the_next_layer_asks(self, tmp_path):
        backend = PeekBackend(str(tmp_path / "trace.jsonl"), "/L2/", happy_backend())
        events = run_one(tmp_path, backend=backend)
        assert backend.seen.endswith("\n")
        seen = [json.loads(line) for line in backend.seen.splitlines()]
        stats_1 = next(i for i, e in enumerate(events) if e["event"] == "layer_stats")
        assert seen == events[: stats_1 + 1]

    def test_aggregate_is_on_disk_when_its_refinement_asks(self, tmp_path):
        inner = RuleBackend([
            ResponseRule(text=BROKEN_REPLY, tag_contains="/L3/S1/aggregate"),
            *happy_rules(),
        ])
        backend = PeekBackend(str(tmp_path / "trace.jsonl"), "/L3/S1/sim_refine", inner)
        config = small_config(enable_sim_refinement=True, max_sim_refine_rounds=1)
        events = run_one(tmp_path, config=config, backend=backend)
        assert backend.seen.endswith("\n")
        seen = [json.loads(line) for line in backend.seen.splitlines()]
        agg = next(i for i, e in enumerate(events) if e["event"] == "aggregate")
        assert seen == events[: agg + 1]

    def test_no_timing_fields_in_trace(self, tmp_path):
        events = run_one(tmp_path)
        keys = {key for event in events for key in event}
        leaky = [k for k in keys if "time" in k or "ms" in k or "duration" in k]
        assert leaky == []

    def test_trace_is_deterministic_across_runs(self, tmp_path):
        paths = []
        for name in ("a", "b"):
            trace = str(tmp_path / ("%s.jsonl" % name))
            run_trial(
                make_problem(), small_config(), happy_backend(), FakeSimulator(),
                seed=7, trial_index=0, trace_path=trace,
                **trial_collaborators(small_config()),
            )
            paths.append(trace)
        with open(paths[0], "rb") as fa, open(paths[1], "rb") as fb:
            assert fa.read() == fb.read()


    def test_trace_quoting_diagnostics_is_deterministic(self, tmp_path):
        # A refined SYNTAXERR draft and a failing checker put the stub
        # simulator's and checker's diagnostics into prompts; they must not
        # name the per-call temp directories.
        backend = RuleBackend([
            ResponseRule(text=VERILOG_REPLY, tag_contains="sim_refine"),
            ResponseRule(
                text="```cpp\nint model; // CHECKFAIL\n```",
                tag_contains="stage1", system_contains="C++",
            ),
            ResponseRule(text="```verilog\nmodule m; SYNTAXERR endmodule\n```"),
        ])
        traces = []
        for name in ("a", "b"):
            config = small_config(
                proposer_layers=1, layer_width=1, mixture=("Cpp",),
                enable_sim_refinement=True, max_sim_refine_rounds=1,
            )
            run_dir = tmp_path / name
            run_benchmark(
                Benchmark(name="one", problems=(make_problem(),)), config,
                backend, stub_simulator(), str(run_dir), jobs=1,
            )
            traces.append((run_dir / "widget" / "0" / "trace.jsonl").read_bytes())
        events = [json.loads(line) for line in traces[0].splitlines()]
        prompts = [e["user_prompt"] for e in events if e["event"] == "llm_call"]
        assert any("candidate.v: syntax error" in p for p in prompts)
        assert any("candidate.cpp:1: error: CHECKFAIL" in p for p in prompts)
        assert traces[0] == traces[1]


class TestCaching:
    def test_intermediates_cached_once_at_round_zero(self, tmp_path):
        backend = RuleBackend([
            ResponseRule(text=CPP_REPLY, tag_contains="stage1", system_contains="C++"),
            ResponseRule(text=PY_REPLY, tag_contains="stage1", system_contains="Python"),
            ResponseRule(text=VERILOG_REPLY, tag_contains="sim_refine"),
            ResponseRule(text=VERILOG_REPLY, tag_contains="aggregate"),
            ResponseRule(text=BROKEN_REPLY),
        ])
        config = small_config(
            enable_sim_refinement=True, max_sim_refine_rounds=1
        )
        events = run_one(tmp_path, config=config, backend=backend)
        inserts = [e for e in events if e["event"] == "cache_insert"]
        intermediates = [e for e in inserts if e["kind"] == "intermediate"]
        assert all(e["id"]["refine_round"] == 0 for e in intermediates)
        # One intermediate per two-stage slot per layer, refinement or not.
        assert len(intermediates) == 2 * config.proposer_layers
        hdl_rounds = {
            (e["id"]["layer"], e["id"]["slot"], e["id"]["refine_round"])
            for e in inserts if e["kind"] == "hdl"
        }
        # Every slot's draft failed, so round 1 entries exist alongside.
        assert (1, 1, 0) in hdl_rounds and (1, 1, 1) in hdl_rounds

    def test_intermediate_score_binds_to_round_zero_hdl(self, tmp_path):
        backend = RuleBackend([
            ResponseRule(text=CPP_REPLY, tag_contains="stage1", system_contains="C++"),
            ResponseRule(text=PY_REPLY, tag_contains="stage1", system_contains="Python"),
            ResponseRule(text=VERILOG_REPLY, tag_contains="sim_refine"),
            ResponseRule(text=VERILOG_REPLY, tag_contains="aggregate"),
            ResponseRule(text=BROKEN_REPLY),
        ])
        config = small_config(enable_sim_refinement=True, max_sim_refine_rounds=1)
        events = run_one(tmp_path, config=config, backend=backend)
        inserts = [e for e in events if e["event"] == "cache_insert"]
        by_key = {
            (e["id"]["layer"], e["id"]["slot"], e["id"]["refine_round"], e["kind"]): e
            for e in inserts
        }
        for (layer, slot, rnd, kind), event in by_key.items():
            if kind != "intermediate":
                continue
            hdl = by_key[(layer, slot, 0, "hdl")]
            assert event["score"] == hdl["score"]["value"]

    def test_aggregator_output_not_cached(self, tmp_path):
        config = small_config(enable_sim_refinement=True, max_sim_refine_rounds=2)
        backend = RuleBackend([
            ResponseRule(text=CPP_REPLY, tag_contains="stage1", system_contains="C++"),
            ResponseRule(text=PY_REPLY, tag_contains="stage1", system_contains="Python"),
            ResponseRule(text=BROKEN_REPLY),
        ])
        events = run_one(tmp_path, config=config, backend=backend)
        agg_index = next(i for i, e in enumerate(events) if e["event"] == "aggregate")
        later_inserts = [
            e for e in events[agg_index:] if e["event"] == "cache_insert"
        ]
        assert later_inserts == []
        hdl_inserts = [
            e for e in events
            if e["event"] == "cache_insert" and e["kind"] == "hdl"
        ]
        assert events[-1]["candidate_count"] == len(hdl_inserts)

    def test_each_window_is_what_the_next_layer_and_the_aggregator_see(self, tmp_path):
        backend = RuleBackend([
            ResponseRule(text=CPP_REPLY, tag_contains="stage1", system_contains="C++"),
            ResponseRule(text=PY_REPLY, tag_contains="stage1", system_contains="Python"),
            ResponseRule(text=VERILOG_REPLY, tag_contains="sim_refine"),
            ResponseRule(text=BROKEN_REPLY),
        ])
        config = small_config(
            proposer_layers=3, enable_sim_refinement=True, max_sim_refine_rounds=1
        )
        events = run_one(tmp_path, config=config, backend=backend)
        windows = {e["layer"]: e["window"] for e in events if e["event"] == "layer_stats"}

        def direct_refs(layer):
            (prompt,) = [e["user_prompt"] for e in events if e["event"] == "llm_call"
                         and e["layer"] == layer and e["stage"] == "direct"]
            return [
                {"layer": int(lay), "slot": int(slot), "path": path, "refine_round": int(rnd)}
                for lay, slot, path, rnd in CANDIDATE_MARKER_RE.findall(prompt)
            ]

        assert direct_refs(1) == []
        for layer in (1, 2):
            assert len(windows[layer]) == config.top_n_hdl
            assert direct_refs(layer + 1) == windows[layer]
        (aggregate,) = [e for e in events if e["event"] == "aggregate"]
        assert aggregate["refs"] == windows[3]

    def test_candidate_count_without_refinement(self, tmp_path):
        events = run_one(tmp_path)
        # 2 layers x 3 slots, single round each.
        assert events[-1]["candidate_count"] == 6


class TestDegradation:
    def test_empty_first_layer_recovers(self, tmp_path):
        backend = RuleBackend([
            ResponseRule(text=VERILOG_REPLY, tag_contains="/L2/"),
            ResponseRule(text=VERILOG_REPLY, tag_contains="/L3/"),
        ])
        config = small_config(layer_width=2, mixture=("Base", "Base"))
        events = run_one(tmp_path, config=config, backend=backend)
        errors = [e for e in events if e["event"] == "agent_error"]
        assert len(errors) == 2
        assert all(e["layer"] == 1 for e in errors)
        assert all(e["error_code"] == "transcript_miss" for e in errors)
        stats = [e for e in events if e["event"] == "layer_stats"]
        assert stats[0]["min_top_n"] is None
        assert stats[0]["window_values"] == []
        assert stats[1]["min_top_n"] == 1.0
        assert final_verdicts(events) == (True, True)
        assert events[-1]["per_layer_stats"][0]["mean_top_n"] is None

    def test_all_layers_empty_is_pipeline_failure(self, tmp_path):
        events = run_one(tmp_path, backend=ScriptedBackend([]))
        assert events[-1]["event"] == "trial_error"
        assert events[-1]["error_code"] == "pipeline_failure"
        errors = [e for e in events if e["event"] == "agent_error"]
        assert len(errors) == 6
        assert all(e["error_code"] == "backend_exhausted" for e in errors)

    def test_failed_slot_keeps_the_calls_and_checks_it_paid_for(self, tmp_path):
        # stage1 is answered and checked, then stage2 misses.
        backend = RuleBackend([ResponseRule(text=CPP_REPLY, tag_contains="stage1")])
        config = small_config(proposer_layers=1, layer_width=1, mixture=("Cpp",))
        events = run_one(tmp_path, config=config, backend=backend)
        assert [e["event"] for e in events] == [
            "trial_start", "llm_call", "checker", "agent_error", "layer_stats",
            "trial_error",
        ]
        assert events[1]["stage"] == "stage1"
        assert events[1]["response_text"] == CPP_REPLY
        assert events[2]["status"] == "pass"
        assert events[3]["error_code"] == "transcript_miss"

    def test_run_benchmark_degrades_failed_trials(self, tmp_path):
        bench = Benchmark(name="one", problems=(make_problem(),))
        config = small_config(trials=2)
        run_dir = tmp_path / "run"
        run_benchmark(
            bench, config, ScriptedBackend([]), FakeSimulator(), str(run_dir), jobs=2,
        )
        for events in widget_traces(run_dir, 2):
            assert events[-1]["event"] == "trial_error"
            kinds = {e["event"] for e in events}
            assert "cache_insert" not in kinds and "trial_result" not in kinds

    def test_checker_refinement_loop_traced(self, tmp_path):
        backend = RuleBackend([
            ResponseRule(
                text="```cpp\nint model; // CHECKFAIL\n```",
                tag_contains="stage1", system_contains="C++",
            ),
            ResponseRule(text=PY_REPLY, tag_contains="stage1", system_contains="Python"),
            ResponseRule(text=VERILOG_REPLY),
        ])
        config = small_config(max_stage1_refine_rounds=2)
        events = run_one(tmp_path, config=config, backend=backend)
        checks = [
            e for e in events
            if e["event"] == "checker" and e["slot"] == 2 and e["layer"] == 1
        ]
        assert [c["status"] for c in checks] == ["fail", "fail"]
        assert [c["round"] for c in checks] == [1, 2]
        assert "CHECKFAIL" in checks[0]["diagnostics"]
        refine_calls = [
            e for e in events
            if e["event"] == "llm_call" and e["stage"] == "stage1_refine"
            and e["layer"] == 1 and e["slot"] == 2
        ]
        assert len(refine_calls) == 2


class TestRunLayout:
    def test_manifest_round_trips_config(self, tmp_path):
        bench = Benchmark(name="toy", problems=(make_problem(), make_problem("p2")))
        config = small_config(trials=3, random_seed=40)
        write_manifest(str(tmp_path), bench, config, "rules")
        with open(tmp_path / "manifest.json", encoding="utf-8") as fh:
            manifest = json.load(fh)
        assert manifest["benchmark"] == "toy"
        assert manifest["problems"] == ["widget", "p2"]
        assert manifest["seeds"] == [40, 41, 42]
        assert manifest["backend"] == "rules"
        assert manifest["versions"]["package"] == __version__
        assert config_from_json(manifest["config"]) == config

    def test_run_directory_layout(self, tmp_path):
        bench = Benchmark(name="one", problems=(make_problem(),))
        run_dir = tmp_path / "run"
        run_benchmark(
            bench, small_config(trials=2), happy_backend(), FakeSimulator(),
            str(run_dir), jobs=2,
        )
        assert (run_dir / "manifest.json").is_file()
        for trial, events in enumerate(widget_traces(run_dir, 2)):
            assert events[-1]["event"] == "trial_result"
            assert events[-1]["trial"] == trial

    def test_benchmark_seeds_offset_by_trial(self, tmp_path):
        bench = Benchmark(name="one", problems=(make_problem(),))
        run_dir = tmp_path / "run"
        run_benchmark(
            bench, small_config(trials=2, random_seed=100), happy_backend(),
            FakeSimulator(), str(run_dir), jobs=1,
        )
        for trial in (0, 1):
            events = read_trace(str(run_dir / "widget" / str(trial) / "trace.jsonl"))
            assert events[0]["seed"] == 100 + trial

    def test_final_verdicts_reflect_reevaluation(self, tmp_path):
        # The aggregator's merged answer is evaluated fresh for the result.
        events = run_one(tmp_path)
        trial_result = events[-1]
        assert trial_result["syntax_pass"] is True
        assert trial_result["functional_pass"] is True
        assert trial_result["final_source"] == CLEAN_MODULE.strip("\n")
        hdl_inserts = [
            e for e in events if e["event"] == "cache_insert" and e["kind"] == "hdl"
        ]
        assert trial_result["candidate_count"] == len(hdl_inserts)


class GateCountingSimulator:
    """Counts the gate calls a simulator serves, by gate."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.calls = Counter()
        self._lock = threading.Lock()

    def _count(self, gate):
        with self._lock:
            self.calls[gate] += 1

    def syntax_test(self, source, problem):
        self._count("syntax")
        return self.sim.syntax_test(source, problem)

    def function_test(self, source, problem):
        self._count("function")
        return self.sim.function_test(source, problem)


class TestGateCalls:
    @pytest.mark.parametrize(
        "refine, run_functional, expected",
        [
            (False, True, {"function": 35}),
            (False, False, {"syntax": 30, "function": 5}),
            (True, True, {"function": 58}),
            (True, False, {"syntax": 70, "function": 5}),
        ],
    )
    def test_gate_calls_per_trial(self, tmp_path, refine, run_functional, expected):
        # One trial per toy problem under the progressive rules, with no
        # verdict memo: every gate call reaches the simulator.  With the
        # functional gate off, only the final answer is compiled and run,
        # and without refinement it is evaluated once, not compiled first.
        config = load_config(PROGRESSIVE_CONFIG)
        if refine:
            config = dataclasses.replace(config, enable_sim_refinement=True)
        sim = GateCountingSimulator(stub_simulator())
        for problem in load_benchmark(TOY_BENCH).problems:
            run_trial(
                problem, config, load_scripted(PROGRESSIVE_RULES), sim,
                seed=config.random_seed, trial_index=0,
                trace_path=str(tmp_path / problem.id / "trace.jsonl"),
                run_functional=run_functional, **trial_collaborators(config),
            )
        assert sim.calls == expected


class PeekBackend:
    """Reads the trial's trace when the first request whose tag holds
    tag_part arrives."""

    backend_id = "peek"

    def __init__(self, trace_path: str, tag_part: str, inner) -> None:
        self.inner = inner
        self.trace_path = trace_path
        self.tag_part = tag_part
        self.seen: str | None = None
        self._lock = threading.Lock()

    def generate(self, request):
        with self._lock:
            if self.seen is None and self.tag_part in request.request_tag:
                with open(self.trace_path, encoding="utf-8") as fh:
                    self.seen = fh.read()
        return self.inner.generate(request)


class BarrierBackend:
    """Holds trial 0's first layer-1 slot until trial 1 makes a call."""

    backend_id = "barrier"

    def __init__(self) -> None:
        self.inner = happy_backend()
        self.trial1_called = threading.Event()

    def generate(self, request):
        if "/t1/" in request.request_tag:
            self.trial1_called.set()
        elif "/t0/L1/S1/" in request.request_tag:
            if not self.trial1_called.wait(5.0):
                raise BackendExhaustedError("trial 1 never ran while trial 0 waited")
        return self.inner.generate(request)


class PeakBackend:
    """Records the most generate calls in flight at once."""

    backend_id = "peak"

    def __init__(self) -> None:
        self.inner = happy_backend()
        self.active = 0
        self.peak = 0
        self._lock = threading.Lock()

    def generate(self, request):
        with self._lock:
            self.active += 1
            self.peak = max(self.peak, self.active)
        try:
            time.sleep(0.01)
            return self.inner.generate(request)
        finally:
            with self._lock:
                self.active -= 1


class AuthFailingBackend:
    backend_id = "auth-failing"

    def __init__(self) -> None:
        self.calls = 0
        self._lock = threading.Lock()

    def generate(self, request):
        with self._lock:
            self.calls += 1
        raise AuthError("backend rejected credentials (HTTP 401)")


class PerTrialBackend:
    """Marks each answer with its trial and counts each trial's calls."""

    backend_id = "per-trial"

    def __init__(self) -> None:
        self.calls = {0: 0, 1: 0}
        self.cond = threading.Condition()

    def generate(self, request):
        trial = int(request.request_tag.split("/t")[1].split("/")[0])
        with self.cond:
            self.calls[trial] += 1
            self.cond.notify_all()
        source = "%s// trial %d" % (CLEAN_MODULE, trial)
        return GenerationResponse("```verilog\n%s\n```" % source, self.backend_id)


class CrossTrialSimulator(FakeSimulator):
    """Holds each trial's evaluations until the other trial made two calls."""

    def __init__(self, backend: PerTrialBackend) -> None:
        super().__init__()
        self.backend = backend

    def _wait_for_other_trial(self, source: str) -> None:
        other = 1 if "// trial 0" in source else 0
        with self.backend.cond:
            if not self.backend.cond.wait_for(
                lambda: self.backend.calls[other] >= 2, timeout=5.0
            ):
                raise RuntimeError(
                    "trial %d made under two calls while the other waited" % other
                )

    def syntax_test(self, source, problem):
        self._wait_for_other_trial(source)
        return super().syntax_test(source, problem)

    def function_test(self, source, problem):
        self._wait_for_other_trial(source)
        return super().function_test(source, problem)


class InFlightSession:
    """A requests.Session stand-in recording the most posts in flight.

    Each post waits until ``target`` posts are in flight at once, or, once
    one such wait has timed out, not at all.
    """

    def __init__(self, target: int) -> None:
        self.target = target
        self.active = 0
        self.peak = 0
        self.gave_up = False
        self._cond = threading.Condition()

    def post(self, url, json=None, headers=None, timeout=None):
        with self._cond:
            self.active += 1
            self.peak = max(self.peak, self.active)
            self._cond.notify_all()
            if not self._cond.wait_for(
                lambda: self.peak >= self.target or self.gave_up, timeout=2.0
            ):
                self.gave_up = True
                self._cond.notify_all()
            self.active -= 1
        return InFlightResponse()


class InFlightResponse:
    status_code = 200

    def json(self):
        return {"choices": [{"message": {"content": VERILOG_REPLY}}]}


class TestScheduler:
    def test_other_trials_fill_the_barrier(self, tmp_path):
        # One job, two slots per layer: trial 1 can only make progress
        # while trial 0 waits if both share the slot pool.
        bench = Benchmark(name="one", problems=(make_problem(),))
        config = small_config(layer_width=2, mixture=("Base", "Base"), trials=2)
        run_dir = tmp_path / "run"
        run_benchmark(
            bench, config, BarrierBackend(), FakeSimulator(), str(run_dir), jobs=1
        )
        for events in widget_traces(run_dir, 2):
            assert [e for e in events if e["event"] == "agent_error"] == []
            assert final_verdicts(events) == (True, True)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_agent_tasks_in_flight_stay_under_the_ceiling(self, tmp_path, jobs):
        bench = Benchmark(name="two", problems=(make_problem(), make_problem("p2")))
        config = small_config(layer_width=2, mixture=("Base", "Base"), trials=2)
        backend = PeakBackend()
        run_benchmark(
            bench, config, backend, FakeSimulator(), str(tmp_path / "run"), jobs=jobs
        )
        assert 1 <= backend.peak <= jobs * config.layer_width

    def test_traces_do_not_depend_on_jobs_under_stress(self, tmp_path):
        # Many trials on one shared pool, with thread switches forced often.
        bench = Benchmark(name="two", problems=(make_problem(), make_problem("p2")))
        config = small_config(trials=4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for jobs in (1, 4):
                run_benchmark(
                    bench, config, happy_backend(), FakeSimulator(),
                    str(tmp_path / str(jobs)), jobs=jobs,
                )
        finally:
            sys.setswitchinterval(interval)
        for pid in ("widget", "p2"):
            for trial in range(4):
                rel = os.path.join(pid, str(trial), "trace.jsonl")
                with open(tmp_path / "1" / rel, "rb") as fa, \
                        open(tmp_path / "4" / rel, "rb") as fb:
                    assert fa.read() == fb.read()

    def test_simulator_wait_holds_no_llm_seat(self, tmp_path):
        # One job, two slots per layer, two trials: each trial's first
        # evaluations wait until the other trial has made two LLM calls.
        # That needs all four layer-1 slots to have called the backend,
        # which only works if a slot waiting for the simulator holds no
        # seat that another trial needs.
        bench = Benchmark(name="one", problems=(make_problem(),))
        config = small_config(layer_width=2, mixture=("Base", "Base"), trials=2)
        backend = PerTrialBackend()
        sim = CrossTrialSimulator(backend)
        run_dir = tmp_path / "run"
        run_benchmark(bench, config, backend, sim, str(run_dir), jobs=1)
        for events in widget_traces(run_dir, 2):
            assert final_verdicts(events) == (True, True)

    def test_http_backend_honours_the_run_ceiling(self, tmp_path):
        # jobs x layer_width = 8 is above the 6 the HTTP client once capped
        # itself at; the run's gate is now the only ceiling.
        bench = Benchmark(name="two", problems=(make_problem(), make_problem("p2")))
        config = small_config(layer_width=2, mixture=("Base", "Base"), trials=4)
        session = InFlightSession(target=7)
        backend = HttpBackend("http://unit.test/v1/chat", "m1", api_key="k", session=session)
        run_benchmark(bench, config, backend, FakeSimulator(), str(tmp_path / "run"), jobs=4)
        assert 6 < session.peak <= 4 * config.layer_width

    def test_auth_error_stops_the_run(self, tmp_path):
        backend = AuthFailingBackend()
        with pytest.raises(AuthError):
            run_benchmark(
                load_benchmark(TOY_BENCH), load_config(PROGRESSIVE_CONFIG),
                backend, FakeSimulator(), str(tmp_path / "run"), jobs=4,
            )
        # Swallowing the error would send all 60 doomed requests.
        assert 1 <= backend.calls < 60
