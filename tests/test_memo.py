"""The per-run verdict memo: one evaluation per distinct candidate."""

import shlex
import subprocess
import sys
import threading

import pytest

from conftest import (
    CLEAN_MODULE,
    PROGRESSIVE_CONFIG,
    PROGRESSIVE_RULES,
    TOY_BENCH,
    FakeSimulator,
    make_problem,
)
from verimoa import agents
from verimoa.agents import (
    CHECKER_TIMEOUT_DIAGNOSTICS,
    AgentSpec,
    Caller,
    CheckerRecord,
    IntermediateChecker,
    gated_evaluation,
    load_templates,
    run_twostage_agent,
    stub_checker,
)
from verimoa.backends import ResponseRule, RuleBackend, load_scripted
from verimoa.cache import AgentPath, IntermediateLanguage
from verimoa.errors import SimulatorUnavailableError
from verimoa.memo import VerdictMemo
from verimoa.orchestrator import run_benchmark
from verimoa.problems import Sampling, load_benchmark, load_config
from verimoa.scoring import ScoreConstants
from verimoa.simulator import stub_simulator


@pytest.fixture
def spawns(monkeypatch):
    """Counts child processes where they are made."""
    count = [0]
    original = subprocess.Popen.__init__

    def counting_init(self, *args, **kwargs):
        count[0] += 1
        original(self, *args, **kwargs)

    monkeypatch.setattr(subprocess.Popen, "__init__", counting_init)
    return count


def run_progressive(run_dir, jobs, sim=None):
    run_benchmark(
        load_benchmark(TOY_BENCH), load_config(PROGRESSIVE_CONFIG),
        load_scripted(PROGRESSIVE_RULES), sim or stub_simulator(), str(run_dir),
        jobs=jobs,
    )


class TestRunBenchmark:
    @pytest.mark.parametrize("jobs", [1, 4])
    def test_progressive_run_spawns_once_per_distinct_candidate(
        self, tmp_path, spawns, jobs
    ):
        # 8 distinct (problem, source) pairs, each one compile-and-run, and
        # 2 distinct intermediates, each one checker run.
        run_progressive(tmp_path / "run", jobs)
        assert spawns[0] == 18

    def test_nothing_is_kept_across_runs(self, tmp_path, spawns, monkeypatch):
        # Each run makes its own 18 spawns and extracts the facts of its own
        # 5 distinct non-perfect sources, whatever the runs before it did.
        facts_calls = [0]
        extract_facts = agents.extract_facts

        def counting(source):
            facts_calls[0] += 1
            return extract_facts(source)

        monkeypatch.setattr(agents, "extract_facts", counting)
        sim = stub_simulator()
        for jobs in (1, 4):
            for name in ("a", "b"):
                spawns[0] = facts_calls[0] = 0
                run_progressive(tmp_path / ("%s%d" % (name, jobs)), jobs, sim)
                assert (spawns[0], facts_calls[0]) == (18, 5), jobs


def evaluate(source, sim, memo, problem=None, run_functional=True):
    return gated_evaluation(source, problem or make_problem(), sim, ScoreConstants(),
                            run_functional, memo=memo)


def check(checker, model, memo):
    """One layer-1 agent of checker's language whose stage 1 answers model;
    returns its checks."""
    path = AgentPath.PY if checker.language is IntermediateLanguage.PYTHON else AgentPath.CPP
    backend = RuleBackend([
        ResponseRule(text="```%s\n%s\n```" % (checker.language.value, model),
                     tag_contains="stage1"),
        ResponseRule(text="```verilog\n%s\n```" % CLEAN_MODULE),
    ])
    spec = AgentSpec(path=path, slot=1, templates=load_templates()[path.value])
    caller = Caller(backend, Sampling(), "widget/t0/L1/S1")
    run_twostage_agent(spec, make_problem(), [], [], checker, 1, caller, memo=memo)
    return caller.checks


class TestMemoSimulator:
    """gated_evaluation looks each gate verdict up in the memo it is given."""

    def test_repeat_is_a_hit(self, tmp_path, spawns):
        memo = VerdictMemo()
        sim = stub_simulator(workspace_root=str(tmp_path))
        first = evaluate(CLEAN_MODULE, sim, memo)
        assert evaluate(CLEAN_MODULE, sim, memo) == first
        assert spawns[0] == 2  # one compile and one run
        assert (memo.hits, memo.misses) == (1, 1)

    def test_key_covers_gate_problem_and_source(self):
        fake, memo = FakeSimulator(), VerdictMemo()
        for _ in range(2):
            evaluate(CLEAN_MODULE, fake, memo, run_functional=False)
            evaluate(CLEAN_MODULE, fake, memo)
            evaluate(CLEAN_MODULE + "//", fake, memo, run_functional=False)
            for problem in (
                make_problem("other"),
                make_problem(testbench_source="module t2; endmodule"),
                make_problem(support_files={"lib.v": "// lib"}),
            ):
                evaluate(CLEAN_MODULE, fake, memo, problem, run_functional=False)
        assert len(fake.calls) == 6

    def test_timed_out_verdict_is_computed_again(self, tmp_path, spawns):
        memo = VerdictMemo()
        sim = stub_simulator(workspace_root=str(tmp_path))
        problem = make_problem(timeout_ms=200)
        slow = CLEAN_MODULE + "// SLEEP_MS=3000"
        for _ in range(2):
            score, feedback = evaluate(slow, sim, memo, problem, run_functional=False)
            assert not score.syntax_pass
            assert feedback.endswith("[timeout after 200 ms]")
        assert spawns[0] == 2

    def test_raised_error_is_not_memoized(self):
        class FlakySimulator(FakeSimulator):
            def syntax_test(self, source, problem):
                if not self.calls:
                    self.calls.append("raised")
                    raise SimulatorUnavailableError("simulator went away")
                return super().syntax_test(source, problem)

        fake, memo = FlakySimulator(), VerdictMemo()
        with pytest.raises(SimulatorUnavailableError):
            evaluate(CLEAN_MODULE, fake, memo, run_functional=False)
        assert evaluate(CLEAN_MODULE, fake, memo, run_functional=False)[0].syntax_pass
        assert evaluate(CLEAN_MODULE, fake, memo, run_functional=False)[0].syntax_pass
        assert fake.calls == ["raised", ("compile", "widget")]


class TestMemoChecker:
    """run_twostage_agent looks each check up in the memo it is given."""

    def test_pass_and_fail_are_kept(self, spawns):
        checker, memo = stub_checker(IntermediateLanguage.PYTHON), VerdictMemo()
        statuses = [check(checker, model, memo)[0].status
                    for model in ("x = 1", "x = 1", "# CHECKFAIL", "# CHECKFAIL")]
        assert statuses == ["pass", "pass", "fail", "fail"]
        assert spawns[0] == 2

    def test_launch_error_is_not_kept(self, spawns):
        broken = IntermediateChecker(IntermediateLanguage.CPP, "verimoa-no-such-checker {source}")
        memo = VerdictMemo()
        assert check(broken, "int x;", memo)[0].status == "error"
        assert check(broken, "int x;", memo)[0].status == "error"
        assert spawns[0] == 2

    def test_timeout_is_not_kept(self, spawns, monkeypatch):
        monkeypatch.setattr(agents, "CHECKER_TIMEOUT_MS", 200)
        slow = IntermediateChecker(
            IntermediateLanguage.CPP,
            "%s -c 'import time; time.sleep(5)' {source}" % shlex.quote(sys.executable),
        )
        memo = VerdictMemo()
        timed_out = [CheckerRecord(1, "fail", CHECKER_TIMEOUT_DIAGNOSTICS)]
        assert check(slow, "int x;", memo) == timed_out
        assert check(slow, "int x;", memo) == timed_out
        assert spawns[0] == 2


class TestSingleFlight:
    def test_concurrent_askers_share_one_computation(self):
        memo = VerdictMemo()
        started, release = threading.Event(), threading.Event()
        computed = []

        def compute():
            computed.append(1)
            started.set()
            release.wait(5)
            return "verdict"

        results = []
        owner = threading.Thread(
            target=lambda: results.append(memo.get("k", compute, lambda r: True))
        )
        owner.start()
        started.wait(5)
        waiters = [
            threading.Thread(
                target=lambda: results.append(memo.get("k", compute, lambda r: True))
            )
            for _ in range(3)
        ]
        for t in waiters:
            t.start()
        release.set()
        for t in [owner, *waiters]:
            t.join(5)
        assert not any(t.is_alive() for t in [owner, *waiters])
        assert results == ["verdict"] * 4
        assert computed == [1]
        assert (memo.hits, memo.misses) == (3, 1)

    def test_waiter_retries_when_the_owner_raises(self):
        memo = VerdictMemo()
        started, release = threading.Event(), threading.Event()
        calls = []

        def failing():
            calls.append("owner")
            started.set()
            release.wait(5)
            raise SimulatorUnavailableError("gone")

        def succeeding():
            calls.append("waiter")
            return "verdict"

        errors, results = [], []

        def own():
            try:
                memo.get("k", failing, lambda r: True)
            except SimulatorUnavailableError as exc:
                errors.append(exc)

        owner = threading.Thread(target=own)
        owner.start()
        started.wait(5)
        waiter = threading.Thread(
            target=lambda: results.append(memo.get("k", succeeding, lambda r: True))
        )
        waiter.start()
        release.set()
        owner.join(5)
        waiter.join(5)
        assert not owner.is_alive() and not waiter.is_alive()
        assert len(errors) == 1
        assert results == ["verdict"]
        assert calls == ["owner", "waiter"]

    def test_stress_each_key_computed_once(self):
        memo = VerdictMemo()
        computed = []
        lock = threading.Lock()

        def compute_for(key):
            def compute():
                with lock:
                    computed.append(key)
                return key
            return compute

        def worker(offset):
            for i in range(200):
                key = "k%d" % ((i + offset) % 10)
                assert memo.get(key, compute_for(key), lambda r: True) == key

        previous = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(n,)) for n in range(16)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
        finally:
            sys.setswitchinterval(previous)
        assert not any(t.is_alive() for t in threads)
        assert sorted(computed) == sorted("k%d" % i for i in range(10))
        assert (memo.hits, memo.misses) == (16 * 200 - 10, 10)
