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
from verimoa.agents import stub_checker
from verimoa.backends import load_scripted
from verimoa.cache import IntermediateLanguage
from verimoa.errors import SimulatorUnavailableError
from verimoa.memo import MemoChecker, MemoSimulator, VerdictMemo
from verimoa.orchestrator import run_benchmark
from verimoa.problems import load_benchmark, load_config
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


class TestMemoSimulator:
    def test_repeat_is_a_hit(self, tmp_path, spawns):
        memo = VerdictMemo()
        sim = MemoSimulator(stub_simulator(workspace_root=str(tmp_path)), memo)
        first = sim.syntax_test(CLEAN_MODULE, make_problem())
        assert sim.syntax_test(CLEAN_MODULE, make_problem()) is first
        assert spawns[0] == 1
        assert (memo.hits, memo.misses) == (1, 1)

    def test_key_covers_gate_problem_and_source(self):
        fake = FakeSimulator()
        sim = MemoSimulator(fake, VerdictMemo())
        sim.syntax_test(CLEAN_MODULE, make_problem())
        sim.function_test(CLEAN_MODULE, make_problem())
        sim.syntax_test(CLEAN_MODULE + "//", make_problem())
        sim.syntax_test(CLEAN_MODULE, make_problem("other"))
        sim.syntax_test(CLEAN_MODULE, make_problem(testbench_source="module t2; endmodule"))
        sim.syntax_test(CLEAN_MODULE, make_problem(support_files={"lib.v": "// lib"}))
        assert len(fake.calls) == 6

    def test_timed_out_verdict_is_computed_again(self, tmp_path, spawns):
        memo = VerdictMemo()
        sim = MemoSimulator(stub_simulator(workspace_root=str(tmp_path)), memo)
        problem = make_problem(timeout_ms=200)
        slow = CLEAN_MODULE + "// SLEEP_MS=3000"
        assert sim.syntax_test(slow, problem).timed_out
        assert sim.syntax_test(slow, problem).timed_out
        assert spawns[0] == 2

    def test_raised_error_is_not_memoized(self):
        class FlakySimulator(FakeSimulator):
            def syntax_test(self, source, problem):
                if not self.calls:
                    self.calls.append("raised")
                    raise SimulatorUnavailableError("simulator went away")
                return super().syntax_test(source, problem)

        fake = FlakySimulator()
        sim = MemoSimulator(fake, VerdictMemo())
        with pytest.raises(SimulatorUnavailableError):
            sim.syntax_test(CLEAN_MODULE, make_problem())
        assert sim.syntax_test(CLEAN_MODULE, make_problem()).passed
        assert sim.syntax_test(CLEAN_MODULE, make_problem()).passed
        assert fake.calls == ["raised", ("compile", "widget")]

    def test_other_attributes_pass_through(self):
        inner = stub_simulator()
        assert MemoSimulator(inner, VerdictMemo()).config is inner.config


class TestMemoChecker:
    def test_pass_and_fail_are_kept(self, spawns):
        checker = MemoChecker(stub_checker(IntermediateLanguage.PYTHON), VerdictMemo())
        for source in ("x = 1", "x = 1", "# CHECKFAIL", "# CHECKFAIL"):
            checker.run(source)
        assert spawns[0] == 2
        assert checker.max_rounds == 1

    def test_launch_error_is_not_kept(self, spawns):
        inner = stub_checker(IntermediateLanguage.CPP)
        broken = type(inner)(inner.language, "verimoa-no-such-checker {source}")
        checker = MemoChecker(broken, VerdictMemo())
        assert checker.run("int x;")[0] == "error"
        assert checker.run("int x;")[0] == "error"
        assert spawns[0] == 2

    def test_timeout_is_not_kept(self, spawns):
        inner = stub_checker(IntermediateLanguage.CPP)
        slow = type(inner)(
            inner.language,
            "%s -c 'import time; time.sleep(5)' {source}" % shlex.quote(sys.executable),
            timeout_ms=200,
        )
        checker = MemoChecker(slow, VerdictMemo())
        assert checker.run("int x;") == ("fail", slow.timeout_diagnostics())
        assert checker.run("int x;") == ("fail", slow.timeout_diagnostics())
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
