"""Shared fixtures: repo paths, a workspace leak guard, an in-process
fake simulator, score and facts factories, and the session-scoped
progressive benchmark runs."""

from __future__ import annotations

import gc
import json
import os
import random
import signal
import tempfile
import time
from dataclasses import dataclass, field

import pytest

from verimoa.analyzer import AlwaysBlockFacts, Sensitivity, StructuralFacts
from verimoa.backends import load_scripted
from verimoa.cache import AgentPath, CandidateId, HdlCacheEntry
from verimoa.harness import build_report
from verimoa.orchestrator import run_benchmark
from verimoa.problems import DesignProblem, load_benchmark, load_config
from verimoa.scoring import QualityScore, ScoreBranch
from verimoa.simulator import SimPhase, SimVerdict, stub_simulator

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
TOY_BENCH = os.path.join(REPO_ROOT, "toy-bench")
FIXTURES = os.path.join(REPO_ROOT, "fixtures")
PROGRESSIVE_RULES = os.path.join(FIXTURES, "progressive.rules.jsonl")
PROGRESSIVE_CONFIG = os.path.join(FIXTURES, "progressive.config.json")
PROGRESSIVE_DIGESTS = os.path.join(FIXTURES, "progressive.sha256")

SESSION_STARTED = time.monotonic()


def session_elapsed() -> float:
    return time.monotonic() - SESSION_STARTED


def assert_gone_within_a_second(pid: int) -> None:
    """Fail unless process pid has exited (or is a zombie) within 1 s; a
    process still running then is killed, so a failure leaves none behind."""
    deadline = time.monotonic() + 1.0
    while True:
        try:
            with open("/proc/%d/stat" % pid, encoding="ascii") as fh:
                state = fh.read().rsplit(")", 1)[1].split()[0]
        except FileNotFoundError:
            return
        if state == "Z":
            return
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            pytest.fail("process %d still running after 1 s" % pid)
        time.sleep(0.02)


# -- workspace leak guard --------------------------------------------------

WORKSPACE_PREFIXES = ("verimoa-sim-", "verimoa-check-")


def workspaces_in(directory) -> list[str]:
    return sorted(
        name for name in os.listdir(directory) if name.startswith(WORKSPACE_PREFIXES)
    )


@pytest.fixture(autouse=True)
def workspace_leak_guard(tmp_path_factory):
    """Give each test its own temp directory and fail the test if a
    simulator or checker workspace is left in it once everything the
    test made has been collected."""
    saved = tempfile.tempdir
    tempdir = str(tmp_path_factory.mktemp("tempdir"))
    tempfile.tempdir = tempdir
    try:
        yield tempdir
    finally:
        tempfile.tempdir = saved
    leaked = workspaces_in(tempdir)
    if leaked:
        gc.collect()  # only when needed: a full collection costs tens of ms
        leaked = workspaces_in(tempdir)
    if leaked:
        pytest.fail("workspaces left behind: %s" % ", ".join(leaked))


# -- fake simulator --------------------------------------------------------


@dataclass
class FakeSimulator:
    """In-process stand-in honoring the stub simulator's magic substrings.

    Candidates containing SYNTAXERR fail the compile gate; FUNCFAIL or
    MARKER_BUT_FAIL anywhere in the compiled pile fails the run gate.
    Keeps a call log so tests can assert gate usage.
    """

    calls: list = field(default_factory=list)

    def syntax_test(self, source: str, problem: DesignProblem) -> SimVerdict:
        self.calls.append(("compile", problem.id))
        texts = [source] + sorted(problem.support_files.values())
        if any("SYNTAXERR" in t for t in texts):
            return SimVerdict(SimPhase.COMPILE, False, "syntax error near SYNTAXERR", 0)
        return SimVerdict(SimPhase.COMPILE, True, "", 0)

    def function_test(self, source: str, problem: DesignProblem) -> SimVerdict:
        self.calls.append(("run", problem.id))
        blob = "\n".join(
            [source, *sorted(problem.support_files.values()), problem.testbench_source]
        )
        if "SYNTAXERR" in blob:
            return SimVerdict(SimPhase.COMPILE, False, "syntax error near SYNTAXERR", 0)
        if "MARKER_BUT_FAIL" in blob:
            return SimVerdict(
                SimPhase.RUN, False, "ALL_TESTS_PASSED\nsimulation aborted", 0
            )
        if "FUNCFAIL" in blob:
            return SimVerdict(SimPhase.RUN, False, "MISMATCH at t=40", 0)
        return SimVerdict(SimPhase.RUN, True, "ALL_TESTS_PASSED", 0)


@pytest.fixture
def fake_sim() -> FakeSimulator:
    return FakeSimulator()


# -- data factories --------------------------------------------------------

CLEAN_MODULE = """module widget (
    input  wire a,
    input  wire b,
    output wire y
);
    assign y = a & b;
endmodule
"""


def make_problem(pid: str = "widget", **overrides) -> DesignProblem:
    fields = dict(
        id=pid,
        description="Implement a widget that ANDs two bits.",
        testbench_source="module tb; initial $finish; endmodule",
        top_module=pid,
        timeout_ms=10000,
    )
    fields.update(overrides)
    return DesignProblem(**fields)


def make_quality(value: float) -> QualityScore:
    """Synthetic score carrier for cache tests; only .value matters there."""
    if value == 1.0:
        return QualityScore(1.0, ScoreBranch.PERFECT, (), True, True)
    return QualityScore(
        value,
        ScoreBranch.FUNCTIONAL_FAIL,
        (("adjustment", value - 0.8),),
        True,
        False,
    )


def make_entry(
    layer: int,
    slot: int,
    value: float,
    path: AgentPath = AgentPath.BASE,
    refine_round: int = 0,
    source: str = "module m; endmodule",
    intermediate: str | None = None,
) -> HdlCacheEntry:
    cid = CandidateId(layer=layer, slot=slot, path=path, refine_round=refine_round)
    return HdlCacheEntry(
        id=cid, source=source, score=make_quality(value), intermediate=intermediate
    )


def random_always_block(rng: random.Random) -> AlwaysBlockFacts:
    sensitivity = rng.choice(list(Sensitivity))
    names = ["a", "b", "c", "q", "state"]
    assigned = set(rng.sample(names, rng.randint(0, 3)))
    read = set(rng.sample(names, rng.randint(0, 4)))
    return AlwaysBlockFacts(
        sensitivity=sensitivity,
        uses_blocking=rng.random() < 0.5,
        uses_nonblocking=rng.random() < 0.5,
        has_incomplete_conditional=rng.random() < 0.4,
        assigned_signals=assigned,
        read_signals=read,
    )


def random_facts(rng: random.Random) -> StructuralFacts:
    driven = {
        name: rng.randint(1, 3)
        for name in rng.sample(["y", "q", "out", "w"], rng.randint(0, 3))
    }
    return StructuralFacts(
        has_module_decl=rng.random() < 0.9,
        has_endmodule=rng.random() < 0.9,
        module_name="m" if rng.random() < 0.9 else None,
        port_count=rng.randint(0, 6),
        always_blocks=[
            random_always_block(rng) for _ in range(rng.randint(0, 3))
        ],
        assign_count=rng.randint(0, 4),
        case_without_default=rng.randint(0, 2),
        begin_end_balanced=rng.random() < 0.8,
        driven_signals=driven,
        has_reset_in_sequential=rng.random() < 0.5,
        has_port_directions=rng.random() < 0.8,
        has_conditional=rng.random() < 0.6,
        token_count=rng.choice([0, 5, 40, 400, 1500]),
    )


# -- progressive scenario (shared by several acceptance criteria) ----------


@dataclass(frozen=True)
class ProgressiveRuns:
    bench: object
    config: object
    dirs: tuple[str, str]
    reports: tuple  # parsed report.json of both runs


@pytest.fixture(scope="session")
def progressive_runs(tmp_path_factory) -> ProgressiveRuns:
    """The bundled toy benchmark executed twice with the bundled rules
    transcript and the stub simulator; reports built with k=1."""
    bench = load_benchmark(TOY_BENCH)
    config = load_config(PROGRESSIVE_CONFIG)
    dirs = []
    reports = []
    for i in range(2):
        backend = load_scripted(PROGRESSIVE_RULES)
        run_dir = str(tmp_path_factory.mktemp("progressive%d" % i))
        run_benchmark(bench, config, backend, stub_simulator(), run_dir, jobs=4)
        build_report(run_dir, ks=[1])
        with open(os.path.join(run_dir, "report.json"), encoding="utf-8") as fh:
            reports.append(json.load(fh))
        dirs.append(run_dir)
    return ProgressiveRuns(
        bench=bench,
        config=config,
        dirs=tuple(dirs),
        reports=tuple(reports),
    )
