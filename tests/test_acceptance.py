"""Acceptance gate: ten checks, one test per criterion.

Each test prints a "criterion N PASS" line (visible under -s) after its
assertions; the test name itself reports the verdict under -v.  Criterion
9 (whole-suite runtime) is asserted here for elapsed-so-far and again in
test_zz_budget.py, which runs last.
"""

from __future__ import annotations

import filecmp
import itertools
import json
import math
import os
import random
import shutil
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg

from conftest import (
    TOY_BENCH,
    FakeSimulator,
    ProgressiveRuns,
    make_entry,
    make_problem,
    random_facts,
    session_elapsed,
)
from verimoa.agents import gated_evaluation
from verimoa.backends import ResponseRule, RuleBackend
from verimoa.cache import GlobalCache, IntermediateLanguage
from verimoa.harness import pass_at_k, vendi_from_similarity, vendi_score
from verimoa.orchestrator import run_trial
from verimoa.problems import RunConfig, load_problem
from verimoa.scoring import ScoreBranch, ScoreConstants, score_from_facts
from verimoa.simulator import ExternalSimulator, iverilog_config, simcheck


def test_criterion_01_pass_at_k_exactness():
    """pass_at_k equals the subset-enumeration oracle, |delta| < 1e-12,
    exhaustively for n <= 12; the sweep finishes in under 5 seconds."""
    started = time.perf_counter()
    checked = 0
    for n in range(1, 13):
        for c in range(0, n + 1):
            for k in range(1, n + 1):
                total = 0
                hits = 0
                for subset in itertools.combinations(range(n), k):
                    total += 1
                    if any(i < c for i in subset):
                        hits += 1
                oracle = Fraction(hits, total)
                got = pass_at_k(n, c, k)
                assert abs(got - float(oracle)) < 1e-12, (n, c, k, got, oracle)
                checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0, "exhaustive sweep took %.2fs" % elapsed

    assert abs(pass_at_k(10, 3, 3) - 17 / 24) < 1e-12
    assert pass_at_k(10, 10, 1) == 1.0
    print("criterion 1 PASS: %d (n,c,k) cases within 1e-12 in %.2fs" % (checked, elapsed))


def test_criterion_02_cache_monotonicity():
    """Quality-window min and mean never decrease across layers, over 200
    randomized pipelines with saturated windows (n <= layer width)."""
    started = time.perf_counter()
    rng = random.Random(0xC0FFEE)
    runs = 200
    for _ in range(runs):
        layers = rng.randint(2, 5)
        width = rng.randint(1, 8)
        n = rng.randint(1, width)
        cache = GlobalCache()
        prev_min, prev_mean = None, None
        for layer in range(1, layers + 1):
            for slot in range(1, width + 1):
                rounds = rng.choice([1, 1, 1, 2])
                for refine_round in range(rounds):
                    cache.insert_hdl(
                        make_entry(layer, slot, rng.random(), refine_round=refine_round)
                    )
            values = [e.score.value for e in cache.top_n_hdl(layer + 1, n)]
            low, mean = min(values), statistics.fmean(values)
            if prev_min is not None:
                assert low >= prev_min, (layers, width, n, layer)
                # fmean's float summation gets a hair of slack; a real
                # regression would be orders of magnitude larger.
                assert mean >= prev_mean - 1e-12, (layers, width, n, layer)
            prev_min, prev_mean = low, mean
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, "monotonicity sweep took %.2fs" % elapsed
    print("criterion 2 PASS: %d randomized pipelines, zero violations, %.2fs"
          % (runs, elapsed))


def _reference_rank(entries, before_layer, n):
    """Independent sort-and-slice ordering: value desc, later layer first,
    lower slot first, later refine round first, path name last."""
    eligible = [e for e in entries if e.id.layer < before_layer]

    def key(entry):
        cid = entry.id
        return (
            -entry.score.value,
            -cid.layer,
            cid.slot,
            -cid.refine_round,
            cid.path.value,
        )

    return [e.id for e in sorted(eligible, key=key)[:n]]


def test_criterion_03_topn_oracle():
    """top_n_hdl matches brute force on 1000 random caches, and the result
    is invariant under insertion-order permutation."""
    rng = random.Random(31337)
    values = [0.2, 0.5, 0.8, 1.0]
    from verimoa.cache import AgentPath

    for case in range(1000):
        count = rng.randint(1, 50)
        id_space = list(
            itertools.product(range(1, 7), range(1, 9), list(AgentPath), range(4))
        )
        picked = rng.sample(id_space, count)
        entries = [
            make_entry(layer, slot, rng.choice(values), path=path, refine_round=rr)
            for layer, slot, path, rr in picked
        ]
        before_layer = rng.randint(1, 7)
        n = rng.randint(1, 10)

        cache = GlobalCache()
        for entry in entries:
            cache.insert_hdl(entry)
        got = [e.id for e in cache.top_n_hdl(before_layer, n)]
        assert got == _reference_rank(entries, before_layer, n), case

        shuffled = entries[:]
        rng.shuffle(shuffled)
        permuted = GlobalCache()
        for entry in shuffled:
            permuted.insert_hdl(entry)
        assert [e.id for e in permuted.top_n_hdl(before_layer, n)] == got, case
    print("criterion 3 PASS: 1000 randomized caches, zero mismatches")


def test_criterion_04_branch_ordering():
    """Every perfect score beats every functional failure, which beats
    every syntax failure, across >= 10,000 randomized facts/verdicts."""
    rng = random.Random(0xBADC0DE)
    constants = ScoreConstants()
    cases = 10_000
    extremes = {
        ScoreBranch.PERFECT: [math.inf, -math.inf],
        ScoreBranch.FUNCTIONAL_FAIL: [math.inf, -math.inf],
        ScoreBranch.SYNTAX_FAIL: [math.inf, -math.inf],
    }
    counts = Counter()
    for _ in range(cases):
        facts = random_facts(rng)
        syntax_pass = rng.random() < 0.6
        functional_pass = syntax_pass and rng.random() < 0.4
        score = score_from_facts(facts, constants, syntax_pass, functional_pass)
        low, high = extremes[score.branch]
        extremes[score.branch] = [min(low, score.value), max(high, score.value)]
        counts[score.branch] += 1
    assert all(counts[b] > 100 for b in extremes), counts
    assert extremes[ScoreBranch.PERFECT][0] > extremes[ScoreBranch.FUNCTIONAL_FAIL][1]
    assert (
        extremes[ScoreBranch.FUNCTIONAL_FAIL][0]
        > extremes[ScoreBranch.SYNTAX_FAIL][1]
    )
    assert extremes[ScoreBranch.PERFECT] == [1.0, 1.0]
    print(
        "criterion 4 PASS: %d cases; perfect=%s funcfail=%s syntaxfail=%s"
        % (
            cases,
            extremes[ScoreBranch.PERFECT],
            extremes[ScoreBranch.FUNCTIONAL_FAIL],
            extremes[ScoreBranch.SYNTAX_FAIL],
        )
    )


def test_criterion_05_determinism(progressive_runs: ProgressiveRuns):
    """Two runs of the bundled benchmark with the bundled transcript and
    stub simulator produce byte-identical traces and reports."""
    first, second = progressive_runs.dirs
    compared = 0
    for problem in progressive_runs.bench.problems:
        for trial in range(progressive_runs.config.trials):
            a = os.path.join(first, problem.id, str(trial), "trace.jsonl")
            b = os.path.join(second, problem.id, str(trial), "trace.jsonl")
            assert filecmp.cmp(a, b, shallow=False), (problem.id, trial)
            compared += 1
    reports = []
    for report in progressive_runs.reports:
        scrubbed = {k: v for k, v in report.items() if k != "generated_at"}
        reports.append(json.dumps(scrubbed, sort_keys=True))
    assert reports[0] == reports[1]
    print("criterion 5 PASS: %d traces byte-identical, reports identical "
          "minus timestamp" % compared)


def test_criterion_06_progressive_scenario(progressive_runs: ProgressiveRuns):
    """Bundled transcript: layer 1 fails functionally everywhere, layer 2
    fixes 3 of 5 problems in every trial -> pass@1 exactly 0.600 and
    strictly increasing mean_top_n for the fixed problems."""
    report = progressive_runs.reports[0]
    assert report["pass_at_k"]["per_k"]["1"] == 0.6
    assert report["pass_at_k"]["per_problem_c"] == {
        "mux2": 2, "and2": 2, "xor2": 2, "dff": 0, "counter4": 0,
    }
    assert report["incomplete_trials"] == 0

    fixed = {"mux2", "and2", "xor2"}
    for problem, trial in itertools.product(
        progressive_runs.bench.problems, range(progressive_runs.config.trials)
    ):
        trace = os.path.join(
            progressive_runs.dirs[0], problem.id, str(trial), "trace.jsonl"
        )
        with open(trace, encoding="utf-8") as fh:
            last = json.loads(fh.read().splitlines()[-1])
        assert last["event"] == "trial_result", problem.id
        means = {s["layer"]: s["mean_top_n"] for s in last["per_layer_stats"]}
        assert set(means) == {1, 2}, problem.id
        if problem.id in fixed:
            assert means[2] > means[1], (problem.id, means)
        else:
            assert means[2] >= means[1], (problem.id, means)

    by_layer = {entry["layer"]: entry["mean_top_n"] for entry in report["per_layer"]}
    assert by_layer[2] > by_layer[1]
    print("criterion 6 PASS: pass@1 == 0.600 exactly; mean_top_n strictly "
          "increases for %s" % sorted(fixed))


def test_criterion_07_vendi_properties():
    """Diversity score: identical lists give 1, pairwise-orthogonal lists
    give their size, permutations change nothing, and values match an
    independent eigensolver to 1e-9 on 100 random similarity matrices."""
    for m in range(1, 9):
        assert abs(vendi_score(["module m; endmodule"] * m) - 1.0) < 1e-9, m
        # Single distinct trigrams per text: pairwise-orthogonal kernel.
        orthogonal = [chr(ord("a") + i) * 4 for i in range(m)]
        assert abs(vendi_score(orthogonal) - m) < 1e-9, m

    rng = random.Random(99)
    texts = ["module %s; assign y = %d; endmodule" % (chr(97 + i), i) for i in range(6)]
    base = vendi_score(texts)
    for _ in range(5):
        shuffled = texts[:]
        rng.shuffle(shuffled)
        assert abs(vendi_score(shuffled) - base) < 1e-9

    np_rng = np.random.default_rng(2024)
    for case in range(100):
        m = int(np_rng.integers(2, 13))
        vectors = np_rng.normal(size=(m, m + 2))
        vectors += 0.1  # keep every row nonzero
        gram = vectors @ vectors.T
        norms = np.sqrt(np.diag(gram))
        K = gram / np.outer(norms, norms)
        got = vendi_from_similarity(K)
        eigenvalues = scipy.linalg.eigh(K / m, eigvals_only=True)
        kept = eigenvalues[eigenvalues > 1e-12]
        oracle = float(np.exp(-np.sum(kept * np.log(kept))))
        assert abs(got - oracle) < 1e-9, (case, got, oracle)
    print("criterion 7 PASS: identity/orthogonality/permutation properties "
          "and 100 eigensolver cross-checks within 1e-9")


class _CountingBackend:
    def __init__(self, inner):
        self.inner = inner
        self.backend_id = inner.backend_id
        self.total = 0
        self._lock = threading.Lock()

    def generate(self, request):
        with self._lock:
            self.total += 1
        return self.inner.generate(request)


@dataclass(frozen=True)
class _FakeChecker:
    max_rounds: int

    def run(self, source: str):
        if "CHECKFAIL" in source:
            return "fail", "model check failed: CHECKFAIL"
        return "pass", "ok"


def test_criterion_08_call_count_law(tmp_path):
    """Backend-call audit over 100 randomized configs: direct agents spend
    1 + sim-refine-round calls, two-stage agents 2 + stage-1 rounds +
    sim-refine rounds, the aggregator 1 + its refine rounds.  Exact."""
    rng = random.Random(4242)
    problem = make_problem()
    tags = ["Base", "Cpp", "Py"]
    for case in range(100):
        layers = rng.randint(1, 3)
        width = rng.randint(1, 4)
        mixture = tuple(rng.choice(tags) for _ in range(width))
        enable = rng.random() < 0.5
        sim_rounds = rng.randint(0, 2)
        stage1_rounds = rng.randint(0, 2)
        hdl_fails = rng.random() < 0.5
        stage1_fails = rng.random() < 0.5

        config = RunConfig(
            proposer_layers=layers,
            layer_width=width,
            mixture=mixture,
            top_n_hdl=2,
            top_k_intermediate=1,
            trials=1,
            enable_sim_refinement=enable,
            max_sim_refine_rounds=sim_rounds,
            max_stage1_refine_rounds=stage1_rounds,
        )
        hdl = "module widget(input a, output y);\n%s  assign y = a;\nendmodule" % (
            "  // FUNCFAIL\n" if hdl_fails else ""
        )
        model = "def step(x):\n    %s\n    return x" % (
            "pass  # CHECKFAIL" if stage1_fails else "pass"
        )
        backend = _CountingBackend(
            RuleBackend(
                [
                    ResponseRule(text="```python\n%s\n```" % model, tag_contains="/stage1"),
                    ResponseRule(text="```verilog\n%s\n```" % hdl),
                ]
            )
        )
        checker = _FakeChecker(max_rounds=stage1_rounds)
        trace_path = str(tmp_path / ("audit%d" % case) / "trace.jsonl")
        run_trial(
            problem,
            config,
            backend,
            FakeSimulator(),
            seed=case,
            trial_index=0,
            trace_path=trace_path,
            checkers={lang: checker for lang in IntermediateLanguage},
        )

        refine = sim_rounds if (enable and hdl_fails) else 0
        per_slot = {
            tag: (1 + refine) if tag == "Base"
            else (2 + (stage1_rounds if stage1_fails else 0) + refine)
            for tag in tags
        }
        expected = layers * sum(per_slot[tag] for tag in mixture) + 1 + refine
        assert backend.total == expected, (
            case, layers, mixture, enable, sim_rounds, stage1_rounds,
            hdl_fails, stage1_fails, backend.total, expected,
        )

        observed = Counter()
        with open(trace_path, encoding="utf-8") as fh:
            for line in fh:
                event = json.loads(line)
                if event["event"] == "llm_call":
                    observed[(event["layer"], event["slot"])] += 1
        for layer in range(1, layers + 1):
            for slot, tag in enumerate(mixture, start=1):
                assert observed[(layer, slot)] == per_slot[tag], (case, layer, slot)
        assert observed[(layers + 1, 1)] == 1 + refine, case
    print("criterion 8 PASS: 100 randomized runs, zero call-count deviations")


def test_criterion_09_suite_budget():
    """The offline suite must stay under two minutes; checked here for
    time-so-far and re-checked by the last-running budget test."""
    elapsed = session_elapsed()
    assert elapsed < 120.0, "suite already at %.1fs" % elapsed
    print("criterion 9 PASS (so far): %.1fs elapsed" % elapsed)


needs_iverilog = pytest.mark.skipif(
    shutil.which("iverilog") is None or shutil.which("vvp") is None,
    reason="Icarus Verilog not installed; optional live check",
)


@needs_iverilog
def test_criterion_10_live_simulator():
    """With a real simulator installed, the health check passes and the
    bundled correct mux scores a perfect 1.0."""
    sim = ExternalSimulator(iverilog_config())
    ok, message = simcheck(sim)
    assert ok, message
    problem = load_problem(os.path.join(TOY_BENCH, "mux2"))
    with open(os.path.join(TOY_BENCH, "mux2", "solution.v"), encoding="utf-8") as fh:
        source = fh.read()
    score, _ = gated_evaluation(source, problem, sim, ScoreConstants())
    assert score.value == 1.0
    assert score.branch is ScoreBranch.PERFECT
    print("criterion 10 PASS: live simulator healthy, bundled mux scores 1.0")
