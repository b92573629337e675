"""Fast checks of the benchmark itself (about 15 s; not part of tier-1).

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import copy
import json
import os
import random
import shutil
import subprocess
import sys
import types
from concurrent.futures import ThreadPoolExecutor

import pytest

PERFBENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, PERFBENCH_DIR)

import run  # noqa: E402  (puts the checkout's src/ on sys.path)
import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from verimoa.backends import GenerationRequest  # noqa: E402
from verimoa.orchestrator import run_benchmark  # noqa: E402
from verimoa.problems import Benchmark, config_from_json, load_benchmark, load_config  # noqa: E402
from verimoa.simulator import stub_simulator  # noqa: E402

SMALL_CONFIG = {
    "proposer_layers": 2,
    "layer_width": 4,  # draft classes P, F, P, S
    "mixture": ["Base", "Cpp", "Py", "Base"],
    "trials": 1,
    "enable_sim_refinement": True,
    "max_sim_refine_rounds": 1,
    "max_stage1_refine_rounds": 1,
}


def _all_tags(config, problem_ids):
    """Every request tag a run of ``config`` can make."""
    tags = []
    for pid in problem_ids:
        for trial in range(config.trials):
            for layer in range(1, config.proposer_layers + 1):
                for slot, path in enumerate(config.mixture, 1):
                    stages = ["direct"] if path == "Base" else ["stage1", "stage1_refine", "stage2"]
                    for stage in stages + ["sim_refine1"]:
                        tags.append("%s/t%d/L%d/S%d/%s" % (pid, trial, layer, slot, stage))
            agg = config.proposer_layers + 1
            tags += ["%s/t%d/L%d/S1/aggregate" % (pid, trial, agg),
                     "%s/t%d/L%d/S1/sim_refine1" % (pid, trial, agg)]
    return tags


@pytest.fixture(scope="module")
def generated():
    config = load_config(workloads.GENERATED_CONFIG)
    ids = [p.id for p in load_benchmark(workloads.TOY_BENCH).problems]
    return config, ids


def test_generator_and_delays_ignore_call_order(generated):
    config, ids = generated
    tags = _all_tags(config, ids)

    def answer(tag):
        gen = workloads.FreshMixGenerator(5, config, ids, run_functional=True)
        injector = workloads.LatencyInjector(gen, 5, config)
        request = GenerationRequest("system", "prompt for " + tag, request_tag=tag)
        text = gen.generate(request).text
        return text, injector.delay_s(request, text)

    in_order = {tag: answer(tag) for tag in tags}
    shuffled = list(tags)
    random.Random(0).shuffle(shuffled)
    with ThreadPoolExecutor(max_workers=4) as pool:
        concurrent = dict(zip(shuffled, pool.map(answer, shuffled)))
    assert concurrent == in_order
    texts = [text for text, _ in in_order.values()]
    assert len(set(texts)) == len(texts), "a response repeats"
    delays = sorted(delay for _, delay in in_order.values())
    assert delays[0] > 0 and delays[-1] > 3 * delays[len(delays) // 2] / 2, "delays are not skewed"


def test_outcome_shares_do_not_depend_on_the_seed(generated):
    config, ids = generated
    agg = config.proposer_layers + 1
    for run_functional in (True, False):
        counts = set()
        for seed in range(20):
            gen = workloads.FreshMixGenerator(seed, config, ids, run_functional)
            calls = oracle.expected_llm_calls(
                lambda tag, _label: gen.text(tag), ids, config.to_json(), run_functional
            )
            # A trial passes when its aggregate or the aggregate's refinement passes.
            passes = sum(
                "P" in (gen.decide("%s/t0/L%d/S1/aggregate" % (pid, agg)),
                        gen.decide("%s/t0/L%d/S1/sim_refine1" % (pid, agg)))
                for pid in ids
            )
            counts.add((calls, passes))
        assert len(counts) == 1, counts


@pytest.fixture(scope="module")
def small_trace(tmp_path_factory):
    """One real trial of mux2 through the stub simulator."""
    config = config_from_json(SMALL_CONFIG)
    problem = load_benchmark(workloads.TOY_BENCH).problems[0]
    gen = workloads.FreshMixGenerator(3, config, [problem.id], run_functional=True)
    run_dir = str(tmp_path_factory.mktemp("run"))
    run_benchmark(Benchmark("small", (problem,)), config, gen, stub_simulator(), run_dir, jobs=1)
    events = oracle.read_trace(os.path.join(run_dir, problem.id, "0", "trace.jsonl"))
    return events, problem.testbench_source, config.top_n_hdl


def _faults(trace):
    events, testbench, top_n = trace
    return oracle.check_trial(events, testbench, top_n, run_functional=True)[0]


def test_oracle_accepts_the_real_trace(small_trace):
    assert _faults(small_trace) == []
    branches = {e["score"]["branch"] for e in small_trace[0] if e["event"] == "cache_insert" and e["kind"] == "hdl"}
    assert branches == {"perfect", "functional_fail", "syntax_fail"}


def _tampered(trace, mutate):
    events = copy.deepcopy(trace[0])
    mutate(events)
    return (events,) + trace[1:]


def test_oracle_rejects_a_tampered_verdict(small_trace):
    def flip(events):
        result = next(e for e in events if e["event"] == "trial_result")
        result["functional_pass"] = not result["functional_pass"]
    assert any("final verdict" in f for f in _faults(_tampered(small_trace, flip)))


def test_oracle_rejects_a_tampered_branch(small_trace):
    def relabel(events):
        insert = next(e for e in events if e["event"] == "cache_insert"
                      and e["kind"] == "hdl" and e["score"]["branch"] == "functional_fail")
        insert["score"]["branch"] = "perfect"
    assert any("expected functional_fail" in f for f in _faults(_tampered(small_trace, relabel)))


def test_oracle_rejects_a_tampered_window(small_trace):
    def reorder(events):
        stats = next(e for e in events if e["event"] == "layer_stats" and len(e["window"]) > 1)
        stats["window"].reverse()
    assert any("window differs" in f for f in _faults(_tampered(small_trace, reorder)))


def test_every_metric_is_printed_with_its_unit(tmp_path, monkeypatch, capsys):
    config = dict(SMALL_CONFIG, proposer_layers=1, layer_width=1, mixture=["Base"],
                  enable_sim_refinement=False)
    path = tmp_path / "tiny.config.json"
    path.write_text(json.dumps(config))
    monkeypatch.setitem(workloads.WORKLOADS, "tiny", workloads.Workload("tiny", str(path), True))
    e2e_units, layer_units = run.metric_units()
    for trace, units in ((0, e2e_units), (1, layer_units)):
        assert run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0", "--trace", str(trace)]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0
        assert {k: v["unit"] for k, v in result["metrics"].items()} == units
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
        for name, unit in units.items():
            assert any(line.split()[0] == name and line.split()[-1] == unit for line in lines[:-1])


@pytest.mark.parametrize("missing, absent", [
    ({"gated_evaluation", "orchestrator.vendi_score"},
     {"simulator.repeat_share", "simulator.gated_evals", "harness.vendi_calls", "harness.vendi_s"}),
    # Slots find their trial through the run_trial spans.
    ({"orchestrator.run_trial"},
     {"orchestrator.trial_s.p50", "orchestrator.critical_path_s",
      "orchestrator.barrier_idle_s", "orchestrator.utilization"}),
])
def test_a_vanished_hook_makes_its_metrics_absent(missing, absent):
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    assert not hooks.rebind(types.SimpleNamespace(), "agents.gated_evaluation",
                            "gated_evaluation", hooks.timed("agents.gated_evaluation"))
    metrics = tracing.layer_metrics(tracer, missing)
    assert {name for name, value in metrics.items() if value is None} == absent


def test_the_temp_root_length_does_not_depend_on_the_checkout():
    roots = [run.temp_root(os.path.join(parent, "run-%d" % pid))
             for parent in ("/a", "/a/much/longer/checkout/path") for pid in (7, 4194303)]
    assert {len(root) for root in roots} == {run.TEMP_ROOT_LEN}


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(run.REPO_ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(PERFBENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "progressive", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
