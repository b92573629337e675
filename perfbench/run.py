#!/usr/bin/env python3
"""Run one workload of the verimoa benchmark and print its metrics.

    python3 perfbench/run.py --workload progressive --seed 1 --seconds 20 --trace 0

A run runs whole pairs of rounds of ``run_benchmark`` until ``--seconds``
have passed, at least one pair.  Before every round it sets up the
pipeline the way ``verimoa run`` does, four times, to time set-up.  Every
round's traces are checked by the independent oracle in ``oracle.py``,
and the second round of each pair must repeat the first's byte for byte.
With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` each pair is one untraced and one
traced round, and the run reports the per-layer metrics.  The last line
of standard output is one JSON object.

Needs only the checkout: ``src/`` is put on ``sys.path``, and every file
the run writes goes under ``.perfbench-out/``, simulator workspaces and
checker sources too, in a temp root whose path is TEMP_ROOT_LEN characters
long wherever the checkout is.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import tempfile
import time
from dataclasses import dataclass, field
from statistics import median

PERFBENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(PERFBENCH_DIR)
OUT_DIR = os.path.join(REPO_ROOT, ".perfbench-out")
sys.path[:0] = [os.path.join(REPO_ROOT, "src"), PERFBENCH_DIR]

import verimoa.agents  # noqa: E402
import verimoa.backends  # noqa: E402
import verimoa.cache  # noqa: E402
import verimoa.harness  # noqa: E402
import verimoa.orchestrator  # noqa: E402
import verimoa.problems  # noqa: E402
import verimoa.simulator  # noqa: E402

import oracle  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

INPUTS = (
    "toy-bench/benchmark.json",
    "fixtures/progressive.config.json",
    "fixtures/progressive.rules.jsonl",
)
SETUP_REPS = 4  # before every round, so set-up is sampled across the whole run
# Diagnostics quote the temp path and refinement prompts repeat them, so
# its length is part of the prompt sizes; pad it to one length for all runs.
TEMP_ROOT_LEN = 160


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    """(end-to-end, per-layer) metric name -> unit, as BENCHMARK.json lists them."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return (
        {m["name"]: m["unit"] for m in spec["end_to_end"]},
        {m["name"]: m["unit"] for m in spec["per_layer"]},
    )


@dataclass
class Setup:
    config: object
    benchmark: object
    backend: object
    sim: object
    templates: dict
    checkers: dict
    load_s: float
    simcheck_s: float
    total_s: float


def set_up(workload, seed: int) -> Setup:
    """What ``verimoa run`` does before its first trial."""
    started = time.perf_counter()
    config = verimoa.problems.load_config(workload.config_path)
    benchmark = verimoa.problems.load_benchmark(workloads.TOY_BENCH)
    loaded = time.perf_counter()
    if workload.rules_path:
        backend = verimoa.backends.load_scripted(workload.rules_path)
    else:
        backend = workloads.FreshMixGenerator(
            seed, config, [p.id for p in benchmark.problems], workload.run_functional
        )
        if workload.latency:
            backend = workloads.LatencyInjector(backend, seed, config)
    sim = verimoa.simulator.stub_simulator()
    probe = time.perf_counter()
    ok, message = verimoa.simulator.simcheck(sim)
    probed = time.perf_counter()
    if not ok:
        raise RuntimeError("simulator preflight failed: %s" % message)
    templates = verimoa.agents.load_templates()
    checkers = {
        lang: verimoa.agents.stub_checker(lang, config.max_stage1_refine_rounds)
        for lang in verimoa.cache.IntermediateLanguage
    }
    return Setup(config, benchmark, backend, sim, templates, checkers,
                 load_s=loaded - started, simcheck_s=probed - probe,
                 total_s=time.perf_counter() - started)


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + children.ru_utime + children.ru_stime


@dataclass
class Round:
    traced: bool
    wall_s: float
    cpu_s: float
    subprocesses: int
    llm_calls: int
    llm_chars: int
    pass_at_1: float
    trials: int
    failed: int
    digests: dict
    trial_faults: list = field(default_factory=list)
    faults: list = field(default_factory=list)  # faults of the round as a whole
    layer: dict = field(default_factory=dict)


class Runner:
    def __init__(self, workload, seed: int, out_dir: str) -> None:
        self.workload = workload
        self.seed = seed
        self.out_dir = out_dir
        self.counter = tracing.SpawnCounter()
        self.setups: list[Setup] = []
        self.time_set_up()
        config = self.setup.config
        self.config_json = config.to_json()
        self.problem_ids = [p.id for p in self.setup.benchmark.problems]
        self.testbenches = {}
        for pid in self.problem_ids:
            path = os.path.join(workloads.TOY_BENCH, pid, "testbench.v")
            with open(path, encoding="utf-8") as fh:
                self.testbenches[pid] = fh.read()
        self.expected_calls = oracle.expected_llm_calls(
            self._decider(), self.problem_ids, self.config_json, workload.run_functional
        )
        self.spans: list[tuple[int, tracing.Tracer]] = []

    def time_set_up(self) -> None:
        """Set up SETUP_REPS more times; the next round runs on the last."""
        self.setups += [set_up(self.workload, self.seed) for _ in range(SETUP_REPS)]
        self.setup = self.setups[-1]

    def _decider(self):
        """The response texts the workload's backend gives, for the call law."""
        if self.workload.rules_path:
            descriptions = {p.id: p.description for p in self.setup.benchmark.problems}
            rules = workloads.RulesDecider(self.workload.rules_path, descriptions)
            return rules.text
        generator = workloads.FreshMixGenerator(
            self.seed, self.setup.config, self.problem_ids, self.workload.run_functional
        )
        return lambda tag, _system: generator.text(tag)

    def close(self) -> None:
        self.counter.close()

    def run_round(self, index: int, traced: bool) -> Round:
        s = self.setup
        run_dir = os.path.join(self.out_dir, "round-%d" % index)
        os.makedirs(run_dir)
        counting = workloads.CountingBackend(s.backend)
        backend = verimoa.backends.TranscriptRecorder(
            counting, os.path.join(run_dir, "transcript.jsonl")
        )
        sim, checkers, tracer, hooks = s.sim, s.checkers, None, None
        if traced:
            tracer = tracing.Tracer()
            backend = tracing.TracedBackend(backend, tracer)
            sim = tracing.TracedSimulator(sim, tracer)
            checkers = {lang: tracing.TracedChecker(c, tracer) for lang, c in checkers.items()}
            hooks = tracing.Hooks(tracer)
            hooks.install()
            self.counter.tracer = tracer
        gc.collect()
        spawns, cpu, started = self.counter.count, _cpu_s(), time.perf_counter()
        try:
            verimoa.orchestrator.run_benchmark(
                s.benchmark, s.config, backend, sim, run_dir,
                jobs=workloads.JOBS, templates=s.templates, checkers=checkers,
                run_functional=self.workload.run_functional,
            )
            wall = time.perf_counter() - started
            cpu = _cpu_s() - cpu
            spawns = self.counter.count - spawns
        finally:
            if hooks is not None:
                hooks.restore()
                self.counter.tracer = None
        table, _ = verimoa.harness.pass_table(verimoa.harness.scan_run(run_dir), [1])
        result = Round(traced, wall, cpu, spawns, counting.calls, counting.chars,
                       table.per_k[1], 0, 0, {})
        self._check(run_dir, result)
        if traced:
            result.layer = tracing.layer_metrics(tracer, hooks.missing)
            result.layer["orchestrator.trace_bytes"] = sum(
                os.path.getsize(path)
                for _, _, path in oracle.trace_paths(run_dir, self.problem_ids, s.config.trials)
            )
            started = time.perf_counter()
            verimoa.harness.build_report(run_dir, [1])
            result.layer["harness.report_s"] = time.perf_counter() - started
            self.spans.append((index, tracer))
        shutil.rmtree(run_dir)
        return result

    def _check(self, run_dir: str, result: Round) -> None:
        passes: dict[str, list[bool]] = {}
        llm_events = 0
        for pid, trial, path in oracle.trace_paths(run_dir, self.problem_ids, self.setup.config.trials):
            result.trials += 1
            if not os.path.isfile(path):
                result.failed += 1
                result.trial_faults.append("%s/%d: no trace" % (pid, trial))
                passes.setdefault(pid, []).append(False)
                continue
            events = oracle.read_trace(path)
            llm_events += sum(e["event"] == "llm_call" for e in events)
            faults, passed = oracle.check_trial(
                events, self.testbenches[pid], self.setup.config.top_n_hdl,
                self.workload.run_functional,
            )
            if faults:
                result.failed += 1
                result.trial_faults.extend("%s/%d: %s" % (pid, trial, f) for f in faults)
            passes.setdefault(pid, []).append(passed)
            result.digests[(pid, trial)] = oracle.trace_digest(path)
        if not result.llm_calls == llm_events == self.expected_calls:
            result.faults.append(
                "LLM calls: backend %d, trace %d, generator law %d"
                % (result.llm_calls, llm_events, self.expected_calls)
            )
        recomputed = oracle.pass_at_1(passes)
        if abs(result.pass_at_1 - recomputed) > oracle.EPS:
            result.faults.append("pass@1 %r, oracle %r" % (result.pass_at_1, recomputed))

    def dump_spans(self, path: str) -> None:
        if os.path.exists(path):
            os.unlink(path)
        for index, tracer in self.spans:
            tracer.dump(path, round=index, workload=self.workload.name, seed=self.seed)


def measure(workload, seed: int, seconds: float, trace: bool, out_dir: str) -> tuple[list[Round], Runner]:
    runner = Runner(workload, seed, out_dir)
    rounds: list[Round] = []
    try:
        started = time.perf_counter()
        # Rounds come in pairs: the second of a pair is checked against the first.
        while not rounds or len(rounds) % 2 or time.perf_counter() - started < seconds:
            if rounds:
                runner.time_set_up()
            rounds.append(runner.run_round(len(rounds), traced=trace and len(rounds) % 2 == 1))
    finally:
        runner.close()
    return rounds, runner


def _median(values):
    values = [v for v in values if v is not None]
    return median(values) if values else None


def end_to_end(rounds: list[Round], runner: Runner) -> dict[str, float]:
    return {
        "wall_s": _median(r.wall_s for r in rounds),
        "cpu_s": _median(r.cpu_s for r in rounds),
        "subprocesses": _median(r.subprocesses for r in rounds),
        "llm_calls": _median(r.llm_calls for r in rounds),
        "llm_kchars": _median(r.llm_chars / 1000.0 for r in rounds),
        "pass_at_1": _median(r.pass_at_1 for r in rounds),
        "setup_s": _median(s.total_s for s in runner.setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def per_layer(rounds: list[Round], runner: Runner) -> dict[str, float | None]:
    traced = [r for r in rounds if r.traced]
    plain = [r for r in rounds if not r.traced]
    metrics = {name: _median(r.layer[name] for r in traced) for name in traced[0].layer}
    metrics["problems.load_s"] = _median(s.load_s for s in runner.setups)
    metrics["simulator.simcheck_s"] = _median(s.simcheck_s for s in runner.setups)
    metrics["trace_overhead_s"] = (
        _median(r.wall_s for r in traced) - _median(r.wall_s for r in plain)
    )
    return metrics


def temp_root(out_dir: str) -> str:
    """A directory under ``out_dir`` whose path is TEMP_ROOT_LEN characters long."""
    root = os.path.join(out_dir, "tmp")
    if len(root) > TEMP_ROOT_LEN:
        print("perfbench: checkout path too long to pad the temp root to %d characters;"
              " prompt sizes will differ from other checkouts'" % TEMP_ROOT_LEN, file=sys.stderr)
        return root
    return root + "_" * (TEMP_ROOT_LEN - len(root))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = [p for p in INPUTS if not os.path.isfile(os.path.join(REPO_ROOT, p))]
    if missing:
        print("perfbench: missing benchmark inputs %s" % ", ".join(missing), file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (choose from %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2
    e2e_units, layer_units = metric_units()

    out_dir = os.path.join(OUT_DIR, "run-%d" % os.getpid())
    # Simulator workspaces and checker sources are temp files; keep them in the checkout.
    tempfile.tempdir = temp_root(out_dir)
    os.makedirs(tempfile.tempdir)
    try:
        rounds, runner = measure(
            workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), out_dir
        )
    finally:
        tempfile.tempdir = None
        shutil.rmtree(out_dir, ignore_errors=True)

    # One reproducibility check per pair of rounds: the second round's
    # traces must equal the first's byte for byte.
    pairs = list(zip(rounds[0::2], rounds[1::2]))
    unrepeatable = [i for i, (first, second) in enumerate(pairs) if first.digests != second.digests]
    faults = [f for r in rounds for f in r.faults]
    for fault in faults + [f for r in rounds for f in r.trial_faults]:
        print("fault: %s" % fault, file=sys.stderr)
    for i in unrepeatable:
        first, second = pairs[i]
        differing = [k for k in second.digests if second.digests[k] != first.digests.get(k)]
        print("fault: round %d: %d trace.jsonl files differ from round %d's"
              % (2 * i + 1, len(differing), 2 * i), file=sys.stderr)

    if args.trace:
        values, units = per_layer(rounds, runner), layer_units
        os.makedirs(os.path.join(OUT_DIR, "spans"), exist_ok=True)
        runner.dump_spans(os.path.join(OUT_DIR, "spans", "%s-seed%d.jsonl" % (args.workload, args.seed)))
    else:
        values, units = end_to_end(rounds, runner), e2e_units
    if set(values) != set(units):
        raise RuntimeError("metrics %s do not match BENCHMARK.json" % sorted(set(values) ^ set(units)))

    print("workload %s  seed %d  rounds %d (%d traced)"
          % (args.workload, args.seed, len(rounds), sum(r.traced for r in rounds)))
    for i, r in enumerate(rounds):
        print("  round %d%s: wall %.3f s, cpu %.3f s, %d subprocesses, %d LLM calls"
              % (i, " traced" if r.traced else "", r.wall_s, r.cpu_s, r.subprocesses, r.llm_calls))
    for name in sorted(values):
        shown = "absent" if values[name] is None else "%.6g" % values[name]
        print("  %-32s %s %s" % (name, shown, units[name]))
    print(json.dumps({
        "correct": not faults,
        "attempted": sum(r.trials for r in rounds) + len(pairs),
        "failed": sum(r.failed for r in rounds) + len(unrepeatable),
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in sorted(values)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
