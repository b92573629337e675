"""Trial execution: layered agents, cache barriers, aggregation, tracing.

Within a trial, layers run strictly in sequence.  All agents of a layer
run concurrently against an immutable snapshot of the cache; their outputs
are evaluated inside the agent task, then inserted at the layer barrier in
slot order.  The trace file therefore has one canonical event order per
run, independent of thread scheduling, and carries no timing fields --
replay runs are byte-identical.

Each trial runs its layer_width slots on its own workers; the aggregator,
its refinement and the final evaluation run on the trial's own thread.
run_benchmark runs jobs x layer_width trials at once and gives each
resource its own ceiling: at most jobs x layer_width LLM requests in
flight (one gate in front of the backend), at most one simulator
evaluation per CPU (simulator.MAX_CONCURRENCY; an evaluation holds
its slot, and one pooled workspace, from compile through run), and no
ceiling of their own for the checkers.  A slot that waits for the
simulator holds no LLM seat.

Trial failures degrade, never abort the benchmark: a failing agent loses
its slot for that layer, and a trial whose cache is empty at aggregation
ends its trace, its only result, in trial_error and counts as a non-pass.
An AuthError is the exception: no later request can succeed, so it
cancels the queued trials and stops the run.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass

from . import __version__
from .agents import (
    AgentSpec,
    CheckerRecord,
    IntermediateChecker,
    PromptRecord,
    RefineRound,
    best_round,
    gated_evaluation,
    load_templates,
    run_aggregator,
    run_base_agent,
    run_twostage_agent,
    sim_refine,
    stub_checker,
)
from .backends import GatedBackend
from .cache import (
    AgentPath,
    CandidateId,
    GlobalCache,
    HdlCacheEntry,
    IntermediateLanguage,
    PATH_LANGUAGE,
)
from .errors import AuthError, VerimoaError
from .harness import vendi_score
from .memo import MemoChecker, MemoSimulator, VerdictMemo
from .problems import Benchmark, DesignProblem, RunConfig


class TraceWriter:
    """One JSONL trace per trial.  run_trial flushes it after trial_start,
    after each layer_stats and after aggregate, and close flushes the rest,
    so a running trial's finished bursts are on disk in whole lines."""

    def __init__(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self._fh = open(path, "w", encoding="utf-8")

    def write(self, event: dict) -> None:
        self._fh.write(json.dumps(event, sort_keys=True, ensure_ascii=True) + "\n")

    def flush(self) -> None:
        self._fh.flush()

    def close(self) -> None:
        self._fh.close()


@dataclass
class _SlotOutcome:
    slot: int
    path: AgentPath
    prompts: list[PromptRecord]
    checks: list[CheckerRecord]
    rounds: list[RefineRound]
    intermediate: str | None
    error: VerimoaError | None = None


def _llm_call_event(layer: int, slot: int, record: PromptRecord) -> dict:
    return {
        "event": "llm_call",
        "layer": layer,
        "slot": slot,
        "stage": record.stage,
        "request_tag": record.request_tag,
        "system_prompt": record.system_prompt,
        "user_prompt": record.user_prompt,
        "response_text": record.response_text,
        "extracted_source": record.extracted_source,
    }


def _stub_checkers(config: RunConfig) -> dict[IntermediateLanguage, IntermediateChecker]:
    return {
        lang: stub_checker(lang, config.max_stage1_refine_rounds)
        for lang in IntermediateLanguage
    }


def _run_slot(
    spec: AgentSpec,
    problem: DesignProblem,
    layer: int,
    hdl_refs,
    int_refs_by_language,
    backend,
    sim,
    config: RunConfig,
    checkers,
    tag_prefix: str,
    run_functional: bool,
    memo: VerdictMemo,
) -> _SlotOutcome:
    prompts: list[PromptRecord] = []
    checks: list[CheckerRecord] = []
    intermediate = None
    try:
        if spec.path is AgentPath.BASE:
            source, prompts = run_base_agent(
                spec, problem, hdl_refs, backend, layer, config.sampling, tag_prefix
            )
        else:
            language = PATH_LANGUAGE[spec.path]
            source, intermediate, prompts, checks = run_twostage_agent(
                spec,
                problem,
                hdl_refs,
                int_refs_by_language[language],
                backend,
                checkers[language],
                layer,
                config.sampling,
                tag_prefix,
            )
        max_rounds = (
            config.max_sim_refine_rounds if config.enable_sim_refinement else 0
        )
        rounds, refine_prompts = sim_refine(
            source,
            problem,
            sim,
            backend,
            config.score_constants,
            spec.templates,
            config.sampling,
            max_rounds,
            tag_prefix,
            run_functional,
            memo=memo,
        )
        prompts.extend(refine_prompts)
        return _SlotOutcome(spec.slot, spec.path, prompts, checks, rounds, intermediate)
    except AuthError:
        raise
    except VerimoaError as exc:
        return _SlotOutcome(
            spec.slot, spec.path, prompts, checks, [], intermediate, error=exc
        )


def run_trial(
    problem: DesignProblem,
    config: RunConfig,
    backend,
    sim,
    seed: int,
    trial_index: int,
    trace_path: str,
    templates: dict[str, dict[str, str]] | None = None,
    checkers: dict[IntermediateLanguage, IntermediateChecker] | None = None,
    run_functional: bool = True,
    memo: VerdictMemo | None = None,
) -> None:
    """One full pipeline episode for one problem.  Its trace ends in
    trial_result, or in trial_error (a non-pass) when no candidate survives
    to aggregation; nothing is returned.  Structural facts are kept in memo
    (run_benchmark's, else the trial's own), Vendi profiles per trial.

    The slots of each layer run on the trial's own pool of layer_width
    workers; this thread writes the trace in slot order at each barrier,
    so the trace order does not depend on which worker ran what.
    """
    config.validate()
    templates = templates or load_templates()
    if checkers is None:
        checkers = _stub_checkers(config)
    memo = VerdictMemo() if memo is None else memo
    similarity: dict = {}

    specs = [
        AgentSpec(path=path, slot=slot, templates=templates[path.value])
        for slot, path in enumerate(config.mixture_paths(), start=1)
    ]
    cache = GlobalCache()
    pool = ThreadPoolExecutor(max_workers=config.layer_width)
    writer = TraceWriter(trace_path)
    per_layer: list[dict] = []
    window: list[HdlCacheEntry] = []  # the TopN the next layer sees
    try:
        writer.write(
            {
                "event": "trial_start",
                "problem": problem.id,
                "trial": trial_index,
                "seed": seed,
            }
        )
        writer.flush()
        for layer in range(1, config.proposer_layers + 1):
            int_refs_by_language = {
                lang: cache.top_k_intermediate(lang, layer, config.top_k_intermediate)
                for lang in IntermediateLanguage
            }
            futures = [
                pool.submit(
                    _run_slot,
                    spec,
                    problem,
                    layer,
                    window,
                    int_refs_by_language,
                    backend,
                    sim,
                    config,
                    checkers,
                    "%s/t%d/L%d/S%d" % (problem.id, trial_index, layer, spec.slot),
                    run_functional,
                    memo,
                )
                for spec in specs
            ]
            # barrier: every slot done, then insertion in slot order
            outcomes = [f.result() for f in futures]
            for outcome in outcomes:
                for record in outcome.prompts:
                    writer.write(_llm_call_event(layer, outcome.slot, record))
                for check in outcome.checks:
                    writer.write(
                        {
                            "event": "checker",
                            "layer": layer,
                            "slot": outcome.slot,
                            "round": check.round_index,
                            "status": check.status,
                            "diagnostics": check.diagnostics,
                        }
                    )
                if outcome.error is not None:
                    writer.write(
                        {
                            "event": "agent_error",
                            "layer": layer,
                            "slot": outcome.slot,
                            "error_code": outcome.error.error_code,
                            "message": str(outcome.error),
                        }
                    )
                    continue
                for rnd in outcome.rounds:
                    cid = CandidateId(layer, outcome.slot, outcome.path, rnd.round_index)
                    # a stage-1 model rides on its round-0 HDL, and takes its score
                    intermediate = outcome.intermediate if rnd.round_index == 0 else None
                    cache.insert_hdl(HdlCacheEntry(cid, rnd.source, rnd.score, intermediate))
                    writer.write(
                        {
                            "event": "cache_insert",
                            "kind": "hdl",
                            "id": cid.to_json(),
                            "source": rnd.source,
                            "score": rnd.score.to_json(),
                        }
                    )
                    if intermediate is not None:
                        writer.write(
                            {
                                "event": "cache_insert",
                                "kind": "intermediate",
                                "id": cid.to_json(),
                                "language": PATH_LANGUAGE[outcome.path].value,
                                "source": intermediate,
                                "score": rnd.score.value,
                            }
                        )
            window = cache.top_n_hdl(layer + 1, config.top_n_hdl)
            per_layer.append(_layer_stats(window, layer, writer, similarity))
            writer.flush()

        agg_layer = config.proposer_layers + 1
        if not window:
            writer.write({"event": "trial_error", "error_code": "pipeline_failure",
                          "message": "no scorable candidates reached aggregation"})
            return
        agg_tag = "%s/t%d/L%d/S1" % (problem.id, trial_index, agg_layer)
        source, agg_prompts, fallback = run_aggregator(
            problem, window, backend, templates["aggregator"], config.sampling, agg_tag
        )
        for record in agg_prompts:
            writer.write(_llm_call_event(agg_layer, 1, record))
        writer.write(
            {
                "event": "aggregate",
                "layer": agg_layer,
                "refs": [e.id.to_json() for e in window],
                "fallback": fallback,
                "source": source,
            }
        )
        writer.flush()

        # With no rounds to run, one evaluation under the functional gate is
        # final; a compile-only loop's chosen round is evaluated again.
        max_rounds = config.max_sim_refine_rounds if config.enable_sim_refinement else 0
        functional_gate = run_functional or max_rounds == 0
        rounds, refine_prompts = sim_refine(
            source,
            problem,
            sim,
            backend,
            config.score_constants,
            templates["aggregator"],
            config.sampling,
            max_rounds,
            agg_tag,
            functional_gate,
            memo=memo,
        )
        for record in refine_prompts:
            writer.write(_llm_call_event(agg_layer, 1, record))
        chosen = best_round(rounds)
        final_score = chosen.score
        if not functional_gate:
            final_score, _ = gated_evaluation(
                chosen.source, problem, sim, config.score_constants, True, memo
            )
        writer.write(
            {
                "event": "trial_result",
                "problem": problem.id,
                "trial": trial_index,
                "final_source": chosen.source,
                "syntax_pass": final_score.syntax_pass,
                "functional_pass": final_score.functional_pass,
                "candidate_count": len(cache),
                "per_layer_stats": per_layer,
            }
        )
    finally:
        writer.close()
        pool.shutdown()


def _layer_stats(
    window: list[HdlCacheEntry], layer: int, writer: TraceWriter, similarity: dict
) -> dict:
    """Write the layer_stats event of the TopN window the next layer sees;
    returns its {layer, min_top_n, mean_top_n, vendi_top_n}, all None when
    the window is empty.  similarity is the trial's known for pairwise_similarity."""
    stats = {"layer": layer, "min_top_n": None, "mean_top_n": None, "vendi_top_n": None}
    values = [e.score.value for e in window]
    if window:
        stats["min_top_n"], stats["mean_top_n"] = min(values), statistics.fmean(values)
        stats["vendi_top_n"] = vendi_score([e.source for e in window], similarity)
    writer.write(
        {
            "event": "layer_stats",
            **stats,
            "window": [e.id.to_json() for e in window],
            "window_values": values,
        }
    )
    return stats


def write_manifest(
    run_dir: str, benchmark: Benchmark, config: RunConfig, backend_id: str
) -> None:
    os.makedirs(run_dir, exist_ok=True)
    manifest = {
        "benchmark": benchmark.name,
        "problems": [p.id for p in benchmark.problems],
        "config": config.to_json(),
        "seeds": [config.random_seed + t for t in range(config.trials)],
        "backend": backend_id,
        "versions": {
            "package": __version__,
            "python": "%d.%d.%d" % sys.version_info[:3],
        },
    }
    with open(os.path.join(run_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")


def llm_seats(jobs: int, config: RunConfig) -> int:
    """The most LLM requests run_benchmark keeps in flight: jobs x layer_width."""
    return max(1, jobs) * config.layer_width


def run_benchmark(
    benchmark: Benchmark,
    config: RunConfig,
    backend,
    sim,
    run_dir: str,
    jobs: int = 4,
    templates: dict[str, dict[str, str]] | None = None,
    checkers: dict[IntermediateLanguage, IntermediateChecker] | None = None,
    run_functional: bool = True,
) -> None:
    """trials x problems, concurrently, one trace file per trial.

    Up to jobs x layer_width trials run at once, each with its own slot
    workers.  The backend is put behind one gate of jobs x layer_width
    seats, the most LLM requests in flight across all trials; the
    simulator keeps its own gate of one evaluation per CPU, and the checkers
    have no ceiling of their own.  The simulator and the checkers are put
    behind one VerdictMemo for this call, which also keeps structural facts,
    so each distinct candidate is evaluated and analysed once per run.
    Nothing is returned: a trial without candidates ends its trace in
    trial_error, a non-pass.  The first error a trial raises (an AuthError,
    say) cancels the queued trials and is re-raised.
    """
    benchmark.validate()
    config.validate()
    templates = templates or load_templates()
    if checkers is None:
        checkers = _stub_checkers(config)
    width = llm_seats(jobs, config)
    backend = GatedBackend(backend, width)
    memo = VerdictMemo()
    sim = MemoSimulator(sim, memo)
    checkers = {lang: MemoChecker(c, memo) for lang, c in checkers.items()}
    write_manifest(run_dir, benchmark, config, backend.backend_id)

    with ThreadPoolExecutor(max_workers=width) as trials:
        futures = [
            trials.submit(
                run_trial,
                problem,
                config,
                backend,
                sim,
                seed=config.random_seed + trial,
                trial_index=trial,
                trace_path=os.path.join(run_dir, problem.id, str(trial), "trace.jsonl"),
                templates=templates,
                checkers=checkers,
                run_functional=run_functional,
                memo=memo,
            )
            for problem in benchmark.problems
            for trial in range(config.trials)
        ]
        done, _ = wait(futures, return_when=FIRST_EXCEPTION)
        failed = [f for f in futures if f in done and f.exception() is not None]
        if failed:
            trials.shutdown(wait=False, cancel_futures=True)
            raise failed[0].exception()
