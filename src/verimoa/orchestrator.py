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
flight (one gate in front of the backend), at most one simulator spawn
per CPU (SimulatorConfig.max_concurrency), and no ceiling of their own
for the checkers.  A slot that waits for the simulator holds no LLM seat.

Trial failures degrade, never abort the benchmark: a failing agent loses
its slot for that layer, an empty cache at aggregation fails the trial,
and a failed trial counts as a non-pass.  An AuthError is the exception:
no later request can succeed, so it cancels the queued trials and stops
the run.
"""

from __future__ import annotations

import json
import os
import sys
import time
from concurrent.futures import FIRST_EXCEPTION, ThreadPoolExecutor, wait
from dataclasses import dataclass

from . import __version__
from .agents import (
    AgentSpec,
    CheckerRecord,
    IntermediateChecker,
    PromptRecord,
    RefineRound,
    assign_intermediate_score,
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
from .errors import AuthError, EmptyWindowError, PipelineFailureError, VerimoaError
from .harness import vendi_score
from .memo import MemoChecker, MemoSimulator, VerdictMemo
from .problems import Benchmark, DesignProblem, RunConfig
from .scoring import QualityScore


@dataclass(frozen=True)
class LayerStats:
    layer: int
    min_top_n: float | None
    mean_top_n: float | None
    vendi_top_n: float | None


@dataclass(frozen=True)
class TrialResult:
    problem_id: str
    trial_index: int
    final_source: str
    final_verdicts: tuple[bool, bool]  # (syntax, functional)
    per_layer_stats: tuple[LayerStats, ...]
    candidate_count: int
    wall_ms: int


class TraceWriter:
    """One JSONL trace per trial, flushed per event for partial-run analysis."""

    def __init__(self, path: str) -> None:
        os.makedirs(os.path.dirname(path), exist_ok=True)
        self._fh = open(path, "w", encoding="utf-8")

    def write(self, event: dict) -> None:
        self._fh.write(json.dumps(event, sort_keys=True, ensure_ascii=True))
        self._fh.write("\n")
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
    stage1_rounds_used: int
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
) -> _SlotOutcome:
    prompts: list[PromptRecord] = []
    checks: list[CheckerRecord] = []
    intermediate = None
    stage1_rounds = 0
    try:
        if spec.path is AgentPath.BASE:
            source, prompts = run_base_agent(
                spec, problem, hdl_refs, backend, layer, config.sampling, tag_prefix
            )
        else:
            language = PATH_LANGUAGE[spec.path]
            source, intermediate, stage1_rounds, prompts, checks = run_twostage_agent(
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
        )
        prompts.extend(refine_prompts)
        return _SlotOutcome(
            spec.slot, spec.path, prompts, checks, rounds, intermediate, stage1_rounds
        )
    except AuthError:
        raise
    except VerimoaError as exc:
        return _SlotOutcome(
            spec.slot, spec.path, prompts, checks, [], intermediate,
            stage1_rounds, error=exc,
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
) -> TrialResult:
    """One full pipeline episode for one problem. Raises PipelineFailure
    when no candidate survives to aggregation.

    The slots of each layer run on the trial's own pool of layer_width
    workers; this thread writes the trace in slot order at each barrier,
    so the trace order does not depend on which worker ran what.
    """
    config.validate()
    started = time.monotonic()
    templates = templates or load_templates()
    if checkers is None:
        checkers = _stub_checkers(config)

    specs = [
        AgentSpec(path=path, slot=slot, templates=templates[path.value])
        for slot, path in enumerate(config.mixture_paths(), start=1)
    ]
    cache = GlobalCache()
    pool = ThreadPoolExecutor(max_workers=config.layer_width)
    writer = TraceWriter(trace_path)
    per_layer: list[LayerStats] = []
    try:
        writer.write(
            {
                "event": "trial_start",
                "problem": problem.id,
                "trial": trial_index,
                "seed": seed,
            }
        )
        for layer in range(1, config.proposer_layers + 1):
            hdl_refs = cache.top_n_hdl(layer, config.top_n_hdl)
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
                    hdl_refs,
                    int_refs_by_language,
                    backend,
                    sim,
                    config,
                    checkers,
                    "%s/t%d/L%d/S%d" % (problem.id, trial_index, layer, spec.slot),
                    run_functional,
                )
                for spec in specs
            ]
            outcomes = [f.result() for f in futures]
            # barrier: canonical slot order, then batch insertion
            outcomes.sort(key=lambda o: o.slot)
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
                    cache.insert_hdl(HdlCacheEntry(cid, rnd.source, rnd.score))
                    writer.write(
                        {
                            "event": "cache_insert",
                            "kind": "hdl",
                            "id": cid.to_json(),
                            "source": rnd.source,
                            "score": rnd.score.to_json(),
                        }
                    )
                    if rnd.round_index == 0 and outcome.intermediate is not None:
                        language = PATH_LANGUAGE[outcome.path]
                        entry = assign_intermediate_score(
                            cid, language, outcome.intermediate, rnd.score
                        )
                        cache.insert_intermediate(entry)
                        writer.write(
                            {
                                "event": "cache_insert",
                                "kind": "intermediate",
                                "id": cid.to_json(),
                                "language": language.value,
                                "source": entry.source,
                                "score": entry.score,
                            }
                        )
            per_layer.append(_layer_stats(cache, layer, config.top_n_hdl, writer))

        agg_layer = config.proposer_layers + 1
        refs = cache.top_n_hdl(agg_layer, config.top_n_hdl)
        if not refs:
            writer.write({"event": "trial_error", "error_code": "pipeline_failure",
                          "message": "no scorable candidates reached aggregation"})
            raise PipelineFailureError(
                "%s trial %d: no scorable candidates reached aggregation"
                % (problem.id, trial_index)
            )
        agg_tag = "%s/t%d/L%d/S1" % (problem.id, trial_index, agg_layer)
        source, agg_prompts, fallback = run_aggregator(
            problem, refs, backend, templates["aggregator"], config.sampling, agg_tag
        )
        for record in agg_prompts:
            writer.write(_llm_call_event(agg_layer, 1, record))
        writer.write(
            {
                "event": "aggregate",
                "layer": agg_layer,
                "refs": [e.id.to_json() for e in refs],
                "fallback": fallback,
                "source": source,
            }
        )

        if config.enable_sim_refinement and config.max_sim_refine_rounds > 0:
            rounds, refine_prompts = sim_refine(
                source,
                problem,
                sim,
                backend,
                config.score_constants,
                templates["aggregator"],
                config.sampling,
                config.max_sim_refine_rounds,
                agg_tag,
                run_functional,
            )
            for record in refine_prompts:
                writer.write(_llm_call_event(agg_layer, 1, record))
            chosen = best_round(rounds)
            final_source = chosen.source
            final_score: QualityScore = chosen.score
            if not run_functional:
                final_score, _ = gated_evaluation(
                    final_source, problem, sim, config.score_constants, True
                )
        else:
            final_source = source
            final_score, _ = gated_evaluation(
                final_source, problem, sim, config.score_constants, True
            )

        result = TrialResult(
            problem_id=problem.id,
            trial_index=trial_index,
            final_source=final_source,
            final_verdicts=(final_score.syntax_pass, final_score.functional_pass),
            per_layer_stats=tuple(per_layer),
            candidate_count=len(cache),
            wall_ms=int((time.monotonic() - started) * 1000),
        )
        writer.write(
            {
                "event": "trial_result",
                "problem": problem.id,
                "trial": trial_index,
                "final_source": final_source,
                "syntax_pass": result.final_verdicts[0],
                "functional_pass": result.final_verdicts[1],
                "candidate_count": result.candidate_count,
                "per_layer_stats": [
                    {
                        "layer": s.layer,
                        "min_top_n": s.min_top_n,
                        "mean_top_n": s.mean_top_n,
                        "vendi_top_n": s.vendi_top_n,
                    }
                    for s in per_layer
                ],
            }
        )
        return result
    finally:
        writer.close()
        pool.shutdown()


def _layer_stats(
    cache: GlobalCache, layer: int, n: int, writer: TraceWriter
) -> LayerStats:
    try:
        minimum, mean = cache.layer_quality_stats(layer, n)
    except EmptyWindowError:
        stats = LayerStats(layer, None, None, None)
        writer.write(
            {
                "event": "layer_stats",
                "layer": layer,
                "min_top_n": None,
                "mean_top_n": None,
                "vendi_top_n": None,
                "window": [],
                "window_values": [],
            }
        )
        return stats
    window = cache.top_n_hdl(layer + 1, n)
    vendi = vendi_score([e.source for e in window])
    stats = LayerStats(layer, minimum, mean, vendi)
    writer.write(
        {
            "event": "layer_stats",
            "layer": layer,
            "min_top_n": minimum,
            "mean_top_n": mean,
            "vendi_top_n": vendi,
            "window": [e.id.to_json() for e in window],
            "window_values": [e.score.value for e in window],
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
) -> list[TrialResult]:
    """trials x problems, concurrently, one trace file per trial.

    Up to jobs x layer_width trials run at once, each with its own slot
    workers.  The backend is put behind one gate of jobs x layer_width
    seats, the most LLM requests in flight across all trials; the
    simulator keeps its own gate of one spawn per CPU, and the checkers
    have no ceiling of their own.  The simulator and the checkers are put
    behind one VerdictMemo for this call, so each distinct candidate is
    evaluated once per run.  The first error a trial raises (an AuthError,
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

    def one(problem: DesignProblem, trial: int) -> TrialResult:
        trace_path = os.path.join(run_dir, problem.id, str(trial), "trace.jsonl")
        try:
            return run_trial(
                problem,
                config,
                backend,
                sim,
                seed=config.random_seed + trial,
                trial_index=trial,
                trace_path=trace_path,
                templates=templates,
                checkers=checkers,
                run_functional=run_functional,
            )
        except PipelineFailureError:
            # the trial is lost, not the run; scored as a non-pass
            return TrialResult(
                problem_id=problem.id,
                trial_index=trial,
                final_source="",
                final_verdicts=(False, False),
                per_layer_stats=(),
                candidate_count=0,
                wall_ms=0,
            )

    with ThreadPoolExecutor(max_workers=width) as trials:
        futures = [
            trials.submit(one, problem, trial)
            for problem in benchmark.problems
            for trial in range(config.trials)
        ]
        done, _ = wait(futures, return_when=FIRST_EXCEPTION)
        failed = [f for f in futures if f in done and f.exception() is not None]
        if failed:
            trials.shutdown(wait=False, cancel_futures=True)
            raise failed[0].exception()
        return [f.result() for f in futures]
