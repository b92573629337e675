"""Trial execution: layered agents, cache barriers, aggregation, tracing.

Every trial and slot is handed its run's one Run.  Within a trial, layers
run strictly in sequence.  All agents of a layer run concurrently against
an immutable snapshot of the cache; each slot asks the LLM through its own
agents.Caller, which keeps its answered calls and checks, evaluates its
outputs and hands back its trace events, read from that Caller, and cache
entries, which the layer barrier writes and inserts in slot order.  The
trace has one canonical event order per run, independent of thread
scheduling, and no timing fields -- replay runs are byte-identical.

Each trial runs its layer_width slots on its own workers; the aggregator,
its refinement and the final evaluation run on the trial's own thread.
run_benchmark runs jobs x layer_width trials at once and gives each
resource its own ceiling: at most jobs x layer_width LLM requests in
flight (one gate in front of the backend), at most one simulator
evaluation per CPU (simulator.MAX_CONCURRENCY; an evaluation holds
its slot, and one pooled workspace, from compile through run), and no
ceiling of their own for the checkers.  A slot that waits for the
simulator holds no LLM seat.  All trials of a run share its one memo
(Run.memo), so a candidate that comes back is not evaluated or checked again.

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
    Caller,
    IntermediateChecker,
    PromptRecord,
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
from .errors import AuthError, InvariantViolationError, VerimoaError
from .harness import trace_path, vendi_score
from .memo import VerdictMemo
from .problems import Benchmark, DesignProblem, RunConfig, to_json


@dataclass(frozen=True)
class Run:
    """What every trial and slot of one run_benchmark call shares."""

    config: RunConfig
    backend: GatedBackend
    sim: object
    templates: dict[str, dict[str, str]]
    checkers: dict[IntermediateLanguage, IntermediateChecker]
    memo: VerdictMemo
    run_functional: bool


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


def _llm_call_event(layer: int, slot: int, record: PromptRecord) -> dict:
    return {"event": "llm_call", "layer": layer, "slot": slot, **vars(record)}


def _run_slot(
    run: Run, spec: AgentSpec, problem: DesignProblem, layer: int, hdl_refs,
    int_refs_by_language, tag_prefix: str,
) -> tuple[list[dict], list[HdlCacheEntry]]:
    """One agent slot of one layer, against the cache snapshot it is given.

    Returns (events, entries).  events are the slot's finished trace events
    in the order the barrier writes them: its answered llm_calls and its
    checker runs, both read from the slot's Caller, then either agent_error
    or, for each round, a cache_insert of its HDL followed, when the round
    carries a stage-1 model, by a cache_insert of that model.  entries are
    the rounds' HdlCacheEntry, for the barrier to insert.  A failed slot
    keeps the calls and checks it paid for and returns no entries; an
    AuthError propagates.
    """
    caller = Caller(run.backend, run.config.sampling, tag_prefix)
    intermediate, rounds, failure = None, [], []
    try:
        if spec.path is AgentPath.BASE:
            source = run_base_agent(spec, problem, hdl_refs, layer, caller)
        else:
            language = PATH_LANGUAGE[spec.path]
            source, intermediate = run_twostage_agent(
                spec,
                problem,
                hdl_refs,
                int_refs_by_language[language],
                run.checkers[language],
                layer,
                caller,
                memo=run.memo,
            )
        rounds = sim_refine(
            source,
            problem,
            run.sim,
            run.config.score_constants,
            spec.templates,
            run.config.sim_refine_rounds,
            caller,
            run.run_functional,
            memo=run.memo,
        )
    except AuthError:
        raise
    except VerimoaError as exc:
        failure = [{"event": "agent_error", "layer": layer, "slot": spec.slot,
                    "error_code": exc.error_code, "message": str(exc)}]
    events = [_llm_call_event(layer, spec.slot, record) for record in caller.prompts]
    events += [{"event": "checker", "layer": layer, "slot": spec.slot, **vars(check)}
               for check in caller.checks] + failure
    entries = []
    for rnd in rounds:
        # a stage-1 model rides on its round-0 HDL, and takes its score
        model = None if rnd.round_index else intermediate
        cid = CandidateId(layer, spec.slot, spec.path, rnd.round_index)
        entries.append(HdlCacheEntry(cid, rnd.source, rnd.score, model))
        events.append({"event": "cache_insert", "kind": "hdl", "id": to_json(cid),
                       "source": rnd.source, "score": to_json(rnd.score)})
        if model is not None:
            events.append({"event": "cache_insert", "kind": "intermediate",
                           "id": to_json(cid), "language": PATH_LANGUAGE[spec.path].value,
                           "source": model, "score": rnd.score.value})
    return events, entries


def run_trial(run: Run, problem: DesignProblem, trial_index: int, trace_path: str) -> None:
    """One full pipeline episode for one problem, under config.trial_seed.
    Its trace ends in trial_result, or in trial_error (a non-pass) when no
    candidate survives to aggregation; nothing is returned. Every lookup
    goes through run.memo; Vendi profiles are kept per trial.

    The slots of each layer run on the trial's own pool of layer_width
    workers; each returns its finished trace events and cache entries, and
    this thread writes and inserts them in slot order at each barrier, so
    the trace order does not depend on which worker ran what.
    """
    config, similarity = run.config, {}

    specs = [
        AgentSpec(path=path, slot=slot, templates=run.templates[path.value])
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
                "seed": config.trial_seed(trial_index),
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
                    run,
                    spec,
                    problem,
                    layer,
                    window,
                    int_refs_by_language,
                    "%s/t%d/L%d/S%d" % (problem.id, trial_index, layer, spec.slot),
                )
                for spec in specs
            ]
            # barrier: every slot done, then its events and entries in slot order
            for events, entries in [f.result() for f in futures]:
                for event in events:
                    writer.write(event)
                for entry in entries:
                    cache.insert_hdl(entry)
            window = cache.top_n_hdl(layer + 1, config.top_n_hdl)
            per_layer.append(_layer_stats(window, layer, writer, similarity))
            writer.flush()

        agg_layer = config.proposer_layers + 1
        if not window:
            writer.write({"event": "trial_error", "error_code": "pipeline_failure",
                          "message": "no scorable candidates reached aggregation"})
            return
        caller = Caller(
            run.backend, config.sampling, "%s/t%d/L%d/S1" % (problem.id, trial_index, agg_layer)
        )
        source, fallback = run_aggregator(problem, window, run.templates["aggregator"], caller)
        for record in caller.prompts:
            writer.write(_llm_call_event(agg_layer, 1, record))
        writer.write(
            {
                "event": "aggregate",
                "layer": agg_layer,
                "refs": [to_json(e.id) for e in window],
                "fallback": fallback,
                "source": source,
            }
        )
        writer.flush()

        # With no rounds to run, one evaluation under the functional gate is
        # final; a compile-only loop's chosen round is evaluated again.
        functional_gate = run.run_functional or config.sim_refine_rounds == 0
        written = len(caller.prompts)
        rounds = sim_refine(
            source,
            problem,
            run.sim,
            config.score_constants,
            run.templates["aggregator"],
            config.sim_refine_rounds,
            caller,
            functional_gate,
            memo=run.memo,
        )
        for record in caller.prompts[written:]:
            writer.write(_llm_call_event(agg_layer, 1, record))
        chosen = best_round(rounds)
        final_score = chosen.score
        if not functional_gate:
            final_score, _ = gated_evaluation(
                chosen.source, problem, run.sim, config.score_constants, True, run.memo
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
            "window": [to_json(e.id) for e in window],
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
        "seeds": [config.trial_seed(t) for t in range(config.trials)],
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
    if jobs < 1:
        raise InvariantViolationError("jobs must be >= 1, got %d" % jobs)
    return jobs * config.layer_width


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
    seats, the most LLM requests in flight across all trials, which stops
    sending once that many in a row found the backend exhausted; the
    simulator keeps its own gate of one evaluation per CPU, and the checkers
    have no ceiling of their own.  A language missing from checkers gets
    the stub checker.  Every trial and slot gets the call's one Run, whose
    memo every gate, check and fact lookup uses, so sim and checkers see only
    its misses: each distinct candidate is evaluated and analysed once per run.
    Nothing is returned: a trial without candidates ends its trace in
    trial_error, a non-pass.  The first error a trial raises (an AuthError,
    say) cancels the queued trials and is re-raised.
    """
    width = llm_seats(jobs, config)
    given, rounds = checkers or {}, config.max_stage1_refine_rounds
    run = Run(
        config=config,
        backend=GatedBackend(backend, width),
        sim=sim,
        templates=templates or load_templates(),
        checkers={lang: given.get(lang) or stub_checker(lang, rounds)
                  for lang in IntermediateLanguage},
        memo=VerdictMemo(),
        run_functional=run_functional,
    )
    write_manifest(run_dir, benchmark, config, run.backend.backend_id)

    with ThreadPoolExecutor(max_workers=width) as trials:
        futures = [
            trials.submit(
                run_trial,
                run,
                problem,
                trial,
                trace_path(run_dir, problem.id, trial),
            )
            for problem in benchmark.problems
            for trial in range(config.trials)
        ]
        done, _ = wait(futures, return_when=FIRST_EXCEPTION)
        failed = [f for f in futures if f in done and f.exception() is not None]
        if failed:
            trials.shutdown(wait=False, cancel_futures=True)
            raise failed[0].exception()
