"""Correctness oracle, computed apart from the program.

Nothing here imports ``verimoa``.  Verdicts come from the bundled stub
simulator's documented magic-substring rule, score bands from the README's
default score constants, TopN windows from the cache's documented ranking,
and the expected LLM call count from the generator's own decisions.
"""

from __future__ import annotations

import hashlib
import json
import os
from statistics import fmean

# Default ScoreConstants: perfect is 1.0; a functional failure scores
# q_base minus capped penalties, so within [0.8 - 0.30 - 0.15 - 0.05, 0.8];
# a syntax failure earns at most 0.999 * (0.15 + 0.10 + 0.05).
Q_PERFECT = 1.0
FUNCTIONAL_FAIL_BAND = (0.30, 0.80)
SYNTAX_FAIL_CEILING = 0.999 * 0.30
EPS = 1e-9

BRANCH_OF = {
    (True, True): "perfect",
    (True, False): "functional_fail",
    (False, False): "syntax_fail",
}


def stub_verdict(source: str, testbench: str, run_functional: bool = True) -> tuple[bool, bool]:
    """(syntax_pass, functional_pass) the stub simulator must report."""
    if "SYNTAXERR" in source:
        return False, False
    if not run_functional:
        return True, False
    blob = source + "\n" + testbench
    if "SYNTAXERR" in testbench or "FUNCFAIL" in blob or "MARKER_BUT_FAIL" in blob:
        return True, False
    return True, True


def _in_band(branch: str, value: float) -> bool:
    if branch == "perfect":
        return abs(value - Q_PERFECT) <= EPS
    if branch == "functional_fail":
        return FUNCTIONAL_FAIL_BAND[0] - EPS <= value <= FUNCTIONAL_FAIL_BAND[1] + EPS
    return -EPS <= value <= SYNTAX_FAIL_CEILING + EPS


def _rank_key(insert: dict):
    # Highest score first; ties prefer later layers, lower slots, later rounds.
    cid = insert["id"]
    return (-insert["score"]["value"], -cid["layer"], cid["slot"], -cid["refine_round"], cid["path"])


def check_trial(events: list[dict], testbench: str, top_n: int,
                run_functional: bool) -> tuple[list[str], bool]:
    """Faults found in one trial's trace, and the oracle's final verdict."""
    faults: list[str] = []
    hdl_inserts: list[dict] = []
    results = []
    for event in events:
        kind = event["event"]
        if kind in ("agent_error", "trial_error"):
            faults.append("%s: %s" % (kind, event.get("message", "")))
        elif kind == "trial_result":
            results.append(event)
        elif kind == "cache_insert" and event["kind"] == "hdl":
            score = event["score"]
            verdict = stub_verdict(event["source"], testbench, run_functional)
            if score["branch"] != BRANCH_OF[verdict]:
                faults.append("insert %s: branch %s, expected %s"
                              % (event["id"], score["branch"], BRANCH_OF[verdict]))
            if (score["syntax_pass"], score["functional_pass"]) != verdict:
                faults.append("insert %s: verdict flags disagree" % (event["id"],))
            if not _in_band(score["branch"], score["value"]):
                faults.append("insert %s: value %r outside the %s band"
                              % (event["id"], score["value"], score["branch"]))
            hdl_inserts.append(event)
        elif kind == "cache_insert":
            parent = [e for e in hdl_inserts if e["id"] == event["id"]]
            if not parent or parent[-1]["score"]["value"] != event["score"]:
                faults.append("intermediate %s does not inherit its HDL score" % (event["id"],))
        elif kind == "layer_stats":
            faults.extend(_check_window(event, hdl_inserts, top_n))

    by_branch: dict[str, list[float]] = {}
    for e in hdl_inserts:
        by_branch.setdefault(e["score"]["branch"], []).append(e["score"]["value"])
    ordered = [by_branch[b] for b in ("perfect", "functional_fail", "syntax_fail") if b in by_branch]
    for higher, lower in zip(ordered, ordered[1:]):
        if min(higher) <= max(lower):
            faults.append("score branches overlap")

    if len(results) != 1:
        faults.append("expected one trial_result, found %d" % len(results))
        return faults, False
    result = results[0]
    verdict = stub_verdict(result["final_source"], testbench, True)
    if (result["syntax_pass"], result["functional_pass"]) != verdict:
        faults.append("final verdict %s, expected %s"
                      % ((result["syntax_pass"], result["functional_pass"]), verdict))
    return faults, verdict == (True, True)


def _check_window(event: dict, hdl_inserts: list[dict], top_n: int) -> list[str]:
    layer = event["layer"]
    pool = sorted((e for e in hdl_inserts if e["id"]["layer"] <= layer), key=_rank_key)
    window = pool[:top_n]
    faults = []
    if event["window"] != [e["id"] for e in window]:
        faults.append("layer %d window differs from the recomputed TopN" % layer)
    values = [e["score"]["value"] for e in window]
    if event["window_values"] != values:
        faults.append("layer %d window values differ" % layer)
    if not values:
        if event["min_top_n"] is not None:
            faults.append("layer %d: empty window with a minimum" % layer)
    elif event["min_top_n"] != min(values) or abs(event["mean_top_n"] - fmean(values)) > EPS:
        faults.append("layer %d min/mean differ from the window" % layer)
    return faults


def read_trace(path: str) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def trace_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def pass_at_1(passes: dict[str, list[bool]]) -> float:
    """Unbiased pass@1 is c/n per problem, averaged over problems."""
    return fmean(sum(flags) / len(flags) for flags in passes.values())


SYSTEM_LABEL = {"Cpp": "C++ programmer", "Py": "Python programmer"}
HDL_LABEL = "hardware engineer"


def expected_llm_calls(text_for, problem_ids, config: dict, run_functional: bool) -> int:
    """LLM calls implied by the responses the workload's backend will give.

    ``text_for(tag, system_label)`` returns the response text for a tag.
    A two-stage slot makes one extra stage-1 call when its draft fails the
    checker; a slot, and the aggregator, make one refinement call when
    their draft is not perfect in the loop.  Holds for at most one round
    of each kind of refinement.
    """
    layers = config["proposer_layers"]
    trials = config["trials"]
    mixture = config["mixture"]
    refine = config["enable_sim_refinement"] and config["max_sim_refine_rounds"] > 0
    stage1_rounds = config["max_stage1_refine_rounds"]
    if config["max_sim_refine_rounds"] > 1 or stage1_rounds > 1:
        raise ValueError("the call law covers one refinement round of each kind")

    def perfect_in_loop(text: str) -> bool:
        return run_functional and stub_verdict(text, "", True) == (True, True)

    total = 0
    for pid in problem_ids:
        for trial in range(trials):
            for layer in range(1, layers + 1):
                for slot, path in enumerate(mixture, 1):
                    prefix = "%s/t%d/L%d/S%d" % (pid, trial, layer, slot)
                    if path == "Base":
                        calls, draft = 1, text_for(prefix + "/direct", HDL_LABEL)
                    else:
                        stage1 = text_for(prefix + "/stage1", SYSTEM_LABEL[path])
                        calls = 2 + (stage1_rounds > 0 and "CHECKFAIL" in stage1)
                        draft = text_for(prefix + "/stage2", HDL_LABEL)
                    total += calls + (refine and not perfect_in_loop(draft))
            aggregate = text_for("%s/t%d/L%d/S1/aggregate" % (pid, trial, layers + 1), HDL_LABEL)
            total += 1 + (refine and not perfect_in_loop(aggregate))
    return total


def trace_paths(run_dir: str, problem_ids, trials: int):
    for pid in problem_ids:
        for trial in range(trials):
            yield pid, trial, os.path.join(run_dir, pid, str(trial), "trace.jsonl")
