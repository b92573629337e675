"""Run analysis: pass@k, diversity, and report generation from traces.

pass@k uses the unbiased estimator 1 - C(n-c, k)/C(n, k) in a stable
product form (no factorials).  Diversity is the Vendi score: the
exponential of the von Neumann entropy of the normalized pairwise
similarity matrix, an effective count of distinct candidates.  The
similarity kernel is cosine over term-frequency vectors of character
3-grams of whitespace-normalized source, so renaming noise stays cheap
and k(x, x) = 1 exactly.
"""

from __future__ import annotations

import csv
import datetime
import json
import math
import os
import tempfile
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import CorruptTraceError, DomainError, MissingFileError

SIMILARITY_KIND = "cosine/char-3gram-tf"

REPORT_NAME = "report.json"
CURVES_NAME = "curves.csv"


def pass_at_k(n: int, c: int, k: int) -> float:
    """Probability that at least one of k draws from n (c correct) passes."""
    if not 0 <= c <= n:
        raise DomainError("need 0 <= c <= n, got c=%d n=%d" % (c, n))
    if not 1 <= k <= n:
        raise DomainError("need 1 <= k <= n, got k=%d n=%d" % (k, n))
    if c == 0:
        return 0.0
    if n - c < k:
        return 1.0
    prob_all_fail = 1.0
    for i in range(k):
        prob_all_fail *= (n - c - i) / (n - i)
    return 1.0 - prob_all_fail


# -- diversity -------------------------------------------------------------

_NGRAM = 3


def _ngram_counts(text: str) -> Counter:
    normalized = " ".join(text.split())
    return Counter(
        normalized[i : i + _NGRAM] for i in range(len(normalized) - _NGRAM + 1)
    )


def pairwise_similarity(texts: list[str]) -> np.ndarray:
    """Symmetric PSD similarity matrix with unit diagonal.

    Degenerate texts (no 3-grams after normalization) count as identical
    to each other and orthogonal to everything else.
    """
    vectors = [_ngram_counts(t) for t in texts]
    norms = [math.sqrt(sum(v * v for v in vec.values())) for vec in vectors]
    m = len(texts)
    K = np.eye(m)
    for i in range(m):
        for j in range(i + 1, m):
            a, b = vectors[i], vectors[j]
            if not a and not b:
                sim = 1.0
            elif not a or not b:
                sim = 0.0
            else:
                if len(b) < len(a):
                    a, b = b, a
                dot = sum(count * b[gram] for gram, count in a.items())
                sim = dot / (norms[i] * norms[j])
            K[i, j] = K[j, i] = sim
    return K


def vendi_from_similarity(K) -> float:
    """exp of the von Neumann entropy of K/m; the effective sample count."""
    K = np.asarray(K, dtype=float)
    if K.ndim != 2 or K.shape[0] != K.shape[1] or K.shape[0] == 0:
        raise DomainError("similarity matrix must be square and non-empty")
    eigenvalues = np.linalg.eigvalsh(K / K.shape[0])
    positive = eigenvalues[eigenvalues > 1e-12]
    entropy = -float(np.sum(positive * np.log(positive)))
    return float(np.exp(entropy))


def vendi_score(candidates: list[str]) -> float:
    if not candidates:
        raise DomainError("vendi_score needs at least one candidate")
    return vendi_from_similarity(pairwise_similarity(candidates))


# -- report ----------------------------------------------------------------


@dataclass(frozen=True)
class PassAtKTable:
    per_k: dict[int, float]
    n: int
    per_problem_c: dict[str, int]

    def to_json(self) -> dict:
        return {
            "per_k": {str(k): v for k, v in sorted(self.per_k.items())},
            "n": self.n,
            "per_problem_c": dict(sorted(self.per_problem_c.items())),
        }


_NUMBER = (int, float)
_STATS = ("min_top_n", "mean_top_n", "vendi_top_n")
# What scan_run and build_report read of each event kind, with its types.
_EVENT_FIELDS = {
    "layer_stats": {"layer": int, "window_values": list},
    "agent_error": {"error_code": str},
    "trial_result": {"syntax_pass": bool, "functional_pass": bool},
}


def _check_event(event: dict, where: str) -> None:
    kind = event["event"]
    fields = _EVENT_FIELDS.get(kind, {})
    checks = [(event.get(name), name, types) for name, types in fields.items()]
    window = event.get("window_values")
    if kind == "layer_stats" and isinstance(window, list) and window:
        checks += [(event.get(name), name, _NUMBER) for name in _STATS]
        checks += [(value, "window value", _NUMBER) for value in window]
    if kind == "cache_insert" and event.get("kind") == "hdl":
        score = event.get("score")
        branch = score.get("branch") if isinstance(score, dict) else None
        checks.append((branch, "score branch", str))
    for value, name, types in checks:
        if not isinstance(value, types):
            raise CorruptTraceError("%s: %s event without a valid %s" % (where, kind, name))


def _read_trace(path: str) -> list[dict]:
    events = []
    with open(path, encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                event = json.loads(line)
            except ValueError as exc:
                raise CorruptTraceError("%s:%d: %s" % (path, line_no, exc))
            if not isinstance(event, dict) or not isinstance(event.get("event"), str):
                raise CorruptTraceError(
                    "%s:%d: not a trace event object" % (path, line_no)
                )
            _check_event(event, "%s:%d" % (path, line_no))
            events.append(event)
    return events


def _mean(values: list[float]) -> float | None:
    return sum(values) / len(values) if values else None


@dataclass
class RunScan:
    benchmark: str | None
    problems: list[str]
    n_trials: int
    per_problem_c: dict[str, int] = field(default_factory=dict)
    per_problem_branches: dict[str, Counter] = field(default_factory=dict)
    # layer -> its layer_stats events with a non-empty window
    layer_stats: dict[int, list[dict]] = field(default_factory=dict)
    incomplete: int = 0
    failed_trials: int = 0  # traces ending in trial_error
    # error_code -> failed agent slots, whole run
    agent_errors: Counter = field(default_factory=Counter)


def scan_run(run_dir: str) -> RunScan:
    """Read a run directory's manifest and every trace into aggregates;
    a malformed manifest or event raises CorruptTraceError."""
    manifest_path = os.path.join(run_dir, "manifest.json")
    if not os.path.isfile(manifest_path):
        raise MissingFileError("missing %s" % manifest_path)
    with open(manifest_path, encoding="utf-8") as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:
            raise CorruptTraceError("%s: %s" % (manifest_path, exc))

    manifest = manifest if isinstance(manifest, dict) else {}
    problems, config = manifest.get("problems"), manifest.get("config")
    if not problems or not isinstance(problems, list) or not all(
        isinstance(p, str) for p in problems
    ):
        raise CorruptTraceError("%s: problems is not a non-empty list of strings"
                                % manifest_path)
    if not isinstance(config, dict):
        raise CorruptTraceError("%s: config is not an object" % manifest_path)
    n_trials = config.get("trials")
    if type(n_trials) is not int or n_trials < 1:
        raise CorruptTraceError("%s: trials is not a positive integer" % manifest_path)

    scan = RunScan(manifest.get("benchmark"), list(problems), n_trials)

    for problem_id in problems:
        correct = 0
        branches: Counter = Counter()
        for trial in range(n_trials):
            trace_path = os.path.join(run_dir, problem_id, str(trial), "trace.jsonl")
            if not os.path.isfile(trace_path):
                scan.incomplete += 1
                continue
            saw_result = False
            for event in _read_trace(trace_path):
                kind = event["event"]
                if kind == "cache_insert" and event.get("kind") == "hdl":
                    branches[event["score"]["branch"]] += 1
                elif kind == "layer_stats" and event["window_values"]:
                    scan.layer_stats.setdefault(event["layer"], []).append(event)
                elif kind == "agent_error":
                    scan.agent_errors[event["error_code"]] += 1
                elif kind == "trial_result":
                    saw_result = True
                    if event["syntax_pass"] and event["functional_pass"]:
                        correct += 1
                elif kind == "trial_error":
                    # failed trial: complete for accounting, never a pass
                    saw_result = True
                    scan.failed_trials += 1
            if not saw_result:
                scan.incomplete += 1
        scan.per_problem_c[problem_id] = correct
        scan.per_problem_branches[problem_id] = branches
    return scan


def pass_table(scan: RunScan, ks: list[int]) -> tuple[PassAtKTable, list[str]]:
    """Benchmark pass@k = mean of per-problem pass@k; bad ks become warnings."""
    per_k: dict[int, float] = {}
    warnings: list[str] = []
    for k in ks:
        try:
            values = [
                pass_at_k(scan.n_trials, scan.per_problem_c[p], k)
                for p in scan.problems
            ]
        except DomainError as exc:
            warnings.append("k=%d skipped: %s" % (k, exc))
            continue
        per_k[k] = sum(values) / len(values)
    table = PassAtKTable(
        per_k=per_k, n=scan.n_trials, per_problem_c=scan.per_problem_c
    )
    return table, warnings


def build_report(run_dir: str, ks: list[int], write_csv: bool = False) -> dict:
    """Aggregate a run directory into report.json (atomically written)."""
    scan = scan_run(run_dir)
    table, warnings = pass_table(scan, ks)

    per_layer = []
    for layer, events in sorted(scan.layer_stats.items()):
        ranks: dict[int, list[float]] = {}
        for event in events:
            for rank, value in enumerate(event["window_values"], start=1):
                ranks.setdefault(rank, []).append(value)
        row = {name: _mean([event[name] for event in events]) for name in _STATS}
        row["layer"] = layer
        row["per_rank_mean"] = {
            str(rank): _mean(values) for rank, values in sorted(ranks.items())
        }
        per_layer.append(row)

    report = {
        "generated_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
        "benchmark": scan.benchmark,
        "problems": scan.problems,
        "n_trials": scan.n_trials,
        "incomplete_trials": scan.incomplete,
        "pass_at_k": table.to_json(),
        "per_layer": per_layer,
        "diversity": {
            "per_layer_vendi": [row["vendi_top_n"] for row in per_layer],
            "similarity_kind": SIMILARITY_KIND,
        },
        "failure_taxonomy": {
            problem_id: {
                "perfect": branches.get("perfect", 0),
                "functional_fail": branches.get("functional_fail", 0),
                "syntax_fail": branches.get("syntax_fail", 0),
            }
            for problem_id, branches in sorted(scan.per_problem_branches.items())
        },
        "warnings": warnings,
    }

    _atomic_write_json(os.path.join(run_dir, REPORT_NAME), report)
    if write_csv:
        _write_curves_csv(os.path.join(run_dir, CURVES_NAME), per_layer)
    return report


def _atomic_write_json(path: str, obj: dict) -> None:
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".report-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _write_curves_csv(path: str, per_layer: list[dict]) -> None:
    max_rank = max(
        (len(entry["per_rank_mean"]) for entry in per_layer), default=0
    )
    fields = ["layer", *_STATS] + ["rank%d_mean" % r for r in range(1, max_rank + 1)]
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=fields)
        writer.writeheader()
        for entry in per_layer:
            row = {name: entry[name] for name in ("layer", *_STATS)}
            for rank_str, value in entry["per_rank_mean"].items():
                row["rank%s_mean" % rank_str] = value
            writer.writerow(row)
