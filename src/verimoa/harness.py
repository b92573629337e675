"""Run analysis: the trace layout, pass@k, diversity, and report generation.

pass@k uses the unbiased estimator 1 - C(n-c, k)/C(n, k) in a stable
product form (no factorials).  Diversity is the Vendi score (Friedman &
Dieng 2023): the exponential of the von Neumann entropy of the normalized
pairwise similarity matrix, an effective count of distinct candidates.  The
similarity kernel is cosine over term-frequency vectors of character
3-grams of whitespace-normalized source, so renaming noise stays cheap
and k(x, x) = 1 exactly.  Matrices are lists of rows and the eigenvalues
come from cyclic Jacobi rotations in pure Python: a window is top_n_hdl
candidates, 3 by default, so an array library would cost more to import
than it saves.
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

from .errors import CorruptTraceError, DomainError
from .problems import read_json, read_jsonl

SIMILARITY_KIND = "cosine/char-3gram-tf"

REPORT_NAME = "report.json"
CURVES_NAME = "curves.csv"


def trace_path(run_dir: str, problem_id: str, trial: int) -> str:
    """Where a run directory keeps one trial's trace."""
    return os.path.join(run_dir, problem_id, str(trial), "trace.jsonl")


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


def _profile(text: str) -> tuple[Counter, float]:
    """A text's 3-gram counts after whitespace normalization, and their norm."""
    normalized = " ".join(text.split())
    counts = Counter(
        normalized[i : i + _NGRAM] for i in range(len(normalized) - _NGRAM + 1)
    )
    return counts, math.sqrt(sum(v * v for v in counts.values()))


def _cosine(a: Counter, norm_a: float, b: Counter, norm_b: float) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    if len(b) < len(a):
        a, b = b, a
    dot = sum(count * b[gram] for gram, count in a.items())
    return dot / (norm_a * norm_b)


def pairwise_similarity(texts: list[str], known: dict | None = None) -> list[list[float]]:
    """Symmetric PSD similarity matrix with unit diagonal, as a list of rows.

    Degenerate texts (no 3-grams after normalization) count as identical
    to each other and orthogonal to everything else.  known holds profiles
    by text and cosines by sorted (text, text) pair, so each is computed
    once per known; run_trial passes one per trial.
    """
    known = {} if known is None else known
    for text in texts:
        if text not in known:
            known[text] = _profile(text)
    m = len(texts)
    K = [[0.0] * m for _ in range(m)]
    for i in range(m):
        K[i][i] = 1.0
        for j in range(i + 1, m):
            pair = tuple(sorted((texts[i], texts[j])))
            if pair not in known:
                known[pair] = _cosine(*known[pair[0]], *known[pair[1]])
            K[i][j] = K[j][i] = known[pair]
    return K


# Sweeps stop once the off-diagonal entries' squares sum to at most this
# share of the squared trace: each diagonal entry is then within 1e-18
# times the trace of an eigenvalue (Weyl), well under an ulp of the
# largest.
_OFF_DIAGONAL_TOL = 1e-36
_MAX_SWEEPS = 50


def _eigenvalues(a: list[list[float]]) -> list[float]:
    """Eigenvalues of the symmetric matrix a (a list of rows, overwritten)
    by cyclic Jacobi rotations, ascending."""
    m = len(a)
    scale = sum(abs(a[i][i]) for i in range(m)) ** 2
    for _ in range(_MAX_SWEEPS):
        off = sum(a[p][q] * a[p][q] for p in range(m) for q in range(p + 1, m))
        if off <= _OFF_DIAGONAL_TOL * scale:
            break
        for p in range(m - 1):
            row_p = a[p]
            for q in range(p + 1, m):
                apq = row_p[q]
                if apq == 0.0:
                    continue
                row_q = a[q]
                # The rotation that zeroes a[p][q] (Golub & Van Loan 8.5.2).
                theta = (row_q[q] - row_p[p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s, tau = t * c, t * c / (1.0 + c)
                row_p[p] -= t * apq
                row_q[q] += t * apq
                row_p[q] = row_q[p] = 0.0
                for r in range(m):
                    if r != p and r != q:
                        arp, arq = a[r][p], a[r][q]
                        a[r][p] = a[p][r] = arp - s * (arq + tau * arp)
                        a[r][q] = a[q][r] = arq + s * (arp - tau * arq)
    return sorted(a[i][i] for i in range(m))


def vendi_from_similarity(K) -> float:
    """exp of the von Neumann entropy of K/m; the effective sample count.

    K is any square sequence of rows.  The eigenvalues of K/m come from
    _eigenvalues, whose cost grows as m**3 per sweep.  Per call on a
    2-vCPU Xeon VM (Python 3.11.7), against numpy's eigvalsh: 20 us
    against 10 us at m = 3, the default top_n_hdl; 0.6 ms against 21 us at
    m = 10; 19 ms against 41 us at m = 30.
    """
    m = len(K)
    if m == 0 or any(len(row) != m for row in K):
        raise DomainError("similarity matrix must be square and non-empty")
    rows = [[float(x) / m for x in row] for row in K]
    entropy = -sum(lam * math.log(lam) for lam in _eigenvalues(rows) if lam > 1e-12)
    return math.exp(entropy)


def vendi_score(candidates: list[str], known: dict | None = None) -> float:
    if not candidates:
        raise DomainError("vendi_score needs at least one candidate")
    return vendi_from_similarity(pairwise_similarity(candidates, known))


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


def _check_event(event: object, where: str) -> str:
    """The kind of a trace event that has every field scan_run reads."""
    if not isinstance(event, dict) or not isinstance(event.get("event"), str):
        raise CorruptTraceError("%s: not a trace event object" % where)
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
    return kind


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
    """Read a run directory's manifest and every trace into aggregates; a
    manifest or trace line that is not UTF-8 JSON, or lacks a field read
    here, raises CorruptTraceError (problems.read_json/read_jsonl)."""
    manifest_path = os.path.join(run_dir, "manifest.json")
    manifest = read_json(manifest_path, CorruptTraceError)
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
            path = trace_path(run_dir, problem_id, trial)
            if not os.path.isfile(path):
                scan.incomplete += 1
                continue
            saw_result = False
            for where, event in read_jsonl(path, CorruptTraceError):
                kind = _check_event(event, where)
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
