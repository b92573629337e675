"""Spans and counts around each module's public calls, taken from outside.

The benchmark never edits the program to trace it.  It wraps the backend,
simulator and checker objects it hands to ``run_benchmark``, and in a
traced round only it rebinds module attributes (``agents.extract_facts``,
``orchestrator.run_trial`` ...) and restores them afterwards.  A name that
no longer exists is recorded as missing, and the metrics that need it are
reported as absent (``null``) instead of failing the run.

Spans are kept in memory and written out when the benchmark ends.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import itertools
import json
import re
import subprocess
import threading
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from statistics import median

from verimoa import agents, orchestrator

_MISSING = object()
_SLOT_TAG_RE = re.compile(r"^(?P<problem>.+)/t(?P<trial>\d+)/L\d+/S\d+$")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self.trial_spans: dict[tuple[str, int], int] = {}  # (problem, trial) -> span id

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, parent: int | None = None, **attrs) -> dict:
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        return {"id": next(self._ids), "name": name, "parent": parent,
                "start": time.perf_counter(), **attrs}

    def close(self, record: dict) -> None:
        record["end"] = time.perf_counter()
        with self._lock:
            self.spans.append(record)

    @contextmanager
    def span(self, name: str, parent: int | None = None, **attrs):
        record = self.open(name, parent, **attrs)
        stack = self._stack()
        stack.append(record["id"])
        try:
            yield record
        finally:
            stack.pop()
            self.close(record)

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counts[name] += n

    def dump(self, path: str, **fields) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span in sorted(self.spans, key=lambda s: s["id"]):
                fh.write(json.dumps({**fields, **span}, sort_keys=True) + "\n")


class SpawnCounter:
    """Counts child processes where they are made, at ``subprocess.Popen``.

    Installed for the whole benchmark process, traced or not.  While a
    tracer is attached, each child also becomes a span from its creation
    to the ``wait`` that reaps it, under whatever span made it.
    """

    def __init__(self) -> None:
        self.count = 0
        self.tracer: Tracer | None = None
        self._lock = threading.Lock()
        self._orig_init = subprocess.Popen.__init__
        self._orig_wait = subprocess.Popen.wait
        counter = self

        def init(popen, *args, **kwargs):
            with counter._lock:
                counter.count += 1
            tracer = counter.tracer
            popen._perfbench_span = tracer.open("subprocess") if tracer else None
            counter._orig_init(popen, *args, **kwargs)

        def wait(popen, *args, **kwargs):
            code = counter._orig_wait(popen, *args, **kwargs)
            span = getattr(popen, "_perfbench_span", None)
            if span is not None and counter.tracer is not None:
                popen._perfbench_span = None
                counter.tracer.close(span)
            return code

        subprocess.Popen.__init__ = init
        subprocess.Popen.wait = wait

    def close(self) -> None:
        subprocess.Popen.__init__ = self._orig_init
        subprocess.Popen.wait = self._orig_wait


# -- proxies for the objects handed to run_benchmark ------------------------


class _Proxy:
    def __init__(self, inner, tracer: Tracer) -> None:
        self._inner = inner
        self._tracer = tracer

    def __getattr__(self, name):
        return getattr(self._inner, name)


class TracedBackend(_Proxy):
    def generate(self, request):
        with self._tracer.span("backends.generate") as span:
            response = self._inner.generate(request)
            span["prompt_chars"] = len(request.system_prompt) + len(request.user_prompt)
            span["response_chars"] = len(response.text)
            return response


class TracedSimulator(_Proxy):
    def syntax_test(self, source, problem):
        with self._tracer.span("simulator.syntax_test"):
            return self._inner.syntax_test(source, problem)

    def function_test(self, source, problem):
        with self._tracer.span("simulator.function_test"):
            return self._inner.function_test(source, problem)


class TracedChecker(_Proxy):
    def run(self, source):
        with self._tracer.span("agents.checker"):
            return self._inner.run(source)


# -- module rebinding -------------------------------------------------------


def _bound(fn, args, kwargs) -> dict:
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        return {}
    bound.apply_defaults()
    return bound.arguments


class Hooks:
    """Rebinds module attributes for one traced round; ``restore`` undoes it."""

    def __init__(self, tracer: Tracer) -> None:
        self.tracer = tracer
        self.missing: set[str] = set()
        self._undo: list[tuple[object, str, object]] = []

    def rebind(self, owner, label: str, name: str, make) -> bool:
        original = getattr(owner, name, _MISSING) if owner is not _MISSING else _MISSING
        if original is _MISSING:
            self.missing.add(label)
            return False
        setattr(owner, name, make(original))
        self._undo.append((owner, name, original))
        return True

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def timed(self, span_name: str, attrs=None):
        tracer = self.tracer

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                extra = attrs(fn, args, kwargs) if attrs else {}
                with tracer.span(span_name, **extra):
                    return fn(*args, **kwargs)
            return wrapper
        return make

    def install(self) -> None:
        tracer = self.tracer
        self.rebind(agents, "agents.extract_facts", "extract_facts",
                    self.timed("analyzer.extract_facts"))
        self.rebind(agents, "agents.score_from_facts", "score_from_facts",
                    self.timed("scoring.score_from_facts"))
        gated = [
            self.rebind(module, "%s.gated_evaluation" % module.__name__.split(".")[-1],
                        "gated_evaluation", self.timed("agents.gated_evaluation", _gated_key))
            for module in (agents, orchestrator)
        ]
        # The proposers' and the final evaluations both go through it; with
        # either hook gone the count is incomplete, so report it absent.
        if not all(gated):
            self.missing.add("gated_evaluation")
        self.rebind(orchestrator, "orchestrator.vendi_score", "vendi_score",
                    self.timed("harness.vendi_score"))
        self.rebind(orchestrator, "orchestrator.run_trial", "run_trial", self._trial_hook)
        self.rebind(orchestrator, "orchestrator._run_slot", "_run_slot", self._slot_hook)
        self.rebind(orchestrator, "orchestrator.GlobalCache", "GlobalCache",
                    lambda base: _traced_cache(base, tracer))
        self.rebind(getattr(orchestrator, "TraceWriter", _MISSING),
                    "orchestrator.TraceWriter.write", "write",
                    self.timed("orchestrator.trace_write"))

    def _trial_hook(self, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def run_trial(*args, **kwargs):
            arguments = _bound(fn, args, kwargs)
            problem, trial = arguments.get("problem"), arguments.get("trial_index")
            with tracer.span("orchestrator.run_trial") as span:
                if problem is not None and trial is not None:
                    tracer.trial_spans[(problem.id, trial)] = span["id"]
                return fn(*args, **kwargs)
        return run_trial

    def _slot_hook(self, fn):
        tracer = self.tracer

        @functools.wraps(fn)
        def run_slot(*args, **kwargs):
            arguments = _bound(fn, args, kwargs)
            m = _SLOT_TAG_RE.match(str(arguments.get("tag_prefix", "")))
            parent = tracer.trial_spans.get((m.group("problem"), int(m.group("trial")))) if m else None
            with tracer.span("orchestrator.slot", parent=parent, layer=arguments.get("layer")):
                return fn(*args, **kwargs)
        return run_slot


def _gated_key(fn, args, kwargs) -> dict:
    arguments = _bound(fn, args, kwargs)
    problem = arguments.get("problem")
    source = arguments.get("source", "")
    digest = hashlib.sha256(source.encode("utf-8")).hexdigest()[:16]
    return {"key": "%s|%s|%s" % (getattr(problem, "id", "?"), digest,
                                 arguments.get("run_functional"))}


def _traced_cache(base, tracer: Tracer):
    class TracedCache(base):
        def insert_hdl(self, entry):
            tracer.count("cache.inserts")
            return super().insert_hdl(entry)

        def insert_intermediate(self, entry):
            tracer.count("cache.inserts")
            return super().insert_intermediate(entry)

        def top_n_hdl(self, *args, **kwargs):
            with tracer.span("cache.select"):
                return super().top_n_hdl(*args, **kwargs)

        def top_k_intermediate(self, *args, **kwargs):
            with tracer.span("cache.select"):
                return super().top_k_intermediate(*args, **kwargs)

    TracedCache.__name__ = base.__name__
    return TracedCache


# -- per-layer metrics from one traced round --------------------------------

# The rebindings each metric needs; any one missing makes the metric absent.
# Slots find their trial through the run_trial spans, and the barrier
# metrics walk the trials, so those need both hooks.
SLOTS_IN_TRIALS = ("orchestrator.run_trial", "orchestrator._run_slot")
NEEDS = {
    "simulator.repeat_share": ("gated_evaluation",),
    "simulator.gated_evals": ("gated_evaluation",),
    "agents.slot_s.p50": ("orchestrator._run_slot",),
    "agents.slot_s.max": ("orchestrator._run_slot",),
    "analyzer.facts_calls": ("agents.extract_facts",),
    "analyzer.facts_s": ("agents.extract_facts",),
    "scoring.score_s": ("agents.score_from_facts",),
    "cache.inserts": ("orchestrator.GlobalCache",),
    "cache.select_s": ("orchestrator.GlobalCache",),
    "harness.vendi_calls": ("orchestrator.vendi_score",),
    "harness.vendi_s": ("orchestrator.vendi_score",),
    "orchestrator.trial_s.p50": ("orchestrator.run_trial",),
    "orchestrator.critical_path_s": SLOTS_IN_TRIALS,
    "orchestrator.barrier_idle_s": SLOTS_IN_TRIALS,
    "orchestrator.utilization": SLOTS_IN_TRIALS,
    "orchestrator.trace_write_s": ("orchestrator.TraceWriter.write",),
}


def _dur(span: dict) -> float:
    return span["end"] - span["start"]


def layer_metrics(tracer: Tracer, missing: set[str]) -> dict[str, float | None]:
    by_name: dict[str, list[dict]] = defaultdict(list)
    for span in tracer.spans:
        by_name[span["name"]].append(span)
    index = {span["id"]: span for span in tracer.spans}

    def under(span: dict, prefix: str) -> bool:
        parent = index.get(span["parent"])
        while parent is not None:
            if parent["name"].startswith(prefix):
                return True
            parent = index.get(parent["parent"])
        return False

    def total(name: str) -> float:
        return sum(_dur(s) for s in by_name[name])

    generate = by_name["backends.generate"]
    sim_spawns = [s for s in by_name["subprocess"] if under(s, "simulator.")]
    gated = by_name["agents.gated_evaluation"]
    slots = by_name["orchestrator.slot"]
    selects = [s for s in by_name["cache.select"]
               if index.get(s["parent"], {}).get("name") != "cache.select"]
    metrics = {
        "backends.calls": len(generate),
        "backends.busy_s": total("backends.generate"),
        "backends.prompt_kchars": sum(s.get("prompt_chars", 0) for s in generate) / 1000.0,
        "backends.response_kchars": sum(s.get("response_chars", 0) for s in generate) / 1000.0,
        "simulator.syntax_calls": len(by_name["simulator.syntax_test"]),
        "simulator.function_calls": len(by_name["simulator.function_test"]),
        "simulator.syntax_s": total("simulator.syntax_test"),
        "simulator.function_s": total("simulator.function_test"),
        "simulator.spawns": len(sim_spawns),
        "simulator.spawn_s": sum(_dur(s) for s in sim_spawns),
        "simulator.gated_evals": len(gated),
        "simulator.repeat_share": (
            1.0 - len({s["key"] for s in gated}) / len(gated) if gated else 0.0
        ),
        "agents.checker_calls": len(by_name["agents.checker"]),
        "agents.checker_s": total("agents.checker"),
        "agents.slot_s.p50": median(_dur(s) for s in slots) if slots else 0.0,
        "agents.slot_s.max": max((_dur(s) for s in slots), default=0.0),
        "analyzer.facts_calls": len(by_name["analyzer.extract_facts"]),
        "analyzer.facts_s": total("analyzer.extract_facts"),
        "scoring.score_s": total("scoring.score_from_facts"),
        "cache.inserts": tracer.counts["cache.inserts"],
        "cache.select_s": sum(_dur(s) for s in selects),
        "harness.vendi_calls": len(by_name["harness.vendi_score"]),
        "harness.vendi_s": total("harness.vendi_score"),
        "orchestrator.trace_write_s": total("orchestrator.trace_write"),
    }
    trials = by_name["orchestrator.run_trial"]
    metrics["orchestrator.trial_s.p50"] = median(_dur(s) for s in trials) if trials else 0.0
    metrics.update(_barrier_metrics(trials, slots))
    for name, needed in NEEDS.items():
        if missing.intersection(needed):
            metrics[name] = None
    return metrics


def _barrier_metrics(trials: list[dict], slots: list[dict]) -> dict[str, float]:
    """Critical path, idle time at layer barriers, and slot utilization.

    Per trial, the critical path is the slowest slot of each layer plus
    everything after the last layer (barrier insertion, aggregation and
    the final evaluation).  Idle time is what each slot waits for the
    slowest slot of its layer; utilization is busy slot-time over
    width x layer span.
    """
    by_trial: dict[int, dict[object, list[dict]]] = defaultdict(lambda: defaultdict(list))
    for span in slots:
        by_trial[span["parent"]][span.get("layer")].append(span)
    critical = idle = busy = capacity = 0.0
    for trial in trials:
        layers = by_trial.get(trial["id"])
        if not layers:
            continue
        last_end = trial["start"]
        for layer_slots in layers.values():
            start = min(s["start"] for s in layer_slots)
            end = max(s["end"] for s in layer_slots)
            critical += max(_dur(s) for s in layer_slots)
            idle += sum(end - s["end"] for s in layer_slots)
            busy += sum(_dur(s) for s in layer_slots)
            capacity += len(layer_slots) * (end - start)
            last_end = max(last_end, end)
        critical += trial["end"] - last_end
    return {
        "orchestrator.critical_path_s": critical,
        "orchestrator.barrier_idle_s": idle,
        "orchestrator.utilization": busy / capacity if capacity else 0.0,
    }
