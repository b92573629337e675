"""The benchmark's three workloads and the backends that feed them.

``progressive`` replays the committed rules fixture.  ``fresh-mix`` and
``llm-latency`` are answered by :class:`FreshMixGenerator`, whose every
response is a pure function of (workload seed, request tag): the seed
picks which slot gets which outcome class, but the share of each class is
fixed per layer, so call and spawn counts do not depend on the seed.
``llm-latency`` adds :class:`LatencyInjector` in front of the generator.

Importing this module needs ``verimoa`` on ``sys.path``; ``run.py`` puts
the checkout's ``src/`` there.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import random
import re
import threading
import time
from dataclasses import dataclass
from statistics import NormalDist

from verimoa.backends import GenerationResponse

PERFBENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(PERFBENCH_DIR)
TOY_BENCH = os.path.join(REPO_ROOT, "toy-bench")
FIXTURES = os.path.join(REPO_ROOT, "fixtures")
GENERATED_CONFIG = os.path.join(PERFBENCH_DIR, "generated.config.json")

# Concurrent trials; matches the 2 CPUs the reference figures were taken on.
JOBS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    config_path: str
    run_functional: bool
    rules_path: str | None = None  # None: answered by FreshMixGenerator
    latency: bool = False  # put LatencyInjector in front of the generator


WORKLOADS = {
    "progressive": Workload(
        "progressive",
        os.path.join(FIXTURES, "progressive.config.json"),
        run_functional=True,
        rules_path=os.path.join(FIXTURES, "progressive.rules.jsonl"),
    ),
    "fresh-mix": Workload("fresh-mix", GENERATED_CONFIG, run_functional=True),
    "llm-latency": Workload(
        "llm-latency", GENERATED_CONFIG, run_functional=False, latency=True
    ),
}


def _digest(*parts) -> str:
    return hashlib.sha256("|".join(str(p) for p in parts).encode("utf-8")).hexdigest()


def _unit(*parts) -> float:
    """A uniform draw in (0, 1) fixed by ``parts``."""
    return (int(_digest(*parts)[:13], 16) + 0.5) / 16**13


TAG_RE = re.compile(r"^(?P<problem>.+)/t(?P<trial>\d+)/L(?P<layer>\d+)/S(?P<slot>\d+)/(?P<stage>[a-z0-9_]+)$")


def parse_tag(tag: str) -> tuple[str, int, int, int, str]:
    m = TAG_RE.match(tag)
    if m is None:
        raise ValueError("unrecognised request tag %r" % tag)
    return (
        m.group("problem"), int(m.group("trial")), int(m.group("layer")),
        int(m.group("slot")), m.group("stage"),
    )


# Outcome classes of an HDL response, as the stub simulator will judge it:
# P passes, F compiles but fails the testbench, S fails to compile.
DRAFT_PATTERN = ("P", "F", "P", "S", "P", "F")  # width 6: 3 P, 2 F, 1 S
AGGREGATE_PATTERN = ("P", "F", "S", "P", "F")  # 5 trials: 2 P, 2 F, 1 S
# A refinement's class depends on the class of what it refines, so the
# number of passing finals is the same for every seed.
REFINE_PATTERN = {"P": ("P",), "F": ("P", "F"), "S": ("F", "S")}
STAGE1_PATTERN = ("checkfail", "ok")  # share of stage-1 drafts the checker rejects


def _spread(pattern, keys, *rng_key) -> dict:
    """Deal ``pattern`` (cycled) over the sorted ``keys`` in a seeded order."""
    keys = sorted(keys)
    items = [pattern[i % len(pattern)] for i in range(len(keys))]
    random.Random(_digest(*rng_key)).shuffle(items)
    return dict(zip(keys, items))


# The llm-latency delay law, a synthetic choice (see the README):
# delay = LATENCY_BASE_S * exp(LATENCY_SIGMA * z) + LATENCY_PER_KCHAR_S * kchars,
# where kchars counts prompt + response characters.
LATENCY_BASE_S = 0.3
LATENCY_SIGMA = 0.4
LATENCY_PER_KCHAR_S = 0.06


def latency_z(seed: int, tag: str, width: int, layers: int) -> float:
    """The normal draw of the delay's log-normal term, fixed by (seed, tag).

    Within one layer of one trial, the calls of one stage (say every
    ``stage2``) take their z from the same fixed normal quantiles, dealt
    over the slots in a seeded order: every layer then has a straggler of
    the same size, and only which slot it hits depends on the seed.
    Aggregator calls draw z alone.  Neither depends on call order.
    """
    pid, trial, layer, slot, stage = parse_tag(tag)
    if layer > layers:
        return NormalDist().inv_cdf(_unit(seed, "latency", tag))
    quantiles = [NormalDist().inv_cdf((i + 0.5) / width) for i in range(width)]
    return _spread(quantiles, range(1, width + 1), seed, "latency", pid, trial, layer, stage)[slot]


# Rule-firing constructs spliced into functional-fail candidates, so the
# functional-fail branch sees different penalty sets.  {n} is a unique name.
_FAIL_SNIPPETS = (
    ("case without default",
     "    reg [1:0] {n};\n    always @(*) begin\n        case ({n})\n"
     "            2'd0: {n} = 2'd1;\n        endcase\n    end\n"),
    ("blocking assignment in a clocked block",
     "    reg {n};\n    wire {n}_clk;\n    always @(posedge {n}_clk) {n} = ~{n};\n"),
    ("signal driven twice",
     "    wire {n};\n    assign {n} = 1'b0;\n    assign {n} = 1'b1;\n"),
    ("nonblocking assignment in combinational logic",
     "    reg {n};\n    always @(*) {n} <= 1'b0;\n"),
)


class FreshMixGenerator:
    """Seeded offline LLM: responses never repeat, outcome shares are fixed.

    Every response carries a nonce derived from (seed, tag), so no two
    requests of a run get the same source.  The class of each response is
    dealt from the fixed patterns above by a seeded shuffle per
    (problem, trial, layer), and the class of a refinement depends on the
    class of the draft it refines.
    """

    backend_id = "fresh-mix"

    def __init__(self, seed: int, config, problem_ids, run_functional: bool) -> None:
        self.seed = seed
        self.layers = config.proposer_layers
        self.trials = config.trials
        self.mixture = tuple(config.mixture)
        self.run_functional = run_functional
        self.problem_ids = tuple(problem_ids)
        self.solutions = {}
        for pid in self.problem_ids:
            with open(os.path.join(TOY_BENCH, pid, "solution.v"), encoding="utf-8") as fh:
                self.solutions[pid] = fh.read().rstrip("\n")

    # -- decisions -------------------------------------------------------

    def draft_class(self, pid: str, trial: int, layer: int, slot: int) -> str:
        slots = range(1, len(self.mixture) + 1)
        return _spread(DRAFT_PATTERN, slots, self.seed, "draft", pid, trial, layer)[slot]

    def aggregate_class(self, pid: str, trial: int) -> str:
        pairs = [(p, t) for p in self.problem_ids for t in range(self.trials)]
        return _spread(AGGREGATE_PATTERN, pairs, self.seed, "aggregate")[(pid, trial)]

    def stage1_class(self, pid: str, trial: int, layer: int, slot: int) -> str:
        two_stage = [s for s, tag in enumerate(self.mixture, 1) if tag != "Base"]
        return _spread(STAGE1_PATTERN, two_stage, self.seed, "stage1", pid, trial, layer)[slot]

    def refine_class(self, pid: str, trial: int, layer: int, slot: int, rnd: int) -> str:
        if layer > self.layers:
            cls = self.aggregate_class(pid, trial)
            peers = [
                (p, t) for p in self.problem_ids for t in range(self.trials)
                if self.aggregate_class(p, t) == cls
            ]
            key, scope = (pid, trial), ()
        else:
            cls = self.draft_class(pid, trial, layer, slot)
            peers = [
                s for s in range(1, len(self.mixture) + 1)
                if self.draft_class(pid, trial, layer, s) == cls
            ]
            key, scope = slot, (pid, trial, layer)
        return _spread(REFINE_PATTERN[cls], peers, self.seed, "refine", rnd, cls, *scope)[key]

    def decide(self, tag: str) -> str:
        """Outcome class of the response to ``tag``."""
        pid, trial, layer, slot, stage = parse_tag(tag)
        if stage in ("direct", "stage2"):
            return self.draft_class(pid, trial, layer, slot)
        if stage == "aggregate":
            return self.aggregate_class(pid, trial)
        if stage == "stage1":
            return self.stage1_class(pid, trial, layer, slot)
        if stage == "stage1_refine":
            return "ok"
        if stage.startswith("sim_refine"):
            return self.refine_class(pid, trial, layer, slot, int(stage[len("sim_refine"):]))
        raise ValueError("no generator decision for stage %r (tag %r)" % (stage, tag))

    # -- texts -----------------------------------------------------------

    def text(self, tag: str) -> str:
        pid, _, layer, slot, stage = parse_tag(tag)
        cls = self.decide(tag)
        nonce = _digest(self.seed, "nonce", tag)[:16]
        if stage in ("stage1", "stage1_refine"):
            language = "cpp" if self.mixture[slot - 1] == "Cpp" else "python"
            body = self._intermediate(pid, language, nonce, cls == "checkfail")
            return "Behaviour model, draft %s.\n\n```%s\n%s\n```" % (nonce[:8], language, body)
        body = self._hdl(pid, cls, nonce, tag)
        return "Candidate %s.\n\n```verilog\n%s\n```" % (nonce[:8], body)

    def _intermediate(self, pid: str, language: str, nonce: str, checkfail: bool) -> str:
        if language == "cpp":
            lines = [
                "// behaviour model of %s, draft %s" % (pid, nonce),
                "#include <cstdint>",
                "uint32_t step(uint32_t inputs) { return inputs & 0x%su; }" % nonce[:4],
            ]
            if checkfail:
                lines.append("// CHECKFAIL: use of undeclared identifier 'state'")
        else:
            lines = [
                "# behaviour model of %s, draft %s" % (pid, nonce),
                "def step(inputs: int) -> int:",
                "    return inputs & 0x%s" % nonce[:4],
            ]
            if checkfail:
                lines.append("# CHECKFAIL: name 'state' is not defined")
        return "\n".join(lines)

    def _hdl(self, pid: str, cls: str, nonce: str, tag: str) -> str:
        solution = self.solutions[pid]
        head = "// candidate %s" % nonce
        if cls == "P":
            return "%s\n%s" % (head, solution)
        body, end = solution.rsplit("endmodule", 1)
        pick = int(_digest(self.seed, "variant", tag)[:8], 16)
        if cls == "F":
            reason, snippet = _FAIL_SNIPPETS[pick % len(_FAIL_SNIPPETS)]
            marker = "MARKER_BUT_FAIL" if pick % 5 == 0 else "FUNCFAIL"
            return "%s\n%s    // %s: %s\n%sendmodule%s" % (
                head, body, marker, reason, snippet.format(n="aux_" + nonce[:8]), end,
            )
        variant = pick % 3
        if variant == 0:
            return "%s\n%s// SYNTAXERR: missing endmodule%s" % (head, body, end)
        if variant == 1:
            return "%s\n%s    begin // SYNTAXERR: unterminated block\nendmodule%s" % (head, body, end)
        return "%s\n%s    assign = ; // SYNTAXERR: empty assignment\nendmodule%s" % (head, body, end)

    def generate(self, request) -> GenerationResponse:
        return GenerationResponse(text=self.text(request.request_tag), backend_id=self.backend_id)


class LatencyInjector:
    """Sleeps before answering, for a delay fixed by the request alone."""

    def __init__(self, inner, seed: int, config) -> None:
        self.inner = inner
        self.seed = seed
        self.width = config.layer_width
        self.layers = config.proposer_layers
        self.backend_id = getattr(inner, "backend_id", "unknown")

    def delay_s(self, request, response_text: str) -> float:
        chars = len(request.system_prompt) + len(request.user_prompt) + len(response_text)
        z = latency_z(self.seed, request.request_tag, self.width, self.layers)
        return LATENCY_BASE_S * math.exp(LATENCY_SIGMA * z) + LATENCY_PER_KCHAR_S * chars / 1000.0

    def generate(self, request):
        response = self.inner.generate(request)
        time.sleep(self.delay_s(request, response.text))
        return response


class CountingBackend:
    """Counts the calls the workload's backend answers, and their characters."""

    def __init__(self, inner) -> None:
        self.inner = inner
        self.backend_id = getattr(inner, "backend_id", "unknown")
        self._lock = threading.Lock()
        self.calls = 0
        self.chars = 0

    def generate(self, request):
        response = self.inner.generate(request)
        chars = len(request.system_prompt) + len(request.user_prompt) + len(response.text)
        with self._lock:
            self.calls += 1
            self.chars += chars
        return response


class RulesDecider:
    """Reads the progressive rules file, apart from the program's own loader.

    Resolves which rule answers a tag; the user prompt is approximated by
    the problem's description, which is what the fixture's predicates test.
    """

    def __init__(self, rules_path: str, descriptions: dict[str, str]) -> None:
        with open(rules_path, encoding="utf-8") as fh:
            self.rules = [json.loads(line) for line in fh if line.strip()]
        self.descriptions = descriptions

    def text(self, tag: str, system_prompt: str) -> str:
        pid = parse_tag(tag)[0]
        for rule in self.rules:
            when = rule.get("when", {})
            if when.get("tag_contains", "") not in tag:
                continue
            if when.get("prompt_contains", "") not in self.descriptions[pid]:
                continue
            if when.get("system_contains", "") not in system_prompt:
                continue
            return rule["text"]
        raise ValueError("no rule answers %r" % tag)
