"""The benchmark traces a round by rebinding program names from outside
(perfbench/tracing.py).  A hook whose name is gone only makes its metrics
read as absent, and an overridden cache method that no longer exists is
never called, so a refactor could blind the benchmark without failing
anything there.  These tests fail instead."""

import importlib.util
import inspect
import os

from conftest import CLEAN_MODULE, REPO_ROOT, FakeSimulator, make_problem, trial_collaborators
from verimoa import cache, orchestrator
from verimoa.backends import ResponseRule, RuleBackend
from verimoa.problems import RunConfig


def load_tracing():
    path = os.path.join(REPO_ROOT, "perfbench", "tracing.py")
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def parameters(fn) -> set[str]:
    return set(inspect.signature(fn).parameters)


def test_every_hook_finds_its_name():
    tracing = load_tracing()
    hooks = tracing.Hooks(tracing.Tracer())
    try:
        hooks.install()
        assert hooks.missing == set()
    finally:
        hooks.restore()
    assert orchestrator.GlobalCache is cache.GlobalCache
    for name in ("insert_hdl", "top_n_hdl", "top_k_intermediate"):
        assert name in vars(cache.GlobalCache), name
    assert {"layer", "tag_prefix"} <= parameters(orchestrator._run_slot)
    assert {"problem", "trial_index"} <= parameters(orchestrator.run_trial)


def test_a_traced_trial_is_seen_by_every_hook(tmp_path):
    tracing = load_tracing()
    tracer = tracing.Tracer()
    hooks = tracing.Hooks(tracer)
    backend = RuleBackend([
        ResponseRule(text="```cpp\nint model() { return 1; }\n```", tag_contains="stage1",
                     system_contains="C++"),
        ResponseRule(text="```python\ndef model(): return 1\n```", tag_contains="stage1",
                     system_contains="Python"),
        ResponseRule(text="```verilog\n%s\n```" % CLEAN_MODULE),
    ])
    config = RunConfig(proposer_layers=2, layer_width=3, mixture=("Base", "Cpp", "Py"),
                       top_n_hdl=2, top_k_intermediate=1, trials=1)
    try:
        hooks.install()
        orchestrator.run_trial(make_problem(), config, backend, FakeSimulator(), seed=1,
                               trial_index=0, trace_path=str(tmp_path / "trace.jsonl"),
                               **trial_collaborators(config))
    finally:
        hooks.restore()
    metrics = tracing.layer_metrics(tracer, hooks.missing)
    assert metrics["cache.inserts"] == 6  # 2 layers x 3 slots, one round each
    assert metrics["cache.select_s"] > 0
    (trial,) = [s for s in tracer.spans if s["name"] == "orchestrator.run_trial"]
    slots = [s for s in tracer.spans if s["name"] == "orchestrator.slot"]
    assert sorted(s["layer"] for s in slots) == [1, 1, 1, 2, 2, 2]
    assert all(s["parent"] == trial["id"] for s in slots)
