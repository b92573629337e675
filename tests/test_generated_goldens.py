"""Whole-run goldens for the benchmark's generated workloads.

``fresh-mix`` and its compile-only twin (``llm-latency`` without the
``LatencyInjector``, which only sleeps) are answered by perfbench's
seeded ``FreshMixGenerator``.  Each scenario runs at seeds 5 and 91 and
at ``--jobs`` 1 and 4, and its run directory must match the committed
``sha256sum -c`` manifest byte for byte: the manifest, the five traces
and the transcript (compared after ``close()``, which sorts it).

Refresh the manifests only in a change that moves these bytes on purpose
(one that edits ``perfbench/workloads.py``, or changes what a run writes).
Say in ``CHANGES.md`` why, and give a comparison of every golden run
against the parent's with the moved field masked, showing nothing else
moved.  Run the scenario into a directory and digest it there, e.g. from
the repo root:

    PYTHONPATH=src:tests python -c "import test_generated_goldens as g; \\
        g.run_scenario('/tmp/fm', 'fresh-mix', 5, 1)"
    (cd /tmp/fm && sha256sum manifest.json */0/trace.jsonl transcript.jsonl) \\
        > fixtures/fresh-mix-5.sha256
"""

import functools
import hashlib
import importlib.util
import os
import sys

import pytest

from conftest import FIXTURES, REPO_ROOT, TOY_BENCH
from verimoa.backends import TranscriptRecorder
from verimoa.orchestrator import run_benchmark
from verimoa.problems import load_benchmark, load_config
from verimoa.simulator import stub_simulator

GENERATED_CONFIG = os.path.join(REPO_ROOT, "perfbench", "generated.config.json")
# scenario -> run_functional
SCENARIOS = {"fresh-mix": True, "fresh-mix-compile-only": False}


@functools.cache
def load_workloads():
    path = os.path.join(REPO_ROOT, "perfbench", "workloads.py")
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their own module up in sys.modules.
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def run_scenario(out: str, scenario: str, seed: int, jobs: int) -> None:
    """Run one generated scenario into ``out`` with the default templates
    and checkers and the stub simulator."""
    run_functional = SCENARIOS[scenario]
    config = load_config(GENERATED_CONFIG)
    benchmark = load_benchmark(TOY_BENCH)
    generator = load_workloads().FreshMixGenerator(
        seed, config, [p.id for p in benchmark.problems], run_functional
    )
    backend = TranscriptRecorder(generator, os.path.join(out, "transcript.jsonl"))
    try:
        run_benchmark(
            benchmark, config, backend, stub_simulator(), out,
            jobs=jobs, run_functional=run_functional,
        )
    finally:
        backend.close()


@pytest.mark.parametrize("jobs", [1, 4])
@pytest.mark.parametrize("seed", [5, 91])
@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_generated_run_matches_golden_digests(tmp_path, scenario, seed, jobs):
    out = tmp_path / "out"
    run_scenario(str(out), scenario, seed, jobs)
    digests = os.path.join(FIXTURES, "%s-%d.sha256" % (scenario, seed))
    with open(digests, encoding="utf-8") as fh:
        golden = dict(reversed(line.split()) for line in fh if line.strip())
    assert len(golden) == 7
    actual = {
        name: hashlib.sha256((out / name).read_bytes()).hexdigest() for name in golden
    }
    assert actual == golden
    files = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
    assert files == set(golden)
