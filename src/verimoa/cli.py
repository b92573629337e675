"""Command-line entry point.

Exit codes: 0 success, 1 user error, 2 environment error (simulator or
backend unavailable), 3 pipeline failure.  Errors print one
machine-parsable line on stderr: "<error_code>: <message>".
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .agents import IntermediateChecker, gated_evaluation, load_templates
from .backends import (
    HttpBackend,
    ReplayBackend,
    TranscriptRecorder,
    load_scripted,
)
from .cache import IntermediateLanguage
from .errors import (
    AuthError,
    BackendExhaustedError,
    PipelineFailureError,
    SchemaError,
    SimulatorUnavailableError,
    VerimoaError,
    WorkspaceError,
)
from .harness import REPORT_NAME, build_report, pass_table, scan_run
from .problems import load_benchmark, load_config, load_problem, read_text, to_json
from .scoring import ScoreConstants
from .simulator import (
    ExternalSimulator,
    iverilog_config,
    simcheck,
    stub_simulator,
)
from .orchestrator import llm_seats, run_benchmark

_ENVIRONMENT_ERRORS = (
    SimulatorUnavailableError,
    WorkspaceError,
    AuthError,
    BackendExhaustedError,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits 2 on bad flags; the exit-code contract wants 1
    def error(self, message):
        raise _UsageError(message)


def _add_sim_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--sim", choices=["external", "stub"], default="external",
                        help="simulator binding (default: external)")
    parser.add_argument("--compile-cmd", default=None,
                        help="compile command template with {sources} and {out}")
    parser.add_argument("--run-cmd", default=None,
                        help="run command template with {out}")
    parser.add_argument("--pass-marker", default=None,
                        help="success marker the testbench prints")
    parser.add_argument("--workspace-root", default=None,
                        help="directory for simulation workspaces")
    parser.add_argument("--keep-workspaces", action="store_true",
                        help="retain failing simulation workspaces")


def _build_sim(args) -> ExternalSimulator:
    overrides = {}
    if args.compile_cmd:
        overrides["compile_cmd"] = args.compile_cmd
    if args.run_cmd:
        overrides["run_cmd"] = args.run_cmd
    if args.pass_marker:
        overrides["pass_marker"] = args.pass_marker
    if args.workspace_root:
        overrides["workspace_root"] = args.workspace_root
    if args.keep_workspaces:
        overrides["keep_failed_workspaces"] = True
    if args.sim == "stub":
        return stub_simulator(**overrides)
    return ExternalSimulator(iverilog_config(**overrides))


def _build_backend(args, run_dir: str, seats: int) -> TranscriptRecorder:
    """The run's backend, recording to run_dir; seats is the most requests
    the run keeps in flight, and sizes the HTTP connection pool."""
    spec = args.backend
    if spec == "http":
        if not args.endpoint or not args.model:
            raise _UsageError("--backend http requires --endpoint and --model")
        backend = HttpBackend(endpoint=args.endpoint, model=args.model, pool_size=seats)
    elif spec.startswith("replay:"):
        backend = ReplayBackend.from_transcript(spec.split(":", 1)[1])
    elif spec.startswith("scripted:"):
        backend = load_scripted(spec.split(":", 1)[1])
    else:
        raise _UsageError(
            "--backend must be http, replay:<file>, or scripted:<file>"
        )
    return TranscriptRecorder(backend, os.path.join(run_dir, "transcript.jsonl"))


def _build_checkers(args, max_rounds: int) -> dict[IntermediateLanguage, IntermediateChecker]:
    """The checkers --cpp-check-cmd and --py-check-cmd name; run_benchmark
    gives every other language the stub."""
    commands = ((IntermediateLanguage.CPP, args.cpp_check_cmd),
                (IntermediateLanguage.PYTHON, args.py_check_cmd))
    return {language: IntermediateChecker(language, cmd, max_rounds)
            for language, cmd in commands if cmd}


def _cmd_run(args) -> int:
    # A second run would overwrite the traces but append to the transcript.
    for name in ("manifest.json", "transcript.jsonl"):
        if os.path.exists(os.path.join(args.out, name)):
            raise _UsageError("--out %s already holds a run (%s)" % (args.out, name))
    config = load_config(args.config)
    benchmark = load_benchmark(args.benchmark)
    templates = load_templates(args.templates) if args.templates else None
    # Everything that can reject the arguments runs before --out is made.
    sim = _build_sim(args)
    checkers = _build_checkers(args, config.max_stage1_refine_rounds)
    backend = _build_backend(args, args.out, llm_seats(args.jobs, config))
    # Probe before any output is written; a dead simulator would otherwise
    # degrade every trial into a silent non-pass.
    ok, message = simcheck(sim)
    if not ok:
        raise SimulatorUnavailableError("simulator preflight failed: %s" % message)
    try:
        run_benchmark(
            benchmark,
            config,
            backend,
            sim,
            run_dir=args.out,
            jobs=args.jobs,
            templates=templates,
            checkers=checkers,
            run_functional=not args.no_inloop_functional,
        )
    finally:
        backend.close()
    scan = scan_run(args.out)
    if scan.failed_trials == len(scan.problems) * scan.n_trials:
        message = "all %d trials failed before aggregation" % scan.failed_trials
        # Every slot was lost to an exhausted backend: the environment
        # is at fault, not the pipeline.
        if set(scan.agent_errors) == {BackendExhaustedError.error_code}:
            raise BackendExhaustedError(
                "%s; every agent failed on an exhausted backend" % message
            )
        raise PipelineFailureError(message)
    table, _ = pass_table(scan, [1])
    print(
        "problems=%d trials=%d pass@1=%.3f"
        % (len(benchmark.problems), config.trials, table.per_k.get(1, 0.0))
    )
    return 0


def _cmd_score(args) -> int:
    problem = load_problem(args.problem)
    source = read_text(args.hdl, SchemaError)
    sim = _build_sim(args)
    score, _ = gated_evaluation(source, problem, sim, ScoreConstants())
    if args.json:
        print(json.dumps(to_json(score), indent=2, sort_keys=True))
    else:
        print("value: %.6f" % score.value)
        print("branch: %s" % score.branch.value)
        print("syntax_pass: %s" % score.syntax_pass)
        print("functional_pass: %s" % score.functional_pass)
        for rule, amount in score.breakdown:
            print("  %-28s %+.4f" % (rule, amount))
    return 0


def _parse_ks(text: str) -> list[int]:
    try:
        ks = [int(part) for part in text.split(",") if part.strip()]
    except ValueError:
        raise _UsageError("--k must be a comma-separated list of integers")
    if not ks or any(k < 1 for k in ks):
        raise _UsageError("--k values must be positive integers")
    return ks


def _cmd_passk(args) -> int:
    scan = scan_run(args.run)
    table, warnings = pass_table(scan, _parse_ks(args.k))
    for warning in warnings:
        print("warning: %s" % warning, file=sys.stderr)
    for k, value in sorted(table.per_k.items()):
        print("pass@%d = %.6f" % (k, value))
    return 0


def _cmd_report(args) -> int:
    report = build_report(args.run, _parse_ks(args.k), write_csv=args.csv)
    print("wrote %s" % os.path.join(args.run, REPORT_NAME))
    for k, value in sorted(report["pass_at_k"]["per_k"].items(), key=lambda kv: int(kv[0])):
        print("pass@%s = %.6f" % (k, value))
    return 0


def _cmd_facts(args) -> int:
    from .analyzer import extract_facts

    source = read_text(args.file, SchemaError)
    print(json.dumps(to_json(extract_facts(source)), indent=2, sort_keys=True))
    return 0


def _cmd_simcheck(args) -> int:
    sim = _build_sim(args)
    ok, message = simcheck(sim)
    print(message)
    if not ok:
        raise SimulatorUnavailableError("simulator self-check failed")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="verimoa", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_run = sub.add_parser("run", help="execute the pipeline over a benchmark")
    p_run.add_argument("--config", required=True, help="run-config JSON path")
    p_run.add_argument("--benchmark", required=True, help="benchmark bundle directory")
    p_run.add_argument("--out", required=True,
                       help="run output directory; must not already hold a "
                            "run (manifest.json or transcript.jsonl)")
    p_run.add_argument("--backend", default="http",
                       help="http, replay:<file>, or scripted:<file>")
    p_run.add_argument("--endpoint", default=None, help="HTTP backend endpoint URL")
    p_run.add_argument("--model", default=None, help="HTTP backend model name")
    p_run.add_argument("--jobs", type=int, default=4,
                       help="at most jobs x layer_width LLM requests in flight "
                            "across all trials, HTTP included; simulator evaluations "
                            "stay at one per CPU, checkers have no limit "
                            "(default 4)")
    p_run.add_argument("--templates", default=None,
                       help="prompt template directory override")
    p_run.add_argument("--cpp-check-cmd", default=None,
                       help="C++ intermediate checker command with {source}")
    p_run.add_argument("--py-check-cmd", default=None,
                       help="Python intermediate checker command with {source}")
    p_run.add_argument("--no-inloop-functional", action="store_true",
                       help="skip the functional gate inside the generation loop")
    _add_sim_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_score = sub.add_parser("score", help="score one HDL file against a problem")
    p_score.add_argument("--problem", required=True, help="problem directory")
    p_score.add_argument("--hdl", required=True, help="Verilog file to score")
    p_score.add_argument("--json", action="store_true", help="JSON output")
    _add_sim_flags(p_score)
    p_score.set_defaults(func=_cmd_score)

    p_passk = sub.add_parser("passk", help="print pass@k for a finished run")
    p_passk.add_argument("--run", required=True, help="run directory")
    p_passk.add_argument("--k", required=True, help="comma-separated k values")
    p_passk.set_defaults(func=_cmd_passk)

    p_report = sub.add_parser("report", help="write report.json for a run")
    p_report.add_argument("--run", required=True, help="run directory")
    p_report.add_argument("--k", default="1,5,10", help="comma-separated k values")
    p_report.add_argument("--csv", action="store_true", help="also write curves.csv")
    p_report.set_defaults(func=_cmd_report)

    p_facts = sub.add_parser("facts", help="dump structural facts for a Verilog file")
    p_facts.add_argument("file", help="Verilog source file")
    p_facts.set_defaults(func=_cmd_facts)

    p_simcheck = sub.add_parser("simcheck", help="verify the simulator works")
    _add_sim_flags(p_simcheck)
    p_simcheck.set_defaults(func=_cmd_simcheck)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except _UsageError as exc:
        print("usage_error: %s" % exc, file=sys.stderr)
        return 1
    except PipelineFailureError as exc:
        print("%s: %s" % (exc.error_code, exc), file=sys.stderr)
        return 3
    except _ENVIRONMENT_ERRORS as exc:
        print("%s: %s" % (exc.error_code, exc), file=sys.stderr)
        return 2
    except VerimoaError as exc:
        print("%s: %s" % (exc.error_code, exc), file=sys.stderr)
        return 1
    except OSError as exc:
        print("io_error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
