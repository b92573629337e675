"""External HDL simulation behind a two-command config.

The two scoring gates map onto a simulator's natural phases: the syntax
gate is the compile command, the functional gate compiles the candidate
with the golden testbench and runs it.  A run passes only when the process
exits 0 AND the pass marker appears in its output, because HDL testbenches
routinely exit 0 after printing mismatches.  The marker is looked for in
the whole output; only the stored log is truncated.

Every invocation gets a private workspace directory, removed on success
and retained on failure only when configured, so concurrent evaluations
never collide.  Commands run inside it on fixed relative file names, so
diagnostics never quote the workspace path.
"""

from __future__ import annotations

import os
import shlex
import shutil
import signal
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, replace
from enum import Enum
from importlib import resources

from .backends import API_KEY_ENV
from .errors import InvariantViolationError, SimulatorUnavailableError, WorkspaceError

DEFAULT_PASS_MARKER = "ALL_TESTS_PASSED"
DEFAULT_TIMEOUT_MS = 10_000

LOG_CAP_BYTES = 64 * 1024
LOG_TAIL_BYTES = 8 * 1024


@dataclass(frozen=True)
class SimulatorConfig:
    compile_cmd: str
    run_cmd: str
    pass_marker: str = DEFAULT_PASS_MARKER
    workspace_root: str | None = None
    timeout_ms: int = DEFAULT_TIMEOUT_MS
    keep_failed_workspaces: bool = False
    max_concurrency: int | None = None

    def validate(self) -> None:
        if "{sources}" not in self.compile_cmd or "{out}" not in self.compile_cmd:
            raise InvariantViolationError(
                "compile_cmd needs {sources} and {out} placeholders"
            )
        if "{out}" not in self.run_cmd:
            raise InvariantViolationError("run_cmd needs an {out} placeholder")
        if not self.pass_marker:
            raise InvariantViolationError("pass_marker must be non-empty")
        if self.timeout_ms < 1:
            raise InvariantViolationError("timeout_ms must be positive")


class SimPhase(Enum):
    COMPILE = "compile"
    RUN = "run"


@dataclass(frozen=True)
class SimVerdict:
    phase: SimPhase
    passed: bool
    log: str
    duration_ms: int
    timed_out: bool = False


_TRUNCATION_NOTE = "\n...[log truncated]...\n"


def truncate_log(log: str) -> str:
    """Cap log size at LOG_CAP_BYTES characters, always keeping the tail,
    where failures live."""
    if len(log) <= LOG_CAP_BYTES:
        return log
    head = log[: LOG_CAP_BYTES - LOG_TAIL_BYTES - len(_TRUNCATION_NOTE)]
    return head + _TRUNCATION_NOTE + log[-LOG_TAIL_BYTES:]


def _build_argv(template: str, sources: list[str], out: str) -> list[str]:
    argv: list[str] = []
    for token in shlex.split(template):
        if token == "{sources}":
            argv.extend(sources)
        else:
            argv.append(token.replace("{out}", out))
    return argv


def run_in_session(argv: list[str], cwd: str, timeout_s: float) -> tuple[int, bytes]:
    """Run one simulator or checker command; returns (exit code, output).

    stdout and stderr share one pipe.  The command runs without the API
    key in its environment, since it runs model-written code, and in a
    session of its own: a timeout, or any other way out of the wait, kills
    its whole process group, so a compiler driver's children or a sleep a
    checker's shell started die with it.  A timeout raises
    subprocess.TimeoutExpired holding the output read so far.
    """
    env = dict(os.environ)
    env.pop(API_KEY_ENV, None)
    with subprocess.Popen(
        argv,
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        start_new_session=True,
    ) as proc:
        try:
            output, _ = proc.communicate(timeout=timeout_s)
        except BaseException:
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            proc.wait()
            raise
        return proc.returncode, output


class ExternalSimulator:
    def __init__(self, config: SimulatorConfig) -> None:
        config.validate()
        self.config = config
        limit = config.max_concurrency or os.cpu_count() or 4
        self._gate = threading.Semaphore(limit)

    # -- internals ---------------------------------------------------

    def _make_workspace(self) -> str:
        root = self.config.workspace_root
        try:
            if root:
                os.makedirs(root, exist_ok=True)
            return tempfile.mkdtemp(prefix="verimoa-sim-", dir=root)
        except OSError as exc:
            raise WorkspaceError("cannot create simulation workspace: %s" % exc)

    def _run(self, argv: list[str], cwd: str, timeout_ms: int) -> tuple[int, str, bool, int]:
        started = time.monotonic()
        try:
            with self._gate:
                code, output = run_in_session(argv, cwd, timeout_ms / 1000.0)
            log = output.decode("utf-8", errors="replace")
            timed_out = False
        except subprocess.TimeoutExpired as exc:
            log = (exc.output or b"").decode("utf-8", errors="replace")
            log += "\n[timeout after %d ms]" % timeout_ms
            code = -1
            timed_out = True
        except FileNotFoundError:
            raise SimulatorUnavailableError(
                "simulator command not found: %s" % argv[0]
            )
        except OSError as exc:
            raise SimulatorUnavailableError("cannot launch %s: %s" % (argv[0], exc))
        duration_ms = int((time.monotonic() - started) * 1000)
        return code, log, timed_out, duration_ms

    def _write_sources(self, workspace: str, problem, include_testbench: bool,
                       candidate_source: str) -> list[str]:
        """Write the sources into the workspace; returns their relative names."""
        files = [("candidate.v", candidate_source)]
        files += [
            (os.path.basename(name), content)
            for name, content in sorted(getattr(problem, "support_files", {}).items())
        ]
        if include_testbench:
            files.append(("testbench.v", problem.testbench_source))
        for name, content in files:
            with open(os.path.join(workspace, name), "w", encoding="utf-8") as fh:
                fh.write(content)
        return [name for name, _ in files]

    def _cleanup(self, workspace: str, passed: bool) -> None:
        if passed or not self.config.keep_failed_workspaces:
            shutil.rmtree(workspace, ignore_errors=True)

    def _timeout_ms(self, problem) -> int:
        return getattr(problem, "timeout_ms", None) or self.config.timeout_ms

    def _marker(self, problem) -> str:
        return getattr(problem, "pass_marker", None) or self.config.pass_marker

    # -- the two gates -----------------------------------------------

    def syntax_test(self, candidate_source: str, problem) -> SimVerdict:
        workspace = self._make_workspace()
        passed = False
        try:
            sources = self._write_sources(workspace, problem, False, candidate_source)
            argv = _build_argv(self.config.compile_cmd, sources, "./design.out")
            code, log, timed_out, duration = self._run(
                argv, workspace, self._timeout_ms(problem)
            )
            passed = code == 0 and not timed_out
            return SimVerdict(
                SimPhase.COMPILE, passed, truncate_log(log), duration, timed_out
            )
        finally:
            self._cleanup(workspace, passed)

    def function_test(self, candidate_source: str, problem) -> SimVerdict:
        """Compile with the testbench, then run; a failed compile reports
        SimPhase.COMPILE."""
        workspace = self._make_workspace()
        passed = False
        try:
            sources = self._write_sources(workspace, problem, True, candidate_source)
            timeout_ms = self._timeout_ms(problem)
            # "./" so that a run_cmd of just {out} executes the file here
            # rather than searching PATH.
            argv = _build_argv(self.config.compile_cmd, sources, "./sim.out")
            code, log, timed_out, duration = self._run(argv, workspace, timeout_ms)
            if code != 0 or timed_out:
                return SimVerdict(
                    SimPhase.COMPILE, False, truncate_log(log), duration, timed_out
                )
            run_argv = _build_argv(self.config.run_cmd, [], "./sim.out")
            code, run_log, timed_out, run_duration = self._run(
                run_argv, workspace, timeout_ms
            )
            passed = code == 0 and not timed_out and self._marker(problem) in run_log
            return SimVerdict(
                SimPhase.RUN, passed, truncate_log(run_log),
                duration + run_duration, timed_out,
            )
        finally:
            self._cleanup(workspace, passed)


def iverilog_config(**overrides) -> SimulatorConfig:
    cfg = SimulatorConfig(
        compile_cmd="iverilog -g2012 -o {out} {sources}",
        run_cmd="vvp {out}",
    )
    return replace(cfg, **overrides) if overrides else cfg


def _stub_script(name: str) -> str:
    return str(resources.files("verimoa").joinpath("stubs", name))


def stub_script_cmd(name: str) -> str:
    """Shell-quoted ``awk -f`` prefix for a bundled stub script.

    The stubs are awk programs because start-up is most of a stub spawn's
    cost, and awk starts in a small fraction of a Python interpreter's time.
    """
    return "awk -f %s" % shlex.quote(_stub_script(name))


def stub_simulator(**overrides) -> ExternalSimulator:
    """Simulator wired to the bundled magic-substring stub."""
    prefix = stub_script_cmd("sim.awk")
    cfg = SimulatorConfig(
        compile_cmd="%s compile -o {out} {sources}" % prefix,
        run_cmd="%s run {out}" % prefix,
    )
    if overrides:
        cfg = replace(cfg, **overrides)
    return ExternalSimulator(cfg)


@dataclass(frozen=True)
class _SampleProblem:
    id: str = "simcheck-sample"
    top_module: str = "simcheck_and2"
    timeout_ms: int = 20_000
    testbench_source: str = """
module simcheck_and2_tb;
  reg a, b;
  wire y;
  simcheck_and2 dut(.a(a), .b(b), .y(y));
  integer errors;
  initial begin
    errors = 0;
    a = 0; b = 0; #1 if (y !== 1'b0) errors = errors + 1;
    a = 1; b = 0; #1 if (y !== 1'b0) errors = errors + 1;
    a = 1; b = 1; #1 if (y !== 1'b1) errors = errors + 1;
    if (errors == 0) $display("ALL_TESTS_PASSED");
    else $display("FAILED: %0d mismatches", errors);
    $finish;
  end
endmodule
"""


SAMPLE_DESIGN = """
module simcheck_and2(input a, input b, output y);
  assign y = a & b;
endmodule
"""


def simcheck(sim: ExternalSimulator) -> tuple[bool, str]:
    """Compile and run a known-good sample through the configured simulator."""
    problem = _SampleProblem()
    verdict = sim.syntax_test(SAMPLE_DESIGN, problem)
    if not verdict.passed:
        return False, "compile failed:\n%s" % verdict.log
    verdict = sim.function_test(SAMPLE_DESIGN, problem)
    if not verdict.passed:
        return False, "run failed:\n%s" % verdict.log
    return True, "simulator ok"
