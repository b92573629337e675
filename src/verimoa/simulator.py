"""External HDL simulation behind a two-command config.

The two scoring gates map onto a simulator's natural phases: the syntax
gate is the compile command, the functional gate compiles the candidate
with the golden testbench and runs it.  A run passes only when the process
exits 0 AND the pass marker appears in its output, because HDL testbenches
routinely exit 0 after printing mismatches.  The marker is looked for in
the whole output; only the stored log is truncated.

Every evaluation leases a private workspace directory from a
WorkspacePool, so concurrent evaluations never collide.  A lease holds
exactly that evaluation's files; the directory goes back to the pool
afterwards, unless a command timed out or the evaluation raised, and is
retained on failure only when configured.  Commands run inside it on
fixed relative file names, so diagnostics never quote the workspace path.
"""

from __future__ import annotations

import functools
import os
import select
import shlex
import shutil
import signal
import subprocess
import tempfile
import threading
import time
import weakref
from dataclasses import dataclass, replace
from enum import Enum
from importlib import resources

from .backends import API_KEY_ENV
from .errors import InvariantViolationError, SimulatorUnavailableError, WorkspaceError

DEFAULT_PASS_MARKER = "ALL_TESTS_PASSED"
DEFAULT_TIMEOUT_MS = 10_000
# evaluations one ExternalSimulator runs at once: one per CPU
MAX_CONCURRENCY = os.cpu_count() or 4

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


@functools.lru_cache(maxsize=64)
def split_template(template: str) -> tuple[str, ...]:
    """shlex.split, once per command template: a run uses a handful."""
    return tuple(shlex.split(template))


def _build_argv(template: str, sources: list[str], out: str) -> list[str]:
    argv: list[str] = []
    for token in split_template(template):
        if token == "{sources}":
            argv.extend(sources)
        else:
            argv.append(token.replace("{out}", out))
    return argv


def run_in_session(argv: list[str], cwd: str, timeout_s: float) -> tuple[int, bytes]:
    """Run one simulator or checker command; returns (exit code, output).

    stdout and stderr share one pipe.  The command runs without the API
    key in its environment, since it runs model-written code, and in a
    session of its own: every way out of the wait, its exit included,
    kills its whole process group, so a compiler driver's children or a
    background sleep a checker's shell started die with it.  A timeout raises
    subprocess.TimeoutExpired holding the output read so far.  Without
    the key set, the command inherits the environment as it is, uncopied.
    The child is reaped as soon as it exits (see _read_until_exit).
    """
    env = None
    if API_KEY_ENV in os.environ:
        env = {k: v for k, v in os.environ.items() if k != API_KEY_ENV}
    with subprocess.Popen(
        argv,
        cwd=cwd,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        env=env,
        start_new_session=True,
    ) as proc:
        try:
            output = _read_until_exit(proc, timeout_s)
        finally:
            # Unreaped, the leader's pid names this group and no other; reaped
            # (no pidfd), it stays reserved while any straggler lives.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except (ProcessLookupError, PermissionError):  # gone, or only zombies (BSD)
                pass
            proc.wait()
        return proc.returncode, output


def _read_until_exit(proc: subprocess.Popen, timeout_s: float) -> bytes:
    """The child's output once its pipe is closed and it has exited.  A
    pidfd of the child, where os.pidfd_open works, is polled with the pipe
    and reports the exit without reaping the child; elsewhere Popen.wait
    sleep-polls once the pipe closes, and reaps it."""
    out, chunks = proc.stdout.fileno(), []
    deadline = time.monotonic() + timeout_s
    poller = select.poll()
    waiting = {out}
    try:
        pidfd = os.pidfd_open(proc.pid)
        waiting.add(pidfd)
    except (AttributeError, OSError):
        pidfd = None
    for fd in waiting:
        poller.register(fd, select.POLLIN)
    try:
        while waiting:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise subprocess.TimeoutExpired(proc.args, timeout_s)
            for fd, _ in poller.poll(remaining * 1000):
                data = os.read(out, 32768) if fd == out else b""
                chunks.append(data)
                if not data:  # EOF, or the child exited
                    poller.unregister(fd)
                    waiting.discard(fd)
        if pidfd is None:
            proc.wait(max(deadline - time.monotonic(), 0))
    except subprocess.TimeoutExpired as exc:
        exc.timeout, exc.output = timeout_s, b"".join(chunks)
        raise
    finally:
        if pidfd is not None:
            os.close(pidfd)
    return b"".join(chunks)


def _remove_all(workspaces: list[str]) -> None:
    while workspaces:
        shutil.rmtree(workspaces.pop(), ignore_errors=True)


def _rewritable(entry: os.DirEntry) -> bool:
    """A plain file with no other name, so writing it touches nothing else."""
    if entry.is_symlink() or not entry.is_file():
        return False
    return entry.stat(follow_symlinks=False).st_nlink == 1


def _fill(workspace: str, files: dict[str, bytes]) -> None:
    """Make the workspace hold exactly these files, rewriting in place
    where a same-named plain file is already there."""
    with os.scandir(workspace) as entries:
        for entry in entries:
            if entry.name in files and _rewritable(entry):
                continue
            if entry.is_dir(follow_symlinks=False):
                shutil.rmtree(entry.path)
            else:
                os.unlink(entry.path)
    for name, data in files.items():
        fd = os.open(
            os.path.join(workspace, name),
            os.O_WRONLY | os.O_CREAT | os.O_NOFOLLOW | os.O_CLOEXEC,
            0o666,
        )
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            # ftruncate rather than O_TRUNC: rewriting in place is far
            # cheaper than truncating to zero and growing the file again.
            os.ftruncate(fd, len(data))
        finally:
            os.close(fd)


class WorkspacePool:
    """Private directories for evaluations, reused from one to the next.

    lease(files) returns a directory that holds exactly those files and
    nothing else: a free directory when there is one, else a new one named
    prefix* under root (the temp directory when root is None).  Entries
    left by an earlier lease -- outputs, other problems' files, anything a
    command wrote, subdirectories, links -- are removed; same-named plain
    files are rewritten in place, never through a link.  release(workspace,
    reuse) puts the directory back, or removes it when reuse is false; a
    leased directory never released stays on disk and leaves the pool.
    Free directories are removed when the pool is collected or the
    interpreter exits.
    """

    def __init__(self, prefix: str, root: str | None = None) -> None:
        self._prefix = prefix
        self._root = root
        self._lock = threading.Lock()
        self._free: list[str] = []
        weakref.finalize(self, _remove_all, self._free)

    def lease(self, files: list[tuple[str, str]]) -> str:
        """A directory holding exactly files, (name, text) pairs written
        as UTF-8; one that cannot be made or filled raises WorkspaceError."""
        wanted = {name: content.encode("utf-8") for name, content in files}
        with self._lock:
            workspace = self._free.pop() if self._free else None
        if workspace is not None:
            try:
                _fill(workspace, wanted)
                return workspace
            except OSError:
                # the last command left it unusable; start afresh
                shutil.rmtree(workspace, ignore_errors=True)
        try:
            if self._root:
                os.makedirs(self._root, exist_ok=True)
            workspace = tempfile.mkdtemp(prefix=self._prefix, dir=self._root)
        except OSError as exc:
            raise WorkspaceError("cannot create workspace: %s" % exc)
        try:
            _fill(workspace, wanted)
        except OSError as exc:
            shutil.rmtree(workspace, ignore_errors=True)
            raise WorkspaceError("cannot write workspace files: %s" % exc)
        return workspace

    def release(self, workspace: str, reuse: bool) -> None:
        if reuse:
            with self._lock:
                self._free.append(workspace)
        else:
            shutil.rmtree(workspace, ignore_errors=True)


class ExternalSimulator:
    def __init__(self, config: SimulatorConfig) -> None:
        config.validate()
        self.config = config
        self._gate = threading.Semaphore(MAX_CONCURRENCY)
        self._pool = WorkspacePool("verimoa-sim-", config.workspace_root)

    # -- internals ---------------------------------------------------

    def _run(self, argv: list[str], cwd: str, timeout_ms: int) -> tuple[int, str, bool, int]:
        started = time.monotonic()
        try:
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

    def _evaluate(self, candidate_source: str, problem, run: bool) -> SimVerdict:
        """Compile the candidate to ./design.out, or, when run is set, with
        the testbench to ./sim.out and run that if the compile passed.

        The CPU gate is held for the whole evaluation, so the pool never
        holds more than MAX_CONCURRENCY directories.  A workspace is
        reused unless a command timed out or the evaluation raised (a killed
        process group's stragglers must not write into the next lease); a
        failed one is kept instead when keep_failed_workspaces is set.
        """
        files = [("candidate.v", candidate_source)]
        files += [
            (os.path.basename(name), content)
            for name, content in sorted(getattr(problem, "support_files", {}).items())
        ]
        if run:
            files.append(("testbench.v", problem.testbench_source))
        timeout_ms = getattr(problem, "timeout_ms", None) or self.config.timeout_ms
        # "./" so that a run_cmd of just {out} executes the file here
        # rather than searching PATH.
        out = "./sim.out" if run else "./design.out"
        with self._gate:
            workspace = self._pool.lease(files)
            verdict = None
            try:
                argv = _build_argv(self.config.compile_cmd, [name for name, _ in files], out)
                code, log, timed_out, duration = self._run(argv, workspace, timeout_ms)
                phase, passed = SimPhase.COMPILE, code == 0 and not timed_out
                if run and passed:
                    argv = _build_argv(self.config.run_cmd, [], out)
                    code, log, timed_out, run_ms = self._run(argv, workspace, timeout_ms)
                    marker = getattr(problem, "pass_marker", None) or self.config.pass_marker
                    phase, passed = SimPhase.RUN, code == 0 and not timed_out and marker in log
                    duration += run_ms
                verdict = SimVerdict(phase, passed, truncate_log(log), duration, timed_out)
                return verdict
            finally:
                passed = verdict is not None and verdict.passed
                if passed or not self.config.keep_failed_workspaces:
                    self._pool.release(
                        workspace, verdict is not None and not verdict.timed_out
                    )

    # -- the two gates -----------------------------------------------

    def syntax_test(self, candidate_source: str, problem) -> SimVerdict:
        return self._evaluate(candidate_source, problem, run=False)

    def function_test(self, candidate_source: str, problem) -> SimVerdict:
        """Compile with the testbench, then run; a failed compile reports
        SimPhase.COMPILE."""
        return self._evaluate(candidate_source, problem, run=True)


def iverilog_config(**overrides) -> SimulatorConfig:
    cfg = SimulatorConfig(
        compile_cmd="iverilog -g2012 -o {out} {sources}",
        run_cmd="vvp {out}",
    )
    return replace(cfg, **overrides)


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
    return ExternalSimulator(replace(cfg, **overrides))


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
