import errno
import os
import shlex
import subprocess
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import pytest

from conftest import (
    CLEAN_MODULE,
    assert_gone_within_a_second,
    make_problem,
    workspaces_in,
)
from verimoa.errors import (
    InvariantViolationError,
    SimulatorUnavailableError,
    WorkspaceError,
)
from verimoa import simulator
from verimoa.simulator import (
    LOG_CAP_BYTES,
    LOG_TAIL_BYTES,
    ExternalSimulator,
    SimPhase,
    SimulatorConfig,
    WorkspacePool,
    _build_argv,
    run_in_session,
    simcheck,
    stub_script_cmd,
    stub_simulator,
)

PY = shlex.quote(sys.executable)


class TestConfig:
    def test_defaults_need_no_tuning(self):
        stub_simulator()  # its config checks itself when built

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"compile_cmd": "cc {out}", "run_cmd": "run {out}"},
            {"compile_cmd": "cc {sources}", "run_cmd": "run {out}"},
            {"compile_cmd": "cc {sources} -o {out}", "run_cmd": "run it"},
            {"compile_cmd": "cc {sources} -o {out}", "run_cmd": "run {out}",
             "pass_marker": ""},
            {"compile_cmd": 'cc "{sources} -o {out}', "run_cmd": "run {out}"},
            {"compile_cmd": "cc {sources} -o {out}", "run_cmd": "run '{out}"},
        ],
    )
    def test_rejects_bad_shapes(self, kwargs):
        with pytest.raises(InvariantViolationError):
            SimulatorConfig(**kwargs)


class TestBuildArgv:
    def test_sources_splice_in_place(self):
        argv = _build_argv("cc -g {sources} -o {out}", ["a.v", "b.v"], "x.bin")
        assert argv == ["cc", "-g", "a.v", "b.v", "-o", "x.bin"]

    def test_out_substitutes_inside_tokens(self):
        argv = _build_argv("run --image={out}.elf", [], "sim")
        assert argv == ["run", "--image=sim.elf"]

    def test_quoted_arguments_survive(self):
        argv = _build_argv("cc -D 'NAME=two words' {sources} -o {out}", ["s.v"], "o")
        assert argv == ["cc", "-D", "NAME=two words", "s.v", "-o", "o"]


def capped(*chunks: bytes) -> bytes:
    output = simulator._CappedOutput(None)
    for chunk in chunks:
        output.add(chunk)
    return output.value()


class TestTruncateLog:
    """A command's log is capped once, as it is read, at LOG_CAP_BYTES."""

    def test_short_log_untouched(self):
        log = b"x" * (LOG_CAP_BYTES - 1) + b"y"
        assert capped(log[:1000], log[1000:]) == log

    def test_long_log_keeps_head_and_tail(self):
        chunks = (b"H" * (LOG_CAP_BYTES - LOG_TAIL_BYTES), b"M" * 5000, b"T" * LOG_TAIL_BYTES)
        out = capped(*chunks)
        assert len(out) <= LOG_CAP_BYTES
        assert out.count(b"bytes dropped") == 1
        head, rest = out.split(b"\n...[", 1)
        note, tail = rest.split(b"]...\n", 1)
        assert head == b"H" * len(head) and len(head) > LOG_CAP_BYTES // 2
        assert tail == b"T" * LOG_TAIL_BYTES
        assert note == b"%d bytes dropped" % (sum(map(len, chunks)) - len(head) - len(tail))


class TestStubFlows:
    def test_clean_design_passes_both_gates(self, tmp_path):
        sim = stub_simulator(workspace_root=str(tmp_path))
        problem = make_problem()
        syntax = sim.syntax_test(CLEAN_MODULE, problem)
        assert syntax.phase is SimPhase.COMPILE
        assert syntax.passed
        run = sim.function_test(CLEAN_MODULE, problem)
        assert run.phase is SimPhase.RUN
        assert run.passed
        assert "ALL_TESTS_PASSED" in run.log
        assert run.duration_ms >= 0

    def test_syntax_error(self, tmp_path):
        sim = stub_simulator(workspace_root=str(tmp_path))
        verdict = sim.syntax_test("module m; SYNTAXERR endmodule", make_problem())
        assert not verdict.passed
        assert "syntax error" in verdict.log

    def test_function_mismatch(self, tmp_path):
        sim = stub_simulator(workspace_root=str(tmp_path))
        verdict = sim.function_test(CLEAN_MODULE + "// FUNCFAIL", make_problem())
        assert not verdict.passed
        assert "MISMATCH" in verdict.log

    def test_marker_alone_is_not_a_pass(self, tmp_path):
        # Exit status and marker must BOTH be good.
        sim = stub_simulator(workspace_root=str(tmp_path))
        verdict = sim.function_test(CLEAN_MODULE + "// MARKER_BUT_FAIL", make_problem())
        assert "ALL_TESTS_PASSED" in verdict.log
        assert not verdict.passed

    def test_compile_failure_inside_function_gate(self, tmp_path):
        sim = stub_simulator(workspace_root=str(tmp_path))
        verdict = sim.function_test("module m; SYNTAXERR endmodule", make_problem())
        assert verdict.phase is SimPhase.COMPILE
        assert not verdict.passed

    def test_support_files_are_compiled(self, tmp_path):
        sim = stub_simulator(workspace_root=str(tmp_path))
        problem = make_problem(support_files={"helper.v": "// SYNTAXERR"})
        assert not sim.syntax_test(CLEAN_MODULE, problem).passed

    def test_timeout(self, tmp_path):
        sim = stub_simulator(workspace_root=str(tmp_path))
        problem = make_problem(timeout_ms=200)
        verdict = sim.syntax_test(CLEAN_MODULE + "// SLEEP_MS=3000", problem)
        assert verdict.timed_out
        assert not verdict.passed
        assert "timeout after" in verdict.log

    def test_sleep_takes_the_first_sleep_with_digits(self, tmp_path):
        sim = stub_simulator(workspace_root=str(tmp_path))
        problem = make_problem()
        started = time.monotonic()
        verdict = sim.syntax_test(
            CLEAN_MODULE + "// SLEEP_MS=x SLEEP_MS= SLEEP_MS=200 SLEEP_MS=5000", problem
        )
        elapsed = time.monotonic() - started
        assert verdict.passed
        assert 0.2 <= elapsed < 3.0

    def test_sleep_without_digits_is_ignored(self, tmp_path):
        sim = stub_simulator(workspace_root=str(tmp_path))
        problem = make_problem(timeout_ms=5000)
        for text in ("// SLEEP_MS=", "// SLEEP_MS=x", "// SLEEP_MS"):
            verdict = sim.function_test(CLEAN_MODULE + text, problem)
            assert verdict.passed, verdict.log
            assert "ALL_TESTS_PASSED" in verdict.log

    def test_marker_deep_in_a_long_log_still_passes(self, tmp_path):
        # The marker sits where head+tail truncation cuts; the verdict is
        # taken on the whole output, and only the stored log is capped.
        script = tmp_path / "chatty.py"
        script.write_text(
            "import sys\n"
            "sys.stdout.write('x' * 60000 + '\\nALL_TESTS_PASSED\\n' + 'y' * 20000)\n"
        )
        config = SimulatorConfig(
            compile_cmd="%s -c pass {sources} {out}" % PY,
            run_cmd="%s %s {out}" % (PY, shlex.quote(str(script))),
            workspace_root=str(tmp_path / "ws"),
        )
        verdict = ExternalSimulator(config).function_test(CLEAN_MODULE, make_problem())
        assert verdict.passed
        assert "ALL_TESTS_PASSED" not in verdict.log
        assert len(verdict.log) <= LOG_CAP_BYTES

    @pytest.mark.parametrize("line", ["x" * 63 + "\n", "x" * 1_000_000], ids=["lines", "one-line"])
    def test_one_megabyte_source_compiles_and_runs_in_under_a_second(self, tmp_path, line):
        # Lines of 64 bytes, or a single line of 1 MB: both linear.
        source = CLEAN_MODULE + "// SLEEP_MS=x FUNC\n" + line * (1_000_000 // len(line))
        sim = stub_simulator(workspace_root=str(tmp_path))
        started = time.monotonic()
        verdict = sim.function_test(source, make_problem())
        assert time.monotonic() - started < 1.0
        assert verdict.passed, verdict.log

    def test_config_pass_marker_override(self, tmp_path):
        sim = stub_simulator(workspace_root=str(tmp_path), pass_marker="CUSTOM_OK")
        verdict = sim.function_test(CLEAN_MODULE, make_problem())
        # Stub prints the default marker, which no longer satisfies config.
        assert not verdict.passed

    def test_problem_pass_marker_beats_config(self, tmp_path):
        sim = stub_simulator(workspace_root=str(tmp_path), pass_marker="CUSTOM_OK")
        problem = make_problem(pass_marker="ALL_TESTS_PASSED")
        assert sim.function_test(CLEAN_MODULE, problem).passed


class TestWorkspaces:
    def leftovers(self, root):
        return [d for d in os.listdir(root) if d.startswith("verimoa-sim-")]

    def test_success_cleans_up(self, tmp_path):
        # One evaluation at a time needs one pooled directory; it holds
        # only the last evaluation's files, and goes with the simulator.
        sim = stub_simulator(workspace_root=str(tmp_path))
        sim.syntax_test(CLEAN_MODULE, make_problem())
        sim.function_test(CLEAN_MODULE, make_problem())
        kept = self.leftovers(tmp_path)
        assert len(kept) == 1
        assert sorted(os.listdir(tmp_path / kept[0])) == [
            "candidate.v", "sim.out", "testbench.v",
        ]
        del sim
        assert self.leftovers(tmp_path) == []

    def test_failure_cleans_up_by_default(self, tmp_path):
        sim = stub_simulator(workspace_root=str(tmp_path))
        sim.syntax_test(CLEAN_MODULE + "// first", make_problem())
        sim.function_test(CLEAN_MODULE + "// FUNCFAIL", make_problem())
        kept = self.leftovers(tmp_path)
        assert len(kept) == 1
        assert sorted(os.listdir(tmp_path / kept[0])) == [
            "candidate.v", "sim.out", "testbench.v",
        ]
        assert "FUNCFAIL" in (tmp_path / kept[0] / "candidate.v").read_text()
        del sim
        assert self.leftovers(tmp_path) == []

    def test_failure_keeps_workspace_when_asked(self, tmp_path):
        sim = stub_simulator(
            workspace_root=str(tmp_path), keep_failed_workspaces=True
        )
        sim.function_test(CLEAN_MODULE + "// FUNCFAIL", make_problem())
        kept = self.leftovers(tmp_path)
        assert len(kept) == 1
        files = os.listdir(tmp_path / kept[0])
        assert "candidate.v" in files
        assert "testbench.v" in files

    def test_unusable_root_raises(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("file")
        sim = stub_simulator(workspace_root=str(blocker / "sub"))
        with pytest.raises(WorkspaceError):
            sim.syntax_test(CLEAN_MODULE, make_problem())


def listing_simulator(root, script: str, **overrides) -> ExternalSimulator:
    """A simulator whose compile command is a shell script run in the
    workspace, with the sources and the output name as arguments."""
    config = SimulatorConfig(
        compile_cmd="sh -c %s sh {out} {sources}" % shlex.quote(script),
        run_cmd="sh {out}",
        workspace_root=str(root),
        **overrides,
    )
    return ExternalSimulator(config)


class TestWorkspacePool:
    def test_a_lease_holds_only_its_own_files(self, tmp_path):
        script = (
            'pwd; ls -A; mkdir -p sub/deeper; touch sub/deeper/x stray.txt '
            '"$1"; exit 1'
        )
        sim = listing_simulator(tmp_path, script)
        first = sim.syntax_test("// a", make_problem("a", support_files={"lib_a.v": "// lib"}))
        second = sim.syntax_test("// b", make_problem("b"))
        first_dir, *first_files = first.log.splitlines()
        second_dir, *second_files = second.log.splitlines()
        assert first_files == ["candidate.v", "lib_a.v"]
        assert second_dir == first_dir  # the directory was reused
        assert second_files == ["candidate.v"]

    def test_compile_without_output_fails_the_run_as_in_a_fresh_workspace(self, tmp_path):
        # A compile that exits 0 without writing {out} must not run the
        # previous candidate's binary.
        script = 'grep -q NOOUT candidate.v || echo "echo ALL_TESTS_PASSED" > "$1"'
        problem = make_problem()
        sim = listing_simulator(tmp_path / "reused", script)
        assert sim.function_test(CLEAN_MODULE, problem).passed
        reused = sim.function_test(CLEAN_MODULE + "// NOOUT", problem)
        fresh = listing_simulator(tmp_path / "fresh", script).function_test(
            CLEAN_MODULE + "// NOOUT", problem
        )
        assert reused.phase is fresh.phase is SimPhase.RUN
        assert not reused.passed
        assert not fresh.passed
        assert (reused.log, reused.timed_out) == (fresh.log, fresh.timed_out)

    @pytest.mark.parametrize("link", ["ln -s", "ln"])
    def test_a_planted_link_is_removed_not_written_through(self, tmp_path, link):
        target = tmp_path / "outside.v"
        target.write_text("precious")
        script = (
            'if grep -q PLANT candidate.v; then rm candidate.v; %s %s candidate.v; '
            'else pwd; cat candidate.v; fi; exit 1' % (link, shlex.quote(str(target)))
        )
        sim = listing_simulator(tmp_path / "ws", script)
        sim.syntax_test("// PLANT", make_problem())
        verdict = sim.syntax_test("// second", make_problem())
        workspace, content = verdict.log.splitlines()
        assert content == "// second"
        candidate = os.path.join(workspace, "candidate.v")
        assert not os.path.islink(candidate)
        assert os.stat(candidate).st_nlink == 1
        assert target.read_text() == "precious"

    def test_a_deleted_workspace_is_replaced(self, tmp_path):
        sim = listing_simulator(tmp_path, 'pwd; grep -q GONE candidate.v && rm -rf "$PWD"; exit 1')
        first = sim.syntax_test("// GONE", make_problem())
        second = sim.syntax_test("// next", make_problem())
        assert not second.timed_out
        assert second.log.splitlines()[0] != first.log.splitlines()[0]

    def test_a_timed_out_workspace_is_not_reused(self, tmp_path):
        sim = listing_simulator(
            tmp_path, 'pwd; grep -q SLOW candidate.v && sleep 30; exit 1',
        )
        timed_out = sim.syntax_test("// SLOW", make_problem(timeout_ms=300))
        assert timed_out.timed_out
        assert os.listdir(tmp_path) == []
        first = sim.syntax_test("// quick", make_problem()).log.splitlines()[0]
        second = sim.syntax_test("// quick", make_problem()).log.splitlines()[0]
        assert first != timed_out.log.splitlines()[0]
        assert second == first  # a plain failure's workspace is reused

    def test_a_kept_failed_workspace_leaves_the_pool(self, tmp_path):
        sim = stub_simulator(workspace_root=str(tmp_path), keep_failed_workspaces=True)
        assert not sim.function_test(CLEAN_MODULE + "// FUNCFAIL", make_problem()).passed
        (kept,) = os.listdir(tmp_path)
        assert sim.function_test(CLEAN_MODULE, make_problem()).passed
        assert len(os.listdir(tmp_path)) == 2
        assert "FUNCFAIL" in (tmp_path / kept / "candidate.v").read_text()
        del sim
        assert os.listdir(tmp_path) == [kept]

    def test_concurrent_leases_never_share_a_directory(self, tmp_path):
        pool = WorkspacePool("verimoa-sim-", str(tmp_path))
        in_use: set[str] = set()
        lock = threading.Lock()
        faults: list[str] = []

        def worker(n: int) -> None:
            for i in range(50):
                mine = "%d-%d" % (n, i)
                workspace = pool.lease([("id.txt", mine), ("w%d.txt" % n, mine)])
                with lock:
                    if workspace in in_use:
                        faults.append("shared %s" % workspace)
                    in_use.add(workspace)
                if sorted(os.listdir(workspace)) != sorted(["id.txt", "w%d.txt" % n]):
                    faults.append("unclean %s" % workspace)
                with open(os.path.join(workspace, "id.txt"), encoding="utf-8") as fh:
                    if fh.read() != mine:
                        faults.append("overwritten %s" % workspace)
                with lock:
                    in_use.discard(workspace)
                pool.release(workspace, reuse=True)

        threads = [threading.Thread(target=worker, args=(n,)) for n in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert faults == []
        assert 1 <= len(os.listdir(tmp_path)) <= 16
        del pool
        assert os.listdir(tmp_path) == []

    def test_at_most_max_concurrency_directories(self, tmp_path, monkeypatch):
        monkeypatch.setattr(simulator, "MAX_CONCURRENCY", 2)
        sim = stub_simulator(workspace_root=str(tmp_path))
        problem = make_problem()
        sources = [CLEAN_MODULE + "// SLEEP_MS=20 v%d" % i for i in range(8)]
        with ThreadPoolExecutor(max_workers=8) as pool:
            verdicts = list(pool.map(lambda s: sim.function_test(s, problem), sources))
        assert all(v.passed for v in verdicts)
        assert 1 <= len(os.listdir(tmp_path)) <= 2

    def test_collecting_the_simulator_removes_its_workspaces(self, workspace_leak_guard):
        sim = stub_simulator()
        sim.function_test(CLEAN_MODULE, make_problem())
        assert len(workspaces_in(workspace_leak_guard)) == 1
        del sim
        assert workspaces_in(workspace_leak_guard) == []


class TestProcessHandling:
    def test_commands_see_relative_names_inside_the_workspace(self, tmp_path):
        # Diagnostics quote what the command was given; with workspace-
        # relative names they read the same whatever the temp path.
        config = SimulatorConfig(
            compile_cmd="%s -c %s {sources} -o {out}" % (
                PY, shlex.quote("import os, sys; print(os.getcwd()); print(sys.argv[1:]); sys.exit(1)")
            ),
            run_cmd="true {out}",
            workspace_root=str(tmp_path),
        )
        problem = make_problem(support_files={"lib/helper.v": "// helper"})
        verdict = ExternalSimulator(config).function_test(CLEAN_MODULE, problem)
        cwd, argv = verdict.log.splitlines()
        assert os.path.basename(cwd).startswith("verimoa-sim-")
        assert argv == str(["candidate.v", "helper.v", "testbench.v", "-o", "./sim.out"])

    def test_run_cmd_may_execute_the_compiled_output(self, tmp_path):
        build = (
            "import os, sys; open(sys.argv[-1], 'w').write("
            "'#!/bin/sh\\necho ALL_TESTS_PASSED\\n'); os.chmod(sys.argv[-1], 0o755)"
        )
        config = SimulatorConfig(
            compile_cmd="%s -c %s {sources} {out}" % (PY, shlex.quote(build)),
            run_cmd="{out}",
            workspace_root=str(tmp_path),
        )
        assert ExternalSimulator(config).function_test(CLEAN_MODULE, make_problem()).passed

    def test_timeout_kills_the_commands_children(self, tmp_path):
        # Killing only the direct child would leave the sleep running.
        pid_file = tmp_path / "grandchild.pid"
        script = "sleep 30 & echo $! > %s; wait" % shlex.quote(str(pid_file))
        config = SimulatorConfig(
            compile_cmd="sh -c %s {sources} {out}" % shlex.quote(script),
            run_cmd="true {out}",
            workspace_root=str(tmp_path / "ws"),
        )
        problem = make_problem(timeout_ms=500)
        verdict = ExternalSimulator(config).syntax_test(CLEAN_MODULE, problem)
        assert verdict.timed_out
        assert verdict.log.endswith("[timeout after 500 ms]")
        assert_gone_within_a_second(int(pid_file.read_text()))

    def test_missing_binary(self, tmp_path):
        config = SimulatorConfig(
            compile_cmd="verimoa-no-such-binary {sources} -o {out}",
            run_cmd="verimoa-no-such-binary {out}",
            workspace_root=str(tmp_path),
        )
        sim = ExternalSimulator(config)
        with pytest.raises(SimulatorUnavailableError, match="not found"):
            sim.syntax_test(CLEAN_MODULE, make_problem())

    def test_api_key_stripped_from_environment(self, tmp_path, monkeypatch):
        monkeypatch.setenv("VERIMOA_API_KEY", "secret-value")
        monkeypatch.setenv("VERIMOA_CANARY", "canary-value")
        script = tmp_path / "envdump.py"
        script.write_text(
            "import os, sys\n"
            "print('key=' + os.environ.get('VERIMOA_API_KEY', 'ABSENT'))\n"
            "print('canary=' + os.environ.get('VERIMOA_CANARY', 'ABSENT'))\n"
            "sys.exit(1)\n"
        )
        config = SimulatorConfig(
            compile_cmd="%s %s {sources} -o {out}" % (PY, shlex.quote(str(script))),
            run_cmd="true {out}",
            workspace_root=str(tmp_path / "ws"),
        )
        verdict = ExternalSimulator(config).syntax_test(CLEAN_MODULE, make_problem())
        assert not verdict.passed
        assert "key=ABSENT" in verdict.log
        assert "secret-value" not in verdict.log
        assert "canary=canary-value" in verdict.log


@pytest.mark.parametrize("key", [None, "secret-value"])
def test_the_environment_reaches_the_command_without_the_key(tmp_path, monkeypatch, key):
    if key is None:
        monkeypatch.delenv("VERIMOA_API_KEY", raising=False)
    else:
        monkeypatch.setenv("VERIMOA_API_KEY", key)
    monkeypatch.setenv("VERIMOA_CANARY", "canary-value")
    script = 'echo "canary=${VERIMOA_CANARY-ABSENT} key=${VERIMOA_API_KEY-ABSENT}"'
    code, output, _ = run_in_session(["sh", "-c", script], str(tmp_path), 10.0, None)
    assert (code, output) == (0, b"canary=canary-value key=ABSENT\n")


# Closes its output at once, then lives on for a while.
QUIET_TAIL = "echo hi; exec >&- 2>&-; sleep %s"
# Leaves a process behind that holds no end of the output pipe.
BACKGROUND = "sleep 3 >/dev/null 2>&1 & echo $! > bg.pid; echo done"


class TestRunInSession:
    def test_child_is_reaped_without_a_sleep_poll(self, tmp_path, monkeypatch):
        sleeps = []
        sleep = time.sleep
        monkeypatch.setattr(time, "sleep", lambda s: (sleeps.append(s), sleep(s)))
        code, output, _ = run_in_session(
            ["sh", "-c", QUIET_TAIL % 0.05], str(tmp_path), 10.0, None
        )
        assert (code, output) == (0, b"hi\n")
        assert sleeps == []

    def test_output_of_a_grandchild_is_read_to_the_end(self, tmp_path):
        script = "(sleep 0.2; echo late) & echo early; exit 3"
        code, output, _ = run_in_session(["sh", "-c", script], str(tmp_path), 10.0, None)
        assert (code, output) == (3, b"early\nlate\n")

    def test_a_finished_command_leaves_no_process_behind(self, tmp_path):
        result = run_in_session(["sh", "-c", BACKGROUND], str(tmp_path), 10.0, None)
        assert result == (0, b"done\n", False)
        assert_gone_within_a_second(int((tmp_path / "bg.pid").read_text()))

    @pytest.mark.parametrize("script", [QUIET_TAIL % 3, "echo hi; sleep 3"],
                             ids=["closed-pipe", "open-pipe"])
    def test_timeout_keeps_the_output_read_so_far(self, tmp_path, script):
        with pytest.raises(subprocess.TimeoutExpired) as exc:
            run_in_session(["sh", "-c", script], str(tmp_path), 0.3, None)
        assert exc.value.output == b"hi\n"

    def test_simulator_log_keeps_the_output_before_a_timeout(self, tmp_path):
        config = SimulatorConfig(
            compile_cmd="sh -c %s {sources} {out}" % shlex.quote(QUIET_TAIL % 3),
            run_cmd="true {out}",
            workspace_root=str(tmp_path),
        )
        problem = make_problem(timeout_ms=300)
        verdict = ExternalSimulator(config).syntax_test(CLEAN_MODULE, problem)
        assert verdict.timed_out
        assert verdict.log == "hi\n\n[timeout after 300 ms]"


# Prints n bytes of "x" through a pipe, then a text.
FLOOD = "head -c %d /dev/zero | tr '\\0' x; printf %s"


class TestBoundedOutput:
    """The output read is capped at LOG_CAP_BYTES, keeping its head and its
    last LOG_TAIL_BYTES; the pass marker is still found anywhere in the stream."""

    def flood(self, tmp_path, n, text):
        argv = ["sh", "-c", FLOOD % (n, text)]
        return run_in_session(argv, str(tmp_path), 30.0, "ALL_TESTS_PASSED")

    @pytest.mark.parametrize("n", [LOG_CAP_BYTES - LOG_TAIL_BYTES, LOG_CAP_BYTES - 4])
    def test_output_up_to_the_cap_is_kept_whole(self, tmp_path, n):
        code, output, seen = self.flood(tmp_path, n, "tail")
        assert (code, output, seen) == (0, b"x" * n + b"tail", False)

    def test_one_byte_more_is_capped(self, tmp_path):
        _, output, _ = self.flood(tmp_path, LOG_CAP_BYTES - 3, "tail")
        assert output.count(b"bytes dropped") == 1 and output.endswith(b"tail")
        assert len(output) <= LOG_CAP_BYTES

    def test_a_longer_output_keeps_its_head_and_tail(self, tmp_path):
        n = 3 * LOG_CAP_BYTES
        code, output, seen = self.flood(tmp_path, n, "END")
        head = LOG_CAP_BYTES - LOG_TAIL_BYTES - simulator._NOTE_ROOM
        note = b"\n...[%d bytes dropped]...\n" % (n + 3 - head - LOG_TAIL_BYTES)
        assert output == b"x" * head + note + b"x" * (LOG_TAIL_BYTES - 3) + b"END"
        assert len(output) <= LOG_CAP_BYTES
        assert (code, seen) == (0, False)

    def test_a_marker_after_eight_caps_of_output_passes(self, tmp_path):
        config = SimulatorConfig(
            compile_cmd="%s -c pass {sources} {out}" % PY,
            run_cmd="sh -c %s {out}"
            % shlex.quote(FLOOD % (8 * LOG_CAP_BYTES, "ALL_TESTS_PASSED")),
            workspace_root=str(tmp_path / "ws"),
        )
        verdict = ExternalSimulator(config).function_test(CLEAN_MODULE, make_problem())
        assert verdict.passed
        assert len(verdict.log) <= LOG_CAP_BYTES

    def test_a_marker_split_across_two_writes_is_found(self, tmp_path):
        script = "printf ALL_TESTS_; sleep 0.2; printf PASSED"
        result = run_in_session(["sh", "-c", script], str(tmp_path), 10.0, "ALL_TESTS_PASSED")
        assert result == (0, b"ALL_TESTS_PASSED", True)

    @pytest.mark.parametrize("head", [0, 5, LOG_CAP_BYTES - 3, 3 * LOG_CAP_BYTES])
    def test_a_marker_split_at_any_byte_is_found(self, head):
        marker = b"ALL_TESTS_PASSED"
        # All of the marker is found; all but its last byte is not.
        for text, found in ((marker, True), (marker[:-1], False)):
            for cut in range(len(text) + 1):
                output = simulator._CappedOutput(marker)
                for chunk in (b"x" * head + text[:cut], text[cut:], b"y" * 7):
                    output.add(chunk)
                assert output.seen is found, (text, cut)

    def test_fifty_megabytes_of_output_take_little_memory(self, tmp_path):
        tracemalloc.start()
        try:
            code, output, seen = self.flood(tmp_path, 50_000_000, "ALL_TESTS_PASSED")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert (code, seen) == (0, True)
        assert len(output) <= LOG_CAP_BYTES
        assert peak < 1_000_000


class TestRunInSessionWithoutPidfd:
    """Where os.pidfd_open is missing or fails, Popen.wait does the wait."""

    @pytest.fixture(autouse=True, params=["missing", "failing"])
    def no_pidfd(self, request, monkeypatch):
        if request.param == "missing":
            monkeypatch.delattr(os, "pidfd_open", raising=False)
        else:
            def fail(pid, flags=0):
                raise OSError(errno.ENOSYS, "Function not implemented")
            monkeypatch.setattr(os, "pidfd_open", fail)

    def test_runs_to_the_end(self, tmp_path):
        script = QUIET_TAIL % 0.05 + "; exit 3"
        result = run_in_session(["sh", "-c", script], str(tmp_path), 10.0, None)
        assert result == (3, b"hi\n", False)

    def test_output_of_a_grandchild_is_read_to_the_end(self, tmp_path):
        script = "(sleep 0.2; echo late) & echo early; exit 3"
        code, output, _ = run_in_session(["sh", "-c", script], str(tmp_path), 10.0, None)
        assert (code, output) == (3, b"early\nlate\n")

    def test_a_finished_command_leaves_no_process_behind(self, tmp_path):
        result = run_in_session(["sh", "-c", BACKGROUND], str(tmp_path), 10.0, None)
        assert result == (0, b"done\n", False)
        assert_gone_within_a_second(int((tmp_path / "bg.pid").read_text()))

    @pytest.mark.parametrize("script", [QUIET_TAIL % 3, "echo hi; sleep 3"],
                             ids=["closed-pipe", "open-pipe"])
    def test_timeout_keeps_the_output_read_so_far(self, tmp_path, script):
        started = time.monotonic()
        with pytest.raises(subprocess.TimeoutExpired) as exc:
            run_in_session(["sh", "-c", script], str(tmp_path), 0.3, None)
        assert exc.value.output == b"hi\n"
        assert exc.value.timeout == 0.3
        assert time.monotonic() - started < 2.5


class TestSimcheck:
    def test_stub_reports_ok(self, tmp_path):
        ok, message = simcheck(stub_simulator(workspace_root=str(tmp_path)))
        assert ok
        assert message == "simulator ok"

    def test_run_failure_reported(self, tmp_path):
        sim = stub_simulator(workspace_root=str(tmp_path), pass_marker="NEVER_PRINTED")
        ok, message = simcheck(sim)
        assert not ok
        assert message.startswith("run failed")

    def test_compile_failure_reported(self, tmp_path):
        config = SimulatorConfig(
            compile_cmd="%s -c %s {sources} -o {out}"
            % (PY, shlex.quote("import sys; sys.exit(1)")),
            run_cmd="true {out}",
            workspace_root=str(tmp_path),
        )
        ok, message = simcheck(ExternalSimulator(config))
        assert not ok
        assert message.startswith("compile failed")

    def test_one_evaluation_is_two_spawns(self, tmp_path, monkeypatch):
        spawns = [0]
        original = subprocess.Popen.__init__

        def counting_init(self, *args, **kwargs):
            spawns[0] += 1
            original(self, *args, **kwargs)

        monkeypatch.setattr(subprocess.Popen, "__init__", counting_init)
        assert simcheck(stub_simulator(workspace_root=str(tmp_path))) == (True, "simulator ok")
        assert spawns[0] == 2  # compile with the testbench, then run

    def test_missing_binary_propagates(self, tmp_path):
        config = SimulatorConfig(
            compile_cmd="verimoa-no-such-binary {sources} -o {out}",
            run_cmd="verimoa-no-such-binary {out}",
            workspace_root=str(tmp_path),
        )
        with pytest.raises(SimulatorUnavailableError):
            simcheck(ExternalSimulator(config))


def test_stub_script_is_bundled():
    prefix = stub_script_cmd("sim.awk")
    path = shlex.split(prefix)[-1]
    assert os.path.exists(path)


@pytest.mark.parametrize(
    "script, args",
    [
        ("sim.awk", ["compile", "-o", "design.out", "candidate.v"]),
        ("check.awk", ["candidate.py"]),
    ],
)
def test_stubs_run_on_awk(tmp_path, script, args):
    # Start-up is most of a stub spawn, and awk starts in a fraction of a
    # Python interpreter's time.  Launch exactly as the simulator does.
    (tmp_path / "candidate.v").write_text("// SLEEP_MS=1\n" + CLEAN_MODULE)
    (tmp_path / "candidate.py").write_text("def model(): return 1\n")
    argv = shlex.split(stub_script_cmd(script))
    # awk is resolved on PATH once, when the command is built.
    assert os.path.isabs(argv[0]) and os.path.basename(argv[0]) == "awk"
    assert argv[1] == "-f"
    proc = subprocess.run([*argv, *args], cwd=tmp_path, capture_output=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, b"", b"")
