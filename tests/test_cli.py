import hashlib
import json
import os
import shutil
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from conftest import (
    CLEAN_MODULE,
    FIXTURES,
    PROGRESSIVE_CONFIG,
    PROGRESSIVE_DIGESTS,
    PROGRESSIVE_RULES,
    TOY_BENCH,
    make_problem,
    write_benchmark,
    write_problem,
)
from verimoa import cli
from verimoa.cli import main
from verimoa.backends import GenerationRequest, load_scripted
from verimoa.errors import AuthError, BackendExhaustedError

VERILOG_REPLY = "```verilog\n%s\n```" % CLEAN_MODULE.strip("\n")


@pytest.fixture
def mini_run(tmp_path):
    """A one-problem benchmark, config, and rules file for fast CLI runs."""
    bench_dir = tmp_path / "bench"
    bench_dir.mkdir()
    problem = make_problem()
    meta = {"id": problem.id, "top_module": problem.top_module, "timeout_ms": problem.timeout_ms}
    write_problem(bench_dir, problem.id, meta, problem.description, problem.testbench_source)
    write_benchmark(bench_dir, [problem.id])
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({
            "proposer_layers": 1, "layer_width": 1, "mixture": ["Base"],
            "top_n_hdl": 1, "trials": 1,
        }),
        encoding="utf-8",
    )
    rules = tmp_path / "rules.jsonl"
    rules.write_text(
        json.dumps({"when": {}, "text": VERILOG_REPLY}) + "\n", encoding="utf-8"
    )
    return {
        "bench": str(bench_dir),
        "config": str(config),
        "rules": str(rules),
        "out": str(tmp_path / "out"),
    }


def run_cli(*argv):
    return main(list(argv))


def read_events(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestHelp:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--help"],
            ["run", "--help"],
            ["score", "--help"],
            ["passk", "--help"],
            ["report", "--help"],
            ["facts", "--help"],
            ["simcheck", "--help"],
        ],
    )
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(*argv)
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out.lower()


class TestRun:
    def test_happy_path(self, mini_run, capsys):
        rc = run_cli(
            "run", "--config", mini_run["config"],
            "--benchmark", mini_run["bench"], "--out", mini_run["out"],
            "--backend", "scripted:%s" % mini_run["rules"], "--sim", "stub",
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "problems=1 trials=1 pass@1=1.000" in out
        assert os.path.isfile(os.path.join(mini_run["out"], "manifest.json"))
        assert os.path.isfile(
            os.path.join(mini_run["out"], "widget", "0", "trace.jsonl")
        )
        transcript = os.path.join(mini_run["out"], "transcript.jsonl")
        with open(transcript, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        # direct generation plus aggregation, both recorded
        assert len(records) == 2

    def test_missing_required_flag(self, capsys):
        rc = run_cli("run", "--benchmark", "x", "--out", "y")
        assert rc == 1
        assert capsys.readouterr().err.startswith("usage_error:")

    def test_unknown_backend_spec(self, mini_run, capsys):
        rc = run_cli(
            "run", "--config", mini_run["config"],
            "--benchmark", mini_run["bench"], "--out", mini_run["out"],
            "--backend", "telepathy", "--sim", "stub",
        )
        assert rc == 1
        assert "usage_error" in capsys.readouterr().err

    def test_http_backend_needs_endpoint_and_model(self, mini_run, capsys):
        rc = run_cli(
            "run", "--config", mini_run["config"],
            "--benchmark", mini_run["bench"], "--out", mini_run["out"],
            "--sim", "stub",
        )
        assert rc == 1
        assert "--endpoint" in capsys.readouterr().err

    def test_missing_config_file(self, mini_run, capsys):
        rc = run_cli(
            "run", "--config", mini_run["config"] + ".nope",
            "--benchmark", mini_run["bench"], "--out", mini_run["out"],
            "--backend", "scripted:%s" % mini_run["rules"], "--sim", "stub",
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("missing_file:")

    def test_dead_simulator_is_environment_error(self, mini_run, capsys):
        rc = run_cli(
            "run", "--config", mini_run["config"],
            "--benchmark", mini_run["bench"], "--out", mini_run["out"],
            "--backend", "scripted:%s" % mini_run["rules"],
            "--sim", "external",
            "--compile-cmd", "verimoa-no-such-binary {sources} -o {out}",
            "--run-cmd", "verimoa-no-such-binary {out}",
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("simulator_unavailable:")
        assert not os.path.exists(mini_run["out"])

    def test_all_trials_failing_is_pipeline_failure(self, mini_run, tmp_path, capsys):
        dead_rules = tmp_path / "dead.jsonl"
        dead_rules.write_text(
            json.dumps({"when": {"tag_contains": "NEVER-MATCHES"}, "text": "x"}) + "\n",
            encoding="utf-8",
        )
        rc = run_cli(
            "run", "--config", mini_run["config"],
            "--benchmark", mini_run["bench"], "--out", mini_run["out"],
            "--backend", "scripted:%s" % dead_rules, "--sim", "stub",
        )
        assert rc == 3
        assert capsys.readouterr().err.startswith("pipeline_failure:")

    def test_auth_error_exits_two(self, tmp_path, monkeypatch, capsys):
        calls = []

        class Rejecting:
            backend_id = "rejecting"

            def generate(self, request):
                calls.append(request.request_tag)
                raise AuthError("backend rejected credentials (HTTP 401)")

        monkeypatch.setattr(cli, "load_scripted", lambda path: Rejecting())
        rc = run_cli(
            "run", "--config", PROGRESSIVE_CONFIG, "--benchmark", TOY_BENCH,
            "--out", str(tmp_path / "out"), "--backend", "scripted:unused",
            "--sim", "stub", "--jobs", "4",
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("auth_error:")
        assert 1 <= len(calls) < 60

    def test_dead_backend_exits_two(self, tmp_path, capsys):
        # An empty script exhausts on every request, so every trial dies.
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        rc = run_cli(
            "run", "--config", PROGRESSIVE_CONFIG, "--benchmark", TOY_BENCH,
            "--out", str(tmp_path / "out"), "--backend", "scripted:%s" % empty,
            "--sim", "stub", "--jobs", "4",
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("backend_exhausted:")

    def test_one_exhausted_call_degrades_only_its_slot(self, tmp_path, monkeypatch, capsys):
        rules = load_scripted(PROGRESSIVE_RULES)

        class ExhaustedOnce:
            backend_id = "exhausted-once"

            def generate(self, request):
                if request.request_tag.startswith("mux2/t0/L1/S1/"):
                    raise BackendExhaustedError("3 attempts failed; last: HTTP 503")
                return rules.generate(request)

        monkeypatch.setattr(cli, "load_scripted", lambda path: ExhaustedOnce())
        out = tmp_path / "out"
        rc = run_cli(
            "run", "--config", PROGRESSIVE_CONFIG, "--benchmark", TOY_BENCH,
            "--out", str(out), "--backend", "scripted:unused",
            "--sim", "stub", "--jobs", "4",
        )
        assert rc == 0
        assert capsys.readouterr().out.startswith("problems=5 trials=2 pass@1=")
        errors = [
            (pid, trial, event)
            for pid in ("and2", "counter4", "dff", "mux2", "xor2")
            for trial in (0, 1)
            for event in read_events(out / pid / str(trial) / "trace.jsonl")
            if event["event"] == "agent_error"
        ]
        assert [(pid, trial, e["layer"], e["slot"], e["error_code"])
                for pid, trial, e in errors] == [("mux2", 0, 1, 1, "backend_exhausted")]

    def test_transcript_is_canonical(self, tmp_path, capsys):
        transcripts = []
        for name in ("a", "b"):
            out = tmp_path / name
            rc = run_cli(
                "run", "--config", PROGRESSIVE_CONFIG, "--benchmark", TOY_BENCH,
                "--out", str(out), "--backend", "scripted:%s" % PROGRESSIVE_RULES,
                "--sim", "stub", "--jobs", "4",
            )
            assert rc == 0
            transcripts.append((out / "transcript.jsonl").read_bytes())
        assert transcripts[0] == transcripts[1]
        tags = [json.loads(line)["request_tag"] for line in transcripts[0].splitlines()]
        assert len(tags) == 110
        assert tags == sorted(tags)

    def test_out_holding_a_run_is_refused(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = (
            "run", "--config", PROGRESSIVE_CONFIG, "--benchmark", TOY_BENCH,
            "--out", str(out), "--backend", "scripted:%s" % PROGRESSIVE_RULES,
            "--sim", "stub", "--jobs", "4",
        )
        assert run_cli(*argv) == 0
        first = {p: p.read_bytes() for p in out.rglob("*") if p.is_file()}
        capsys.readouterr()
        assert run_cli(*argv) == 1
        assert capsys.readouterr().err.startswith("usage_error: --out")
        assert {p: p.read_bytes() for p in out.rglob("*") if p.is_file()} == first
        assert len((out / "transcript.jsonl").read_bytes().splitlines()) == 110

    def test_non_string_predicate_fails_before_any_run_file(self, mini_run, capsys):
        with open(mini_run["rules"], "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"text": "x", "when": {"tag_contains": 5}}) + "\n")
        rc = run_cli(
            "run", "--config", mini_run["config"], "--benchmark", mini_run["bench"],
            "--out", mini_run["out"], "--backend", "scripted:%s" % mini_run["rules"],
            "--sim", "stub",
        )
        assert rc == 1
        assert capsys.readouterr().err.startswith("schema_error:")
        assert not os.path.exists(mini_run["out"])

    def test_non_string_replayed_response_fails_before_any_run_file(
        self, mini_run, tmp_path, capsys
    ):
        argv = ("run", "--config", mini_run["config"], "--benchmark", mini_run["bench"],
                "--sim", "stub")
        recorded = tmp_path / "recorded"
        assert run_cli(*argv, "--out", str(recorded),
                       "--backend", "scripted:%s" % mini_run["rules"]) == 0
        lines = (recorded / "transcript.jsonl").read_text(encoding="utf-8").splitlines()
        lines[0] = json.dumps({**json.loads(lines[0]), "response_text": 5})
        transcript = tmp_path / "transcript.jsonl"
        transcript.write_text("\n".join(lines) + "\n", encoding="utf-8")
        capsys.readouterr()
        rc = run_cli(*argv, "--out", mini_run["out"], "--backend", "replay:%s" % transcript)
        assert rc == 1
        assert capsys.readouterr().err.startswith("schema_error: %s:1:" % transcript)
        assert not os.path.exists(mini_run["out"])

    def test_bad_template_placeholder_fails_before_any_run_file(
        self, mini_run, tmp_path, capsys
    ):
        templates = tmp_path / "templates"
        shutil.copytree(os.path.join(os.path.dirname(cli.__file__), "templates"), templates)
        (templates / "base" / "direct.txt").write_text(
            "{description}\n{bogus}\n{references}\n", encoding="utf-8"
        )
        rc = run_cli(
            "run", "--config", mini_run["config"], "--benchmark", mini_run["bench"],
            "--out", mini_run["out"], "--backend", "scripted:%s" % mini_run["rules"],
            "--sim", "stub", "--templates", str(templates),
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("schema_error: template base/direct ")
        assert "bogus" in err
        assert not os.path.exists(mini_run["out"])

    @pytest.mark.parametrize(
        "flags, message",
        [
            (("--py-check-cmd", 'awk "{source}'), "check_cmd does not parse"),
            (("--cpp-check-cmd", "lint"), "check_cmd needs a {source} placeholder"),
            (("--compile-cmd", 'awk "{sources} -o {out}'), "compile_cmd does not parse"),
        ],
        ids=["unparseable-check", "check-without-source", "unparseable-compile"],
    )
    def test_bad_command_template_fails_before_any_run_file(
        self, mini_run, capsys, flags, message
    ):
        rc = run_cli(
            "run", "--config", mini_run["config"], "--benchmark", mini_run["bench"],
            "--out", mini_run["out"], "--backend", "scripted:%s" % mini_run["rules"],
            "--sim", "stub", *flags,
        )
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("invariant_violation: %s" % message)
        assert len(err.splitlines()) == 1
        assert not os.path.exists(mini_run["out"])

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_fails_before_any_run_file(self, mini_run, capsys, jobs):
        rc = run_cli(
            "run", "--config", mini_run["config"], "--benchmark", mini_run["bench"],
            "--out", mini_run["out"], "--backend", "scripted:%s" % mini_run["rules"],
            "--sim", "stub", "--jobs", jobs,
        )
        assert rc == 1
        assert capsys.readouterr().err == "invariant_violation: jobs must be >= 1, got %s\n" % jobs
        assert not os.path.exists(mini_run["out"])

    def test_transcript_alone_marks_a_run(self, mini_run, capsys):
        os.makedirs(mini_run["out"])
        with open(os.path.join(mini_run["out"], "transcript.jsonl"), "w") as fh:
            fh.write("")
        rc = run_cli(
            "run", "--config", mini_run["config"], "--benchmark", mini_run["bench"],
            "--out", mini_run["out"], "--backend", "scripted:%s" % mini_run["rules"],
            "--sim", "stub",
        )
        assert rc == 1
        assert "transcript.jsonl" in capsys.readouterr().err
        assert os.listdir(mini_run["out"]) == ["transcript.jsonl"]

    @pytest.mark.parametrize(
        "config, digests, flags, jobs",
        [
            pytest.param(PROGRESSIVE_CONFIG, PROGRESSIVE_DIGESTS, (), jobs, id=jobs)
            for jobs in ("1", "4")
        ] + [
            pytest.param(
                os.path.join(FIXTURES, "%s.config.json" % name.split("-")[0]),
                os.path.join(FIXTURES, "%s.sha256" % name),
                flags, jobs, id="%s-%s" % (name, jobs),
            )
            for name, flags in (
                ("progressive-compile-only", ("--no-inloop-functional",)),
                ("refine", ()),
                ("refine-compile-only", ("--no-inloop-functional",)),
            )
            for jobs in ("1", "4")
        ],
    )
    def test_progressive_run_matches_golden_digests(
        self, tmp_path, config, digests, flags, jobs
    ):
        # Digests of the run directory, pinned so that any change to
        # traces, manifest or transcript shows; refresh with sha256sum from
        # a run directory when a change means to move them.  The plain ids
        # are the progressive config; the others add sim refinement, the
        # compile-only in-loop gate, or both.
        out = tmp_path / "out"
        rc = run_cli(
            "run", "--config", config, "--benchmark", TOY_BENCH,
            "--out", str(out), "--backend", "scripted:%s" % PROGRESSIVE_RULES,
            "--sim", "stub", "--jobs", jobs, *flags,
        )
        assert rc == 0
        with open(digests, encoding="utf-8") as fh:
            golden = dict(reversed(line.split()) for line in fh if line.strip())
        assert len(golden) == 12
        actual = {
            name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in golden
        }
        assert actual == golden
        files = {p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file()}
        assert files == set(golden)


class TestScore:
    def solution(self, problem):
        path = os.path.join(TOY_BENCH, problem, "solution.v")
        with open(path, encoding="utf-8") as fh:
            return fh.read()

    def test_plain_output(self, tmp_path, capsys):
        hdl = tmp_path / "candidate.v"
        hdl.write_text(self.solution("mux2"), encoding="utf-8")
        rc = run_cli(
            "score", "--problem", os.path.join(TOY_BENCH, "mux2"),
            "--hdl", str(hdl), "--sim", "stub",
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "value: 1.000000" in out
        assert "branch: perfect" in out

    def test_json_output(self, tmp_path, capsys):
        hdl = tmp_path / "candidate.v"
        hdl.write_text(self.solution("and2") + "// FUNCFAIL\n", encoding="utf-8")
        rc = run_cli(
            "score", "--problem", os.path.join(TOY_BENCH, "and2"),
            "--hdl", str(hdl), "--sim", "stub", "--json",
        )
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["branch"] == "functional_fail"
        assert blob["value"] == 0.8

    def test_missing_hdl_file_is_io_error(self, capsys):
        rc = run_cli(
            "score", "--problem", os.path.join(TOY_BENCH, "mux2"),
            "--hdl", "/nonexistent/file.v", "--sim", "stub",
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("io_error:")


class TestFacts:
    def test_dumps_structural_facts(self, tmp_path, capsys):
        source = tmp_path / "m.v"
        source.write_text(CLEAN_MODULE, encoding="utf-8")
        rc = run_cli("facts", str(source))
        assert rc == 0
        blob = json.loads(capsys.readouterr().out)
        assert blob["module_name"] == "widget"
        assert blob["port_count"] == 3


def synthetic_run(root):
    manifest = {
        "benchmark": "synthetic",
        "problems": ["p1", "p2"],
        "config": {"trials": 2},
    }
    os.makedirs(root, exist_ok=True)
    with open(os.path.join(root, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(manifest, fh)
    outcomes = {
        ("p1", 0): (True, True),
        ("p1", 1): (True, True),
        ("p2", 0): (True, False),
        ("p2", 1): (False, False),
    }
    for (problem, trial), (syntax, functional) in outcomes.items():
        tdir = os.path.join(root, problem, str(trial))
        os.makedirs(tdir, exist_ok=True)
        with open(os.path.join(tdir, "trace.jsonl"), "w", encoding="utf-8") as fh:
            fh.write(json.dumps({
                "event": "trial_result",
                "syntax_pass": syntax,
                "functional_pass": functional,
            }) + "\n")
    return root


class TestPassk:
    def test_prints_values(self, tmp_path, capsys):
        run = synthetic_run(str(tmp_path / "run"))
        rc = run_cli("passk", "--run", run, "--k", "1,2")
        assert rc == 0
        out = capsys.readouterr().out
        assert "pass@1 = 0.500000" in out
        assert "pass@2 = 0.500000" in out

    def test_oversized_k_warns_on_stderr(self, tmp_path, capsys):
        run = synthetic_run(str(tmp_path / "run"))
        rc = run_cli("passk", "--run", run, "--k", "1,9")
        assert rc == 0
        captured = capsys.readouterr()
        assert "pass@1" in captured.out
        assert "pass@9" not in captured.out
        assert "warning" in captured.err

    @pytest.mark.parametrize("bad", ["x", "0", "1,-2", ""])
    def test_bad_k_values(self, tmp_path, bad, capsys):
        run = synthetic_run(str(tmp_path / "run"))
        rc = run_cli("passk", "--run", run, "--k", bad)
        assert rc == 1
        assert capsys.readouterr().err.startswith("usage_error:")

    def test_missing_run_dir(self, tmp_path, capsys):
        rc = run_cli("passk", "--run", str(tmp_path / "ghost"), "--k", "1")
        assert rc == 1
        assert capsys.readouterr().err.startswith("missing_file:")

    def test_config_not_an_object_is_corrupt(self, tmp_path, capsys):
        run = synthetic_run(str(tmp_path / "run"))
        with open(os.path.join(run, "manifest.json"), "w", encoding="utf-8") as fh:
            json.dump({"problems": ["p1", "p2"], "config": 5}, fh)
        assert run_cli("passk", "--run", run, "--k", "1") == 1
        assert capsys.readouterr().err.startswith("corrupt_trace:")


@pytest.mark.parametrize("command", ["passk", "report"])
@pytest.mark.parametrize("event", [
    {"event": "layer_stats", "min_top_n": None, "window_values": []},
    {"event": "trial_result", "functional_pass": True},
])
def test_event_without_a_read_field_is_corrupt(tmp_path, capsys, command, event):
    run = synthetic_run(str(tmp_path / "run"))
    trace = os.path.join(run, "p1", "0", "trace.jsonl")
    with open(trace, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(event) + "\n")
    assert run_cli(command, "--run", run, "--k", "1") == 1
    assert capsys.readouterr().err.startswith("corrupt_trace: %s:1:" % trace)


class TestReport:
    def test_writes_report(self, tmp_path, capsys):
        run = synthetic_run(str(tmp_path / "run"))
        rc = run_cli("report", "--run", run, "--k", "1,2")
        assert rc == 0
        out = capsys.readouterr().out
        assert "wrote" in out
        assert "pass@1 = 0.500000" in out
        with open(os.path.join(run, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        assert report["pass_at_k"]["per_k"]["1"] == pytest.approx(0.5)

    def test_csv_flag(self, tmp_path):
        run = synthetic_run(str(tmp_path / "run"))
        rc = run_cli("report", "--run", run, "--k", "1", "--csv")
        assert rc == 0
        assert os.path.isfile(os.path.join(run, "curves.csv"))

    def test_default_ks_skip_oversized(self, tmp_path, capsys):
        # Default --k is 1,5,10; with n=2 only k=1 survives.
        run = synthetic_run(str(tmp_path / "run"))
        rc = run_cli("report", "--run", run)
        assert rc == 0
        with open(os.path.join(run, "report.json"), encoding="utf-8") as fh:
            report = json.load(fh)
        assert list(report["pass_at_k"]["per_k"]) == ["1"]
        assert len(report["warnings"]) == 2


class TestSimcheckCommand:
    def test_stub_ok(self, capsys):
        rc = run_cli("simcheck", "--sim", "stub")
        assert rc == 0
        assert "simulator ok" in capsys.readouterr().out

    def test_missing_binary(self, capsys):
        rc = run_cli(
            "simcheck", "--sim", "external",
            "--compile-cmd", "verimoa-no-such-binary {sources} -o {out}",
            "--run-cmd", "verimoa-no-such-binary {out}",
        )
        assert rc == 2
        assert capsys.readouterr().err.startswith("simulator_unavailable:")

    def test_unknown_subcommand(self, capsys):
        rc = run_cli("frobnicate")
        assert rc == 1
        assert "usage_error" in capsys.readouterr().err


class _ChatHandler(BaseHTTPRequestHandler):
    """Answers chat completions with "ok" once a whole wave of them is in
    flight, over keep-alive connections, counting the connections it
    accepts."""

    protocol_version = "HTTP/1.1"

    def setup(self):
        super().setup()
        with self.server.lock:
            self.server.connections += 1

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self.server.wave.wait()
        body = json.dumps({"choices": [{"message": {"content": "ok"}}]}).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


class _ChatServer(ThreadingHTTPServer):
    daemon_threads = True
    request_queue_size = 64  # accept a whole wave at once

    def __init__(self, wave_size: int):
        super().__init__(("127.0.0.1", 0), _ChatHandler)
        self.lock = threading.Lock()
        self.connections = 0
        self.wave = threading.Barrier(wave_size, timeout=30)


class TestHttpBackendPool:
    def test_second_wave_reuses_every_connection(self, tmp_path, monkeypatch):
        for name in ("HTTP_PROXY", "HTTPS_PROXY", "ALL_PROXY"):
            monkeypatch.delenv(name, raising=False)
            monkeypatch.delenv(name.lower(), raising=False)
        monkeypatch.setenv("NO_PROXY", "127.0.0.1")
        seats = 24  # the default --jobs 4 x a layer_width of 6
        server = _ChatServer(seats)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        try:
            args = cli.build_parser().parse_args([
                "run", "--config", "c.json", "--benchmark", "b", "--out", str(tmp_path),
                "--endpoint", "http://127.0.0.1:%d/v1" % server.server_port,
                "--model", "m",
            ])
            backend = cli._build_backend(args, str(tmp_path), seats)

            def wave():
                barrier = threading.Barrier(seats)

                def call(i):
                    barrier.wait()
                    backend.generate(GenerationRequest("s", "u", request_tag="t/%d" % i))

                threads = [threading.Thread(target=call, args=(i,)) for i in range(seats)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                assert not any(thread.is_alive() for thread in threads)
                return server.connections

            assert wave() == seats
            assert wave() == seats
            backend.close()
        finally:
            server.shutdown()
            server.server_close()


def test_offline_imports_leave_requests_unloaded():
    # requests is most of the import time and memory of a run that never
    # talks HTTP.
    code = "import sys, verimoa.cli, verimoa.orchestrator; print('requests' in sys.modules)"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(os.path.dirname(TOY_BENCH), "src"), env.get("PYTHONPATH", "")]
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")
