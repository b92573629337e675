import gc
import json
import threading
import warnings

import pytest
import requests
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import CLEAN_MODULE, FakeSimulator, make_problem
from verimoa import backends
from verimoa.backends import (
    GatedBackend,
    GenerationRequest,
    GenerationResponse,
    HttpBackend,
    ReplayBackend,
    ResponseRule,
    RuleBackend,
    ScriptedBackend,
    TranscriptRecorder,
    extract_code_block,
    load_scripted,
    request_key,
)
from verimoa.errors import (
    AuthError,
    BackendExhaustedError,
    SchemaError,
    TranscriptMissError,
)
from verimoa.harness import pass_table, scan_run
from verimoa.orchestrator import run_benchmark
from verimoa.problems import Benchmark, RunConfig


def req(user="design a widget", system="You write Verilog.", tag="p/t1/L1/S1/direct", **kw):
    return GenerationRequest(
        system_prompt=system, user_prompt=user, request_tag=tag, **kw
    )


class TestRequest:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"temperature": -0.1},
            {"top_p": 0.0},
            {"top_p": 1.5},
        ],
    )
    def test_bounds(self, kwargs):
        with pytest.raises(ValueError):
            req(**kwargs)

    def test_defaults(self):
        request = req()
        assert request.temperature == 0.8
        assert request.top_p == 0.95


class TestRequestKey:
    def test_stable(self):
        assert request_key(req()) == request_key(req())
        assert len(request_key(req())) == 64

    def test_tag_and_max_tokens_excluded(self):
        a = request_key(req(tag="a"))
        b = request_key(req(tag="b"))
        assert a == b

    def test_sampling_and_prompts_included(self):
        base = request_key(req())
        assert request_key(req(user="other")) != base
        assert request_key(req(system="other")) != base
        assert request_key(req(temperature=0.1)) != base
        assert request_key(req(top_p=0.5)) != base


class TestScripted:
    def test_pops_in_order(self):
        backend = ScriptedBackend(["one", "two"])
        assert backend.generate(req()).text == "one"
        assert backend.generate(req(user="anything")).text == "two"

    def test_exhaustion(self):
        backend = ScriptedBackend(["only"])
        backend.generate(req())
        with pytest.raises(BackendExhaustedError):
            backend.generate(req())

    def test_concurrent_consumption_is_exactly_once(self):
        texts = ["r%d" % i for i in range(40)]
        backend = ScriptedBackend(texts)
        seen: list[str] = []
        lock = threading.Lock()

        def worker():
            for _ in range(10):
                text = backend.generate(req()).text
                with lock:
                    seen.append(text)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert sorted(seen) == sorted(texts)


class OutcomeBackend:
    """Raises or answers with each outcome in turn, counting its calls."""

    backend_id = "outcomes"

    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = 0

    def generate(self, request):
        outcome = self.outcomes[self.calls]
        self.calls += 1
        if isinstance(outcome, Exception):
            raise outcome
        return GenerationResponse(text=outcome, backend_id=self.backend_id)


class TestGatedBackend:
    def test_a_dead_backend_stops_getting_requests(self):
        inner = OutcomeBackend([BackendExhaustedError("dead")] * 3)
        gated = GatedBackend(inner, 3)
        for _ in range(3):
            with pytest.raises(BackendExhaustedError, match="dead"):
                gated.generate(req())
        for _ in range(5):
            with pytest.raises(BackendExhaustedError, match="the last 3 requests"):
                gated.generate(req())
        assert inner.calls == 3

    def test_an_answer_resets_the_count(self):
        exhausted = BackendExhaustedError("dead")
        inner = OutcomeBackend([exhausted, exhausted, "ok"] * 3 + [exhausted, exhausted])
        gated = GatedBackend(inner, 3)
        answers = []
        for _ in range(11):
            try:
                answers.append(gated.generate(req()).text)
            except BackendExhaustedError as exc:
                assert str(exc) == "dead"
        assert (answers, inner.calls) == (["ok"] * 3, 11)

    @pytest.mark.parametrize("error", [AuthError("401"), TranscriptMissError("miss")])
    def test_other_errors_are_not_counted(self, error):
        inner = OutcomeBackend([error] * 4 + ["ok"])
        gated = GatedBackend(inner, 2)
        for _ in range(4):
            with pytest.raises(type(error)):
                gated.generate(req())
        assert gated.generate(req()).text == "ok"
        assert inner.calls == 5


class TestRules:
    def test_first_match_wins(self):
        backend = RuleBackend([
            ResponseRule(text="specific", tag_contains="/L1/"),
            ResponseRule(text="general"),
        ])
        assert backend.generate(req(tag="p/t1/L1/S2/direct")).text == "specific"
        assert backend.generate(req(tag="p/t1/L2/S1/direct")).text == "general"

    def test_predicates_conjoin(self):
        rule = ResponseRule(
            text="x", tag_contains="stage1", system_contains="C++"
        )
        assert rule.matches(req(tag="a/stage1", system="You write C++."))
        assert not rule.matches(req(tag="a/stage1", system="You write Python."))
        assert not rule.matches(req(tag="a/direct", system="You write C++."))

    def test_prompt_predicate(self):
        backend = RuleBackend([ResponseRule(text="m", prompt_contains="multiplexer")])
        assert backend.generate(req(user="build a multiplexer")).text == "m"
        with pytest.raises(TranscriptMissError):
            backend.generate(req(user="build a counter"))


class TestLoadScripted:
    def write(self, tmp_path, lines):
        path = tmp_path / "responses.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return str(path)

    def test_sequential_flavor(self, tmp_path):
        path = self.write(tmp_path, [json.dumps({"text": "a"}), json.dumps("b")])
        backend = load_scripted(path)
        assert isinstance(backend, ScriptedBackend)
        assert backend.generate(req()).text == "a"
        assert backend.generate(req()).text == "b"

    def test_rule_flavor_sniffed(self, tmp_path):
        path = self.write(tmp_path, [
            json.dumps({"when": {"tag_contains": "L1"}, "text": "first"}),
            json.dumps({"text": "fallback"}),
        ])
        backend = load_scripted(path)
        assert isinstance(backend, RuleBackend)
        assert backend.generate(req(tag="x/L1/y")).text == "first"
        assert backend.generate(req(tag="x/L2/y")).text == "fallback"

    def test_invalid_json_reports_line(self, tmp_path):
        path = self.write(tmp_path, [json.dumps({"text": "ok"}), "{nope"])
        with pytest.raises(SchemaError, match=":2:"):
            load_scripted(path)

    def test_missing_text_field(self, tmp_path):
        path = self.write(tmp_path, [json.dumps({"when": {}})])
        with pytest.raises(SchemaError):
            load_scripted(path)

    def test_when_must_be_object(self, tmp_path):
        path = self.write(tmp_path, [json.dumps({"text": "x", "when": "L1"})])
        with pytest.raises(SchemaError):
            load_scripted(path)

    def test_unknown_predicate(self, tmp_path):
        path = self.write(tmp_path, [
            json.dumps({"text": "x", "when": {"tag_equals": "L1"}}),
        ])
        with pytest.raises(SchemaError, match="tag_equals"):
            load_scripted(path)

    @pytest.mark.parametrize("record", [
        {"text": 5},
        {"text": ["x"]},
        {"text": None, "when": {}},
        {"text": "x", "when": {"tag_contains": 5}},
        {"text": "x", "when": {"prompt_contains": None}},
        {"text": "x", "when": {"system_contains": ["a"]}},
    ])
    def test_non_string_text_or_predicate(self, tmp_path, record):
        # Each would load and then fail inside a request with a TypeError.
        path = self.write(tmp_path, [json.dumps({"text": "ok"}), json.dumps(record)])
        with pytest.raises(SchemaError, match=":2:"):
            load_scripted(path)


class TestReplay:
    def test_recorder_to_replay_round_trip(self, tmp_path):
        transcript = str(tmp_path / "transcript.jsonl")
        recorder = TranscriptRecorder(ScriptedBackend(["alpha", "beta"]), transcript)
        first = req(user="one")
        second = req(user="two")
        recorder.generate(first)
        recorder.generate(second)
        recorder.close()

        replay = ReplayBackend.from_transcript(transcript)
        # Replay is keyed by content, so order and tags no longer matter.
        assert replay.generate(req(user="two", tag="different")).text == "beta"
        assert replay.generate(first).text == "alpha"

    def test_transcript_record_shape(self, tmp_path):
        transcript = str(tmp_path / "t.jsonl")
        recorder = TranscriptRecorder(ScriptedBackend(["x"]), transcript)
        recorder.generate(req())
        recorder.close()
        with open(transcript, encoding="utf-8") as fh:
            record = json.loads(fh.read())
        assert record["key"] == request_key(req())
        assert record["request"]["user_prompt"] == "design a widget"
        assert record["request"]["max_tokens"] == 4096
        assert record["response_text"] == "x"

    @given(
        requests_=st.lists(
            st.builds(
                GenerationRequest,
                system_prompt=st.text(),
                user_prompt=st.one_of(
                    st.text(), st.sampled_from(['"q"', "\\", "\x00\x1f\x7f", "é\u2028😀"])
                ),
                temperature=st.one_of(st.sampled_from([0.0, 0.1, 1e-07, 0.8, 2.5]),
                                      st.floats(0, 10)),
                top_p=st.one_of(st.sampled_from([0.1, 1e-07, 0.95, 1.0]),
                                st.floats(1e-300, 1.0)),
                request_tag=st.text(max_size=12),
            ),
            min_size=1,
            max_size=4,
        )
    )
    @settings(max_examples=100, deadline=None)
    def test_each_line_is_the_record_as_json_dumps_gives_it(self, tmp_path_factory, requests_):
        class Echo:
            backend_id = "echo"

            def generate(self, request):
                text = "%s|%s" % (request.request_tag, request.user_prompt)
                return GenerationResponse(text=text, backend_id=self.backend_id)

        transcript = tmp_path_factory.mktemp("t") / "t.jsonl"
        recorder = TranscriptRecorder(Echo(), str(transcript))
        expected = []
        for request in requests_:
            text = recorder.generate(request).text
            record = {
                "key": request_key(request),
                "request_tag": request.request_tag,
                "request": {
                    "system_prompt": request.system_prompt,
                    "user_prompt": request.user_prompt,
                    "temperature": request.temperature,
                    "top_p": request.top_p,
                    "max_tokens": 4096,
                },
                "response_text": text,
            }
            expected.append(json.dumps(record, sort_keys=True, ensure_ascii=True) + "\n")
        recorder.close()  # sorts the lines by tag
        with open(transcript, encoding="utf-8", newline="") as fh:
            assert sorted(fh.readlines()) == sorted(expected)
        replay = ReplayBackend.from_transcript(str(transcript))
        for request in requests_:
            answer = "%s|%s" % (request.request_tag, request.user_prompt)
            assert replay.generate(request).text == answer

    def test_first_record_wins_on_duplicate_keys(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        key = request_key(req())
        lines = [
            json.dumps({"key": key, "response_text": "first"}),
            json.dumps({"key": key, "response_text": "second"}),
        ]
        transcript.write_text("\n".join(lines) + "\n", encoding="utf-8")
        replay = ReplayBackend.from_transcript(str(transcript))
        assert replay.generate(req()).text == "first"

    def test_exact_tag_wins_over_first_record(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        key = request_key(req())
        lines = [
            json.dumps({"key": key, "request_tag": "p/t0/L1/S1/direct",
                        "response_text": "trial0"}),
            json.dumps({"key": key, "request_tag": "p/t1/L1/S1/direct",
                        "response_text": "trial1"}),
        ]
        transcript.write_text("\n".join(lines) + "\n", encoding="utf-8")
        replay = ReplayBackend.from_transcript(str(transcript))
        assert replay.generate(req(tag="p/t1/L1/S1/direct")).text == "trial1"
        assert replay.generate(req(tag="p/t0/L1/S1/direct")).text == "trial0"
        assert replay.generate(req(tag="q/t5/L1/S1/direct")).text == "trial0"

    def test_replay_answers_per_trial(self, tmp_path):
        # Both trials send the same first prompt; trial 0 is answered with
        # a failing design, trial 1 with a passing one.
        solution = "```verilog\n%s\n```" % CLEAN_MODULE.strip("\n")
        rules = RuleBackend([
            ResponseRule(text="```verilog\n%s// FUNCFAIL\n```" % CLEAN_MODULE,
                         tag_contains="/t0/"),
            ResponseRule(text=solution),
        ])
        bench = Benchmark(name="one", problems=(make_problem(),))
        config = RunConfig(
            proposer_layers=1, layer_width=1, mixture=("Base",), top_n_hdl=1,
            trials=2,
        )
        transcript = str(tmp_path / "transcript.jsonl")

        def pass_at_1(backend, name):
            run_dir = str(tmp_path / name)
            run_benchmark(bench, config, backend, FakeSimulator(), run_dir, jobs=1)
            table, _ = pass_table(scan_run(run_dir), [1])
            return table.per_k[1]

        recorder = TranscriptRecorder(rules, transcript)
        recorded = pass_at_1(recorder, "record")
        recorder.close()
        replayed = pass_at_1(ReplayBackend.from_transcript(transcript), "replay")
        assert recorded == replayed == 0.5

    def test_recorder_close_sorts_by_tag(self, tmp_path):
        transcript = str(tmp_path / "t.jsonl")
        recorder = TranscriptRecorder(ScriptedBackend(["b", "a", "c"]), transcript)
        for tag in ("p/t1/L1/S1/direct", "p/t0/L2/S1/direct", "p/t0/L1/S1/direct"):
            recorder.generate(req(tag=tag))
        recorder.close()
        with open(transcript, encoding="utf-8") as fh:
            records = [json.loads(line) for line in fh]
        assert [r["request_tag"] for r in records] == [
            "p/t0/L1/S1/direct", "p/t0/L2/S1/direct", "p/t1/L1/S1/direct",
        ]
        assert [r["response_text"] for r in records] == ["c", "a", "b"]

    def test_each_answer_is_on_disk_before_close(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        recorder = TranscriptRecorder(ScriptedBackend(["a", "b", "c"]), str(transcript))
        for k in range(1, 4):
            recorder.generate(req(tag="t/%d" % k))
            with open(transcript, encoding="utf-8") as fh:
                lines = fh.read().splitlines()
            assert len(lines) == k
            assert json.loads(lines[-1])["response_text"] == "abc"[k - 1]
        recorder.close()
        assert len(transcript.read_text(encoding="utf-8").splitlines()) == 3

    def test_a_collected_recorder_closes_its_file(self, tmp_path):
        # A caller that never calls close() must not leak the open file.
        recorder = TranscriptRecorder(ScriptedBackend(["a"]), str(tmp_path / "t.jsonl"))
        recorder.generate(req())
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            del recorder
            gc.collect()
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_recorder_close_without_traffic(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        TranscriptRecorder(ScriptedBackend([]), str(transcript)).close()
        assert not transcript.exists()

    def test_miss_is_hard_error(self):
        with pytest.raises(TranscriptMissError):
            ReplayBackend({}).generate(req())

    def test_malformed_transcript(self, tmp_path):
        transcript = tmp_path / "t.jsonl"
        transcript.write_text('{"key": "abc"}\n', encoding="utf-8")
        with pytest.raises(SchemaError, match=":1:"):
            ReplayBackend.from_transcript(str(transcript))

    @pytest.mark.parametrize("field, value", [
        ("key", ["a"]), ("response_text", 5), ("request_tag", None),
    ])
    def test_non_string_transcript_field(self, tmp_path, field, value):
        record = {"key": "abc", "request_tag": "p/t0/L1/S1/direct", "response_text": "x"}
        transcript = tmp_path / "t.jsonl"
        transcript.write_text(
            json.dumps(record) + "\n" + json.dumps({**record, field: value}) + "\n",
            encoding="utf-8",
        )
        with pytest.raises(SchemaError, match=":2: .*must be strings"):
            ReplayBackend.from_transcript(str(transcript))


class FakeResponse:
    def __init__(self, status_code, payload=None, invalid_body=False):
        self.status_code = status_code
        self._payload = payload
        self._invalid = invalid_body

    def json(self):
        if self._invalid:
            raise ValueError("not json")
        return self._payload


class FakeSession:
    def __init__(self, outcomes):
        self.outcomes = list(outcomes)
        self.calls = []

    def post(self, url, json=None, headers=None, timeout=None):
        self.calls.append({"url": url, "json": json, "headers": headers})
        outcome = self.outcomes.pop(0)
        if isinstance(outcome, Exception):
            raise outcome
        return outcome


def ok_response(text="hello", usage=None):
    payload = {"choices": [{"message": {"content": text}}]}
    if usage:
        payload["usage"] = usage
    return FakeResponse(200, payload)


def http_backend(session):
    return HttpBackend("http://unit.test/v1/chat", "m1", session=session)


class TestHttpBackend:
    @pytest.fixture(autouse=True)
    def no_backoff_and_a_key(self, monkeypatch):
        monkeypatch.setattr(backends, "BACKOFF_S", 0.0)
        monkeypatch.setenv("VERIMOA_API_KEY", "k-123")

    def test_happy_path_builds_chat_body(self):
        session = FakeSession([ok_response("hi", {"prompt_tokens": 3, "completion_tokens": 5})])
        response = http_backend(session).generate(req(temperature=0.2))
        assert response.text == "hi"
        assert response.token_usage == (3, 5)
        body = session.calls[0]["json"]
        assert body["model"] == "m1"
        assert body["temperature"] == 0.2
        assert body["max_tokens"] == 4096
        assert [m["role"] for m in body["messages"]] == ["system", "user"]
        assert session.calls[0]["headers"]["Authorization"] == "Bearer k-123"

    def test_no_key_sends_no_auth_header(self, monkeypatch):
        monkeypatch.delenv("VERIMOA_API_KEY", raising=False)
        session = FakeSession([ok_response()])
        HttpBackend("http://unit.test", "m", session=session).generate(req())
        assert "Authorization" not in session.calls[0]["headers"]

    def test_key_read_from_environment(self, monkeypatch):
        monkeypatch.setenv("VERIMOA_API_KEY", "env-key")
        session = FakeSession([ok_response()])
        HttpBackend("http://unit.test", "m", session=session).generate(req())
        assert session.calls[0]["headers"]["Authorization"] == "Bearer env-key"

    @pytest.mark.parametrize("status", [401, 403])
    def test_auth_failure_is_immediate(self, status):
        session = FakeSession([FakeResponse(status)])
        with pytest.raises(AuthError, match="VERIMOA_API_KEY"):
            http_backend(session).generate(req())
        assert len(session.calls) == 1

    @pytest.mark.parametrize("status", [429, 500, 503])
    def test_retryable_status_then_success(self, status):
        session = FakeSession([FakeResponse(status), ok_response("ok")])
        assert http_backend(session).generate(req()).text == "ok"
        assert len(session.calls) == 2

    def test_connection_error_retries(self):
        session = FakeSession([
            requests.ConnectionError("refused"), ok_response("ok"),
        ])
        assert http_backend(session).generate(req()).text == "ok"

    def test_malformed_body_retries(self, monkeypatch):
        monkeypatch.setattr(backends, "MAX_ATTEMPTS", 4)
        session = FakeSession([
            FakeResponse(200, invalid_body=True),
            FakeResponse(200, {"choices": []}),
            ok_response(5),  # content that is not a string
            ok_response("ok"),
        ])
        assert http_backend(session).generate(req()).text == "ok"
        assert len(session.calls) == 4

    @pytest.mark.parametrize("usage", [
        {"prompt_tokens": None, "completion_tokens": 5},
        "prompt_tokens completion_tokens",
        {"prompt_tokens": "x", "completion_tokens": 5},
    ])
    def test_malformed_usage_keeps_the_answer(self, usage):
        session = FakeSession([ok_response("hi", usage)])
        response = http_backend(session).generate(req())
        assert (response.text, response.token_usage) == ("hi", None)
        assert len(session.calls) == 1

    def test_exhaustion_reports_last_error(self, monkeypatch):
        monkeypatch.setattr(backends, "MAX_ATTEMPTS", 3)
        session = FakeSession([FakeResponse(500)] * 3)
        with pytest.raises(BackendExhaustedError, match="HTTP 500"):
            http_backend(session).generate(req())
        assert len(session.calls) == 3

    def test_client_error_body_is_not_retried_forever(self, monkeypatch):
        # A 400 is neither auth nor retryable-status; the malformed-body
        # path consumes the attempt.
        monkeypatch.setattr(backends, "MAX_ATTEMPTS", 2)
        session = FakeSession([FakeResponse(400, {"error": "bad request"})] * 2)
        with pytest.raises(BackendExhaustedError):
            http_backend(session).generate(req())


class TestExtractCodeBlock:
    def test_last_matching_tag_wins(self):
        text = (
            "first\n```verilog\nmodule a; endmodule\n```\n"
            "then\n```verilog\nmodule b; endmodule\n```\n"
            "finally\n```python\nprint(1)\n```\n"
        )
        assert extract_code_block(text, "verilog") == "module b; endmodule"

    def test_alias_tags_match(self):
        assert extract_code_block("```systemverilog\nmodule x;\n```", "verilog") == "module x;"
        assert extract_code_block("```c++\nint main(){}\n```", "cpp") == "int main(){}"
        assert extract_code_block("```py\npass\n```", "python") == "pass"

    def test_no_matching_tag_falls_back_to_last_block(self):
        text = "```python\nprint(1)\n```\n```cpp\nint x;\n```"
        assert extract_code_block(text, "verilog") == "int x;"

    def test_untagged_fence(self):
        assert extract_code_block("```\nmodule y;\n```", "verilog") == "module y;"

    def test_no_fences_returns_trimmed_text(self):
        assert extract_code_block("  module z; endmodule \n", "verilog") == "module z; endmodule"

    def test_crlf_fences(self):
        text = "```verilog\r\nmodule w;\r\n```"
        assert extract_code_block(text, "verilog") == "module w;\r"
