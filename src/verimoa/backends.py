"""Text-generation backends: HTTP chat-completion plus deterministic mocks.

Every backend exposes one method, generate(request) -> GenerationResponse.
Mock backends make the whole pipeline runnable offline:

  * ReplayBackend answers from a recorded transcript, keyed by the
    request's tag and a stable hash of its (system_prompt, user_prompt,
    temperature, top_p), falling back to the hash alone;
  * ScriptedBackend pops a fixed response sequence (single-threaded tests);
  * RuleBackend matches requests against predicate rules, making each
    response a pure function of the request, safe under concurrency.

Transcripts and scripted files are read by problems.read_jsonl; a line that
is not UTF-8 JSON, or not a record of its file's kind, is a SchemaError.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import threading
import time
import weakref
from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import (
    AuthError,
    BackendExhaustedError,
    SchemaError,
    TranscriptMissError,
)
from .problems import read_jsonl

if TYPE_CHECKING:
    import requests

MAX_TOKENS = 4096  # every request's completion budget
API_KEY_ENV = "VERIMOA_API_KEY"
MAX_ATTEMPTS = 3  # per HttpBackend request
BACKOFF_S = 0.5  # before its first retry, doubling for each later one
REQUEST_TIMEOUT_S = 120.0  # per attempt


@dataclass(frozen=True)
class GenerationRequest:
    system_prompt: str
    user_prompt: str
    temperature: float = 0.8
    top_p: float = 0.95
    request_tag: str = ""

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise ValueError("temperature must be >= 0")
        if not 0 < self.top_p <= 1:
            raise ValueError("top_p must be in (0, 1]")


@dataclass(frozen=True)
class GenerationResponse:
    text: str
    backend_id: str
    latency_ms: int = 0
    token_usage: tuple[int, int] | None = None


def _keyed_payload(request: GenerationRequest) -> tuple[str, str]:
    """The canonical JSON of everything that shapes the response, and its
    SHA-256, the request's replay key."""
    payload = json.dumps(
        {
            "system_prompt": request.system_prompt,
            "user_prompt": request.user_prompt,
            "temperature": request.temperature,
            "top_p": request.top_p,
        },
        sort_keys=True,
        ensure_ascii=True,
    )
    return payload, hashlib.sha256(payload.encode("utf-8")).hexdigest()


def request_key(request: GenerationRequest) -> str:
    """Stable replay key over everything that shapes the response."""
    return _keyed_payload(request)[1]


class HttpBackend:
    """OpenAI-compatible chat-completion client with bounded retries: a
    request gets MAX_ATTEMPTS attempts, then raises BackendExhaustedError.

    It sets no concurrency limit of its own: run_benchmark puts every
    backend behind one gate of jobs x layer_width calls.  Its session keeps
    up to pool_size connections per host alive; give it that gate's size,
    or calls beyond the pool open a fresh connection each time.
    ``requests`` is imported only here, so runs without HTTP never load it.
    """

    def __init__(
        self,
        endpoint: str,
        model: str,
        session: requests.Session | None = None,
        pool_size: int = 10,
    ) -> None:
        import requests
        from requests.adapters import HTTPAdapter

        self.endpoint = endpoint
        self.model = model
        self.api_key = os.environ.get(API_KEY_ENV)
        if session is None:
            session = requests.Session()
            adapter = HTTPAdapter(pool_maxsize=pool_size)
            session.mount("http://", adapter)
            session.mount("https://", adapter)
        self.session = session
        self._transport_errors = requests.RequestException
        self.backend_id = "http:%s" % model

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        headers = {"Content-Type": "application/json"}
        if self.api_key:
            headers["Authorization"] = "Bearer %s" % self.api_key
        body = {
            "model": self.model,
            "messages": [
                {"role": "system", "content": request.system_prompt},
                {"role": "user", "content": request.user_prompt},
            ],
            "temperature": request.temperature,
            "top_p": request.top_p,
            "max_tokens": MAX_TOKENS,
        }
        last_error = "no attempts made"
        for attempt in range(MAX_ATTEMPTS):
            if attempt:
                time.sleep(BACKOFF_S * (2 ** (attempt - 1)))
            started = time.monotonic()
            try:
                resp = self.session.post(
                    self.endpoint,
                    json=body,
                    headers=headers,
                    timeout=REQUEST_TIMEOUT_S,
                )
            except self._transport_errors as exc:
                last_error = str(exc)
                continue
            if resp.status_code in (401, 403):
                raise AuthError(
                    "backend rejected credentials (HTTP %d); set %s"
                    % (resp.status_code, API_KEY_ENV)
                )
            if resp.status_code == 429 or resp.status_code >= 500:
                last_error = "HTTP %d" % resp.status_code
                continue
            try:
                payload = resp.json()
                text = payload["choices"][0]["message"]["content"] or ""
            except (ValueError, KeyError, IndexError, TypeError) as exc:
                last_error = "malformed response body: %s" % exc
                continue
            if not isinstance(text, str):
                last_error = "malformed response body: content is not a string"
                continue
            try:
                usage = payload["usage"]
                token_usage = (int(usage["prompt_tokens"]), int(usage["completion_tokens"]))
            except (KeyError, TypeError, ValueError, OverflowError):
                token_usage = None  # usage is optional: keep the answer without it
            return GenerationResponse(
                text=text,
                backend_id=self.backend_id,
                latency_ms=int((time.monotonic() - started) * 1000),
                token_usage=token_usage,
            )
        raise BackendExhaustedError(
            "%d attempts against %s failed; last: %s"
            % (MAX_ATTEMPTS, self.endpoint, last_error)
        )


class ReplayBackend:
    """Answers from a recorded transcript; misses are hard errors.

    A request gets the answer recorded for its own tag and key when there
    is one, so trials that sent the same prompt and were answered
    differently replay as recorded; otherwise the first answer recorded for
    its key, so transcripts without tags, or from another layout, replay.
    """

    backend_id = "replay"

    def __init__(
        self,
        responses: dict[str, str],
        tagged: dict[tuple[str, str], str] | None = None,
    ) -> None:
        self._responses = dict(responses)
        self._tagged = dict(tagged or {})

    @classmethod
    def from_transcript(cls, path: str) -> "ReplayBackend":
        responses: dict[str, str] = {}
        tagged: dict[tuple[str, str], str] = {}
        for where, record in read_jsonl(path, SchemaError):
            if not isinstance(record, dict) or not {"key", "response_text"} <= set(record):
                raise SchemaError(
                    "%s: expected a transcript record with key and response_text" % where
                )
            key, text = record["key"], record["response_text"]
            tag = record.get("request_tag", "")
            if not all(isinstance(value, str) for value in (key, text, tag)):
                raise SchemaError(
                    "%s: key, response_text and request_tag must be strings" % where
                )
            # First record wins; replays of reruns may append dupes.
            responses.setdefault(key, text)
            tagged.setdefault((tag, key), text)
        return cls(responses, tagged)

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        key = request_key(request)
        text = self._tagged.get((request.request_tag, key), self._responses.get(key))
        if text is None:
            raise TranscriptMissError(
                "no recorded response for key %s (tag %r)" % (key, request.request_tag)
            )
        return GenerationResponse(text=text, backend_id=self.backend_id)


class ScriptedBackend:
    """Pops a fixed sequence of responses; order-sensitive, test-only."""

    backend_id = "scripted"

    def __init__(self, texts: list[str]) -> None:
        self._texts = list(texts)
        self._next = 0
        self._lock = threading.Lock()

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        with self._lock:
            if self._next >= len(self._texts):
                raise BackendExhaustedError(
                    "scripted sequence exhausted after %d responses" % len(self._texts)
                )
            text = self._texts[self._next]
            self._next += 1
        return GenerationResponse(text=text, backend_id=self.backend_id)


@dataclass(frozen=True)
class ResponseRule:
    text: str
    tag_contains: str | None = None
    prompt_contains: str | None = None
    system_contains: str | None = None

    def matches(self, request: GenerationRequest) -> bool:
        if self.tag_contains is not None and self.tag_contains not in request.request_tag:
            return False
        if self.prompt_contains is not None and self.prompt_contains not in request.user_prompt:
            return False
        if self.system_contains is not None and self.system_contains not in request.system_prompt:
            return False
        return True


class RuleBackend:
    """First matching rule answers; responses are order-independent."""

    backend_id = "rules"

    def __init__(self, rules: list[ResponseRule]) -> None:
        self._rules = list(rules)

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        for rule in self._rules:
            if rule.matches(request):
                return GenerationResponse(text=rule.text, backend_id=self.backend_id)
        raise TranscriptMissError(
            "no rule matches request (tag %r)" % request.request_tag
        )


def load_scripted(path: str):
    """Load a scripted-response file, sniffing its flavor.

    JSONL where every record has "text": plain records form a sequential
    script; if any record carries a "when" predicate object the whole file
    becomes rules matched per request (records without "when" match
    everything, so order them last).
    """
    records = []
    for where, record in read_jsonl(path, SchemaError):
        if isinstance(record, str):
            record = {"text": record}
        if not isinstance(record, dict) or not isinstance(record.get("text"), str):
            raise SchemaError('%s: expected a record with a string "text" field' % where)
        records.append((where, record))
    if any("when" in record for _, record in records):
        rules = []
        for where, record in records:
            when = record.get("when", {})
            if not isinstance(when, dict):
                raise SchemaError('%s: "when" must be an object' % where)
            unknown = set(when) - {"tag_contains", "prompt_contains", "system_contains"}
            if unknown:
                raise SchemaError("%s: unknown predicate %s" % (where, sorted(unknown)[0]))
            if not all(isinstance(value, str) for value in when.values()):
                raise SchemaError("%s: predicates must be strings" % where)
            rules.append(ResponseRule(text=record["text"], **when))
        return RuleBackend(rules)
    return ScriptedBackend([record["text"] for _, record in records])


class GatedBackend:
    """Wraps a backend, letting at most ``limit`` generate calls in at once.
    Once ``limit`` calls in a row have raised BackendExhaustedError (any
    answer resets the count), later calls raise it without reaching the
    inner backend, so fewer than 2 x ``limit`` reach one that never answers."""

    def __init__(self, inner, limit: int) -> None:
        self.inner = inner
        self.backend_id = getattr(inner, "backend_id", "unknown")
        self._gate = threading.Semaphore(limit)
        self._limit = limit
        self._lock = threading.Lock()
        self._exhausted = 0  # consecutive BackendExhaustedErrors

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        with self._gate:
            exhausted = self._exhausted  # one read; a stale one sends one more
            if exhausted >= self._limit:
                raise BackendExhaustedError("not sent: the last %d requests exhausted "
                                            "the backend" % exhausted)
            try:
                response = self.inner.generate(request)
            except BackendExhaustedError:
                with self._lock:
                    self._exhausted += 1
                raise
            with self._lock:
                self._exhausted = 0
            return response


class TranscriptRecorder:
    """Wraps a backend, appending every exchange to a JSONL transcript.

    Each answer's line is flushed as it arrives (the file stays open until
    close() or collection), so a partial run keeps what it got; close()
    rewrites the file sorted by (request_tag, line), one canonical order.
    """

    def __init__(self, inner, path: str) -> None:
        self.inner = inner
        self.backend_id = getattr(inner, "backend_id", "unknown")
        self._path = path
        self._lock = threading.Lock()
        self._fh = None  # opened on the first answer, so no traffic leaves no file

    def generate(self, request: GenerationRequest) -> GenerationResponse:
        response = self.inner.generate(request)
        payload, key = _keyed_payload(request)
        # The line json.dumps(record, sort_keys=True, ensure_ascii=True)
        # gives, built around the prompts' one encoding: sorted keys put
        # "max_tokens" first in "request", and "request" after "key".
        line = '{"key": "%s", "request": {"max_tokens": %d, %s, "request_tag": %s, ' \
            '"response_text": %s}' % (key, MAX_TOKENS, payload[1:],
                                     json.dumps(request.request_tag), json.dumps(response.text))
        with self._lock:
            if self._fh is None:
                self._fh = open(self._path, "a", buffering=1, encoding="utf-8")
                weakref.finalize(self, self._fh.close)
            self._fh.write(line + "\n")
        return response

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None
            if not os.path.exists(self._path):
                return
            with open(self._path, encoding="utf-8") as fh:
                lines = [line for line in fh.read().splitlines() if line]
            lines.sort(key=lambda line: (json.loads(line).get("request_tag", ""), line))
            with open(self._path, "w", encoding="utf-8") as fh:
                fh.writelines(line + "\n" for line in lines)


_FENCE_ALIASES = {
    "verilog": {"verilog", "systemverilog", "sv", "v"},
    "cpp": {"cpp", "c++", "cc", "cxx", "c"},
    "python": {"python", "py", "python3"},
}

_FENCE_RE = re.compile(r"```[ \t]*([A-Za-z0-9+#_-]*)[ \t]*\r?\n(.*?)```", re.DOTALL)


def extract_code_block(response_text: str, language_hint: str = "") -> str:
    """Pull source code out of a chatty response.

    Last fenced block whose tag matches the hint wins; otherwise the last
    fenced block of any tag; otherwise the whole text, trimmed.
    """
    blocks = [(tag.lower(), body) for tag, body in _FENCE_RE.findall(response_text)]
    if blocks:
        aliases = _FENCE_ALIASES.get(language_hint.lower(), {language_hint.lower()})
        matching = [body for tag, body in blocks if tag in aliases]
        body = matching[-1] if matching else blocks[-1][1]
        return body.strip("\n")
    return response_text.strip()
