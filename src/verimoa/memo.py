"""Per-run memo of the verdicts and facts derived from a candidate's text.

The quality-guided cache keeps every candidate, and layers, refinement
rounds and the aggregator hand the same source back again and again.
``run_benchmark`` makes one memo per call, puts it in front of the
simulator and the checkers it was handed and passes it to scoring, so
each distinct candidate is compiled, run, checked and analysed once per run.

Keys are plain tuples of everything a result depends on within one run:
the gate, the problem id, its testbench and support files, and the
source; for checkers, the language, the check command and the source;
for structural facts, "facts" and the source.  Lookups are single-flight:
a thread asking for a key that another thread is computing waits for that
result instead of computing its own.  Timed-out verdicts, failed checker
launches and raised errors are never stored, so the next caller computes
them afresh, as without a memo.
"""

from __future__ import annotations

import threading
from typing import Callable, Hashable, TypeVar

T = TypeVar("T")


class VerdictMemo:
    """Simulator verdicts, checker results and structural facts by key for
    one run; `hits` and `misses` count the lookups."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._done: dict[Hashable, object] = {}
        self._pending: dict[Hashable, threading.Event] = {}
        self.hits = 0
        self.misses = 0

    def get(
        self, key: Hashable, compute: Callable[[], T], keep: Callable[[T], bool] | None = None
    ) -> T:
        """The stored result for key, or compute() once across threads.

        A result is stored unless keep(result) is false.  A waiter whose
        owner raised, or got a result not worth keeping, computes anew.
        """
        while True:
            with self._lock:
                if key in self._done:
                    self.hits += 1
                    return self._done[key]  # type: ignore[return-value]
                pending = self._pending.get(key)
                if pending is None:
                    pending = self._pending[key] = threading.Event()
                    self.misses += 1
                    break
            pending.wait()
        try:
            result = compute()
            if keep is None or keep(result):
                with self._lock:
                    self._done[key] = result
            return result
        finally:
            with self._lock:
                del self._pending[key]
            pending.set()


class _Wrapper:
    def __init__(self, inner, memo: VerdictMemo) -> None:
        self._inner = inner
        self._memo = memo

    def __getattr__(self, name):
        return getattr(self._inner, name)


def _keep_verdict(verdict) -> bool:
    return not verdict.timed_out


class MemoSimulator(_Wrapper):
    def _gate(self, method: str, source: str, problem):
        key = (
            method,
            problem.id,
            problem.testbench_source,
            tuple(sorted(getattr(problem, "support_files", {}).items())),
            source,
        )
        gate = getattr(self._inner, method)
        return self._memo.get(key, lambda: gate(source, problem), _keep_verdict)

    def syntax_test(self, source: str, problem):
        return self._gate("syntax_test", source, problem)

    def function_test(self, source: str, problem):
        return self._gate("function_test", source, problem)


class MemoChecker(_Wrapper):
    def run(self, source: str) -> tuple[str, str]:
        inner = self._inner
        key = (inner.language.value, inner.check_cmd, source)

        def keep(result: tuple[str, str]) -> bool:
            status, diagnostics = result
            return status != "error" and diagnostics != inner.timeout_diagnostics()

        return self._memo.get(key, lambda: inner.run(source), keep)
