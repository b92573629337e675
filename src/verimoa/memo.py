"""Per-run memo of the verdicts and facts derived from a candidate's text.

The quality-guided cache keeps every candidate, and layers, refinement
rounds and the aggregator hand the same source back again and again.
``run_benchmark`` makes one memo per call and passes it down to the code
that runs the gates, the checks and the fact extraction, which looks each
result up here first, so each distinct candidate is compiled, run, checked
and analysed once per run.  ``agents`` owns the keys and decides what is
worth keeping; this module only stores results.

Lookups are single-flight: a thread asking for a key that another thread
is computing waits for that result instead of computing its own.  A raised
error is never stored, so the next caller computes afresh, as without a
memo.
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

