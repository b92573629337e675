"""Append-only quality-ranked candidate caches shared across layers.

One HDL cache plus one intermediate cache per source language.  Entries
are never mutated or evicted; selection is always a ranked view.  The
orchestrator writes only at layer barriers and shares the cache read-only
with in-flight agents, so no locking happens here.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from enum import Enum

from .errors import DuplicateIdError, EmptyWindowError
from .scoring import QualityScore


class AgentPath(Enum):
    BASE = "base"
    CPP = "cpp"
    PY = "py"


class IntermediateLanguage(Enum):
    CPP = "cpp"
    PYTHON = "python"


# The two-stage paths and the language their stage 1 emits.
PATH_LANGUAGE = {
    AgentPath.CPP: IntermediateLanguage.CPP,
    AgentPath.PY: IntermediateLanguage.PYTHON,
}


@dataclass(frozen=True)
class CandidateId:
    layer: int
    slot: int
    path: AgentPath
    refine_round: int = 0

    def __post_init__(self) -> None:
        if self.layer < 1:
            raise ValueError("layer must be >= 1")
        if self.slot < 1:
            raise ValueError("slot must be >= 1")
        if self.refine_round < 0:
            raise ValueError("refine_round must be >= 0")

    def to_json(self) -> dict:
        return {
            "layer": self.layer,
            "slot": self.slot,
            "path": self.path.value,
            "refine_round": self.refine_round,
        }


@dataclass(frozen=True)
class HdlCacheEntry:
    id: CandidateId
    source: str
    score: QualityScore


@dataclass(frozen=True)
class IntermediateCacheEntry:
    id: CandidateId
    language: IntermediateLanguage
    source: str
    score: float

    def __post_init__(self) -> None:
        if PATH_LANGUAGE.get(self.id.path) is not self.language:
            raise ValueError(
                "language %s does not match path %s"
                % (self.language.value, self.id.path.value)
            )


def _rank_key(value: float, cid: CandidateId):
    # Highest score first; ties prefer later layers, then lower slots,
    # then later refinement rounds. Deterministic regardless of insertion
    # order.
    return (-value, -cid.layer, cid.slot, -cid.refine_round, cid.path.value)


class GlobalCache:
    def __init__(self) -> None:
        self._hdl: list[HdlCacheEntry] = []
        self._intermediate: list[IntermediateCacheEntry] = []
        self._ids: set[CandidateId] = set()

    def __len__(self) -> int:
        return len(self._hdl)

    def insert_hdl(self, entry: HdlCacheEntry) -> None:
        if entry.id in self._ids:
            raise DuplicateIdError("candidate id already cached: %s" % (entry.id,))
        self._ids.add(entry.id)
        self._hdl.append(entry)

    def insert_intermediate(self, entry: IntermediateCacheEntry) -> None:
        key = entry.id
        if any(e.id == key for e in self._intermediate):
            raise DuplicateIdError("intermediate id already cached: %s" % (key,))
        self._intermediate.append(entry)

    def intermediate_entries(
        self, language: IntermediateLanguage | None = None
    ) -> tuple[IntermediateCacheEntry, ...]:
        if language is None:
            return tuple(self._intermediate)
        return tuple(e for e in self._intermediate if e.language is language)

    def top_n_hdl(self, before_layer: int, n: int) -> list[HdlCacheEntry]:
        """The n best HDL entries from layers strictly before ``before_layer``."""
        if n < 1:
            raise ValueError("n must be >= 1")
        eligible = [e for e in self._hdl if e.id.layer < before_layer]
        eligible.sort(key=lambda e: _rank_key(e.score.value, e.id))
        return eligible[:n]

    def top_k_intermediate(
        self, language: IntermediateLanguage, before_layer: int, k: int
    ) -> list[IntermediateCacheEntry]:
        """The k best same-language intermediates from earlier layers."""
        if k < 1:
            raise ValueError("k must be >= 1")
        eligible = [
            e
            for e in self._intermediate
            if e.language is language and e.id.layer < before_layer
        ]
        eligible.sort(key=lambda e: _rank_key(e.score, e.id))
        return eligible[:k]

    def layer_quality_stats(self, through_layer: int, n: int) -> tuple[float, float]:
        """(min, mean) quality of the TopN window the next layer would see."""
        window = self.top_n_hdl(through_layer + 1, n)
        if not window:
            raise EmptyWindowError(
                "no cached entries in layers <= %d" % through_layer
            )
        values = [e.score.value for e in window]
        return min(values), statistics.fmean(values)
