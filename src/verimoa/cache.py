"""The append-only quality-ranked candidate cache shared across layers.

One list of HDL candidates.  A two-stage path's round-0 entry also carries
its stage-1 model, which takes that candidate's score, so the intermediate
references are a filtered view of the same ranking.  Entries are never
mutated or evicted; selection is always a ranked view.  The orchestrator
writes only at layer barriers and shares the cache read-only with
in-flight agents, so no locking happens here.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import DuplicateIdError
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


@dataclass(frozen=True)
class HdlCacheEntry:
    id: CandidateId
    source: str
    score: QualityScore
    # the stage-1 model of a two-stage path's round 0, in its path's language
    intermediate: str | None = None

    def __post_init__(self) -> None:
        if self.intermediate is not None and self.id.path not in PATH_LANGUAGE:
            raise ValueError("a %s path has no intermediate" % self.id.path.value)


def _rank_key(entry: HdlCacheEntry):
    # Highest score first; ties prefer later layers, then lower slots,
    # then later refinement rounds. Deterministic regardless of insertion
    # order.
    cid = entry.id
    return (-entry.score.value, -cid.layer, cid.slot, -cid.refine_round, cid.path.value)


class GlobalCache:
    def __init__(self) -> None:
        self._hdl: list[HdlCacheEntry] = []
        self._ids: set[CandidateId] = set()

    def __len__(self) -> int:
        return len(self._hdl)

    def insert_hdl(self, entry: HdlCacheEntry) -> None:
        if entry.id in self._ids:
            raise DuplicateIdError("candidate id already cached: %s" % (entry.id,))
        self._ids.add(entry.id)
        self._hdl.append(entry)

    def top_n_hdl(self, before_layer: int, n: int) -> list[HdlCacheEntry]:
        """The n best HDL entries from layers strictly before ``before_layer``."""
        if n < 1:
            raise ValueError("n must be >= 1")
        eligible = [e for e in self._hdl if e.id.layer < before_layer]
        eligible.sort(key=_rank_key)
        return eligible[:n]

    def top_k_intermediate(
        self, language: IntermediateLanguage, before_layer: int, k: int
    ) -> list[HdlCacheEntry]:
        """The k best entries from earlier layers carrying a stage-1 model
        in this language."""
        if k < 1:
            raise ValueError("k must be >= 1")
        eligible = [
            e
            for e in self._hdl
            if e.intermediate is not None
            and PATH_LANGUAGE[e.id.path] is language
            and e.id.layer < before_layer
        ]
        eligible.sort(key=_rank_key)
        return eligible[:k]
