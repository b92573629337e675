"""Benchmark data model and on-disk formats.

A benchmark bundle is a directory:

    benchmark.json            {"name": ..., "problems": [ids in order]}
    <id>/problem.json         {"id", "top_module", "timeout_ms",
                               optional "pass_marker", "support_files"}
    <id>/spec.md              natural-language design description
    <id>/testbench.v          golden self-checking testbench
    <id>/<support file>       extra sources compiled alongside, opaque here

Run configuration is a single JSON object whose keys mirror RunConfig.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass

from .cache import AgentPath
from .errors import (
    DuplicateProblemIdError,
    InvariantViolationError,
    MalformedIndexError,
    MissingFileError,
    SchemaError,
)
from .scoring import ScoreConstants


# The simulator's names for the candidate and the testbench.
RESERVED_SOURCE_NAMES = ("candidate.v", "testbench.v")


@dataclass(frozen=True)
class DesignProblem:
    id: str
    description: str
    testbench_source: str
    top_module: str
    timeout_ms: int
    pass_marker: str | None = None
    support_files: dict[str, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.id:
            raise InvariantViolationError("problem id must be non-empty")
        if not self.description:
            raise InvariantViolationError("%s: description must be non-empty" % self.id)
        if not self.testbench_source:
            raise InvariantViolationError(
                "%s: testbench_source must be non-empty" % self.id
            )
        if self.timeout_ms < 1:
            raise InvariantViolationError("%s: timeout_ms must be >= 1" % self.id)
        # The simulator writes every source under its base name.
        seen: set[str] = set()
        for name in sorted(self.support_files):
            base = os.path.basename(name)
            if base in RESERVED_SOURCE_NAMES or base in seen:
                raise SchemaError(
                    "%s: support file %r would overwrite another source named %s"
                    % (self.id, name, base)
                )
            seen.add(base)


@dataclass(frozen=True)
class Benchmark:
    name: str
    problems: tuple[DesignProblem, ...]

    def __post_init__(self) -> None:
        if not self.problems:
            raise InvariantViolationError("benchmark has no problems")
        seen: set[str] = set()
        for problem in self.problems:
            if problem.id in seen:
                raise DuplicateProblemIdError("duplicate problem id %r" % problem.id)
            seen.add(problem.id)


def _read_text(path: str, problem_id: str | None = None) -> str:
    if not os.path.isfile(path):
        where = " for problem %r" % problem_id if problem_id else ""
        raise MissingFileError("missing %s%s" % (path, where))
    with open(path, encoding="utf-8", errors="replace") as fh:
        return fh.read()


def _load_json(path: str, problem_id: str | None = None) -> dict:
    text = _read_text(path, problem_id)
    try:
        obj = json.loads(text)
    except ValueError as exc:
        raise MalformedIndexError("%s: invalid JSON: %s" % (path, exc))
    if not isinstance(obj, dict):
        raise MalformedIndexError("%s: expected a JSON object" % path)
    return obj


def load_problem(problem_dir: str, expected_id: str | None = None) -> DesignProblem:
    meta_path = os.path.join(problem_dir, "problem.json")
    meta = _load_json(meta_path, expected_id)
    known = {"id", "top_module", "timeout_ms", "pass_marker", "support_files"}
    unknown = set(meta) - known
    if unknown:
        raise MalformedIndexError(
            "%s: unknown field %r" % (meta_path, sorted(unknown)[0])
        )
    for required in ("id", "top_module", "timeout_ms"):
        if required not in meta:
            raise MalformedIndexError("%s: missing field %r" % (meta_path, required))
    pid = meta["id"]
    if not isinstance(pid, str) or not pid:
        raise MalformedIndexError("%s: field 'id' must be a non-empty string" % meta_path)
    if expected_id is not None and pid != expected_id:
        raise MalformedIndexError(
            "%s: field 'id' is %r but the index names this directory %r"
            % (meta_path, pid, expected_id)
        )
    if not isinstance(meta["top_module"], str) or not meta["top_module"]:
        raise MalformedIndexError(
            "%s: field 'top_module' must be a non-empty string" % meta_path
        )
    timeout = meta["timeout_ms"]
    if isinstance(timeout, bool) or not isinstance(timeout, int) or timeout < 1:
        raise MalformedIndexError(
            "%s: field 'timeout_ms' must be a positive integer" % meta_path
        )
    marker = meta.get("pass_marker")
    if marker is not None and (not isinstance(marker, str) or not marker):
        raise MalformedIndexError(
            "%s: field 'pass_marker' must be a non-empty string" % meta_path
        )
    support_names = meta.get("support_files", [])
    if not isinstance(support_names, list) or not all(
        isinstance(n, str) for n in support_names
    ):
        raise MalformedIndexError(
            "%s: field 'support_files' must be a list of file names" % meta_path
        )
    support = {
        name: _read_text(os.path.join(problem_dir, name), pid)
        for name in support_names
    }
    return DesignProblem(
        id=pid,
        description=_read_text(os.path.join(problem_dir, "spec.md"), pid),
        testbench_source=_read_text(os.path.join(problem_dir, "testbench.v"), pid),
        top_module=meta["top_module"],
        timeout_ms=timeout,
        pass_marker=marker,
        support_files=support,
    )


def load_benchmark(root_path: str) -> Benchmark:
    index_path = os.path.join(root_path, "benchmark.json")
    index = _load_json(index_path)
    name = index.get("name")
    ids = index.get("problems")
    if not isinstance(name, str) or not name:
        raise MalformedIndexError(
            "%s: field 'name' must be a non-empty string" % index_path
        )
    if not isinstance(ids, list) or not ids or not all(isinstance(i, str) for i in ids):
        raise MalformedIndexError(
            "%s: field 'problems' must be a non-empty list of ids" % index_path
        )
    problems = tuple(load_problem(os.path.join(root_path, pid), pid) for pid in ids)
    return Benchmark(name=name, problems=problems)


# -- run configuration ----------------------------------------------------

MIXTURE_TAGS = {"Base": AgentPath.BASE, "Cpp": AgentPath.CPP, "Py": AgentPath.PY}
# Each slot is a thread per running trial; every shipped config uses <= 6.
MAX_LAYER_WIDTH = 1000


def default_mixture(layer_width: int) -> tuple[str, ...]:
    """Balanced mixture: equal thirds, remainder to the earlier paths."""
    counts = ((layer_width + 2) // 3, (layer_width + 1) // 3, layer_width // 3)
    return ("Base",) * counts[0] + ("Cpp",) * counts[1] + ("Py",) * counts[2]


@dataclass(frozen=True)
class Sampling:
    temperature: float = 0.8
    top_p: float = 0.95

    def __post_init__(self) -> None:
        if self.temperature < 0:
            raise InvariantViolationError("sampling.temperature must be >= 0")
        if not 0 < self.top_p <= 1:
            raise InvariantViolationError("sampling.top_p must be in (0, 1]")


@dataclass(frozen=True)
class RunConfig:
    proposer_layers: int = 4
    layer_width: int = 6
    mixture: tuple[str, ...] = ()
    top_n_hdl: int = 3
    top_k_intermediate: int = 2
    trials: int = 10
    sampling: Sampling = field(default_factory=Sampling)
    enable_sim_refinement: bool = False
    max_sim_refine_rounds: int = 1
    max_stage1_refine_rounds: int = 1
    score_constants: ScoreConstants = field(default_factory=ScoreConstants)
    random_seed: int = 0

    def __post_init__(self) -> None:
        if self.proposer_layers < 1:
            raise InvariantViolationError("proposer_layers must be >= 1")
        # Checked before default_mixture builds a tuple this long.
        if not 1 <= self.layer_width <= MAX_LAYER_WIDTH:
            raise InvariantViolationError("layer_width must be in 1..%d" % MAX_LAYER_WIDTH)
        if not self.mixture:
            object.__setattr__(self, "mixture", default_mixture(self.layer_width))
        if len(self.mixture) != self.layer_width:
            raise InvariantViolationError(
                "mixture length %d must equal layer_width %d"
                % (len(self.mixture), self.layer_width)
            )
        for tag in self.mixture:
            if tag not in MIXTURE_TAGS:
                raise InvariantViolationError(
                    "unknown mixture tag %r (expected Base, Cpp, or Py)" % tag
                )
        for name in ("top_n_hdl", "top_k_intermediate", "trials"):
            if getattr(self, name) < 1:
                raise InvariantViolationError("%s must be >= 1" % name)
        for name in ("max_sim_refine_rounds", "max_stage1_refine_rounds"):
            if getattr(self, name) < 0:
                raise InvariantViolationError("%s must be >= 0" % name)

    def mixture_paths(self) -> tuple[AgentPath, ...]:
        return tuple(MIXTURE_TAGS[tag] for tag in self.mixture)

    @property
    def sim_refine_rounds(self) -> int:
        return self.max_sim_refine_rounds if self.enable_sim_refinement else 0

    def to_json(self) -> dict:
        return {**asdict(self), "mixture": list(self.mixture)}


@functools.cache
def _field_types(cls) -> dict[str, object]:
    """Each field's declared type, resolved once per class."""
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in fields(cls)}


def _is_number(value) -> bool:
    # Rejects bool, NaN, the infinities and ints no float can hold.
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _from_json(cls, obj, where: str):
    """Build dataclass ``cls`` from a JSON object, checking each value
    against its field's declared type; ``where`` is the dotted path."""
    if not isinstance(obj, dict):
        raise SchemaError("%s: expected an object" % where)
    types = _field_types(cls)
    unknown = set(obj) - set(types)
    if unknown:
        raise SchemaError("%s: unknown field %r" % (where, sorted(unknown)[0]))
    kwargs = {}
    for name, value in obj.items():
        kind, path = types[name], "%s.%s" % (where, name)
        if is_dataclass(kind):
            kwargs[name] = _from_json(kind, value, path)
        elif kind in (int, bool):
            if type(value) is not kind:
                what = "an integer" if kind is int else "a boolean"
                raise SchemaError("%s: expected %s" % (path, what))
            kwargs[name] = value
        elif kind is float:
            if not _is_number(value):
                raise SchemaError("%s: expected a number" % path)
            kwargs[name] = float(value)
        elif kind == tuple[str, ...]:
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise SchemaError("%s: expected a list of strings" % path)
            kwargs[name] = tuple(value)
        else:  # Mapping[str, float]
            if not isinstance(value, dict) or not all(map(_is_number, value.values())):
                raise SchemaError("%s: expected a map of numbers" % path)
            kwargs[name] = {k: float(v) for k, v in value.items()}
    return cls(**kwargs)


def config_from_json(obj: object) -> RunConfig:
    return _from_json(RunConfig, obj, "config")


def load_config(path: str) -> RunConfig:
    if not os.path.isfile(path):
        raise MissingFileError("missing config file %s" % path)
    with open(path, encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise SchemaError("%s: invalid JSON: %s" % (path, exc))
    return config_from_json(obj)
