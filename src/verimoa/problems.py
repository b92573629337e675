"""Benchmark data model and on-disk formats.

A benchmark bundle is a directory:

    benchmark.json            the fields of _BenchmarkIndex
    <id>/problem.json         the fields of _ProblemIndex
    <id>/spec.md              natural-language design description
    <id>/testbench.v          golden self-checking testbench
    <id>/<support file>       extra sources compiled alongside, opaque here

Run configuration is a single JSON object whose keys mirror RunConfig.
Every JSON or JSON-lines input, here and in backends and harness, is read
by read_json or read_jsonl, and every text input by read_text: strict
UTF-8, and a fault raises the caller's error class naming <path>[:<line>].
_from_json builds a JSON object into the dataclass that declares its
fields, checking each value's type, and to_json turns values back into JSON.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import typing
from collections.abc import Iterator
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from enum import Enum

from .cache import AgentPath
from .errors import (
    DuplicateProblemIdError,
    InvariantViolationError,
    MalformedIndexError,
    MissingFileError,
    SchemaError,
    VerimoaError,
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


def _read_bytes(path: str) -> bytes:
    if not os.path.isfile(path):
        raise MissingFileError("missing %s" % path)
    with open(path, "rb") as fh:
        return fh.read()


def read_text(path: str, error: type[VerimoaError]) -> str:
    """A UTF-8 text file's content, newlines translated as text mode does;
    bytes that are not UTF-8 raise error naming the path."""
    try:
        text = _read_bytes(path).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise error("%s: not UTF-8: %s" % (path, exc))
    return text.replace("\r\n", "\n").replace("\r", "\n")


def read_json(path: str, error: type[VerimoaError]) -> dict:
    """The JSON object a UTF-8 file holds; any other content raises error."""
    data = _read_bytes(path)
    try:
        obj = json.loads(data.decode("utf-8"))
    except ValueError as exc:  # UnicodeDecodeError included
        raise error("%s: invalid JSON: %s" % (path, exc))
    if not isinstance(obj, dict):
        raise error("%s: expected a JSON object" % path)
    return obj


def read_jsonl(path: str, error: type[VerimoaError]) -> Iterator[tuple[str, object]]:
    """("<path>:<line>", value) for each non-blank line of a UTF-8 JSON-lines
    file; a line that is not UTF-8 JSON raises error."""
    # splitlines ends lines at \n, \r\n or \r, as text mode does.
    for line_no, raw in enumerate(_read_bytes(path).splitlines(), 1):
        where = "%s:%d" % (path, line_no)
        try:
            line = raw.decode("utf-8").strip()
            value = json.loads(line) if line else None
        except ValueError as exc:
            raise error("%s: invalid JSON: %s" % (where, exc))
        if line:
            yield where, value


@dataclass(frozen=True)
class _ProblemIndex:
    """The fields of <id>/problem.json."""
    id: str
    top_module: str
    timeout_ms: int
    pass_marker: str | None = None
    support_files: tuple[str, ...] = ()


@dataclass(frozen=True)
class _BenchmarkIndex:
    """The fields of benchmark.json."""
    name: str
    problems: tuple[str, ...]


def load_problem(problem_dir: str, expected_id: str | None = None) -> DesignProblem:
    meta_path = os.path.join(problem_dir, "problem.json")
    raw = read_json(meta_path, MalformedIndexError)
    meta = _from_json(_ProblemIndex, raw, meta_path, MalformedIndexError)
    if expected_id is not None and meta.id != expected_id:
        raise MalformedIndexError(
            "%s: field 'id' is %r but the index names this directory %r"
            % (meta_path, meta.id, expected_id)
        )
    if meta.timeout_ms < 1:
        raise MalformedIndexError(
            "%s: field 'timeout_ms' must be a positive integer" % meta_path
        )
    for name in meta.support_files:
        if os.path.isabs(name) or os.pardir in name.split(os.sep):
            raise MalformedIndexError("%s: support_files entry %r is outside the problem "
                                      "directory" % (meta_path, name))

    def text(name: str) -> str:
        return read_text(os.path.join(problem_dir, name), MalformedIndexError)

    return DesignProblem(
        id=meta.id,
        description=text("spec.md"),
        testbench_source=text("testbench.v"),
        top_module=meta.top_module,
        timeout_ms=meta.timeout_ms,
        pass_marker=meta.pass_marker,
        support_files={name: text(name) for name in meta.support_files},
    )


def load_benchmark(root_path: str) -> Benchmark:
    index_path = os.path.join(root_path, "benchmark.json")
    raw = read_json(index_path, MalformedIndexError)
    index = _from_json(_BenchmarkIndex, raw, index_path, MalformedIndexError)
    if not index.problems:
        raise MalformedIndexError(
            "%s: field 'problems' must be a non-empty list of ids" % index_path
        )
    problems = tuple(load_problem(os.path.join(root_path, pid), pid) for pid in index.problems)
    return Benchmark(name=index.name, problems=problems)


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

    def trial_seed(self, trial_index: int) -> int:
        return self.random_seed + trial_index

    def to_json(self) -> dict:
        return to_json(self)


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


def _from_json(cls, obj, where: str, error: type[VerimoaError] = SchemaError):
    """Build dataclass ``cls`` from a JSON object, checking each value
    against its field's declared type and raising ``error`` naming the
    dotted path ``where``. A field without a default must be present, and
    a ``str`` field must be non-empty (``str | None`` also takes null)."""
    if not isinstance(obj, dict):
        raise error("%s: expected an object" % where)
    types = _field_types(cls)
    unknown = set(obj) - set(types)
    if unknown:
        raise error("%s: unknown field %r" % (where, sorted(unknown)[0]))
    for f in fields(cls):
        if f.name not in obj and f.default is MISSING and f.default_factory is MISSING:
            raise error("%s: missing field %r" % (where, f.name))
    kwargs = {}
    for name, value in obj.items():
        kind, path = types[name], "%s.%s" % (where, name)
        if is_dataclass(kind):
            kwargs[name] = _from_json(kind, value, path, error)
        elif kind in (int, bool):
            if type(value) is not kind:
                what = "an integer" if kind is int else "a boolean"
                raise error("%s: expected %s" % (path, what))
            kwargs[name] = value
        elif kind is float:
            if not _is_number(value):
                raise error("%s: expected a number" % path)
            kwargs[name] = float(value)
        elif kind in (str, str | None):
            if not ((isinstance(value, str) and value) or (value is None and kind is not str)):
                raise error("%s: expected a non-empty string" % path)
            kwargs[name] = value
        elif kind == tuple[str, ...]:
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise error("%s: expected a list of strings" % path)
            kwargs[name] = tuple(value)
        else:  # Mapping[str, float]
            if not isinstance(value, dict) or not all(map(_is_number, value.values())):
                raise error("%s: expected a map of numbers" % path)
            kwargs[name] = {k: float(v) for k, v in value.items()}
    return cls(**kwargs)


def to_json(value):
    """The JSON form of ``value``: a dataclass becomes a dict of its fields,
    an enum its value, a set a sorted list and a tuple a list, recursively;
    any other container must be a dict."""
    if value is None or isinstance(value, (str, int, float)):
        return value
    if is_dataclass(value):
        return {name: to_json(getattr(value, name)) for name in _field_types(type(value))}
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, (set, frozenset)):
        return sorted(value)
    if isinstance(value, (tuple, list)):
        return [to_json(v) for v in value]
    return {k: to_json(v) for k, v in value.items()}


def config_from_json(obj: object) -> RunConfig:
    return _from_json(RunConfig, obj, "config")


def load_config(path: str) -> RunConfig:
    return config_from_json(read_json(path, SchemaError))
