"""Exception taxonomy shared across the engine.

Every error carries a machine-parsable ``error_code`` (snake_case) that the
CLI prints on stderr as ``error_code: message``.
"""

from __future__ import annotations


class VerimoaError(Exception):
    """Base class for all engine errors."""

    error_code = "error"


# --- benchmark / config loading -------------------------------------------

class MissingFileError(VerimoaError):
    error_code = "missing_file"


class MalformedIndexError(VerimoaError):
    error_code = "malformed_index"


class DuplicateProblemIdError(VerimoaError):
    error_code = "duplicate_problem_id"


class SchemaError(VerimoaError):
    error_code = "schema_error"


class InvariantViolationError(VerimoaError):
    error_code = "invariant_violation"


# --- cache ------------------------------------------------------------------

class DuplicateIdError(VerimoaError):
    error_code = "duplicate_id"


# --- text-generation backends ------------------------------------------------

class BackendExhaustedError(VerimoaError):
    error_code = "backend_exhausted"


class AuthError(VerimoaError):
    error_code = "auth_error"


class TranscriptMissError(VerimoaError):
    error_code = "transcript_miss"


# --- simulation ---------------------------------------------------------------

class SimulatorUnavailableError(VerimoaError):
    error_code = "simulator_unavailable"


class WorkspaceError(VerimoaError):
    error_code = "workspace_error"


# --- pipeline / reporting ------------------------------------------------------

class PipelineFailureError(VerimoaError):
    error_code = "pipeline_failure"


class CorruptTraceError(VerimoaError):
    error_code = "corrupt_trace"


class DomainError(VerimoaError):
    error_code = "domain_error"
