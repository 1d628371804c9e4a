"""Exception hierarchy for classim, and the bool check its parameter classes share.

Every error raised by the package derives from ClassimError so callers can
catch the whole family at the CLI boundary.
"""

from dataclasses import fields


def reject_bools(params) -> None:
    """Raise ValueError if a parameter dataclass holds a bool: true/false is no number."""
    if flags := [f.name for f in fields(params) if isinstance(getattr(params, f.name), bool)]:
        raise ValueError(f"{', '.join(flags)} must be a number, not true/false")


class ClassimError(Exception):
    """Base class for all classim errors."""


# --- geometry / kernel ---

class CoincidentPositions(ClassimError):
    """Two agents occupy the same point; pairwise geometry is undefined."""


class ZeroArea(ClassimError):
    """Room area must be strictly positive."""


# --- trajectory ingestion ---

class EmptyTrack(ClassimError):
    """A track contains no samples."""


class ParseError(ClassimError):
    """A file could not be parsed; message carries line/column context."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class SchemaError(ClassimError):
    """A file is parseable but missing required columns or keys."""


class ValidationError(ClassimError):
    """Parsed data violates an Observation invariant."""


# --- epidemic state machine ---

class UnknownPerson(ClassimError):
    """Referenced person_id is not in the roster."""


class FrameRosterMismatch(ClassimError):
    """An observation's people do not line up with the epidemic roster."""


# --- scenarios ---

class NoTeacher(ClassimError):
    """Half-class transform requires at least one teacher in the roster."""


# --- metrics ---

class EmptyCollection(ClassimError):
    """An aggregate metric was asked for zero outcomes."""


class MixedCohorts(ClassimError):
    """Outcomes with different roster sizes or horizons cannot be pooled."""


# --- generators / configuration ---

class ConfigError(ClassimError):
    """Invalid generator or scenario configuration."""
