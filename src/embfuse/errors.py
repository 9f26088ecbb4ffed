"""Exception hierarchy shared by all embfuse modules.

Every error carries a short machine-greppable ``code`` so the CLI can print
``ERROR <code>: <message>`` lines. Validation errors (bad inputs, bad flags)
map to exit code 1, runtime errors to exit code 2.
"""
from __future__ import annotations


class EmbfuseError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"
    exit_code = 2


class ValidationError(EmbfuseError):
    """Bad user input detected before any heavy work starts."""

    code = "invalid"
    exit_code = 1


class InvalidUtf8Error(ValidationError, UnicodeDecodeError):
    """A line of text input that is not UTF-8.

    Still a UnicodeDecodeError carrying the codec's details, so a caller
    that catches the decode error keeps working.
    """

    def __init__(self, message: str, exc: UnicodeDecodeError):
        UnicodeDecodeError.__init__(self, exc.encoding, exc.object, exc.start, exc.end, exc.reason)
        self.message = message

    def __str__(self) -> str:
        return self.message


# --- embedding_io ---

class EmptyInputError(EmbfuseError):
    code = "empty-input"


class DimMismatchError(EmbfuseError):
    code = "dim-mismatch"

    def __init__(self, message, line_no=None):
        super().__init__(message)
        self.line_no = line_no


class ParseFloatError(EmbfuseError):
    code = "parse-float"

    def __init__(self, message, line_no=None):
        super().__init__(message)
        self.line_no = line_no


class BadHeaderError(EmbfuseError):
    code = "bad-header"


class TruncatedRecordError(EmbfuseError):
    code = "truncated-record"

    def __init__(self, message, record_no=None):
        super().__init__(message)
        self.record_no = record_no


class EmptyTableError(EmbfuseError):
    code = "empty-table"


# --- corpus ---

class MissingColumnError(EmbfuseError):
    code = "missing-column"

    def __init__(self, name):
        super().__init__(f"required column not found: {name!r}")
        self.name = name


class EmptyFileError(EmbfuseError):
    code = "empty-file"


class OutOfRangeError(EmbfuseError):
    code = "out-of-range"


class TooFewExamplesError(EmbfuseError):
    code = "too-few-examples"


# --- fusion ---

class EmptyDictionariesError(EmbfuseError):
    code = "empty-dictionaries"


# --- model ---

class ShapeMismatchError(EmbfuseError):
    code = "shape-mismatch"


class IndexOutOfRangeError(EmbfuseError):
    code = "index-out-of-range"


# --- optim ---

class NonFiniteGradientError(EmbfuseError):
    code = "non-finite-gradient"


class EmptyDatasetError(EmbfuseError):
    code = "empty-dataset"


class AllDivergedError(EmbfuseError):
    code = "all-diverged"


# --- charts ---

class EmptySeriesError(EmbfuseError):
    code = "empty-series"
