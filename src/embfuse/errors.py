"""Exception hierarchy shared by all embfuse modules.

Every error carries a short machine-greppable ``code`` so the CLI can print
``ERROR <code>: <message>`` lines. A bad input (a file, a flag, a config key,
a checkpoint) is a :class:`ValidationError` and exits 1, whatever its code.
Exit 2 is left for the outcomes of valid input: ``all-diverged`` here and
the CLI's ``io`` for a failing read or write.

A class exists only where a caller tells it apart: ``InvalidUtf8Error`` is
also a ``UnicodeDecodeError``, ``NonFiniteGradientError`` and
``EmptySeriesError`` are caught by name, and ``AllDivergedError`` carries its
probe table. Any other fault is ``ValidationError(message, code)``.
"""
from __future__ import annotations

from typing import Optional


class EmbfuseError(Exception):
    """Base class for all errors raised by this package; ``code`` overrides the class's."""

    code = "error"
    exit_code = 2

    def __init__(self, message: str, code: Optional[str] = None):
        super().__init__(message)
        if code is not None:
            self.code = code


class ValidationError(EmbfuseError):
    """Bad user input, named by its ``code`` (``invalid`` unless given)."""

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


class NonFiniteGradientError(ValidationError):
    """A gradient holding nan or inf; the training loop records the run as diverged."""

    code = "non-finite-gradient"


class EmptySeriesError(ValidationError):
    """Too few points to draw; the CLI skips that chart."""

    code = "empty-series"


class AllDivergedError(EmbfuseError):
    """Every probe of a learning-rate search diverged; ``probes`` keeps its table."""

    code = "all-diverged"

    def __init__(self, message, probes=()):
        super().__init__(message)
        self.probes = list(probes)
