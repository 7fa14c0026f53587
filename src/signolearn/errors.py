"""Exception types shared across the package.

The CLI maps these onto exit codes: configuration/usage problems exit 2,
data problems exit 3, numerical failures (NumericalError) exit 4.
"""

from __future__ import annotations


class SignolearnError(Exception):
    """Base class for all package errors."""


class BadConfigError(SignolearnError):
    """A configuration value is out of its documented range."""


# --- data errors -------------------------------------------------------------

class DataFormatError(SignolearnError):
    """Malformed input data; the message names the offending column or row."""


class ClassTooSmallError(SignolearnError):
    """A class has too few samples to appear on both sides of a split."""


class LabelOutOfRangeError(SignolearnError):
    """A label index falls outside [0, numClasses)."""


class SchemaVersionError(SignolearnError):
    """A persisted model declares an unsupported schema version."""


class CorruptModelError(SignolearnError):
    """A persisted model file failed to parse or failed validation."""


class NameCountMismatchError(SignolearnError):
    """Feature-name list length disagrees with the feature count."""


class DimensionMismatchError(SignolearnError):
    """Array shapes disagree (term widths, input length, class count)."""


class NonPositiveInputError(SignolearnError):
    """An input coordinate is zero, negative, or non-finite."""


# --- numerical errors --------------------------------------------------------

class NumericalError(SignolearnError):
    """A numerical failure (exit 4). stack_index names the row of a stack
    (a restart, a trial) that failed, or is None outside a stack."""

    def __init__(self, message: str, stack_index: int | None = None):
        super().__init__(message)
        self.stack_index = stack_index


class OverflowLimitError(NumericalError):
    """A term's log-magnitude exceeded the safe exponentiation limit."""

    def __init__(self, message: str, term_index: int | None = None, stack_index: int | None = None):
        super().__init__(message, stack_index)
        self.term_index = term_index


class NonFiniteObjectiveError(NumericalError):
    """The objective evaluated to NaN or infinity."""


class NonFiniteGradientError(NumericalError):
    """A gradient contained NaN or infinity."""


class NonFiniteLossError(NumericalError):
    """Training hit a non-finite loss; carries the epoch where it happened."""

    def __init__(self, message: str, epoch: int | None = None, stack_index: int | None = None):
        super().__init__(message, stack_index)
        self.epoch = epoch


class AllRestartsFailedError(NumericalError):
    """Every optimizer restart diverged or produced a non-finite objective."""


# --- explanation errors ------------------------------------------------------

class SameClassError(SignolearnError):
    """A contrast between a class and itself was requested."""


class ZeroComponentScoreError(SignolearnError):
    """Log-space attribution needs nonzero per-term scores."""
