"""Exception types shared across the package."""

from __future__ import annotations


class SynthError(Exception):
    """Base class for all errors raised by this package."""


class ConfigError(SynthError):
    """Invalid configuration (bad flag value, missing required setting)."""


# ---------------------------------------------------------------------------
# schema / dataset errors


class SchemaError(SynthError):
    """Schema definition is itself invalid."""


class SchemaMismatch(SynthError):
    """Two datasets or a dataset and a schema disagree."""


class MissingColumn(SynthError):
    """A required column is absent from a CSV header."""

    def __init__(self, column: str) -> None:
        super().__init__(f"missing column: {column!r}")
        self.column = column


class _LocatedError(SynthError):
    """Error pinned to a (row, column) location in tabular input.

    Row and column indices are 0-based and count data rows only (the CSV
    header is not row 0).
    """

    def __init__(self, row: int, column: int, message: str) -> None:
        super().__init__(f"row {row}, column {column}: {message}")
        self.row = row
        self.column = column


class TypeMismatch(_LocatedError):
    """Value cannot be interpreted as the declared kind (or is missing)."""


class OutOfBounds(_LocatedError):
    """Numeric value outside declared bounds, or category not in the schema."""


class EmptyFile(SynthError):
    """CSV file contains no header row at all."""


class IoFailure(SynthError):
    """Filesystem failure wrapping the underlying OSError, or an input file
    that cannot be read as UTF-8 CSV text."""


# ---------------------------------------------------------------------------
# summary / binning errors


class NotContinuous(SynthError):
    """Binning was requested for a discrete variable."""


class EmptyDataset(SynthError):
    """Operation needs at least one record."""


class DegenerateBins(SynthError):
    """Quantile edges collapsed so far that no bins can be formed."""


class MissingBinSpec(SynthError):
    """A continuous variable was summarized without a bin specification."""


class UnitMismatch(SynthError):
    """Two tables describe different units and cannot be compared."""


class MissingSummary(SynthError):
    """A unit present in one summary set is absent from the other."""


class DegenerateTruncation(SynthError):
    """Truncation interval carries (almost) no probability mass."""


class DegenerateStats(SynthError):
    """Empirical statistics are unusable (for example zero spread)."""


# ---------------------------------------------------------------------------
# proposer errors


class TooFewVariables(SynthError):
    """Dependency inference needs at least two variables."""


class ProposerError(SynthError):
    """Base class for proposal-generation failures."""


class LlmUnavailable(ProposerError):
    """Chat-completion endpoint unreachable after all retries."""


class RequestRejected(ProposerError):
    """Endpoint refused the request (HTTP 4xx but 408 and 429); not retried."""


class MalformedReply(ProposerError):
    """Endpoint replied, but no usable proposals survived validation."""


class PromptTooLarge(ProposerError):
    """Prompt exceeds its budget even after all truncation stages."""


class InfeasibleProposal(ProposerError):
    """Proposals do not fit the schema: wrong columns, or a row that cannot be sampled."""


# ---------------------------------------------------------------------------
# loop errors


class CorruptCheckpoint(SynthError):
    """Checkpoint directory failed its content-hash verification."""
