"""Exception hierarchy shared by all hybridgi modules.

Every error raised on a contract violation derives from :class:`HybridGIError`
so callers (and the CLI exit-code mapping) can distinguish package errors from
genuine bugs.
"""


class HybridGIError(Exception):
    """Base class for all hybridgi errors."""


class InvalidOrderError(HybridGIError, ValueError):
    """Transform order outside the admissible range (or not a power of two)."""


class ShapeError(HybridGIError, ValueError):
    """Array dimensions incompatible with the requested operation."""


class PatternRangeError(HybridGIError, ValueError):
    """Pattern or object values outside the admissible range."""


class DegeneratePatternError(HybridGIError, ValueError):
    """All-zero pattern cannot be normalized."""


class DegenerateBinarizationError(HybridGIError, ValueError):
    """sign() binarization requested for a factor row containing zeros."""


class UnsupportedPatternError(HybridGIError, ValueError):
    """Complex-valued patterns cannot be physically projected."""


class ResourceLimitError(HybridGIError, ValueError):
    """Requested dense matrix exceeds the desk-scale size cap, or a run does not fit in memory."""


class ChainCompositionError(HybridGIError, ValueError):
    """Transform chain factors are incompatible (order mismatch or bad truncation)."""


class ParameterError(HybridGIError, ValueError):
    """Invalid generator or model parameter."""


class ValueOverflowError(ParameterError):
    """Finite inputs whose result leaves the float range."""


class ImageParseError(HybridGIError, ValueError):
    """Malformed image file. Carries the byte offset of the failure when known."""

    def __init__(self, message: str, offset: int | None = None):
        self.offset = offset
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)


class ConfigError(HybridGIError, ValueError):
    """Experiment config failed validation. Carries the offending field path."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")
