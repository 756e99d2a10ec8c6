"""Exception types shared across the package.

Everything raised on purpose derives from :class:`McesError` so callers can
catch one base. The CLI maps subfamilies to exit codes: configuration
problems exit 2, I/O and container-format problems exit 3, failed assertion
gates exit 4. One rule reads each outside value: :func:`checked` a scalar
(a flag, a config or snapshot field, a question element), and the frame
check ``mces.frames.as_token_matrix`` a token matrix or, as one row, a vector.
"""

from __future__ import annotations

__all__ = [
    "McesError",
    "ConfigError",
    "DimensionMismatch",
    "ZeroNorm",
    "ShapeMismatch",
    "InvalidSpec",
    "InvalidTarget",
    "InvalidLambda",
    "EmptyInput",
    "MissingQuestion",
    "GridTooLarge",
    "SeedTooLarge",
    "PositionOutOfRange",
    "MemoryTooLongForTable",
    "NotFlushed",
    "StaleTimestamp",
    "StreamFormatError",
    "BadMagic",
    "UnsupportedVersion",
    "Truncated",
    "NonFiniteValue",
    "IoFailure",
    "GateFailure",
    "checked",
]


class McesError(Exception):
    """Base class for every deliberate error in this package."""


class ConfigError(McesError):
    """A configuration or argument is structurally wrong. CLI exit 2."""


class DimensionMismatch(ConfigError):
    """Two operands disagree on vector or matrix dimensions."""


class ZeroNorm(McesError):
    """A vector that must be normalized has norm below the floor (1e-12).

    ``token_index`` identifies the offending token row when the error
    surfaces from a per-token kernel, else it is None.
    """

    def __init__(self, message: str, token_index: int | None = None):
        super().__init__(message)
        self.token_index = token_index


class ShapeMismatch(ConfigError):
    """An array does not have the shape the container or buffer expects."""


class InvalidSpec(ConfigError):
    """A config object (stream recipe, experiment setup) fails validation."""


class InvalidTarget(ConfigError):
    """A merge target count is out of range."""


class InvalidLambda(ConfigError):
    """An exponential-average decay is outside [0, 1)."""


class EmptyInput(ConfigError):
    """An operation that needs at least one frame got none."""


class MissingQuestion(ConfigError):
    """A question vector is required by configuration but absent."""


class GridTooLarge(ConfigError):
    """A sweep grid makes more rows than one run may."""


class SeedTooLarge(McesError):
    """Context seeds do not fit beside the buffered frames under capacity."""


class PositionOutOfRange(McesError):
    """A position index falls outside the extended table range [0, n^2)."""


class MemoryTooLongForTable(McesError):
    """More memory entries than the extended positional table can index."""


class NotFlushed(McesError):
    """A whole-stream assembly was requested while frames are still buffered."""


class StaleTimestamp(McesError):
    """A live query names a frame index that is not the current one."""


class StreamFormatError(McesError):
    """Base for malformed container data. CLI exit 3."""


class BadMagic(StreamFormatError):
    """The container does not start with the expected magic bytes."""


class UnsupportedVersion(StreamFormatError):
    """The container names a format version this reader does not speak."""


class Truncated(StreamFormatError):
    """The container ends before the header's promised payload."""


class NonFiniteValue(StreamFormatError):
    """A NaN or infinity was found in the payload.

    Carries the frame and token indices of the first offending value when
    known.
    """

    def __init__(self, message: str, frame_index: int | None = None, token_index: int | None = None):
        super().__init__(message)
        self.frame_index = frame_index
        self.token_index = token_index


class IoFailure(McesError):
    """An OS-level read or write failed. CLI exit 3."""


class GateFailure(McesError):
    """An assertion gate did not hold in --assert mode. CLI exit 4."""


def checked(name: str, kind, value):
    """``kind(value)``, or InvalidSpec naming ``name`` when that would change
    the value: parse a string, truncate a float, or read a bool as a number
    or a number as a bool. An int is accepted for a float."""
    try:
        if isinstance(value, bool) == (kind is bool) and kind(value) == value:
            return kind(value)
    except (TypeError, ValueError):
        pass
    raise InvalidSpec(f"{name} must be of type {kind.__name__}, got {value!r}")
