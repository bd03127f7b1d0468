"""Exception types shared across the toolkit."""


class HwlError(Exception):
    """Base class for all toolkit errors."""


class InvalidParameterError(HwlError, ValueError):
    """A generator or operation was called with an out-of-contract parameter."""


class SingularPointError(HwlError, ValueError):
    """Closed-form evaluation requested exactly at a logarithmic singularity."""


class FitWindowError(HwlError, ValueError):
    """A decay-fit window is outside the grid or contains too few usable points."""


class GridTooNarrowError(HwlError, ValueError):
    """The grid does not contain enough of the signal for the requested check."""


class GridMismatchError(HwlError, ValueError):
    """Two signals that one analysis combines are sampled on different grids."""


class ParseError(HwlError, ValueError):
    """A signal file is malformed; carries the offending 1-based row number."""

    def __init__(self, message: str, row: int | None = None):
        super().__init__(message if row is None else f"row {row}: {message}")
        self.row = row


class SchemaError(HwlError, ValueError):
    """A report file does not match any known report schema."""
