"""Exception hierarchy for the mining library.

``InputError`` and its subclasses mark problems a caller can correct
(bad files, bad parameters, refused oracle runs); everything else
signals a bug in the library or in how it is being driven.
"""

from __future__ import annotations


class MiningError(Exception):
    """Base class for all errors raised by this package."""


class InputError(MiningError):
    """A user-correctable problem with input data or parameters."""


class DatasetFormatError(InputError):
    """A dataset file violates its text format."""

    def __init__(self, message: str, line_no: int | None = None):
        if line_no is not None:
            message = f"line {line_no}: {message}"
        super().__init__(message)
        self.line_no = line_no


class DatasetConsistencyError(DatasetFormatError):
    """Declared and recomputed values in a dataset file disagree."""


class MissingUtilityError(InputError):
    """An item occurs in a transaction but has no unit-utility entry."""

    def __init__(self, item: object):
        super().__init__(f"no unit utility known for item {item!r}")
        self.item = item


class InvalidDatabaseError(InputError, ValueError):
    """A database violates a structural invariant (quantities, tids, ...)."""


class InvalidParamsError(InputError, ValueError):
    """Mining parameters outside their legal domain."""


class OracleGuardError(InputError):
    """The brute-force oracle refused a run that would enumerate too much."""


class PatternNotSupportedError(MiningError, ValueError):
    """A per-transaction measure was asked about a transaction that does
    not contain the pattern."""


class ZeroSupportError(MiningError, ValueError):
    """A database-level measure was asked about a pattern no transaction
    contains."""
