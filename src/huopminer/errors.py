"""Exception hierarchy for the mining library.

``InputError`` marks a problem the caller can correct; the CLI exits 2
on any of them.  Its subclasses name the kind: a file that breaks its
text format, a database that breaks a structural rule, a parameter
outside its domain.  ``PatternNotSupportedError`` is a measure asked
about a pattern that is absent.  Anything else signals a bug in the
library or in how it is driven.
"""

from __future__ import annotations


class MiningError(Exception):
    """Base class for all errors raised by this package."""


class InputError(MiningError):
    """A user-correctable problem with input data or parameters."""


class DatasetFormatError(InputError):
    """A dataset file violates its text format, its declared TU included."""

    def __init__(self, message: str, line_no: int | None = None):
        super().__init__(message if line_no is None else f"line {line_no}: {message}")


class InvalidDatabaseError(InputError, ValueError):
    """A database violates a structural invariant (quantities, tids, an
    item without a unit utility, ...)."""


class InvalidParamsError(InputError, ValueError):
    """Parameters outside their legal domain, the oracle's item cap
    included."""


class PatternNotSupportedError(MiningError, ValueError):
    """A measure was asked about a pattern that the transaction, or every
    transaction of the database, does not contain."""
