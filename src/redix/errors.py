"""Exception types shared across the package.

The CLI maps these onto exit codes: parse problems and domain violations
are input errors (2), size-cap refusals are their own code (3), and a
failed cross-check during verification is code 1.

`MAX_ORDER` lives here too: the abelian arena refuses larger groups,
and the CLI's parser states it as the `--max-order` ceiling without
loading that arena.
"""

from __future__ import annotations

MAX_ORDER = 64  # largest finite abelian group order accepted
SHOWN_DIGITS = 40  # longer values are named by size in messages, never printed


def shown(value: int) -> str:
    """`value` in decimal below 10**40, else a phrase naming its size.

    A refused value can be thousands of digits long; it is never turned
    into a decimal string, which would flood the message or trip the
    interpreter's int-string limit.
    """
    if value < 10**SHOWN_DIGITS:
        return str(value)
    return f"10^{SHOWN_DIGITS} or more"


class RedixError(Exception):
    """Base class for errors raised by this package."""


class ParseError(RedixError):
    """Malformed input text. Carries a human-readable position."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column})" if column is not None else ")")
        super().__init__(message + where)


class UnitIdealError(RedixError):
    """The unit ideal was given where a proper ideal is required."""


class InfiniteColengthError(RedixError):
    """The quotient by this ideal is not finite dimensional."""


class SizeCapError(RedixError):
    """Input exceeds a documented size bound; refusing rather than crawling."""


class InvalidCandidatesError(RedixError):
    """A candidate component list does not intersect to the stated ideal."""


class NotInStaircaseError(RedixError):
    """The monomial does not belong to the staircase."""


class EmptyStaircaseError(RedixError):
    """The staircase is empty (unit ideal), so the module is zero."""


class TrivialGroupError(RedixError):
    """The trivial group was given where a nontrivial one is required."""


class DimensionMismatchError(RedixError):
    """Operands live over different rings or fields."""


class VerificationError(RedixError):
    """An internal cross-check failed; two routes disagreed."""
