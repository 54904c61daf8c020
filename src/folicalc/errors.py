"""Exception types shared by the whole package.

Everything raised on bad user input derives from FolicalcError so the
command-line front end can map it to a single "input error" exit code.
"""

from __future__ import annotations


class FolicalcError(Exception):
    """Base class for all errors raised by folicalc."""


class InputError(FolicalcError):
    """Invalid input: undeclared variables, bad indices, unknown names.

    A constructor that rejects one of its entries says which: entry is the
    key exactly as the caller gave it, and part is the position in that key
    of the index at fault (0 for a multi-index out of order), "value" for
    the coefficient, or None for the entry as a whole.  entry is None on
    every other error.
    """

    def __init__(self, message: str, entry=None, part: int | str | None = None):
        super().__init__(message)
        self.entry = entry
        self.part = part


class ChartMismatchError(InputError):
    """An operand of the wrong type, or operands over incompatible charts, degrees, or kinds."""


class ParseError(InputError):
    """Positioned diagnostic produced by the text parsers."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(message)
        self.message = message
        self.line = line
        self.column = column

    def __str__(self) -> str:
        return f"{self.line}:{self.column}: {self.message}"
