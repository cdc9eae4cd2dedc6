"""Exception hierarchy.

Callers tell apart two families, and the CLI maps them to exit codes:

- ``InputError`` (exit 2): anything wrong with what the user handed us, a
  document, a network spec or an argument.  ``ParseError`` (invalid JSON,
  with its line number) and ``SchemaError`` (valid JSON of the wrong shape,
  with the JSON path) are the two kinds that format a location into the
  message.
- ``NumericsError`` (exit 3): a solver failed on well-formed input.

The message says what went wrong and where; no caller needs more than the
family and the text.  Every caller fault raises one of these; any other
exception out of qnswap is a bug.
"""

from __future__ import annotations


class QnswapError(Exception):
    """Base class for every error raised by this package."""


class InputError(QnswapError):
    """Invalid document, network description, or argument."""


class NumericsError(QnswapError):
    """A numerical procedure failed on otherwise valid input."""


class ParseError(InputError):
    """Document is not syntactically valid JSON."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class SchemaError(InputError):
    """Document is valid JSON but does not match the expected schema."""

    def __init__(self, path: str, message: str):
        super().__init__(f"{path}: {message}")
