"""Error types raised by the SQL frontend (lexing, parsing, analysis).

These are deliberately fine-grained: the GenEdit self-correction loop
(``repro.pipeline.correction``) distinguishes *syntactic* errors (caught at
parse time) from *semantic* errors (caught by the diagnostics engine or the
execution engine) and feeds the error class and message back into
regeneration as context.
"""

from __future__ import annotations


class SqlError(Exception):
    """Base class for every error produced by the SQL frontend."""


class SqlSyntaxError(SqlError):
    """Raised when the input text cannot be tokenized or parsed.

    Carries the position of the offending token so error messages can point
    at the exact location, which the self-correction operator includes in its
    regeneration context.
    """

    def __init__(self, message, position=None, line=None, column=None):
        self.position = position
        self.line = line
        self.column = column
        location = ""
        if line is not None and column is not None:
            location = f" (line {line}, column {column})"
        super().__init__(f"{message}{location}")


class SqlAnalysisError(SqlError):
    """Raised by ``DiagnosticsEngine.check`` on an error-level finding.

    Examples: unknown table, unknown column, ambiguous column reference,
    aggregate misuse, or a mismatched number of columns in a set operation.
    """

    def __init__(self, message, node=None):
        self.node = node
        super().__init__(message)


class SqlUnsupportedError(SqlError):
    """Raised when syntactically valid SQL uses a feature the engine lacks."""
