"""SQL frontend: tokenizer, parser, AST, printer, diagnostics, rewriter,
and the sub-statement decomposer used by GenEdit's knowledge set."""

from .decompose import SqlUnit, decompose
from .diagnostics import Diagnostic, DiagnosticsEngine, Severity, diagnose
from .errors import (
    SqlAnalysisError,
    SqlError,
    SqlSyntaxError,
    SqlUnsupportedError,
)
from .parser import parse, parse_cache_info, parse_cached, parse_expression
from .printer import format_sql, to_sql
from .rewriter import to_cte_form
from .tokens import Token, TokenType, tokenize

__all__ = [
    "Diagnostic",
    "DiagnosticsEngine",
    "Severity",
    "SqlAnalysisError",
    "SqlError",
    "SqlSyntaxError",
    "SqlUnit",
    "SqlUnsupportedError",
    "Token",
    "TokenType",
    "decompose",
    "diagnose",
    "format_sql",
    "parse",
    "parse_cache_info",
    "parse_cached",
    "parse_expression",
    "to_cte_form",
    "to_sql",
    "tokenize",
]
