"""SQL tokenizer.

Produces a flat list of :class:`Token` objects from SQL text. The dialect is
the subset used throughout the GenEdit reproduction: standard SELECT queries
with CTEs, joins, subqueries, window functions, CASE expressions, and the
scalar/date functions that appear in enterprise warehouse queries such as the
paper's Appendix A example (``TO_CHAR``, ``NULLIF``, ``CAST`` ...).

The tokenizer is intentionally independent of the parser so that other
components can reuse it: the example decomposer uses token streams to slice
sub-statements, and the knowledge-set miner tokenizes logged queries when
attaching provenance.
"""

from __future__ import annotations

import re
from bisect import bisect_left
from dataclasses import dataclass
from enum import Enum, auto

from .errors import SqlSyntaxError


class TokenType(Enum):
    """Lexical category of a token."""

    KEYWORD = auto()
    IDENTIFIER = auto()
    NUMBER = auto()
    STRING = auto()
    OPERATOR = auto()
    PUNCTUATION = auto()
    EOF = auto()


@dataclass(frozen=True)
class Span:
    """Source location of a syntactic element (start of its first token).

    The parser attaches spans to AST nodes (``Node.span``) so diagnostics can
    point at the offending text. Spans live outside dataclass fields, so node
    equality and repr are unaffected.
    """

    position: int
    line: int
    column: int

    @classmethod
    def from_token(cls, token):
        return cls(token.position, token.line, token.column)

    def describe(self):
        return f"line {self.line}, column {self.column}"

    def __str__(self):
        return f"{self.line}:{self.column}"


#: Reserved words recognised as keywords (upper-cased during lexing).
KEYWORDS = frozenset(
    {
        "SELECT", "FROM", "WHERE", "GROUP", "BY", "HAVING", "ORDER", "LIMIT",
        "OFFSET", "AS", "ON", "JOIN", "INNER", "LEFT", "RIGHT", "FULL",
        "OUTER", "CROSS", "AND", "OR", "NOT", "IN", "IS", "NULL", "LIKE",
        "BETWEEN", "EXISTS", "CASE", "WHEN", "THEN", "ELSE", "END", "CAST",
        "WITH", "UNION", "ALL", "INTERSECT", "EXCEPT", "DISTINCT", "ASC",
        "DESC", "OVER", "PARTITION", "TRUE", "FALSE", "NULLS", "FIRST",
        "LAST", "ROWS", "CURRENT", "ROW", "PRECEDING", "FOLLOWING",
        "UNBOUNDED", "VALUES", "INSERT", "INTO", "CREATE", "TABLE",
        "PRIMARY", "KEY", "REFERENCES", "FOREIGN",
    }
)

#: Multi-character operators, longest first so lexing is greedy.
_MULTI_CHAR_OPERATORS = ("<>", "!=", ">=", "<=", "||")
_SINGLE_CHAR_OPERATORS = frozenset("+-*/%=<>")
_PUNCTUATION = frozenset("(),.;")


@dataclass(frozen=True)
class Token:
    """A single lexical token.

    ``value`` holds the canonical text: keywords are upper-cased, string
    literals are unquoted (with doubled quotes collapsed), and identifiers
    keep their original case (SQL resolution is case-insensitive; the
    diagnostics engine normalises at lookup time).
    """

    type: TokenType
    value: str
    position: int = 0
    line: int = 1
    column: int = 1

    def matches(self, token_type, value=None):
        """Return True when this token has ``token_type`` (and ``value``)."""
        if self.type is not token_type:
            return False
        return value is None or self.value == value

    def is_keyword(self, *names):
        """Return True when the token is one of the given keywords."""
        return self.type is TokenType.KEYWORD and self.value in names


class _Cursor:
    """Tracks position/line/column while scanning the source text."""

    def __init__(self, text):
        self.text = text
        self.index = 0
        self.line = 1
        self.column = 1

    def peek(self, offset=0):
        index = self.index + offset
        if index >= len(self.text):
            return ""
        return self.text[index]

    def advance(self, count=1):
        for _ in range(count):
            if self.index >= len(self.text):
                return
            if self.text[self.index] == "\n":
                self.line += 1
                self.column = 1
            else:
                self.column += 1
            self.index += 1

    @property
    def exhausted(self):
        return self.index >= len(self.text)


#: One alternation per lexical shape, tried in the same precedence order as
#: the character scanner (comments before operators, numbers before the dot
#: punctuation). ASCII-only on purpose: any text the pattern cannot account
#: for — unicode identifiers, malformed literals — drops to the scanner.
_TOKEN_REGEX = re.compile(
    r"""
      [ \t\r\n]+
    | --[^\n]*
    | /\*(?:[^*]|\*(?!/))*\*/
    | (?P<string>'(?:[^']|'')*')
    | (?P<qident>"[^"]*")
    | (?P<number>(?:[0-9]+(?:\.[0-9]+)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)
    | (?P<word>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op><>|!=|>=|<=|\|\||[-+*/%=<>])
    | (?P<punct>[(),.;])
    """,
    re.VERBOSE,
)


class _FastLexUnsupported(Exception):
    """Input the regex lexer cannot reproduce faithfully; rescan instead."""


def tokenize(sql):
    """Tokenize ``sql`` and return a list of tokens ending with an EOF token.

    Raises :class:`SqlSyntaxError` on unterminated strings or characters
    outside the dialect.

    Lexing is regex-driven for the common all-ASCII case; anything the
    pattern table cannot reproduce exactly (unicode word characters, any
    malformed construct) re-lexes with the character scanner, which owns
    the precise error reporting.
    """
    try:
        return _tokenize_fast(sql)
    except _FastLexUnsupported:
        return _tokenize_scan(sql)


def _tokenize_fast(sql):
    newlines = []
    found = sql.find("\n")
    while found != -1:
        newlines.append(found)
        found = sql.find("\n", found + 1)

    def locate(position):
        if not newlines:
            return 1, position + 1
        preceding = bisect_left(newlines, position)
        if preceding == 0:
            return 1, position + 1
        return preceding + 1, position - newlines[preceding - 1]

    tokens = []
    position = 0
    length = len(sql)
    match_at = _TOKEN_REGEX.match
    while position < length:
        match = match_at(sql, position)
        if match is None:
            raise _FastLexUnsupported
        group = match.lastgroup
        if group is not None:
            text = match.group()
            line, column = locate(position)
            if group == "word":
                upper = text.upper()
                if upper in KEYWORDS:
                    token = Token(
                        TokenType.KEYWORD, upper, position, line, column
                    )
                else:
                    token = Token(
                        TokenType.IDENTIFIER, text, position, line, column
                    )
            elif group == "string":
                token = Token(
                    TokenType.STRING, text[1:-1].replace("''", "'"),
                    position, line, column,
                )
            elif group == "number":
                token = Token(TokenType.NUMBER, text, position, line, column)
            elif group == "op":
                if text == "/" and sql.startswith("/*", position):
                    # An unterminated block comment: the comment alternative
                    # failed to match, so '/' fell through to the operator
                    # branch. The scanner raises the right error.
                    raise _FastLexUnsupported
                token = Token(
                    TokenType.OPERATOR, "<>" if text == "!=" else text,
                    position, line, column,
                )
            elif group == "punct":
                token = Token(
                    TokenType.PUNCTUATION, text, position, line, column
                )
            else:  # qident
                token = Token(
                    TokenType.IDENTIFIER, text[1:-1], position, line, column
                )
            tokens.append(token)
        position = match.end()
    line, column = locate(length)
    tokens.append(Token(TokenType.EOF, "", length, line, column))
    return tokens


def _tokenize_scan(sql):
    """The reference character-at-a-time lexer (and error reporter)."""
    cursor = _Cursor(sql)
    tokens = []
    while not cursor.exhausted:
        char = cursor.peek()
        if char in " \t\r\n":
            cursor.advance()
            continue
        if char == "-" and cursor.peek(1) == "-":
            _skip_line_comment(cursor)
            continue
        if char == "/" and cursor.peek(1) == "*":
            _skip_block_comment(cursor)
            continue
        start = (cursor.index, cursor.line, cursor.column)
        if char == "'":
            tokens.append(_lex_string(cursor, start))
        elif char == '"':
            tokens.append(_lex_quoted_identifier(cursor, start))
        elif char.isdigit() or (char == "." and cursor.peek(1).isdigit()):
            tokens.append(_lex_number(cursor, start))
        elif char.isalpha() or char == "_":
            tokens.append(_lex_word(cursor, start))
        elif _try_multi_operator(cursor, tokens, start):
            continue
        elif char in _SINGLE_CHAR_OPERATORS:
            cursor.advance()
            tokens.append(_make(TokenType.OPERATOR, char, start))
        elif char in _PUNCTUATION:
            cursor.advance()
            tokens.append(_make(TokenType.PUNCTUATION, char, start))
        else:
            raise SqlSyntaxError(
                f"Unexpected character {char!r}",
                position=start[0], line=start[1], column=start[2],
            )
    tokens.append(
        Token(TokenType.EOF, "", len(sql), cursor.line, cursor.column)
    )
    return tokens


def _make(token_type, value, start):
    return Token(token_type, value, start[0], start[1], start[2])


def _skip_line_comment(cursor):
    while not cursor.exhausted and cursor.peek() != "\n":
        cursor.advance()


def _skip_block_comment(cursor):
    start = (cursor.index, cursor.line, cursor.column)
    cursor.advance(2)
    while not cursor.exhausted:
        if cursor.peek() == "*" and cursor.peek(1) == "/":
            cursor.advance(2)
            return
        cursor.advance()
    raise SqlSyntaxError(
        "Unterminated block comment",
        position=start[0], line=start[1], column=start[2],
    )


def _lex_string(cursor, start):
    cursor.advance()  # opening quote
    parts = []
    while True:
        if cursor.exhausted:
            raise SqlSyntaxError(
                "Unterminated string literal",
                position=start[0], line=start[1], column=start[2],
            )
        char = cursor.peek()
        if char == "'":
            if cursor.peek(1) == "'":  # escaped quote
                parts.append("'")
                cursor.advance(2)
                continue
            cursor.advance()
            break
        parts.append(char)
        cursor.advance()
    return _make(TokenType.STRING, "".join(parts), start)


def _lex_quoted_identifier(cursor, start):
    cursor.advance()  # opening quote
    parts = []
    while True:
        if cursor.exhausted:
            raise SqlSyntaxError(
                "Unterminated quoted identifier",
                position=start[0], line=start[1], column=start[2],
            )
        char = cursor.peek()
        if char == '"':
            cursor.advance()
            break
        parts.append(char)
        cursor.advance()
    return _make(TokenType.IDENTIFIER, "".join(parts), start)


def _lex_number(cursor, start):
    parts = []
    seen_dot = False
    seen_exponent = False
    while not cursor.exhausted:
        char = cursor.peek()
        if char.isdigit():
            parts.append(char)
        elif char == "." and not seen_dot and not seen_exponent:
            # A dot not followed by a digit terminates the number (it is
            # punctuation, e.g. a qualified name after a numeric alias).
            if not cursor.peek(1).isdigit():
                break
            seen_dot = True
            parts.append(char)
        elif char in "eE" and not seen_exponent and parts:
            next_char = cursor.peek(1)
            if next_char.isdigit() or (
                next_char in "+-" and cursor.peek(2).isdigit()
            ):
                seen_exponent = True
                parts.append(char)
                cursor.advance()
                parts.append(cursor.peek())
            else:
                break
        else:
            break
        cursor.advance()
    return _make(TokenType.NUMBER, "".join(parts), start)


def _lex_word(cursor, start):
    parts = []
    while not cursor.exhausted:
        char = cursor.peek()
        if char.isalnum() or char == "_":
            parts.append(char)
            cursor.advance()
        else:
            break
    word = "".join(parts)
    upper = word.upper()
    if upper in KEYWORDS:
        return _make(TokenType.KEYWORD, upper, start)
    return _make(TokenType.IDENTIFIER, word, start)


def _try_multi_operator(cursor, tokens, start):
    for operator in _MULTI_CHAR_OPERATORS:
        if cursor.text.startswith(operator, cursor.index):
            cursor.advance(len(operator))
            canonical = "<>" if operator == "!=" else operator
            tokens.append(_make(TokenType.OPERATOR, canonical, start))
            return True
    return False
