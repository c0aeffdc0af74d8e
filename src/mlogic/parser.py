"""Parser for the surface grammar.

    formula := iff
    iff     := imp ("<->" imp)*          left-associative
    imp     := or ("->" imp)?            right-associative
    or      := and ("|" and)*
    and     := unary ("&" unary)*
    unary   := "~" unary | quantified | atom | "(" formula ")"
    quantified := ("all" | "ex") name "." formula   -- scope extends maximally
    atom    := UPPER "(" lower ")" | lower ("=" | "~=") lower
             | IDENT | "true" | "false"

"#" starts a comment running to end of line; whitespace is insignificant.
An `all`/`ex` binder introduces an individual variable when the name is
lowercase and a predicate variable when it is uppercase.

One regular expression splits the text into tokens, and one loop parses
them by precedence climbing with an explicit stack of pending operators, so
nesting depth costs no Python stack.  `~` is a prefix operator that binds
tightest; `all`/`ex` are prefix operators that bind loosest, which gives
them maximal scope.  Token offsets, and from them line and column, are
computed only when a ParseError is raised.
"""

from __future__ import annotations

import re

from .errors import ParseError
from .syntax import (FALSE, TRUE, And, Equal, ExistsInd, ExistsPred, ForallInd,
                     ForallPred, Formula, Iff, Implies, Not, Or, PredApp,
                     is_predicate_name, validate)

_KEYWORDS = frozenset({"all", "ex", "true", "false"})
_SYMBOLS = frozenset({"<->", "->", "~=", "(", ")", ".", "~", "&", "|", "="})

# Whitespace and comments, then one token: a symbol, a word, any other
# character (rejected when the parse fails), or "" at the end of the text.
_TOKEN = re.compile(r"\s*(?:#[^\n]*\s*)*(<->|->|~=|[().~&|=]|\w+|[^\s#]|\Z)")

# Pending operators on the stack are (precedence, constructor, argument).
# A binary operator pops those whose precedence reaches its threshold
# (its own precedence, one more for the right-associative "->"); any other
# token pops all but an open parenthesis.
_OPEN, _BINDER, _NOT = -1, 0, 5
_BINARY = {"<->": (1, 1, Iff), "->": (2, 3, Implies), "|": (3, 3, Or),
           "&": (4, 4, And)}
_BINDERS = {("all", False): ForallInd, ("all", True): ForallPred,
            ("ex", False): ExistsInd, ("ex", True): ExistsPred}
_OPERAND = ("'~'", "'all'", "'ex'", "'('", "identifier", "'true'", "'false'")


def _is_ident(tok: str) -> bool:
    return tok[:1].isalpha() and tok not in _KEYWORDS


def _fail(text: str, tokens, index: int, message: str, expected=()):
    """Raise at token `index`, unless the text holds a character no token
    may start with: the first such character is the error, wherever the
    parse stopped."""
    offsets = [m.start(1) for m in _TOKEN.finditer(text)]
    offset = offsets[index]
    for tok, at in zip(tokens, offsets):
        if tok and tok not in _SYMBOLS and not tok[0].isalpha():
            message, expected, offset = f"unexpected character {tok[0]!r}", (), at
            break
    start = text.rfind("\n", 0, offset) + 1
    raise ParseError(message, text.count("\n", 0, start) + 1, offset - start + 1,
                     expected)


def _unexpected(text: str, tokens, index: int, expected=()):
    _fail(text, tokens, index,
          f"unexpected {tokens[index] or 'end of input'!r}", expected)


def parse(text: str) -> Formula:
    """Parse and validate a formula; raises ParseError / WellFormednessError."""
    tokens = _TOKEN.findall(text)  # the last token is "" at the end
    stack: list[tuple] = []
    pos = 0
    while True:
        tok = tokens[pos]
        pos += 1
        if tok == "~":
            stack.append((_NOT, Not, None))
            continue
        if tok == "(":
            stack.append((_OPEN, None, None))
            continue
        if tok == "all" or tok == "ex":
            name = tokens[pos]
            if not _is_ident(name):
                _unexpected(text, tokens, pos, ("identifier",))
            if tokens[pos + 1] != ".":
                _unexpected(text, tokens, pos + 1, ("'.'",))
            stack.append((_BINDER, _BINDERS[tok, is_predicate_name(name)], name))
            pos += 2
            continue
        if tok == "true" or tok == "false":
            operand = TRUE if tok == "true" else FALSE
        elif tok[:1].isalpha():
            operand, pos = _atom(text, tokens, pos)
        else:
            _unexpected(text, tokens, pos - 1, _OPERAND)
        while True:
            tok = tokens[pos]
            prec, threshold, node = _BINARY.get(tok, (None, _BINDER, None))
            while stack and stack[-1][0] >= threshold:
                top, build, arg = stack.pop()
                operand = build(operand) if top == _NOT else build(arg, operand)
            if node is not None:
                stack.append((prec, node, operand))
                pos += 1
                break
            if not stack:
                if tok:
                    _fail(text, tokens, pos, f"unexpected {tok!r} after formula")
                return validate(operand)
            if tok != ")":
                _unexpected(text, tokens, pos, ("')'",))
            stack.pop()
            pos += 1


def _atom(text: str, tokens, pos: int) -> tuple[Formula, int]:
    """The atom whose name is token pos - 1, and the position after it."""
    name, nxt = tokens[pos - 1], tokens[pos]
    if nxt == "(":
        if not is_predicate_name(name):
            _fail(text, tokens, pos - 1,
                  f"individual name {name!r} applied like a predicate")
        arg = _individual(text, tokens, pos + 1)
        if tokens[pos + 2] != ")":
            _unexpected(text, tokens, pos + 2, ("')'",))
        return PredApp(name, arg), pos + 3
    if nxt == "=" or nxt == "~=":
        if is_predicate_name(name):
            _fail(text, tokens, pos - 1, f"predicate {name!r} used as individual")
        eq = Equal(name, _individual(text, tokens, pos + 1))
        return (Not(eq) if nxt == "~=" else eq), pos + 2
    return PredApp(name), pos


def _individual(text: str, tokens, index: int) -> str:
    tok = tokens[index]
    if not _is_ident(tok):
        _unexpected(text, tokens, index, ("individual name",))
    if is_predicate_name(tok):
        _fail(text, tokens, index, f"predicate {tok!r} used as individual")
    return tok
