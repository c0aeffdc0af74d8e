"""Exception hierarchy shared across the engine."""

from __future__ import annotations

from functools import cached_property


class MlogicError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(MlogicError):
    """Syntax error with source position and the tokens that would have been accepted."""

    def __init__(self, message: str, line: int, col: int, expected: tuple[str, ...] = ()):
        self.line = line
        self.col = col
        self.expected = expected
        detail = f"{line}:{col}: {message}"
        if expected:
            detail += " (expected " + " or ".join(expected) + ")"
        super().__init__(detail)


class WellFormednessError(MlogicError):
    """A parsed tree violates a structural rule (shadowing, namespaces, arity)."""


class ResourceLimitError(MlogicError):
    """A cap (letters, conjuncts, refinement signature, budget) was exceeded.

    When the cap fired inside `decide`, `trace` holds the steps completed
    before it, and `partial_trace` renders them as (rule, rendering) pairs
    on first read."""

    trace = None

    @cached_property
    def partial_trace(self) -> tuple[tuple[str, str], ...]:
        return () if self.trace is None else self.trace.entries


class OutOfScopeError(MlogicError):
    """The input is well-formed but outside the operation's supported fragment."""


class ContractError(MlogicError):
    """A caller violated an operation's precondition."""


class EvaluationError(MlogicError):
    """A model does not interpret every free symbol of the formula under evaluation."""
