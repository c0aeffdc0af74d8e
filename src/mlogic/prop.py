"""Two propositional decision methods: exhaustive truth tables and the
clause-form criterion (valid iff every clause carries a complementary pair).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from .errors import ContractError, ResourceLimitError
from .limits import DEFAULT_LIMITS, Limits
from .syntax import (And, Formula, FormulaClass, Iff, Implies, Not, Or,
                     PredApp, TruthConst, classify, free_symbols, operands)

# Truth assignment for the letters of a propositional formula.
Assignment = dict[str, bool]

# A literal is (letter, positive?); a clause is a set of literals.
Literal = tuple[str, bool]
Clause = frozenset[Literal]


class PropResult(enum.Enum):
    VALID = "Valid"
    CONTINGENT = "Contingent"
    UNSATISFIABLE = "Unsatisfiable"


@dataclass(frozen=True)
class PropVerdict:
    result: PropResult
    falsifying: tuple[tuple[str, bool], ...] | None = None
    checked: int = 0  # assignments examined; the exhaustion certificate


def eval_prop(f: Formula, assignment: Assignment) -> bool:
    """Truth value of a propositional formula under the assignment.  A
    chain of `~` folds to its parity and a flat chain of `&` or of `|` is
    walked in a loop, so neither nests a call per node."""
    odd, kind = False, type(f)
    while kind is Not:
        f, odd, kind = f.body, not odd, type(f.body)
    if kind is TruthConst:
        value = f.value
    elif kind is PredApp:
        if f.arg is not None:
            raise ContractError("not a propositional formula")
        try:
            value = assignment[f.name]
        except KeyError:
            raise ContractError(f"assignment misses letter {f.name!r}") from None
    elif kind is And or kind is Or:  # left to right until one settles it
        want, rights = kind is Or, []
        while type(f) is kind:
            rights.append(f.right)
            f = f.left
        value = eval_prop(f, assignment)
        while value != want and rights:
            value = eval_prop(rights.pop(), assignment)
    elif kind is Implies:
        value = not eval_prop(f.left, assignment) or eval_prop(f.right, assignment)
    elif kind is Iff:
        value = eval_prop(f.left, assignment) == eval_prop(f.right, assignment)
    else:
        raise ContractError("not a propositional formula")
    return value != odd


def truth_table_decide(f: Formula, limits: Limits = DEFAULT_LIMITS) -> PropVerdict:
    """Decide by substituting true/false for the letters in all 2^k ways."""
    if classify(f) is not FormulaClass.PROPOSITIONAL:
        raise ContractError("truth tables apply to propositional formulas only")
    letters = sorted(free_symbols(f)[0])
    if len(letters) > limits.max_letters:
        raise ResourceLimitError(
            f"{len(letters)} letters exceed the {limits.max_letters}-letter cap")
    falsifying = None
    satisfying = False
    checked = 0
    for values in itertools.product((False, True), repeat=len(letters)):
        assignment = dict(zip(letters, values))
        checked += 1
        if eval_prop(f, assignment):
            satisfying = True
        elif falsifying is None:
            falsifying = tuple(zip(letters, values))
        if satisfying and falsifying is not None:
            # keep counting is pointless: both outcomes witnessed
            return PropVerdict(PropResult.CONTINGENT, falsifying, checked)
    if falsifying is None:
        return PropVerdict(PropResult.VALID, None, checked)
    if not satisfying:
        return PropVerdict(PropResult.UNSATISFIABLE, None, checked)
    return PropVerdict(PropResult.CONTINGENT, falsifying, checked)


@dataclass(frozen=True)
class ClauseForm:
    """Conjunction of disjunctive clauses over signed letters.

    The empty clause set is the constant true; the constant false is the
    `clauses is None` value (no clause is ever empty).  Duplicate literals
    merge because clauses are sets.
    """

    clauses: frozenset[Clause] | None

    @property
    def is_false(self) -> bool:
        return self.clauses is None


def to_clause_form(f: Formula, limits: Limits = DEFAULT_LIMITS) -> ClauseForm:
    """Conjunction-of-disjunctions equivalent of f (expand, negate inward,
    distribute).  Tautological clauses are kept: the validity criterion
    inspects them."""
    if classify(f) is not FormulaClass.PROPOSITIONAL:
        raise ContractError("clause form applies to propositional formulas only")
    clauses = _clauses(f, False, limits)
    if clauses is not None and len(clauses) > limits.max_conjuncts:
        raise ResourceLimitError("clause cap exceeded")
    return ClauseForm(clauses)


def _clauses(g: Formula, neg: bool, limits: Limits) -> frozenset[Clause] | None:
    """The clauses of g, or of ~g when `neg`; None for false.  The polarity
    is carried down as `to_nnf` carries it, so no NNF copy is built: a
    chain of `~` folds in a loop, `->` and `<->` expand in place, and a
    flat chain of `&` or of `|` is walked in a loop."""
    kind = type(g)
    while kind is Not:
        g, neg = g.body, not neg
        kind = type(g)
    if kind is TruthConst:
        return frozenset() if g.value != neg else None
    if kind is PredApp:
        return frozenset({frozenset({(g.name, not neg)})})
    if kind is And or kind is Or:
        return _join([_clauses(c, neg, limits) for c in operands(g)],
                     (kind is And) != neg, limits)
    left, right = g.left, g.right
    if kind is Implies:  # ~left | right
        return _join([_clauses(left, not neg, limits), _clauses(right, neg, limits)],
                     neg, limits)
    # (~left | right) & (~right | left), under negation (left & ~right) | (right & ~left)
    return _join([_join([_clauses(a, not neg, limits), _clauses(b, neg, limits)], neg, limits)
                  for a, b in ((left, right), (right, left))], not neg, limits)


def _join(parts: list, conjoin: bool, limits: Limits) -> frozenset[Clause] | None:
    """The clauses of the conjunction, or the disjunction, of the parts."""
    if conjoin:
        return None if None in parts else frozenset().union(*parts)
    out = None  # the clauses so far, None while they are false
    for part in parts:
        if out is None:
            out = part
        elif part is not None:
            if len(out) * len(part) > limits.max_conjuncts:
                raise ResourceLimitError("clause cap exceeded while distributing")
            out = frozenset(a | b for a in out for b in part)
    return out


def clause_form_decide(cf: ClauseForm) -> bool:
    """True iff every clause contains some letter both plain and negated."""
    if cf.is_false:
        return False
    return all(any((name, not pos) in clause for name, pos in clause)
               for clause in cf.clauses)
