"""Two propositional decision methods: exhaustive truth tables and the
clause-form criterion (valid iff every clause carries a complementary pair).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass

from .errors import ContractError, ResourceLimitError
from .limits import DEFAULT_LIMITS, Limits
from .normal import to_nnf
from .syntax import (And, Formula, FormulaClass, Iff, Implies, Not, Or,
                     PredApp, TruthConst, classify, conj, disj, free_symbols)

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

    def falsifying_assignment(self) -> Assignment | None:
        return dict(self.falsifying) if self.falsifying is not None else None


def _letters(f: Formula) -> list[str]:
    preds, _ = free_symbols(f)
    return sorted(preds)


def eval_prop(f: Formula, assignment: Assignment) -> bool:
    if isinstance(f, TruthConst):
        return f.value
    if isinstance(f, PredApp):
        if f.arg is not None:
            raise ContractError("not a propositional formula")
        try:
            return assignment[f.name]
        except KeyError:
            raise ContractError(f"assignment misses letter {f.name!r}") from None
    if isinstance(f, Not):
        return not eval_prop(f.body, assignment)
    if isinstance(f, And):
        return eval_prop(f.left, assignment) and eval_prop(f.right, assignment)
    if isinstance(f, Or):
        return eval_prop(f.left, assignment) or eval_prop(f.right, assignment)
    if isinstance(f, Implies):
        return (not eval_prop(f.left, assignment)) or eval_prop(f.right, assignment)
    if isinstance(f, Iff):
        return eval_prop(f.left, assignment) == eval_prop(f.right, assignment)
    raise ContractError("not a propositional formula")


def truth_table_decide(f: Formula, limits: Limits = DEFAULT_LIMITS) -> PropVerdict:
    """Decide by substituting true/false for the letters in all 2^k ways."""
    if classify(f) is not FormulaClass.PROPOSITIONAL:
        raise ContractError("truth tables apply to propositional formulas only")
    letters = _letters(f)
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

    def __str__(self) -> str:
        if self.clauses is None:
            return "false"
        if not self.clauses:
            return "true"
        outs = []
        for clause in sorted(self.clauses, key=_clause_key):
            lits = [("" if pos else "~") + name
                    for name, pos in sorted(clause, key=lambda l: (l[0], l[1]))]
            outs.append("(" + " | ".join(lits) + ")")
        return " & ".join(outs)


CLAUSE_TRUE = ClauseForm(frozenset())
CLAUSE_FALSE = ClauseForm(None)


def _clause_key(clause: Clause):
    return tuple(sorted(clause, key=lambda l: (l[0], l[1])))


def to_clause_form(f: Formula, limits: Limits = DEFAULT_LIMITS) -> ClauseForm:
    """Conjunction-of-disjunctions equivalent of f (expand, negate inward,
    distribute).  Tautological clauses are kept: the validity criterion
    inspects them."""
    if classify(f) is not FormulaClass.PROPOSITIONAL:
        raise ContractError("clause form applies to propositional formulas only")

    cf = _clauses(to_nnf(f), limits)
    if cf.clauses is not None and len(cf.clauses) > limits.max_clauses:
        raise ResourceLimitError("clause cap exceeded")
    return cf


def _clauses(g: Formula, limits: Limits) -> ClauseForm:
    """The clause form of a propositional formula in negation normal form."""
    if isinstance(g, TruthConst):
        return CLAUSE_TRUE if g.value else CLAUSE_FALSE
    if isinstance(g, PredApp):
        return ClauseForm(frozenset({frozenset({(g.name, True)})}))
    if isinstance(g, Not):  # NNF: negation sits on an atom
        if isinstance(g.body, TruthConst):
            return CLAUSE_FALSE if g.body.value else CLAUSE_TRUE
        return ClauseForm(frozenset({frozenset({(g.body.name, False)})}))
    if isinstance(g, And):
        left, right = _clauses(g.left, limits), _clauses(g.right, limits)
        if left.is_false or right.is_false:
            return CLAUSE_FALSE
        return ClauseForm(left.clauses | right.clauses)
    if isinstance(g, Or):
        left, right = _clauses(g.left, limits), _clauses(g.right, limits)
        if left.is_false:
            return right
        if right.is_false:
            return left
        if len(left.clauses) * len(right.clauses) > limits.max_clauses:
            raise ResourceLimitError("clause cap exceeded while distributing")
        return ClauseForm(frozenset(a | b for a in left.clauses for b in right.clauses))
    raise AssertionError(g)


def clause_form_decide(cf: ClauseForm) -> bool:
    """True iff every clause contains some letter both plain and negated."""
    if cf.is_false:
        return False
    return all(any((name, not pos) in clause for name, pos in clause)
               for clause in cf.clauses)


def clause_form_to_formula(cf: ClauseForm) -> Formula:
    if cf.is_false:
        return TruthConst(False)
    clause_formulas = []
    for clause in sorted(cf.clauses, key=_clause_key):
        lits = [PredApp(name) if pos else Not(PredApp(name))
                for name, pos in sorted(clause, key=lambda l: (l[0], l[1]))]
        clause_formulas.append(disj(lits))
    return conj(clause_formulas)
