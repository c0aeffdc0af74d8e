"""Abstract syntax for monadic second-order logic with identity.

Name discipline: a name starting with an uppercase letter can only be a
predicate symbol; lowercase names serve as individual names, except that a
lowercase name standing alone as an atom is a nullary predicate letter.
Within one formula a name must play a single role: predicate names and
individual names are disjoint, and a predicate is used either always bare
(nullary) or always applied to a term (unary).  Binders never shadow an
enclosing binder of the same name, and a name bound somewhere never occurs
outside that binder's scope.  `validate` enforces all of this.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .errors import WellFormednessError

# A term is exactly one individual name; the language has no function symbols.
Term = str


@dataclass(frozen=True)
class Formula:
    _facts = None  # what `_walk` found, set on first read

    def __str__(self) -> str:
        return format_formula(self)


@dataclass(frozen=True)
class TruthConst(Formula):
    value: bool


@dataclass(frozen=True)
class PredApp(Formula):
    """Predicate atom: unary application P(x), or a bare letter when arg is None."""

    name: str
    arg: Term | None = None


@dataclass(frozen=True)
class Equal(Formula):
    left: Term
    right: Term


@dataclass(frozen=True)
class Not(Formula):
    body: Formula


@dataclass(frozen=True)
class And(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Or(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Implies(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class Iff(Formula):
    left: Formula
    right: Formula


@dataclass(frozen=True)
class ForallInd(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class ExistsInd(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class ForallPred(Formula):
    var: str
    body: Formula


@dataclass(frozen=True)
class ExistsPred(Formula):
    var: str
    body: Formula


TRUE = TruthConst(True)
FALSE = TruthConst(False)

_BINARY = (And, Or, Implies, Iff)
_IND_QUANT = (ForallInd, ExistsInd)
_PRED_QUANT = (ForallPred, ExistsPred)
_QUANT = _IND_QUANT + _PRED_QUANT


def is_predicate_name(name: str) -> bool:
    return name[0].isupper()


def conj(parts) -> Formula:
    """Left-associated conjunction of the given formulas; TRUE when empty."""
    parts = list(parts)
    if not parts:
        return TRUE
    out = parts[0]
    for p in parts[1:]:
        out = And(out, p)
    return out


def disj(parts) -> Formula:
    parts = list(parts)
    if not parts:
        return FALSE
    out = parts[0]
    for p in parts[1:]:
        out = Or(out, p)
    return out


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, Not):
        return (f.body,)
    if isinstance(f, _BINARY):
        return (f.left, f.right)
    if isinstance(f, _QUANT):
        return (f.body,)
    return ()


def operands(f) -> tuple:
    """f's children; of a chain of `&` or of `|`, all its operands, left to
    right: `p & q & r` parses as `(p & q) & r` and gives p, q and r.  The
    left spine is walked in a loop, so a long flat chain nests no call per
    operand.  The `&` and `|` nodes of a counting tree have the same shape
    and are walked the same way."""
    kind = type(f)
    if kind is Implies or kind is Iff or not hasattr(f, "right"):
        return children(f)
    rights = []
    while type(f) is kind:
        rights.append(f.right)
        f = f.left
    rights.append(f)
    return tuple(reversed(rights))


class FormulaClass(enum.Enum):
    """Smallest fragment a formula falls into.

    The classes form a lattice by the features they allow (individual
    quantifiers, identity, predicate quantifiers): PROPOSITIONAL below
    DOMAIN_A below DOMAIN_A_STAR and DOMAIN_B, which both sit below
    DOMAIN_B_STAR.
    """

    PROPOSITIONAL = "Propositional"
    DOMAIN_A = "DomainA"
    DOMAIN_A_STAR = "DomainAStar"
    DOMAIN_B = "DomainB"
    DOMAIN_B_STAR = "DomainBStar"


def survey(f: Formula) -> tuple[FormulaClass, frozenset[str], frozenset[str]]:
    """The smallest class containing f, and its free predicate and free
    individual names (bound names excluded); an ill-formed f raises nothing."""
    return _facts(f)[:3]


def classify(f: Formula) -> FormulaClass:
    """Smallest class containing f."""
    return _facts(f)[0]


def free_symbols(f: Formula) -> tuple[frozenset[str], frozenset[str]]:
    """(free predicate names, free individual names); bound names excluded."""
    return _facts(f)[1:3]


def free_unary(f: Formula) -> frozenset[str]:
    """The free predicate names that f applies to a term."""
    return _facts(f)[3]


def validate(f: Formula) -> Formula:
    """Check well-formedness; returns f unchanged or raises WellFormednessError
    with the first fault in pre-order."""
    fault = _facts(f)[4]
    if fault is not None:
        raise WellFormednessError(fault)
    return f


def _facts(f: Formula) -> tuple:
    """What `_walk` finds in f, kept on the node: f is immutable, so every
    later question about it is answered without walking again."""
    if f._facts is None:
        object.__setattr__(f, "_facts", _walk(f))
    return f._facts


def _walk(f: Formula) -> tuple:
    """One pre-order walk, left to right, that keeps its own stack: f's
    class, its free predicate names, its free individual names, the free
    predicates it applies to a term, and its first well-formedness fault
    (None when it has none).  A fault met during the walk (a binder that
    shadows, a name in two roles) comes first; then a name both bound and
    free, then a name in the role its case forbids."""
    roles: dict[str, str] = {}  # name -> "pred0" | "pred1" | "ind", as first used
    free: dict[str, set[str]] = {"pred0": set(), "pred1": set(), "ind": set()}
    binders: set[str] = set()
    fault = None
    has_id = has_so = has_fo = False
    stack: list[tuple[Formula, frozenset[str]]] = [(f, frozenset())]
    pop, push = stack.pop, stack.append
    while stack:
        g, bound = pop()
        kind = type(g)
        if kind in _BINARY:
            stack += ((g.right, bound), (g.left, bound))
            continue
        if kind is PredApp:
            has_fo = has_fo or g.arg is not None
            uses = ((g.name, "pred0"),) if g.arg is None else ((g.name, "pred1"), (g.arg, "ind"))
        elif kind is TruthConst:
            continue
        elif kind is Not:
            push((g.body, bound))
            continue
        elif kind is Equal:
            has_id, uses = True, ((g.left, "ind"), (g.right, "ind"))
        elif kind in _QUANT:
            if g.var in bound and fault is None:
                fault = f"binder for {g.var!r} shadows an enclosing binder"
            has_fo, bound = True, bound | {g.var}
            binders.add(g.var)
            push((g.body, bound))
            if kind in _PRED_QUANT:
                has_so = True
                continue
            uses = ((g.var, "ind"),)
        else:
            continue
        for name, role in uses:
            if name not in bound:
                free[role].add(name)
            prev = roles.setdefault(name, role)
            if prev != role and fault is None:
                fault = (f"name {name!r} used both as predicate and individual"
                         if "ind" in (prev, role) else
                         f"predicate {name!r} used both as a letter and applied to a term")
    preds, inds = free["pred0"] | free["pred1"], free["ind"]
    mixed = binders & (preds | inds)
    if fault is None and mixed:
        fault = f"name {min(mixed)!r} occurs both bound and outside its binder"
    for name, role in roles.items() if fault is None else ():
        if role == ("ind" if is_predicate_name(name) else "pred1"):
            fault = (f"uppercase name {name!r} used as an individual" if role == "ind"
                     else f"lowercase name {name!r} applied to a term")
            break
    if has_so:
        cls = FormulaClass.DOMAIN_B_STAR if has_id else FormulaClass.DOMAIN_B
    elif has_id:
        cls = FormulaClass.DOMAIN_A_STAR
    else:
        cls = FormulaClass.DOMAIN_A if has_fo else FormulaClass.PROPOSITIONAL
    return cls, frozenset(preds), frozenset(inds), frozenset(free["pred1"]), fault


# --- printing ----------------------------------------------------------------

_PREC_IFF, _PREC_IMP, _PREC_OR, _PREC_AND, _PREC_UNARY = 1, 2, 3, 4, 5

# node type -> (own precedence, required precedence left/right, operator text).
# <-> is left-associative, -> right-associative, | and & left-associative.
_BINARY_LEVELS: dict = {}


def _is_atom(f: Formula) -> bool:
    return isinstance(f, (TruthConst, PredApp, Equal))


def _atom_text(f: Formula) -> str:
    if isinstance(f, TruthConst):
        return "true" if f.value else "false"
    if isinstance(f, PredApp):
        return f.name if f.arg is None else f"{f.name}({f.arg})"
    if isinstance(f, Equal):
        return f"{f.left} = {f.right}"
    raise AssertionError(f)


def format_formula(f: Formula) -> str:
    """Render in the surface grammar with minimal parentheses.

    A quantifier's scope extends maximally rightward, so a quantified (or
    negated-quantified) subformula is parenthesized unless it is the last
    thing before a closing parenthesis or the end of the text.  Quantifier
    bodies that are binary connectives are parenthesized for readability.
    """

    return _format(f, 0, True)


def _format(g: Formula, prec: int, rightmost: bool) -> str:
    if _is_atom(g):
        return _atom_text(g)
    if isinstance(g, Not):
        if isinstance(g.body, Equal):
            return f"{g.body.left} ~= {g.body.right}"
        if isinstance(g.body, (TruthConst, PredApp, Not)):
            return "~" + _format(g.body, _PREC_UNARY, rightmost)
        if isinstance(g.body, _QUANT) and rightmost:
            return "~" + _format(g.body, _PREC_UNARY, True)
        return "~(" + _format(g.body, 0, True) + ")"
    if isinstance(g, _QUANT):
        kw = "all" if isinstance(g, (ForallInd, ForallPred)) else "ex"
        body = g.body
        if isinstance(body, _BINARY):
            inner = "(" + _format(body, 0, True) + ")"
        else:
            inner = _format(body, 0, True)
        text = f"{kw} {g.var}. {inner}"
        return text if rightmost else "(" + text + ")"
    own, lprec, rprec, op = _BINARY_LEVELS[type(g)]
    wrap = prec > own
    # A same-kind left operand of & or | prints bare and not rightmost,
    # so the left spine of such a chain is walked in a loop.
    rights = [_format(g.right, rprec, True if wrap else rightmost)]
    while isinstance(g, (And, Or)) and type(g.left) is type(g):
        g = g.left
        rights.append(_format(g.right, rprec, False))
    text = op.join([_format(g.left, lprec, False)] + rights[::-1])
    return "(" + text + ")" if wrap else text


_BINARY_LEVELS.update({
    Iff: (_PREC_IFF, _PREC_IFF, _PREC_IMP, " <-> "),
    Implies: (_PREC_IMP, _PREC_OR, _PREC_IMP, " -> "),
    Or: (_PREC_OR, _PREC_OR, _PREC_AND, " | "),
    And: (_PREC_AND, _PREC_AND, _PREC_UNARY, " & "),
})
