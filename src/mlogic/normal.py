"""Equivalence-preserving normal forms.

Three layers live here:

* negation normal form, with connective expansion;
* the counting language: constituents (cells of the Venn diagram of a
  predicate signature), "region contains at least n elements" atoms, and
  boolean trees over them;
* conversion of any identity-carrying monadic formula into a
  quantifier-free counting tree by one pass that carries the polarity (no
  NNF copy), innermost individual quantifier first: an existential one by
  a case split on equalities per DNF conjunct of its body and on the
  sides of each cell that the conjunct's `sides` let its names take, a
  universal one as the dual of an existential one.  Each elimination step, here
  and in `elimination`, hands its conjuncts to `dnf_rebuild`, which
  builds the step's tree once.

A counting tree goes back to a surface formula one way,
`counting_to_formula`.  The one-variable block normal form of
identity-free first-order input is that reflection in negation normal
form: without identity or names every count atom says that a cell is not
empty, which reflects to one block.

Simplification is conservative throughout: dualization is De Morgan plus
quantifier flipping, the smart constructors fold constants and merge
idempotent or interval-ordered atoms, a DNF conjunct is normalized once
into a `Conjunct` that carries its bounds, and pruning deletes each one
that another subsumes.  Nothing attempts minimal normal forms.

Recursive walks are module-level functions or keep their own stack, so a
call frees everything it built by reference counting.  `<->` shares each
side's tree, so a counting tree is a DAG: its readers walk it with
`_nodes`, which visits each distinct node once, `survey_counting` visits
each inner node once per polarity, and `counting_dnf` keeps the DNF of
each inner node per polarity for one call.  Only `render_counting`, whose
text is as large as the tree, walks it as a tree.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass
from typing import Iterator

from .errors import ContractError, ResourceLimitError, WellFormednessError
from .limits import DEFAULT_LIMITS, Limits
from .syntax import (And, Equal, ExistsInd, ExistsPred, ForallInd, ForallPred,
                     Formula, FormulaClass, Iff, Implies, Not, Or, PredApp,
                     TruthConst, classify, conj, free_unary, operands,
                     survey)

# --- negation normal form -----------------------------------------------------

_DUAL = {And: Or, Or: And, ForallInd: ExistsInd, ExistsInd: ForallInd,
         ForallPred: ExistsPred, ExistsPred: ForallPred}


def to_nnf(f: Formula) -> Formula:
    """Push negations onto atoms, expanding -> and <-> on the way.

    Double negations cancel; De Morgan flips & and |; a negated quantifier
    becomes the dual quantifier over the negated body (for individual and
    predicate quantifiers alike).  Constants fold.
    """
    return _nnf(f, False)


def _nnf(g: Formula, neg: bool) -> Formula:
    kind = type(g)
    while kind is Not:
        g, neg = g.body, not neg
        kind = type(g)
    if kind is TruthConst:
        return TruthConst(g.value != neg)
    if kind is PredApp or kind is Equal:
        return Not(g) if neg else g
    if kind is Implies:
        return _nnf(Or(Not(g.left), g.right), neg)
    if kind is Iff:
        return _nnf(And(Or(Not(g.left), g.right), Or(Not(g.right), g.left)), neg)
    join = _DUAL[kind] if neg else kind
    if kind is And or kind is Or:
        return functools.reduce(join, [_nnf(c, neg) for c in operands(g)])
    return join(g.var, _nnf(g.body, neg))


# --- constituents and counting atoms -------------------------------------------

@dataclass(frozen=True)
class Constituent:
    """One cell of the Venn diagram over an ordered predicate signature.

    `signature` is sorted; `signs[i]` tells whether the cell lies inside
    (True) or outside (False) the i-th predicate.  The empty signature is
    the whole domain.
    """

    signature: tuple[str, ...]
    signs: tuple[bool, ...]

    def __post_init__(self):
        if len(self.signature) != len(self.signs):
            raise WellFormednessError("constituent signs do not match its signature")
        if tuple(sorted(self.signature)) != self.signature:
            raise WellFormednessError("constituent signature must be sorted")
        # `pairs` serves `extends`; the hash is kept, as regions key bounds.
        object.__setattr__(self, "pairs", frozenset(zip(self.signature, self.signs)))
        object.__setattr__(self, "_hash", hash((self.signature, self.signs)))

    def __hash__(self) -> int:
        return self._hash

    def sign_of(self, name: str) -> bool | None:
        try:
            return self.signs[self.signature.index(name)]
        except ValueError:
            return None

    def extends(self, other: "Constituent") -> bool:
        """True when this cell lies inside the (coarser) region `other`."""
        return other.pairs <= self.pairs

    @functools.lru_cache(maxsize=4096)
    def without(self, name: str) -> "Constituent":
        pairs = [(p, s) for p, s in zip(self.signature, self.signs) if p != name]
        return Constituent(tuple(p for p, _ in pairs), tuple(s for _, s in pairs))

    def __str__(self) -> str:
        inner = " ".join(("+" if s else "-") + p for p, s in zip(self.signature, self.signs))
        return f"[{inner}]"


WHOLE_DOMAIN = Constituent((), ())


def constituents(signature) -> tuple[Constituent, ...]:
    return _constituents(tuple(sorted(signature)))


@functools.lru_cache(maxsize=256)
def _constituents(sig: tuple[str, ...]) -> tuple[Constituent, ...]:
    return tuple(Constituent(sig, signs)
                 for signs in itertools.product((True, False), repeat=len(sig)))


@functools.lru_cache(maxsize=1024)
def region_of(pred: str, positive: bool) -> Constituent:
    return Constituent((pred,), (positive,))


# --- counting formulas ----------------------------------------------------------

@dataclass(frozen=True)
class CountingFormula:
    _dnf = None  # the conjuncts a tree from `dnf_rebuild` was built from

    def __str__(self) -> str:
        return render_counting(self)


@dataclass(frozen=True)
class CBool(CountingFormula):
    value: bool


@dataclass(frozen=True)
class CountAtom(CountingFormula):
    """The region holds at least `bound` elements; bound 0 is the constant
    true and is folded away by the `count_atom` constructor."""

    region: Constituent
    bound: int


@dataclass(frozen=True)
class RegionAtom(CountingFormula):
    """A free individual name lies inside the region."""

    region: Constituent
    name: str


@dataclass(frozen=True)
class EqAtom(CountingFormula):
    left: str
    right: str


@dataclass(frozen=True)
class LetterAtom(CountingFormula):
    name: str


@dataclass(frozen=True)
class CNot(CountingFormula):
    body: CountingFormula


@dataclass(frozen=True)
class CAnd(CountingFormula):
    left: CountingFormula
    right: CountingFormula


@dataclass(frozen=True)
class COr(CountingFormula):
    left: CountingFormula
    right: CountingFormula


C_TRUE = CBool(True)
C_FALSE = CBool(False)


def count_atom(region: Constituent, bound: int) -> CountingFormula:
    if bound <= 0:
        return C_TRUE
    if bound == 1 and not region.signature:
        return C_TRUE  # domains have at least one element
    return CountAtom(region, bound)


def region_atom(region: Constituent, name: str) -> CountingFormula:
    if not region.signature:
        return C_TRUE  # every element lies in the whole domain
    return RegionAtom(region, name)


def c_eq(left: str, right: str) -> CountingFormula:
    if left == right:
        return C_TRUE
    return EqAtom(min(left, right), max(left, right))


def c_not(cf: CountingFormula) -> CountingFormula:
    if isinstance(cf, CBool):
        return C_FALSE if cf.value else C_TRUE
    if isinstance(cf, CNot):
        return cf.body
    return CNot(cf)


def c_and(a: CountingFormula, b: CountingFormula) -> CountingFormula:
    if isinstance(a, CBool):
        return b if a.value else C_FALSE
    if isinstance(b, CBool):
        return a if b.value else C_FALSE
    if a == b:
        return a
    if isinstance(a, CountAtom) and isinstance(b, CountAtom) and a.region == b.region:
        return CountAtom(a.region, max(a.bound, b.bound))
    return CAnd(a, b)


def c_or(a: CountingFormula, b: CountingFormula) -> CountingFormula:
    if isinstance(a, CBool):
        return C_TRUE if a.value else b
    if isinstance(b, CBool):
        return C_TRUE if b.value else a
    if a == b:
        return a
    if isinstance(a, CountAtom) and isinstance(b, CountAtom) and a.region == b.region:
        return CountAtom(a.region, min(a.bound, b.bound))
    return COr(a, b)


def c_conj(parts) -> CountingFormula:
    out = C_TRUE
    for p in parts:
        out = c_and(out, p)
    return out


def c_disj(parts) -> CountingFormula:
    out = C_FALSE
    for p in parts:
        out = c_or(out, p)
    return out


def _nodes(cf: CountingFormula) -> Iterator[CountingFormula]:
    """Each distinct node of cf once, by identity, children before their
    parent and left before right, so a walk of a DAG is linear in its
    nodes.  `None` on the stack says that the node below it is ready."""
    if type(cf) not in (CAnd, COr, CNot):
        yield cf  # most calls get a leaf; skip the stack
        return
    seen, stack = set(), [cf]
    pop, add = stack.pop, seen.add
    while stack:
        g = pop()
        if g is None:
            yield pop()
        elif (i := id(g)) not in seen:
            add(i)
            kind = type(g)
            if kind is CAnd or kind is COr:
                stack += (g, None, g.right, g.left)
            elif kind is CNot:
                stack += (g, None, g.body)
            else:
                yield g


def _fold(cf: CountingFormula, leaf, negate, conjoin, disjoin):
    """The value of cf from its leaves up, each distinct node once."""
    if type(cf) not in (CAnd, COr, CNot):
        return leaf(cf)
    value = {}
    for g in _nodes(cf):
        kind = type(g)
        value[id(g)] = conjoin(value[id(g.left)], value[id(g.right)]) if kind is CAnd \
            else disjoin(value[id(g.left)], value[id(g.right)]) if kind is COr \
            else negate(value[id(g.body)]) if kind is CNot else leaf(g)
    return value[id(cf)]


def map_leaves(cf: CountingFormula, fn) -> CountingFormula:
    """Rebuild `cf` through the smart constructors with each leaf replaced
    by `fn(leaf)`, called once per distinct leaf in order of first
    occurrence.  Each distinct node is rebuilt once, so a shared subtree
    stays shared."""
    if type(cf) is CNot and type(cf.body) not in (CNot, CAnd, COr):
        return c_not(fn(cf.body))  # most calls get a literal; skip the walk
    return _fold(cf, fn, c_not, c_and, c_or)


def counting_symbols(cf: CountingFormula) -> tuple[set[str], set[str], set[str], set[str]]:
    """The predicates of cf's regions, those of its count atoms, its letters
    and its names."""
    return survey_counting(cf)[:4]


def survey_counting(cf: CountingFormula, x: str | None = None):
    """From one walk of cf that carries the polarity through `CNot`: the
    four sets of `counting_symbols`, and whether each count or region
    literal on x grows with x (True: a region inside x in positive
    polarity, or outside it in negative polarity) or shrinks (False).
    Inner nodes are visited once per polarity, so a side of `<->`, which
    occurs in both, gives both directions."""
    regions, counted, letters, names, grows = set(), set(), set(), set(), set()
    seen = (set(), set())  # ids of the inner nodes met, by polarity
    stack = [(cf, True)]
    while stack:
        g, pos = stack.pop()
        kind = type(g)
        if kind is CAnd or kind is COr:
            if id(g) not in seen[pos]:
                seen[pos].add(id(g))
                stack += ((g.right, pos), (g.left, pos))
        elif kind is CNot:
            stack.append((g.body, not pos))
        elif kind is CountAtom or kind is RegionAtom:
            signature = g.region.signature
            regions.update(signature)
            if kind is CountAtom:
                counted.update(signature)
            else:
                names.add(g.name)
            if x in signature:
                grows.add(g.region.sign_of(x) == pos)
        elif kind is EqAtom:
            names.update((g.left, g.right))
        elif kind is LetterAtom:
            letters.add(g.name)
    return regions, counted, letters, names, grows


def counting_atom_count(cf: CountingFormula) -> int:
    """The count atoms of cf, one per occurrence, added up per node."""
    return _fold(cf, lambda g: int(type(g) is CountAtom), operator.pos,
                 operator.add, operator.add)


def subst_counting_name(cf: CountingFormula, old: str, new: str) -> CountingFormula:
    def rename(leaf: CountingFormula) -> CountingFormula:
        if isinstance(leaf, RegionAtom):
            return region_atom(leaf.region, new if leaf.name == old else leaf.name)
        if isinstance(leaf, EqAtom):
            return c_eq(*(new if n == old else n for n in (leaf.left, leaf.right)))
        return leaf

    return map_leaves(cf, rename)


# --- rendering ------------------------------------------------------------------

def render_counting(cf: CountingFormula) -> str:
    return _render(cf, 0)


def _render_atom(leaf: CountingFormula) -> str:
    if isinstance(leaf, CBool):
        return "true" if leaf.value else "false"
    if isinstance(leaf, CountAtom):
        return f"#{leaf.region} >= {leaf.bound}"
    if isinstance(leaf, RegionAtom):
        return f"{leaf.name} in {leaf.region}"
    if isinstance(leaf, EqAtom):
        return f"{leaf.left} = {leaf.right}"
    if isinstance(leaf, LetterAtom):
        return leaf.name
    raise AssertionError(leaf)


def _render(g: CountingFormula, prec: int) -> str:
    if isinstance(g, CNot):
        if isinstance(g.body, EqAtom):
            return f"{g.body.left} ~= {g.body.right}"
        if isinstance(g.body, (LetterAtom, CBool)):
            return "~" + _render_atom(g.body)
        if isinstance(g.body, (CountAtom, RegionAtom)):
            return "~(" + _render_atom(g.body) + ")"
        return "~(" + _render(g.body, 0) + ")"
    kind = type(g)
    if kind is COr or kind is CAnd:
        # A same-kind left operand prints without parentheses.
        op, own = (" | ", 1) if kind is COr else (" & ", 2)
        first, *rest = operands(g)
        text = _render(first, own) + "".join(op + _render(r, own + 1) for r in rest)
        return text if prec <= own else "(" + text + ")"
    return _render_atom(g)


# --- DNF over counting literals --------------------------------------------------

def _leaf_key(leaf: CountingFormula):
    if isinstance(leaf, CBool):
        return (0, leaf.value)
    if isinstance(leaf, LetterAtom):
        return (1, leaf.name)
    if isinstance(leaf, EqAtom):
        return (2, leaf.left, leaf.right)
    if isinstance(leaf, RegionAtom):
        return (3, leaf.name, leaf.region.signature, leaf.region.signs)
    if isinstance(leaf, CountAtom):
        return (4, leaf.region.signature, leaf.region.signs, leaf.bound)
    raise AssertionError(leaf)


Literal = tuple[CountingFormula, bool]


class Conjunct(frozenset):
    """A DNF conjunct in normal form, built by `_merge_conjuncts`, with what
    its literals say: `bounds` maps (region, sign) to the bound of its count
    literal of that sign there (a lower bound of 1 on the whole domain says
    nothing and is left out), `sides` maps (name, predicate) to the side the
    name lies on, and `shape` holds its other literals and the bound keys.
    The elimination steps read `sides` and `bounds` here; a negated region
    literal on several predicates, which `sides` cannot hold, is the one
    fact they read from the literals."""

    __slots__ = ("bounds", "sides", "shape")

    def __new__(cls, lits, bounds, sides, shape):
        out = frozenset.__new__(cls, lits)
        out.bounds, out.sides, out.shape = bounds, sides, shape
        return out

    def __reduce__(self):
        return Conjunct, (frozenset(self), self.bounds, self.sides, self.shape)


_EMPTY = Conjunct((), {}, {}, frozenset())


def _merge_conjuncts(base: Conjunct, lits) -> Conjunct | None:
    """The normal conjunct of `base` and the set of literals `lits`; None
    when it holds a literal and its negation, a name on both sides of a
    predicate, a crossed interval, an upper bound of zero on the whole
    domain, a lower bound above the upper bound on a region around it, or
    a constant literal that fails (one that holds is dropped).  Only what
    `lits` adds is checked: the intervals whose bounds change."""
    if base and not (lits := lits - base):
        return base
    sides = base.sides
    counts, folded = [], []
    for lit in lits:
        leaf, pos = lit
        if type(leaf) is CountAtom:
            counts.append(lit)
            continue
        if type(leaf) is CBool:  # a literal a constructor folded to a constant
            if leaf.value != pos:
                return None
            folded.append(lit)
            continue
        twin = (leaf, not pos)
        if twin in lits or base and twin in base:
            return None
        for key, side in _sides(leaf, pos):
            if sides is base.sides:
                sides = dict(sides)
            if sides.setdefault(key, side) != side:
                return None
    if folded:
        lits = lits.difference(folded)
    if not counts:
        return Conjunct(base.union(lits) if base else lits, base.bounds, sides,
                        base.shape.union(lits))
    lits = lits.difference(counts) if len(counts) < len(lits) else ()
    bounds = dict(base.bounds)
    changed = {}  # (region, sign) -> the count literal that sets its new bound
    for lit in counts:
        leaf, pos = lit
        key = (leaf.region, pos)
        held = bounds.get(key, (0 if leaf.region.signature else 1) if pos else None)
        if held is None or (leaf.bound > held if pos else leaf.bound < held):
            bounds[key] = leaf.bound
            changed[key] = lit
    for (region, pos), lit in changed.items():
        bound = lit[0].bound
        if not pos and bound <= (0 if region.signature else 1):
            return None  # the region can never hold so few elements
        for (other, side), held in bounds.items():
            if side != pos and (bound >= held and region.extends(other) if pos
                                else held >= bound and other.extends(region)):
                return None
    if not (lits or changed):
        return base
    drop = [(CountAtom(region, base.bounds[region, pos]), pos)
            for region, pos in changed if (region, pos) in base.bounds]
    kept = base.difference(drop) if drop else base
    return Conjunct(kept.union(lits, changed.values()), bounds, sides,
                    base.shape.union(lits, changed))


def _sides(leaf: CountingFormula, pos: bool):
    """The side of each predicate that a region literal puts its name on:
    a failing literal on one predicate holds on its complement."""
    if type(leaf) is RegionAtom and (pos or len(leaf.region.signature) == 1):
        region = leaf.region
        return [((leaf.name, p), s == pos) for p, s in zip(region.signature, region.signs)]
    return ()


def _literal_dnf(leaf: CountingFormula, pos: bool) -> list[Conjunct]:
    """The DNF of one literal, built directly: of the rules of
    `_merge_conjuncts`, only the fold of a constant and the bound of a
    count literal can apply."""
    if type(leaf) is CBool:
        return [_EMPTY] if leaf.value == pos else []
    if type(leaf) is not CountAtom:
        lits = frozenset(((leaf, pos),))
        return [Conjunct(lits, {}, dict(_sides(leaf, pos)), lits)]
    if leaf.bound <= (0 if leaf.region.signature else 1):
        return [_EMPTY] if pos else []
    key = (leaf.region, pos)
    return [Conjunct(((leaf, pos),), {key: leaf.bound}, {}, frozenset((key,)))]


def _normalize_conjunct(lits) -> Conjunct | None:
    """`_merge_conjuncts` of a set of literals into the empty conjunct."""
    return _merge_conjuncts(_EMPTY, lits)


_SUBSUME_THRESHOLD = 2000


def prune_conjuncts(items: list[Conjunct]) -> list[Conjunct]:
    """Normalize each item that is not a `Conjunct` yet (a set of one
    literal directly, by `_literal_dnf`), drop the contradictory ones, the
    duplicates and (when affordable) each one that another subsumes: the
    other's literals besides count literals are among its own, and each
    interval of the other contains its interval on the same region.  The
    survivors keep their order."""
    seen = set()
    out = []
    for it in items:
        norms = (it,) if type(it) is Conjunct else _literal_dnf(*next(iter(it))) \
            if len(it) == 1 else (_normalize_conjunct(it),)
        for norm in norms:
            if norm is not None and norm not in seen:
                seen.add(norm)
                out.append(norm)
    if 1 < len(out) <= _SUBSUME_THRESHOLD:
        # A conjunct subsumes only conjuncts at least as large and, among
        # those of its size, only ones with higher lower bounds or lower
        # upper bounds, so in this order every subsumer comes first.  The
        # set test on the shapes rules out most pairs before the bounds.
        kept: list[Conjunct] = []
        for cand in sorted(out, key=lambda c: (len(c), sum(
                bound if pos else -bound for (_, pos), bound in c.bounds.items()))):
            bounds = cand.bounds
            if not any(prev.shape <= cand.shape and all(
                    bounds[key] >= bound if key[1] else bounds[key] <= bound
                    for key, bound in prev.bounds.items()) for prev in kept):
                kept.append(cand)
        if len(kept) < len(out):
            survivors = set(kept)
            out = [c for c in out if c in survivors]
    return out


def counting_dnf(cf: CountingFormula, limits: Limits = DEFAULT_LIMITS) -> list[Conjunct]:
    """Disjunctive normal form as a list of normal conjuncts, pruned.  The
    walk carries the polarity down, and a tree from `dnf_rebuild` met in
    positive polarity gives the conjuncts it was built from.  A memo keeps
    the DNF of each inner node per polarity, by identity, for the rest of
    the call (no caller changes a DNF it gets), so a subtree shared by both
    sides of `<->` is put in DNF once per polarity."""
    return _dnf(cf, False, limits, {})


def _dnf_operands(g: CountingFormula, neg: bool, joint) -> list:
    """The operands, with their polarities, of the chain of `joint` nodes
    at `g` across negations; a kept disjunction in positive polarity is one."""
    out, stack = [], [(g, neg)]
    while stack:
        h, n = stack.pop()
        while type(h) is CNot:
            h, n = h.body, not n
        kind = type(h)
        if (kind is CAnd or kind is COr) and (kind is joint) != n and (n or h._dnf is None):
            stack += ((h.right, n), (h.left, n))
        else:
            out.append((h, n))
    return out


def _dnf(g: CountingFormula, neg: bool, limits: Limits, memo: dict) -> list[Conjunct]:
    while type(g) is CNot:
        g, neg = g.body, not neg
    kind = type(g)
    if kind is CBool:
        return [_EMPTY] if g.value != neg else []
    if kind is not CAnd and kind is not COr:
        return _literal_dnf(g, not neg)
    if not neg and g._dnf is not None:
        return list(g._dnf)
    key = (id(g), neg)
    if key in memo:
        return memo[key]
    if (kind is COr) != neg:
        # One pruning pass over the whole chain: pruning each binary
        # node again would cost cubic time in the number of disjuncts.
        out = prune_conjuncts([c for h, n in _dnf_operands(g, neg, COr)
                               for c in _dnf(h, n, limits, memo)])
    else:
        # One pass over the whole chain: its literals join one base
        # conjunct, and its disjunctions distribute over it in order.
        base, rest = set(), []
        for h, n in _dnf_operands(g, neg, CAnd):
            kind = type(h)
            if kind is CAnd or kind is COr or kind is CBool:
                rest.append((h, n))
            else:
                base.add((h, not n))
        lits = _normalize_conjunct(base)
        out = [] if lits is None else [lits]
        for h, n in rest:
            if not out:
                break
            out = _distribute(out, _dnf(h, n, limits, memo), limits)
    memo[key] = out
    return out


def _distribute(out: list[Conjunct], right: list[Conjunct], limits: Limits) -> list[Conjunct]:
    """The DNF of the conjunction of two DNFs: each of `out` merged with
    each of `right`, in that order, pruned."""
    if len(out) * len(right) > limits.max_conjuncts:
        raise ResourceLimitError("conjunct cap exceeded while distributing")
    return prune_conjuncts([m for a in out for b in right
                            if (m := _merge_conjuncts(a, b)) is not None])


def dnf_rebuild(items) -> CountingFormula:
    """The tree of one elimination step from its conjuncts (sets of
    literals, or `Conjunct`s), pruned and built once.  The tree keeps them
    for `counting_dnf`: it is immutable, and they are its DNF when no
    disjunct subsumes another (pruning was affordable)."""
    dnf = prune_conjuncts(items)
    tree = c_disj(conjunct_formula(c) for c in dnf)
    if type(tree) is COr and len(dnf) <= _SUBSUME_THRESHOLD:
        object.__setattr__(tree, "_dnf", tuple(dnf))
    return tree


def conjunct_formula(conj_lits) -> CountingFormula:
    ordered = sorted(conj_lits, key=lambda lit: (_leaf_key(lit[0]), lit[1]))
    return c_conj(leaf if pos else c_not(leaf) for leaf, pos in ordered)


# --- refinement to a full signature ----------------------------------------------

def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The ways to write `total` as an ordered sum of `parts` naturals, in
    lexicographic order: stars and bars, with the bars at the chosen
    positions among total + parts - 1 slots."""
    slots = total + parts - 1
    for bars in itertools.combinations(range(slots), parts - 1):
        edges = (-1,) + bars + (slots,)
        yield tuple(edges[i + 1] - edges[i] - 1 for i in range(parts))


# The most predicates one refinement expands to: 2^6 cells.
MAX_SIGNATURE = 6


def refine_counting(cf: CountingFormula, signature,
                    limits: Limits = DEFAULT_LIMITS,
                    mentioning: str | None = None) -> CountingFormula:
    """Rewrite count atoms to the full constituents of `signature`: every
    one, or with `mentioning` only those whose region mentions that
    predicate (the others stay as they are).

    A coarse region is a disjoint union of full cells, so a count atom
    becomes a disjunction over the ways its bound can be split among the
    cells.  Region literals on names stay as they are: every reader tests
    them against a cell with `Constituent.extends`, and refining them would
    turn each into a disjunction of cell literals that multiplies the DNF.
    """
    sig = tuple(sorted(signature))
    if len(sig) > MAX_SIGNATURE:
        raise ResourceLimitError(
            f"signature of {len(sig)} predicates exceeds cap {MAX_SIGNATURE}")
    cells = constituents(sig)

    def split(leaf: CountAtom) -> CountingFormula:
        if leaf.region.signature == sig or (
                mentioning is not None and mentioning not in leaf.region.signature):
            return leaf
        if not set(leaf.region.signature) <= set(sig):
            raise ContractError("cannot refine to a smaller signature")
        fine = [cell for cell in cells if cell.extends(leaf.region)]
        n_ways = math.comb(leaf.bound + len(fine) - 1, len(fine) - 1)
        if n_ways > limits.max_conjuncts:
            raise ResourceLimitError("count refinement blowup")
        return c_disj(
            c_conj(count_atom(cell, k) for cell, k in zip(fine, way) if k)
            for way in _compositions(leaf.bound, len(fine)))

    return map_leaves(cf, lambda g: split(g) if isinstance(g, CountAtom) else g)


# --- individual-quantifier elimination --------------------------------------------

def _set_partitions(items: list[str], together=frozenset(),
                    apart=frozenset()) -> Iterator[list[list[str]]]:
    """Set partitions of `items` that put every pair in `together` into one
    block and no pair in `apart` into one block (pairs are frozensets).

    A partition of a suffix that breaks a pair can never be repaired by
    adding the earlier items, so the pairs are checked as each item joins.
    """
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    mates = {b for b in rest if frozenset((first, b)) in together}
    foes = {b for b in rest if frozenset((first, b)) in apart}
    for part in _set_partitions(rest, together, apart):
        for i, block in enumerate(part):
            if mates <= set(block) and foes.isdisjoint(block):
                yield part[:i] + [[first] + block] + part[i + 1:]
        if not mates:
            yield part + [[first]]


def name_cases(names, lits=()) -> Iterator[tuple[list[str], dict[str, str],
                                                 list[Literal]]]:
    """Case split on the equality pattern of `names`.

    Each case is a partition of the names into blocks of equal ones; it is
    given as the block representatives (the least name of each block), the
    map from every name to its representative, and the guards that state
    the pattern as literals: each name equals its representative and the
    representatives are pairwise distinct.  A partition that contradicts an
    equality literal of `lits` between two of the names (separates a
    positive one, joins a negative one) is skipped: its guards together
    with that literal are unsatisfiable.
    """
    names = sorted(names)
    known = set(names)
    together, apart = set(), set()
    for leaf, pos in lits:
        if isinstance(leaf, EqAtom) and leaf.left in known and leaf.right in known:
            (together if pos else apart).add(frozenset((leaf.left, leaf.right)))
    for partition in _set_partitions(names, together, apart):
        blocks = sorted([sorted(b) for b in partition])
        reps = [b[0] for b in blocks]
        guards = [(c_eq(b[0], other), True) for b in blocks for other in b[1:]]
        guards += [(c_eq(a, b), False) for i, a in enumerate(reps) for b in reps[i + 1:]]
        yield reps, {name: b[0] for b in blocks for name in b}, guards


def _eliminate_exists_ind(var: str, cf: CountingFormula,
                          limits: Limits) -> CountingFormula:
    """Replace (exists var. cf) by an equivalent quantifier-free tree; a
    universal quantifier takes this route as its dual, not (exists var.
    not cf).

    Per DNF conjunct: a positive equality lets the variable be renamed
    away; otherwise the conjunct's region literals on the variable pick a
    set of candidate cells, and for each cell the inequations against other
    names are settled by case-splitting first on the equality pattern of
    those names (so the representatives denote distinct elements) and then
    on which representatives fall inside the cell — if k of them do, a
    fresh witness exists exactly when the cell holds at least k+1 elements.
    A representative takes only the sides of the cell that every name of
    its block may take by the conjunct's `sides` and negated regions; one
    with no side left gives no case.
    The equality patterns enumerated are only those the conjunct's own
    equality literals between the names allow: any other pattern's guards
    contradict a literal of the conjunct, so its disjunct is false.  When
    the conjunct says the names are pairwise distinct, one pattern is left.
    """
    disjuncts: list[frozenset[Literal]] = []
    for conj_lits in counting_dnf(cf, limits):
        disjuncts += _eliminate_conjunct(var, conj_lits)
        if len(disjuncts) > limits.max_conjuncts:
            raise ResourceLimitError("conjunct cap exceeded during elimination")
    return dnf_rebuild(disjuncts)


def _eliminate_conjunct(var: str, lits: Conjunct) -> list[frozenset[Literal]]:
    """The conjuncts of (exists var. lits): one per equality pattern of
    the partners, candidate cell and pick of the sides each representative
    takes.  Their literals may be constants, which `dnf_rebuild` folds.

    The conjunct's `sides` fix the variable's signs and say where each
    partner lies; a negated region literal on several predicates, which
    `sides` cannot hold, is the one thing read from the literals."""
    pos_eqs: list[str] = []
    partners: list[str] = []
    residue: list[Literal] = []
    outside: dict[str, list[Constituent]] = {}  # name -> the regions it is outside of
    for leaf, pos in lits:
        kind = type(leaf)
        if kind is EqAtom and var in (leaf.left, leaf.right):
            other = leaf.right if leaf.left == var else leaf.left
            (pos_eqs if pos else partners).append(other)
            continue
        if kind is RegionAtom:
            if not pos and len(leaf.region.signature) > 1:
                outside.setdefault(leaf.name, []).append(leaf.region)
            if leaf.name == var:
                continue
        residue.append((leaf, pos))

    if pos_eqs:
        target = sorted(pos_eqs)[0]
        return [frozenset((subst_counting_name(leaf, var, target), pos) for leaf, pos in lits)]

    sides = lits.sides
    fixed = tuple(sorted((p, s) for (name, p), s in sides.items() if name == var))
    cells = _cells_within(fixed, frozenset(outside.get(var, ())))
    if not cells:
        return []
    allowed = {}  # (partner, cell) -> the sides of the cell it may take
    for name in partners:
        for cell in cells:
            own = tuple(sides.get((name, p)) for p in cell.signature)
            inside = all(s is None or s == c for s, c in zip(own, cell.signs)) and \
                not any(cell.extends(r) for r in outside.get(name, ()))
            # A name whose sides put it in the cell, as every name is in
            # the whole domain, is never outside it.
            allowed[name, cell] = (True,) * inside + (False,) * (own != cell.signs)
    out = []
    for reps, rep_of, guards in name_cases(partners, residue):
        given = frozenset(residue + guards)
        for cell in cells:
            options = dict.fromkeys(reps, (True, False))
            for name in partners:
                rep = rep_of[name]
                options[rep] = [s for s in options[rep] if s in allowed[name, cell]]
            for picks in itertools.product(*options.values()):
                out.append(given.union(
                    [(region_atom(cell, r), inc) for r, inc in zip(reps, picks)],
                    [(count_atom(cell, sum(picks) + 1), True)]))
    return out


@functools.lru_cache(maxsize=1024)
def _cells_within(fixed: tuple[tuple[str, bool], ...],
                  outside: frozenset[Constituent]) -> tuple[Constituent, ...]:
    """The cells over the predicates of `fixed`, (predicate, sign) pairs,
    and of the regions of `outside` that take the fixed signs and extend
    no region of `outside`, in `constituents` order: only the predicates
    that `fixed` leaves open are enumerated."""
    signs_of = dict(fixed)
    sig = tuple(sorted(signs_of.keys() | {p for r in outside for p in r.signature}))
    free = [p for p in sig if p not in signs_of]
    cells = []
    for signs in itertools.product((True, False), repeat=len(free)):
        signs_of.update(zip(free, signs))
        cell = Constituent(sig, tuple(signs_of[p] for p in sig))
        if not any(cell.extends(r) for r in outside):
            cells.append(cell)
    return tuple(cells)


# --- counting normal form ----------------------------------------------------------

def translate_to_counting(f: Formula, limits: Limits = DEFAULT_LIMITS,
                          elim_pred=None) -> CountingFormula:
    """Quantifier-free counting tree for any formula, in one pass that
    carries the polarity down: under an odd number of negations each
    connective and quantifier turns into its dual, so every eliminator
    sees the body that `to_nnf` would give it.  Each side of `<->` is
    translated once, in positive polarity, and `c_not` gives its negation.
    Individual quantifiers go innermost first: an existential one by
    `_eliminate_exists_ind`, a universal one as the negation of that step
    on its negated body, and one whose variable is gone from its
    translated body is that body.  Predicate quantifiers go to
    `elim_pred(var, exists, body)`; without one they are a contract
    violation.
    """

    return _translate(f, False, limits, elim_pred)


def _translate(g: Formula, neg: bool, limits: Limits, elim_pred) -> CountingFormula:
    kind = type(g)
    while kind is Not:
        g, neg = g.body, not neg
        kind = type(g)
    if kind is PredApp:
        if g.arg is not None:
            return RegionAtom(region_of(g.name, not neg), g.arg)
        return c_not(LetterAtom(g.name)) if neg else LetterAtom(g.name)
    if kind is Equal:
        return c_not(c_eq(g.left, g.right)) if neg else c_eq(g.left, g.right)
    if kind is TruthConst:
        return C_TRUE if g.value != neg else C_FALSE
    if kind is And or kind is Or:
        join = c_and if (kind is And) != neg else c_or
        return functools.reduce(join, [_translate(c, neg, limits, elim_pred)
                                       for c in operands(g)])
    if kind is Implies:
        return (c_and if neg else c_or)(_translate(g.left, not neg, limits, elim_pred),
                                        _translate(g.right, neg, limits, elim_pred))
    if kind is Iff:
        left = _translate(g.left, False, limits, elim_pred)
        right = _translate(g.right, False, limits, elim_pred)
        return c_or(c_and(left, c_not(right)), c_and(right, c_not(left))) if neg \
            else c_and(c_or(c_not(left), right), c_or(c_not(right), left))
    exists = (kind is ExistsInd or kind is ExistsPred) != neg
    body = _translate(g.body, neg, limits, elim_pred)
    if kind is ExistsInd or kind is ForallInd:
        # The walk stops at the first leaf that names the variable.
        if not any(type(h) is RegionAtom and h.name == g.var or type(h) is EqAtom
                   and g.var in (h.left, h.right) for h in _nodes(body)):
            return body
        if exists:
            return _eliminate_exists_ind(g.var, body, limits)
        return c_not(_eliminate_exists_ind(g.var, c_not(body), limits))
    if elim_pred is None:
        raise ContractError("predicate quantifier outside the supported fragment")
    return elim_pred(g.var, exists, body)


def to_ccnf(f: Formula, limits: Limits = DEFAULT_LIMITS) -> CountingFormula:
    """Counting normal form of a formula without predicate quantifiers.

    The result is quantifier-free and equivalent to f on every finite
    domain; for closed f every count atom's constituent carries the full
    free unary signature of f, and for closed f the leaves are count atoms
    and constants only.  A region literal on a free name keeps the region
    the formula gives it.
    """
    cls = classify(f)
    if cls not in (FormulaClass.PROPOSITIONAL, FormulaClass.DOMAIN_A,
                   FormulaClass.DOMAIN_A_STAR):
        raise ContractError(f"counting normal form is defined below predicate "
                            f"quantification; got {cls.value}")
    return refine_counting(translate_to_counting(f, limits), sorted(free_unary(f)), limits)


# --- reflection back into the surface language --------------------------------------

def region_formula(region: Constituent, name: str) -> Formula:
    parts = [PredApp(p, name) if s else Not(PredApp(p, name))
             for p, s in zip(region.signature, region.signs)]
    return conj(parts)


def counting_to_formula(cf: CountingFormula) -> Formula:
    """Equivalent surface formula; a count atom `#[R] >= n` becomes n
    distinct existential witnesses in R.  Used to put counting results in
    front of the finite-model oracle, and its negation normal form is the
    block form (`to_block_form`).

    Count atoms are leaves, so no two witness binders nest, and an atom of
    bound n binds the first n names of the one sequence x, x1, x2, ...
    that skips the tree's letters and names: the result is well formed.
    Each distinct node is reflected once, so a subtree shared by both
    sides of `<->` becomes one shared subformula, and a chain of `&` or of
    `|` keeps its left-associated shape, as it is parsed."""
    _, _, letters, names = counting_symbols(cf)
    fresh = (v for v in itertools.chain(("x",), (f"x{n}" for n in itertools.count(1)))
             if v not in letters and v not in names)
    witnesses: list[str] = []

    def leaf(g: CountingFormula) -> Formula:
        kind = type(g)
        if kind is CountAtom:
            while len(witnesses) < g.bound:
                witnesses.append(next(fresh))
            binders = witnesses[:g.bound]
            body = conj([Not(Equal(a, b)) for i, a in enumerate(binders) for b in binders[i + 1:]]
                        + [region_formula(g.region, v) for v in binders])
            for v in reversed(binders):
                body = ExistsInd(v, body)
            return body
        if kind is RegionAtom:
            return region_formula(g.region, g.name)
        if kind is EqAtom:
            return Equal(g.left, g.right)
        if kind is LetterAtom:
            return PredApp(g.name)
        return TruthConst(g.value)

    return _fold(cf, leaf, Not, And, Or)


def to_block_form(f: Formula, limits: Limits = DEFAULT_LIMITS) -> Formula:
    """One-variable block normal form for identity-free monadic input:
    `&` and `|` over constants, letters, negated letters and blocks, each
    `ex x. (L1 & ... & Ln)` or `all x. (L1 | ... | Ln)` over unary
    literals on x.

    The input must classify as propositional or first-order monadic and
    contain no free individual names (rewrite singular statements into
    quantified form first; that rewriting needs identity and therefore
    leaves this fragment).

    The form is the counting tree reflected by `counting_to_formula`, in
    negation normal form.  Without identity or names,
    `_eliminate_conjunct` has no partners, so every count atom of the tree
    has bound 1 and reflects to one `ex` block; a negated one becomes an
    `all` block.  Blocks never nest, so each binds x (or, when x is a
    letter of the formula, the first of x1, x2, ... that is not).
    """
    cls, _, free_inds = survey(f)
    if cls not in (FormulaClass.PROPOSITIONAL, FormulaClass.DOMAIN_A):
        raise ContractError(f"block form is defined for identity-free first-order "
                            f"monadic formulas; got {cls.value}")
    if free_inds:
        raise ContractError("block form requires a formula without free individual names")
    return to_nnf(counting_to_formula(translate_to_counting(f, limits)))


def size_bits(cf: CountingFormula) -> tuple[int, int]:
    """The truth values of a pure counting tree on all domain sizes (bit
    n-1 for n elements; an int extends its sign, so the bits from the
    largest bound on are equal), and that bound.  Each distinct node is
    evaluated once: a subtree shared by both sides of `<->` costs one."""
    bounds = [0]

    def bits(g: CountingFormula) -> int:
        if type(g) is CBool:
            return -1 if g.value else 0
        if type(g) is not CountAtom or g.region.signature:
            raise ContractError(f"not a pure counting tree: leaf {g}")
        bounds.append(g.bound)
        return -1 << max(g.bound - 1, 0)

    return _fold(cf, bits, operator.invert, operator.and_, operator.or_), max(bounds)
