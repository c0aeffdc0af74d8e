"""Second-order (predicate) quantifier elimination.

The general engine is the counting path: translate the quantifier's body
into the counting language, refine the regions that mention the
quantified predicate to the full signature, and remove the predicate by
interval reasoning on cell cardinalities, read off the bounds that each
DNF conjunct holds; count atoms that do not mention it pass through as
they are.  The classical special cases go the same way: the subset-chain
base case (Barbara) and the existential form with lower bound, upper
bound and witness blocks, whose resultant needs identity (one element
cannot witness membership and non-membership at once, so two witnesses
force a domain of at least two).

Five shortcuts keep the steps small.  When every count or region literal
on the quantified predicate grows with it, it is set to the whole domain,
and when every one shrinks, to the empty set (Ackermann's monotone case):
one leaf map, with no refinement, DNF or interval step.  When the
quantified predicate occurs in no count atom, it constrains named
individuals only and is removed pointwise, in the style of Ackermann's
lemma: a choice of X exists iff no name forced into X, by the sides a DNF
conjunct holds, equals a name forced out of it.  When it does occur in a
count atom, the names are placed per DNF conjunct of the body: each
conjunct's region literals and empty regions leave each name only some
cells and sides of X, and only those placements are enumerated.  A
conjunct whose count literals on X bound no half a name may take (nor,
from below, the other half of its cell) is not split at all: its names
need only the cells and sides they may take.  And every split on the
equality pattern of names (here and in the individual eliminator of
`normal`) skips the patterns that contradict the equality literals
already known, since their disjuncts are false.

Elimination order is innermost first; a universal predicate quantifier is
handled as the negation of an existential one.  Each eliminator computes
its result conjunct by conjunct, as sets of literals, and hands them to
`dnf_rebuild`, which builds the step's tree once.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from operator import attrgetter

from .errors import ContractError, ResourceLimitError
from .limits import DEFAULT_LIMITS, Limits
from .normal import (C_FALSE, C_TRUE, WHOLE_DOMAIN, Conjunct, Constituent,
                     CountAtom, CountingFormula, EqAtom, LetterAtom, Literal,
                     RegionAtom, _distribute, c_and, c_eq, c_not, c_or,
                     constituents, count_atom, counting_dnf, dnf_rebuild,
                     map_leaves, name_cases, prune_conjuncts, refine_counting,
                     region_atom, region_of, survey_counting,
                     translate_to_counting, to_nnf)
from .syntax import Formula, free_symbols

# --- the counting eliminator ------------------------------------------------------

def _conjunct_resultant(x: str, lits: Conjunct,
                        pinned: dict[tuple[Constituent, bool], int]) -> frozenset[Literal] | None:
    """Interval reasoning for one DNF conjunct.

    Each cell s over the remaining signature splits into s&X and s&~X.
    The conjunct's `bounds` give each half its lower bound (from a count
    literal) and upper bound (from a negated one); `pinned` raises the
    lower bounds by the number of named elements known to sit in a half.
    A split |s&X| = a, |s&~X| = b with a in [lo+, up+] and b in [lo-, up-]
    exists iff |s| lies in [lo+ + lo-, up+ + up-], independently for every
    cell.  `rows` maps each half (cell, inside X?) that a literal bounds to
    its [lower, upper], upper None for unbounded.  The resultant is a set
    of literals, None when the conjunct is infeasible.
    """
    rows: dict[tuple[Constituent, bool], list] = {}
    for (region, pos), bound in lits.bounds.items():
        if x in region.signature:
            row = rows.setdefault((region.without(x), region.sign_of(x)), [0, None])
            row[0 if pos else 1] = bound if pos else bound - 1
    out = [lit for lit in lits if type(lit[0]) is not CountAtom
           or x not in lit[0].region.signature]

    # Only a cell with a bounds row or a pin yields an atom: the interval
    # of any other is [0, inf), and #[cell] >= 0 is true.  The cells are
    # taken in `constituents` order, which is descending order of signs.
    bounded = {cell for cell, _ in [*rows, *pinned]}
    for cell in sorted(bounded, key=attrgetter("signs"), reverse=True):
        lo, up = 0, 0
        for half in ((cell, True), (cell, False)):
            lower, upper = rows.get(half, (0, None))
            lower = max(lower, pinned.get(half, 0))
            if upper is not None and lower > upper:  # the conjunct is infeasible
                return None
            lo += lower
            up = None if up is None or upper is None else up + upper
        out.append((count_atom(cell, lo), True))
        if up is not None:
            out.append((count_atom(cell, up + 1), False))
    return frozenset(out)


def eliminate_counting(x: str, body: CountingFormula,
                       limits: Limits = DEFAULT_LIMITS) -> CountingFormula:
    """Remove `exists x` from a counting tree whose count atoms on x carry
    the full signature including x.  Literals that do not mention x
    (letters, count atoms over any region without x, residue guards) pass
    through untouched."""
    dnf = counting_dnf(body, limits)
    if len(dnf) > limits.max_conjuncts:
        raise ResourceLimitError("conjunct cap exceeded during elimination")
    return dnf_rebuild([res for lits in dnf
                        if (res := _conjunct_resultant(x, lits, {})) is not None])


def eliminate_exists_pred(x: str, cf: CountingFormula,
                          limits: Limits = DEFAULT_LIMITS) -> CountingFormula:
    """Remove `exists X` from a counting tree.

    A nullary predicate variable ranges over two truth values and expands
    by substitution.  When every count and region literal on a unary one
    grows with X (`survey_counting`), X is set to the domain: `[+X s]`
    becomes `[s]` and a literal on `[-X s]` false; when every one shrinks,
    X is set to the empty set, the mirror image.  Otherwise one that no
    count atom mentions is removed pointwise (`_eliminate_pointwise`).
    Otherwise the count atoms that mention X are refined to the full
    signature of the body; the others stay as they are, since the
    resultant depends only on the cells X meets, and pass through the
    interval step.  Free individual names are
    settled by a diagram: group the names by equality, place each
    representative in a cell of the remaining signature and on one side of
    X, and pin the chosen halves as minimum occupancies for the interval
    step.  The body is put in DNF once, and each conjunct yields only the
    diagrams its own literals allow (`_diagrams`), or one diagram that
    places no name when its count literals on X cannot see the names; the
    conjuncts that allow one diagram are pruned together and each survivor
    goes to the interval step.
    """
    regions, counted, letters, names, grows = survey_counting(cf, x)
    if x not in regions:
        if x not in letters:
            return cf
        letter = LetterAtom(x)
        return c_or(*(map_leaves(cf, lambda g: value if g == letter else g)
                      for value in (C_TRUE, C_FALSE)))
    if len(grows) == 1:  # x := the domain if every literal grows with x, else x := empty
        (side,) = grows

        def fill(g: CountingFormula) -> CountingFormula:
            sign = g.region.sign_of(x) if isinstance(g, (CountAtom, RegionAtom)) else None
            if sign is None:
                return g
            if sign != side:
                return C_FALSE
            rest = g.region.without(x)
            return count_atom(rest, g.bound) if isinstance(g, CountAtom) else \
                region_atom(rest, g.name)

        return map_leaves(cf, fill)
    if x not in counted:
        return _eliminate_pointwise(x, cf, limits)

    sig_p = tuple(sorted(regions - {x}))
    # Refinement rewrites count atoms only, so the names read above stay.
    cf = refine_counting(cf, tuple(sorted(regions)), limits, mentioning=x)
    names = tuple(sorted(names))
    if not names:
        return eliminate_counting(x, cf, limits)

    halves = [(cell, inside) for cell in constituents(sig_p) for inside in (True, False)]
    residues: dict[tuple, list] = {}
    collected = 0
    for lits in counting_dnf(cf, limits):
        for guards, placing, residue in _diagrams(x, names, lits, halves, limits):
            residues.setdefault((guards, placing), []).append(residue)
            collected += 1
            if collected > limits.max_conjuncts:
                raise ResourceLimitError("diagram cap exceeded during elimination")
    out = []
    for (guards, placing), rests in residues.items():
        pinned = Counter(placing)
        for residue in prune_conjuncts(rests):
            res = _conjunct_resultant(x, residue, pinned)
            if res is not None:
                out += [res.union(guard) for guard in guards]
    return dnf_rebuild(out)


def _diagrams(x: str, names, lits, halves, limits: Limits):
    """The name diagrams one DNF conjunct allows.

    A name may sit in a half (cell of the remaining signature, side of x)
    when every region literal of the conjunct on that name holds there and
    no negated count atom `~(#[R] >= 1)` holds a region R containing the
    half empty (R is a half itself when it mentions x, and may be coarser
    when it does not).  Each equality pattern that `name_cases` allows
    gives its representatives the halves all the names of their block
    allow.  Any other diagram makes a literal of the conjunct false.
    Yields the diagram's guards as a DNF, a tuple of literal sets (for a
    diagram that places names, one set: the equality pattern and the cell
    of each representative), one half per representative, and the
    conjunct's literals on neither names nor equalities.

    When no count literal on x bounds from below either half of a cell a
    name may take, nor from above a half a name may take, the names are
    unseen: a diagram's pins only say that a cell holds its
    representatives, which its guards imply, so the diagrams fold into one
    without representatives (`_unseen_names`).
    """
    def within(region):
        sign_x = region.sign_of(x)
        rest = region.without(x)
        return lambda half: (sign_x is None or sign_x == half[1]) and half[0].extends(rest)

    allowed = {name: set(halves) for name in names}
    residue = []
    for leaf, pos in lits:
        if isinstance(leaf, RegionAtom):
            inside = within(leaf.region)
            allowed[leaf.name] = {h for h in allowed[leaf.name] if inside(h) == pos}
        elif not isinstance(leaf, EqAtom):
            if isinstance(leaf, CountAtom) and not pos and leaf.bound == 1:
                inside = within(leaf.region)
                for name in names:
                    allowed[name] = {h for h in allowed[name] if not inside(h)}
            residue.append((leaf, pos))
    residue = frozenset(residue)
    taken = set().union(*allowed.values())
    bounds = [(leaf.region.without(x), leaf.region.sign_of(x), pos) for leaf, pos in residue
              if isinstance(leaf, CountAtom) and x in leaf.region.signature]
    if not any((cell, inside) in taken or pos and (cell, not inside) in taken
               for cell, inside, pos in bounds):
        yield tuple(_unseen_names(lits, allowed, halves, limits)), (), residue
        return
    for reps, rep_of, guards in name_cases(names, lits):
        options = [[h for h in halves
                    if all(h in allowed[n] for n in names if rep_of[n] == rep)]
                   for rep in reps]
        for placing in itertools.product(*options):
            cells = [(region_atom(cell, rep), True) for rep, (cell, _) in zip(reps, placing)]
            yield (frozenset(guards + cells),), placing, residue


def _unseen_names(lits, allowed, halves, limits: Limits) -> list[Conjunct]:
    """The DNF of the guards of the one diagram of a conjunct whose names
    no count literal on x sees: its equality literals, the cells each name
    may take, and `a ~= b | a not in C` for each pair of names allowed only
    disjoint sides of the cells C (pairs suffice: a cell has two sides).
    The guards that are literals form one conjunct, and the DNF of each
    other guard distributes over it in turn."""
    cells = [cell for cell, inside in halves if inside]
    sides = {(n, cell): {s for s in (True, False) if (cell, s) in allowed[n]}
             for n in allowed for cell in cells}
    base = {lit for lit in lits if type(lit[0]) is EqAtom}
    guards = []
    for n in sorted(allowed):
        taken = [cell for cell in cells if sides[n, cell]]
        if not taken:
            return []
        if len(taken) == 1 < len(cells):
            base.add((region_atom(taken[0], n), True))
        elif len(taken) < len(cells):
            guards.append(prune_conjuncts([{(region_atom(cell, n), True)} for cell in taken]))
    for a, b in itertools.combinations(sorted(allowed), 2):
        apart = [cell for cell in cells if sides[a, cell] and sides[b, cell]
                 and not sides[a, cell] & sides[b, cell]]
        if apart == [WHOLE_DOMAIN]:  # no name lies outside the whole domain
            base.add((c_eq(a, b), False))
        elif apart:
            guards.append(prune_conjuncts([{(c_eq(a, b), False)},
                                           {(region_atom(cell, a), False) for cell in apart}]))
    # As in `_dnf`: without literal guards, the first other guard's DNF
    # stands alone and is not checked against the cap by itself.
    out = guards.pop(0) if guards and not base else prune_conjuncts([base])
    for right in guards:
        if not out:
            break
        out = _distribute(out, right, limits)
    return out


def _eliminate_pointwise(x: str, cf: CountingFormula,
                         limits: Limits) -> CountingFormula:
    """Remove `exists x` when x occurs only in region literals on names.

    Each region literal on x splits into its x-free part and a literal
    `name in [+x]` or `name in [-x]`.  Per DNF conjunct, its `sides` force
    some names into x and some out of it (a name forced both ways makes
    the conjunct contradictory), and x is unconstrained everywhere else.
    So x exists iff no name forced in denotes the same element as a name
    forced out: the resultant is the rest of the conjunct and `a ~= b`
    for each such pair.
    """

    def split(g: CountingFormula) -> CountingFormula:
        sign = g.region.sign_of(x) if isinstance(g, RegionAtom) else None
        if sign is None:
            return g
        return c_and(region_atom(g.region.without(x), g.name),
                     RegionAtom(region_of(x, sign), g.name))

    out = []
    for lits in counting_dnf(map_leaves(cf, split), limits):
        side = {name: s for (name, p), s in lits.sides.items() if p == x}
        residue = [lit for lit in lits if type(lit[0]) is not RegionAtom
                   or lit[0].region.signature != (x,)]
        out.append(frozenset(residue + [(c_eq(a, b), False) for a in side if side[a]
                                        for b in side if not side[b]]))
    return dnf_rebuild(out)


# --- full pipeline -----------------------------------------------------------------

class Trace:
    """Collects (rule, result) steps.

    A step keeps its result object, which is immutable; `entries` renders
    the steps when it is read, so a run whose trace nobody reads renders
    nothing."""

    def __init__(self):
        self.steps: list[tuple[str, object]] = []

    def record(self, rule: str, result) -> None:
        self.steps.append((rule, result))

    @property
    def entries(self) -> tuple[tuple[str, str], ...]:
        return tuple((rule, str(result)) for rule, result in self.steps)


@dataclass(frozen=True)
class _NegationNormalForm:
    """A formula's negation normal form, computed when it is rendered."""

    formula: Formula

    def __str__(self) -> str:
        return str(to_nnf(self.formula))


def eliminate_all(f: Formula, limits: Limits = DEFAULT_LIMITS,
                  trace: Trace | None = None) -> CountingFormula:
    """Remove every quantifier from a closed formula, innermost first, in
    one pass of `translate_to_counting`, yielding a counting tree over the
    free predicates.  The trace's `nnf` step is rendered from `f` when read."""
    if free_symbols(f)[1]:
        raise ContractError(
            "elimination requires a formula without free individual names")

    def elim_pred(var: str, exists: bool, body: CountingFormula) -> CountingFormula:
        result = eliminate_exists_pred(var, body, limits) if exists else \
            c_not(eliminate_exists_pred(var, c_not(body), limits))
        if trace:
            trace.record(f"eliminate {'ex' if exists else 'all'} {var}", result)
        return result

    if trace:
        trace.record("nnf", _NegationNormalForm(f))
    cf = translate_to_counting(f, limits, elim_pred)
    if trace:
        trace.record("resultant", cf)
    return cf
