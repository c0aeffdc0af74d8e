import importlib
import itertools
import re
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from mlogic import elimination, normal
from mlogic.elimination import (eliminate_all, eliminate_counting,
                                eliminate_exists_pred)
from mlogic.errors import ContractError, ResourceLimitError
from mlogic.limits import DEFAULT_LIMITS, Limits
from mlogic.models import (GeneratorParams, equiv_check, random_formula,
                           spectrum_bruteforce)
from mlogic.decide import VerdictKind, decide, spectrum_of
from mlogic.normal import (CAnd, CBool, CNot, COr, Constituent, CountAtom,
                           C_FALSE, C_TRUE, EqAtom, LetterAtom, RegionAtom, c_and, c_conj,
                           c_disj, c_eq, c_not, c_or, conjunct_formula, constituents,
                           count_atom, counting_dnf, counting_symbols,
                           counting_to_formula,
                           dnf_rebuild, map_leaves, name_cases,
                           refine_counting, region_atom, to_nnf,
                           translate_to_counting)
from mlogic.parser import parse
from mlogic.syntax import ExistsPred, ForallPred, Not, children

from conftest import counting_leaves, subformulas

WHOLE = Constituent((), ())


def at_sizes(cf, max_size):
    """The values of a pure counting tree at sizes 1..max_size."""
    spectrum = spectrum_of(cf)
    return [spectrum.contains(n) for n in range(1, max_size + 1)]


def in_x(n):
    return CountAtom(Constituent(("X",), (True,)), n)


def out_x(n):
    return CountAtom(Constituent(("X",), (False,)), n)


# --- the classical special cases ----------------------------------------------

def main_form(lower, upper, pos=(), neg=(), pred="X", var="x"):
    """ex X of the main elimination form, each region a formula in `var`:
    `lower` | X and `upper` | ~X everywhere, and a witness in X for each
    region of `pos` and one outside X for each region of `neg`."""
    parts = [f"(all {var}. ({lower} | {pred}({var})))",
             f"(all {var}. ({upper} | ~{pred}({var})))"]
    parts += [f"(ex {var}. ({r} & {pred}({var})))" for r in pos]
    parts += [f"(ex {var}. ({r} & ~{pred}({var})))" for r in neg]
    return f"ex {pred}. ({' & '.join(parts)})"


def resultant_matches(f, size):
    return equiv_check(f, counting_to_formula(eliminate_all(f)), size) is None


def test_barbara_elimination():
    assert resultant_matches(parse(main_form("~A(x)", "B(x)", pred="R")), 4)


def test_barbara_whole_domain_edge():
    # lower region empty-complement: X must be everything; upper no constraint
    assert resultant_matches(parse(main_form("false", "true")), 3)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_barbara_random_regions(seed):
    # Without witnesses the form collapses to all x. (lower | upper).
    import random
    rng = random.Random(seed)
    pool = ["A(x)", "B(x)", "~A(x)", "~B(x)", "true", "false"]
    lower, upper = rng.choice(pool), rng.choice(pool)
    f = parse(main_form(lower, upper))
    resultant = counting_to_formula(eliminate_all(f))
    assert equiv_check(f, resultant, 4) is None
    assert equiv_check(parse(f"all x. ({lower} | {upper})"), resultant, 4) is None


def test_main_form_one_positive_witness():
    assert resultant_matches(parse(main_form("~A(y)", "B(y)", ["C(y)"], var="y")), 4)


def test_main_form_two_whole_domain_witnesses_need_two_elements():
    f = parse(main_form("true", "true", ["true"], ["true"], var="y"))
    assert eliminate_all(f) == CountAtom(WHOLE, 2)
    assert resultant_matches(f, 5)


def test_main_form_degenerate_matches_barbara():
    cf = eliminate_all(parse(main_form("~A(x)", "B(x)")))
    assert equiv_check(counting_to_formula(cf), parse("all x. (~A(x) | B(x))"), 4) is None


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10**6))
def test_main_form_matches_counting_path(seed):
    import random
    rng = random.Random(seed)
    pool = ["A(y)", "~A(y)", "true", "false"]
    lower, upper = rng.choice(pool), rng.choice(pool)
    witnesses = [rng.choice(pool) for _ in range(rng.randint(0, 2))]
    neg = [rng.choice(pool) for _ in range(rng.randint(0, 1))]
    assert resultant_matches(parse(main_form(lower, upper, witnesses, neg, var="y")), 4)


# --- the counting eliminator ------------------------------------------------------

def test_counting_spec_examples():
    assert eliminate_counting("X", c_and(in_x(2), out_x(1))) == CountAtom(WHOLE, 3)
    assert eliminate_counting("X", c_and(in_x(1), out_x(1))) == CountAtom(WHOLE, 2)
    assert eliminate_counting("X", C_TRUE) == C_TRUE


def test_counting_upper_bounds():
    # at most 1 inside and at most 1 outside: domain of at most 2
    body = c_and(c_not(in_x(2)), c_not(out_x(2)))
    cf = eliminate_counting("X", body)
    assert at_sizes(cf, 3) == [True, True, False]


def test_counting_infeasible_row():
    body = c_and(in_x(2), c_not(in_x(2)))
    assert eliminate_counting("X", body) == CBool(False)


def test_exists_pred_nullary_shannon():
    f = parse("all X. (X | ~X)")
    cf = eliminate_all(f)
    assert cf == C_TRUE


def test_exists_pred_unused_is_dropped():
    f = parse("ex X. ex x. x = x")
    assert eliminate_all(f) == C_TRUE


# --- the name case-split cuts --------------------------------------------------------

GADGET_2 = ("ex X. ((ex x1. ex x2. (x1 ~= x2 & X(x1) & X(x2)))"
            " & (ex y1. ex y2. (y1 ~= y2 & ~X(y1) & ~X(y2))))")
GADGET_3 = ("ex X. ((ex x1. ex x2. ex x3. (x1 ~= x2 & x1 ~= x3 & x2 ~= x3"
            " & X(x1) & X(x2) & X(x3)))"
            " & (ex y1. ex y2. ex y3. (y1 ~= y2 & y1 ~= y3 & y2 ~= y3"
            " & ~X(y1) & ~X(y2) & ~X(y3))))")


@pytest.mark.parametrize("text, verdict, sizes", [
    # X only on named individuals: removed pointwise.
    ("all a. all b. ex X. (X(a) & ~X(b))", "Unsatisfiable", 5),
    ("ex a. ex b. ex X. (X(a) & ~X(b))", "SizeContingent: [2,∞)", 5),
    ("all a. all b. all c. ((a ~= c | b ~= c) -> ex X. ((X(a) | X(b)) & ~X(c)))",
     "Valid", 5),
    ("all a. all b. ex X. ~(X(a) -> X(b))", "Unsatisfiable", 5),
    ("all a1. all a2. all a3. all b. ((b ~= a1 & b ~= a2 & b ~= a3)"
     " -> ex X. (X(a1) & X(a2) & X(a3) & ~X(b)))", "Valid", 5),
    # ... next to a predicate P that stays free inside the X step.
    ("ex P. ex a. ex b. ex c. (P(a) & ~P(b) & ex X. ((X(a) <-> P(c)) & ~X(b) & X(c)))",
     "SizeContingent: [2,∞)", 5),
    ("all P. all a. all b. ((P(a) & ~P(b)) -> ex X. ((X(a) <-> P(b)) & X(b)))",
     "Valid", 5),
    # X also in a count atom: the interval path with the name diagrams.
    ("all a. ex X. (X(a) & ex x. ~X(x))", "SizeContingent: [2,∞)", 5),
    # Pairwise distinct partners: one equality pattern per conjunct.
    (GADGET_2, "SizeContingent: [4,∞)", 5),
    (GADGET_3, "SizeContingent: [6,∞)", 6),
])
def test_name_cuts_agree_with_the_oracle(text, verdict, sizes):
    f = parse(text)
    report = decide(f)
    assert str(report.verdict) == verdict
    assert [report.verdict.spectrum.contains(n) for n in range(1, sizes + 1)] == \
        spectrum_bruteforce(f, sizes)


def test_pointwise_resultant_with_a_free_predicate():
    f = parse("ex a. ex b. (P(a) & ex X. ((X(a) | P(b)) & ~X(b)))")
    cf = eliminate_all(f)
    purity_scan(f, cf)
    assert equiv_check(f, counting_to_formula(cf), 4) is None


# --- the name placements, per DNF conjunct -------------------------------------------

def _apply_diagram(cf, x, diagram, rep_of):
    """Evaluate region literals and equalities under a diagram."""
    if isinstance(cf, RegionAtom):
        cell, inside = diagram[rep_of[cf.name]]
        sign_x = cf.region.sign_of(x)
        if sign_x is not None and sign_x != inside:
            return C_FALSE
        return CBool(cell.extends(cf.region.without(x)))
    if isinstance(cf, EqAtom):
        return CBool(rep_of[cf.left] == rep_of[cf.right])
    if isinstance(cf, CNot):
        return c_not(_apply_diagram(cf.body, x, diagram, rep_of))
    if isinstance(cf, CAnd):
        return c_and(_apply_diagram(cf.left, x, diagram, rep_of),
                     _apply_diagram(cf.right, x, diagram, rep_of))
    if isinstance(cf, COr):
        return c_or(_apply_diagram(cf.left, x, diagram, rep_of),
                    _apply_diagram(cf.right, x, diagram, rep_of))
    return cf


def diagram_first(x, cf, limits=DEFAULT_LIMITS):
    """Reference for the name path of `eliminate_exists_pred`: every
    equality pattern of the names and every placement of the
    representatives, with the whole body evaluated under each diagram and
    eliminated afresh.  Other inputs go to the engine."""
    regions, counted, _, names = counting_symbols(cf)
    if not names or x not in counted:
        return eliminate_exists_pred(x, cf, limits)
    sig_p = tuple(sorted(regions - {x}))
    cf = refine_counting(cf, tuple(sorted(regions)), limits)
    halves = list(itertools.product(constituents(sig_p), (True, False)))
    out = []
    for reps, rep_of, guards in name_cases(names):
        for placing in itertools.product(halves, repeat=len(reps)):
            diagram = dict(zip(reps, placing))
            fixed = _apply_diagram(cf, x, diagram, rep_of)
            # Each half holds at least the representatives placed in it.
            pins = [CountAtom(Constituent(*zip(*sorted(cell.pairs | {(x, inside)}))), n)
                    for (cell, inside), n in Counter(placing).items()]
            res = eliminate_counting(x, c_conj([fixed] + pins), limits)
            if res != C_FALSE:
                out.append(c_conj([conjunct_formula(guards)]
                                  + [region_atom(cell, rep)
                                     for rep, (cell, _) in diagram.items()] + [res]))
    return dnf_rebuild(counting_dnf(c_disj(out), limits))


def spy_on_diagrams(patch):
    """Record every diagram the engine places; returns the record."""
    placed = []
    real = elimination._diagrams

    def counting(*args):
        for diagram in real(*args):
            placed.append(diagram)
            yield diagram

    patch.setattr(elimination, "_diagrams", counting)
    return placed


def paths_of(placed):
    """The paths of the recorded diagrams: "placed" for one that places
    names, "unseen" for the one diagram of a conjunct whose count literals
    on X cannot see the names, which places none."""
    return {"placed" if placing else "unseen" for _, placing, _ in placed}


def check_against_diagram_first(f, monkeypatch, paths):
    with monkeypatch.context() as patch:
        placed = spy_on_diagrams(patch)
        new = eliminate_all(f)
    assert paths_of(placed) == paths
    with monkeypatch.context() as patch:
        patch.setattr(elimination, "eliminate_exists_pred", diagram_first)
        old = eliminate_all(f)
    assert equiv_check(counting_to_formula(old), counting_to_formula(new), 4) is None
    return new


@pytest.mark.parametrize("m", [1, 2, 3])
def test_separation_two_agrees_with_the_oracle(m, separation_two, monkeypatch):
    f = parse(separation_two(m))
    assert str(decide(f).verdict) == "Valid"
    assert spectrum_bruteforce(f, 6) == [True] * 6
    # Every name may take only the inside of P \ Q, and the count literals
    # on X bound only the other halves: no conjunct places the names.
    check_against_diagram_first(f, monkeypatch, {"unseen"})


PLACED, UNSEEN, BOTH = {"placed"}, {"unseen"}, {"placed", "unseen"}


@pytest.mark.parametrize("text, verdict, paths", [
    # A name forced both into and out of X under a count atom on X.
    ("all a. all b. ex X. (X(a) & ~X(b) & ex x. ex y. (x ~= y & X(x) & X(y)))",
     "Unsatisfiable", PLACED),
    ("all a. all b. (a ~= b -> ex X. (X(a) & ~X(b) & ex x. ex y. (x ~= y & X(x) & X(y))))",
     "SizeContingent: {1} ∪ [3,∞)", PLACED),
    # Equality literals between names.
    ("all a. all b. ex X. ((a = b | X(a)) & ~X(b) & ex x. ex y. (x ~= y & X(x) & X(y)))",
     "SizeContingent: [3,∞)", PLACED),
    ("ex a. ex b. ex X. (a ~= b & X(a) & ~X(b) & ex x. (x ~= a & X(x)))",
     "SizeContingent: [3,∞)", PLACED),
    # A disjunctive body: each disjunct allows its own placements, and the
    # second one's upper bound on the outside of X meets no name.
    ("all a. all b. ex X. ((X(a) & ~X(b) & ex x. ex y. (x ~= y & X(x) & X(y)))"
     " | (a = b & all x. X(x)))", "SizeContingent: {1} ∪ [3,∞)", BOTH),
    ("ex a. ex b. ex c. ex X. (X(a) & ~X(b) & (X(c) | c = b)"
     " & ex x. ex y. (x ~= y & ~X(x) & ~X(y)))", "SizeContingent: [3,∞)", PLACED),
    # A universal predicate quantifier over names.
    ("all a. all b. all X. (X(a) -> (X(b) | ex x. ex y. (x ~= y & ~X(x) & ~X(y))))",
     "SizeContingent: {1}", PLACED),
    ("all a. all b. all X. ((X(a) & ~X(b)) -> ((ex x. (X(x) & x ~= a))"
     " | ex y. (~X(y) & y ~= b)))", "SizeContingent: {1} ∪ [3,∞)", BOTH),
])
def test_name_placements_agree_with_the_oracle(text, verdict, paths, monkeypatch):
    f = parse(text)
    report = decide(f)
    assert str(report.verdict) == verdict
    assert [report.verdict.spectrum.contains(n) for n in range(1, 7)] == \
        spectrum_bruteforce(f, 6)
    check_against_diagram_first(f, monkeypatch, paths)


@pytest.mark.parametrize("text, paths", [
    # Only upper bounds of zero on X outside P: the names are unseen.
    ("ex a. ex b. (P(a) & ex X. (X(a) & ~X(b) & all x. (X(x) -> P(x))))", UNSEEN),
    # The conjunct with a non-member of X in P places a; the one with a
    # non-member outside P does not.
    ("all a. (P(a) -> ex X. (X(a) & (all x. (X(x) -> P(x))) & ex x. ~X(x)))", BOTH),
    ("all a. (~P(a) -> ex X. (X(a) & all x. (X(x) -> P(x))))", UNSEEN),
])
def test_name_placements_with_a_free_predicate(text, paths, monkeypatch):
    f = parse(text)
    cf = check_against_diagram_first(f, monkeypatch, paths)
    purity_scan(f, cf)
    assert equiv_check(f, counting_to_formula(cf), 4) is None


@pytest.mark.parametrize("text, spectrum", [
    # The lower bound is on the other half of the cell a takes.
    ("all a. ex X. (X(a) & ex x. ~X(x))", "[2,∞)"),
    # An upper bound of 2 on the half all three names take.
    ("all a. all b. all c. ex X. (X(a) & X(b) & X(c) & ~(ex x. ex y. ex z."
     " (x ~= y & x ~= z & y ~= z & X(x) & X(y) & X(z))))", "{1,2}"),
])
def test_names_a_count_literal_can_see_are_placed(text, spectrum, monkeypatch):
    f = parse(text)
    assert str(decide(f).verdict.spectrum) == spectrum
    check_against_diagram_first(f, monkeypatch, {"placed"})


_HALVES_PX = [Constituent(("P", "X"), signs)
              for signs in itertools.product((True, False), repeat=2)]
_REGIONS_PX = _HALVES_PX + [Constituent((p,), (s,)) for p in ("P", "X") for s in (True, False)]
_HALVES_PQX = list(constituents(("P", "Q", "X")))
_REGIONS_PQX = _HALVES_PQX + [Constituent((p,), (s,)) for p in ("P", "Q", "X")
                              for s in (True, False)]


@st.composite
def name_conjuncts(draw, names, halves=_HALVES_PX, regions=_REGIONS_PX):
    """A conjunct of region literals on the names, equality literals
    between them, and count literals on X of both signs."""
    def lit(atom):
        return atom if draw(st.booleans()) else c_not(atom)

    parts = [lit(RegionAtom(draw(st.sampled_from(regions)), name))
             for name in names for _ in range(draw(st.integers(0, 2)))]
    parts += [lit(CountAtom(draw(st.sampled_from(halves)), draw(st.integers(1, 3))))
              for _ in range(draw(st.integers(1, 3)))]
    if len(names) > 1 and draw(st.booleans()):
        parts.append(lit(EqAtom(*sorted(draw(st.permutations(names))[:2]))))
    return c_conj(parts)


@st.composite
def name_bodies(draw, halves=_HALVES_PX, regions=_REGIONS_PX):
    names = [f"a{i}" for i in range(1, draw(st.integers(1, 4)) + 1)]
    return c_disj(draw(st.lists(name_conjuncts(names, halves, regions),
                                min_size=1, max_size=2)))


def test_unseen_names_agree_with_diagram_first():
    taken = set()

    @settings(max_examples=120, deadline=None)
    @given(body=name_bodies())
    def check(body):
        with pytest.MonkeyPatch.context() as patch:
            placed = spy_on_diagrams(patch)
            res = eliminate_exists_pred("X", body)
        taken.update(paths_of(placed))
        assert equiv_check(counting_to_formula(res),
                           counting_to_formula(diagram_first("X", body)), 4) is None

    check()
    assert taken == {"placed", "unseen"}


def unseen_names_by_tree(lits, allowed, halves, limits):
    """Reference for `_unseen_names`: the guards built as one tree, a
    conjunction of the equality literals, a disjunction of the cells of
    each name and `a ~= b | a not in C` for each pair, read back by
    `counting_dnf`."""
    cells = [cell for cell, inside in halves if inside]
    sides = {(n, cell): {s for s in (True, False) if (cell, s) in allowed[n]}
             for n in allowed for cell in cells}
    guards = [conjunct_formula(lit for lit in lits if isinstance(lit[0], EqAtom))]
    guards += [c_disj(region_atom(cell, n) for cell in cells if sides[n, cell])
               for n in sorted(allowed) if not all(sides[n, cell] for cell in cells)]
    for a, b in itertools.combinations(sorted(allowed), 2):
        apart = [cell for cell in cells if sides[a, cell] and sides[b, cell]
                 and not sides[a, cell] & sides[b, cell]]
        if apart:
            guards.append(c_or(c_not(c_eq(a, b)),
                               c_conj(c_not(region_atom(cell, a)) for cell in apart)))
    return counting_dnf(c_conj(guards), limits)


def check_unseen_names_against_the_tree(run):
    """Run `run()`, and check each call of `_unseen_names` in it: it calls
    no `counting_dnf` and gives the reference's conjuncts, in its order.
    Returns the guard DNFs."""
    calls, real = [], elimination._unseen_names

    def forbidden(*args):
        raise AssertionError("the guards went through counting_dnf")

    def checked(*args):
        expected = unseen_names_by_tree(*args)
        with pytest.MonkeyPatch.context() as patch:
            for module in (elimination, normal):
                patch.setattr(module, "counting_dnf", forbidden)
            got = real(*args)
        assert [(c, c.bounds, c.sides, c.shape) for c in got] == \
            [(c, c.bounds, c.sides, c.shape) for c in expected]
        calls.append(got)
        return got

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(elimination, "_unseen_names", checked)
        run()
    return calls


@pytest.mark.parametrize("text, guard", [
    # The pair guard `a ~= b | a not in [+P]`: only a may take X in [+P].
    ("ex a. ex b. (P(a) & ex X. (X(a) & ~X(b) & all x. (X(x) -> P(x))))",
     [{("a = b", False), ("a in [+P]", True)}]),
    # Without other predicates the one cell is the whole domain, which holds
    # both names, so the pair guard is the literal a ~= b.
    ("all a. all b. ex X. ((X(a) & ~X(b)) | ex x. X(x))", [{("a = b", False)}]),
])
def test_unseen_names_distribute_their_guards_without_a_tree(text, guard):
    calls = check_unseen_names_against_the_tree(lambda: eliminate_all(parse(text)))
    assert [[{(str(leaf), pos) for leaf, pos in c} for c in dnf] for dnf in calls] == [guard]


def test_unseen_names_on_random_bodies_match_the_tree():
    seen = []

    # a1 outside [-P +X] and a2 outside [-P -X], with [+P +X] empty: the
    # pair guard `a1 ~= a2 | a1 not in [-P]` distributes into two conjuncts.
    @settings(max_examples=150, deadline=None)
    @given(body=st.one_of(name_bodies(), name_bodies(_HALVES_PQX, _REGIONS_PQX)))
    @example(body=c_conj([c_not(RegionAtom(Constituent(("P", "X"), (False, True)), "a1")),
                          c_not(RegionAtom(Constituent(("P", "X"), (False, False)), "a2")),
                          c_not(CountAtom(Constituent(("P", "X"), (True, True)), 1))]))
    def check(body):
        seen.extend(check_unseen_names_against_the_tree(
            lambda: eliminate_exists_pred("X", body)))

    check()
    # Some guard DNF came out of a distribution with more than one conjunct.
    assert any(len(dnf) > 1 for dnf in seen)


def test_name_placements_respect_the_conjunct_cap():
    # The witness outside X makes the body mixed in X, so the step places names.
    cf = translate_to_counting(to_nnf(parse(
        "(ex x. (X(x) & ~P(x))) & (X(a) | X(b)) & ex z. ~X(z)")))
    assert equiv_check(counting_to_formula(eliminate_exists_pred("X", cf)),
                       counting_to_formula(diagram_first("X", cf)), 3) is None
    with pytest.raises(ResourceLimitError, match="diagram cap exceeded during elimination"):
        eliminate_exists_pred("X", cf, Limits(max_conjuncts=4))


def test_the_diagram_cap_stops_the_enumeration(monkeypatch):
    # The first disjunct has no literal on the names, so it allows every
    # placement of eight names over the 16 halves (about 10^10 diagrams).
    # The cap must fire while they are enumerated, at the first diagram
    # past it.  Its witness outside X makes the body mixed in X.
    names = [f"a{i}" for i in range(1, 9)]
    f = parse("".join(f"all {a}. " for a in names)
              + "ex X. ((ex x. ex y. (x ~= y & X(x) & X(y) & P(x) & Q(y) & R(x)))"
              + " & (ex z. ~X(z))"
              + " | (" + " & ".join(f"X({a})" for a in names) + "))")
    with monkeypatch.context() as patch:
        placed = spy_on_diagrams(patch)
        with pytest.raises(ResourceLimitError,
                           match="diagram cap exceeded during elimination"):
            eliminate_all(f)
    assert len(placed) == DEFAULT_LIMITS.max_conjuncts + 1


# --- refinement of the count atoms on the eliminated predicate only -----------------

def test_atoms_without_x_stay_unrefined(monkeypatch):
    # X occurs in both directions, so the body is refined, not filled.
    p_not_q = CountAtom(Constituent(("P", "Q"), (True, False)), 1)
    r_x = CountAtom(Constituent(("R", "X"), (True, True)), 1)
    r_not_x = CountAtom(Constituent(("R", "X"), (True, False)), 1)
    with monkeypatch.context() as patch:
        calls = count_calls(patch, elimination, ["refine_counting"])
        cf = eliminate_exists_pred("X", c_conj([p_not_q, r_x, r_not_x]))
    assert calls == {"refine_counting": 1}
    assert p_not_q in set(counting_leaves(cf))
    # An element of R in X and one outside it: R holds two elements.
    assert equiv_check(counting_to_formula(cf),
                       counting_to_formula(c_and(p_not_q, CountAtom(r_x.region.without("X"), 2))),
                       3) is None


def test_an_empty_region_without_x_takes_no_name(monkeypatch):
    # The witness outside X makes the body mixed in X, so the step places names.
    cf = translate_to_counting(to_nnf(parse(
        "X(a) & ~(ex x. P(x)) & ex x. (X(x) & Q(x)) & ex z. (~X(z) & ~P(z) & Q(z))")))
    with monkeypatch.context() as patch:
        placed = spy_on_diagrams(patch)
        res = eliminate_exists_pred("X", cf)
    # ~(#[+P] >= 1) stays coarse and still keeps `a` out of both cells of P.
    assert sorted(str(cell) for _, placing, _ in placed for cell, _ in placing) == \
        ["[-P +Q]", "[-P -Q]"]
    assert equiv_check(counting_to_formula(res),
                       counting_to_formula(diagram_first("X", cf)), 3) is None


def _subset(a, b):
    return f"(all x. (~{a}(x) | {b}(x)))"


def subset_chain(k, reverse=False):
    """all P1..Pk. (P1 <= P2 <= ... <= Pk -> P1 <= Pk): valid.  With the
    conclusion reversed (Pk <= P1) it fails at every size."""
    links = " & ".join(_subset(f"P{i}", f"P{i + 1}") for i in range(1, k))
    conclusion = _subset(f"P{k}", "P1") if reverse else _subset("P1", f"P{k}")
    return " ".join(f"all P{i}." for i in range(1, k + 1)) + f" (({links}) -> {conclusion})"


def alternation(depth, premises=True):
    """all X1. ex X2. all X3. ... : each existential X2i contains the
    universal before it, and each later universal X2i+1 is linked by
    "X2i <= X2i+1 implies X2i-1 <= X2i+1"; valid (X2i = X2i-1).  Without
    the premises of those links (depth 3 and up) it fails at every size."""
    quants = " ".join(("all" if j % 2 else "ex") + f" X{j}." for j in range(1, depth + 1))
    links = []
    for j in range(2, depth + 1):
        if j % 2 == 0:
            links.append(_subset(f"X{j - 1}", f"X{j}"))
        elif premises:
            links.append(f"({_subset(f'X{j - 1}', f'X{j}')} -> {_subset(f'X{j - 2}', f'X{j}')})")
        else:
            links.append(_subset(f"X{j - 2}", f"X{j}"))
    return f"{quants} ({' & '.join(links)})"


@pytest.mark.parametrize("text", [subset_chain(k, reverse) for k in (2, 3, 4)
                                  for reverse in (False, True)]
                         + [alternation(d) for d in (2, 3, 4)]
                         + [alternation(d, premises=False) for d in (3, 4)])
def test_structured_families_agree_with_the_oracle(text):
    spectrum = decide(parse(text)).verdict.spectrum
    assert [spectrum.contains(n) for n in range(1, 5)] == spectrum_bruteforce(parse(text), 4)


def test_alternation_resultants_stay_small():
    # Refining every count atom, not only those on the eliminated
    # predicate, makes the widest step of this trace 619 count atoms.
    assert decide(parse(alternation(6))).max_atoms <= 32


# --- Ackermann's pure case: every literal on X moves one way --------------------------

def upper(k):
    """all P1..Pk. ex X. (P1 <= X & ... & Pk <= X & ex x. X(x)): valid, take
    X to be the whole domain.  Every literal on X grows with X."""
    links = " & ".join(_subset(f"P{i}", "X") for i in range(1, k + 1))
    return " ".join(f"all P{i}." for i in range(1, k + 1)) + f" ex X. ({links} & ex x. X(x))"


def forbid(patch, names):
    """Make each of `names` in `elimination` fail if the step calls it."""
    for name in names:
        def forbidden(*args, _name=name, **kwargs):
            raise AssertionError(f"the pure step called {_name}")
        patch.setattr(elimination, name, forbidden)


MIXED_PATH = ["refine_counting", "counting_dnf", "dnf_rebuild", "_diagrams"]


@pytest.mark.parametrize("k", [7, 20, 60])
def test_upper_is_valid_without_refinement(k, monkeypatch):
    with monkeypatch.context() as patch:
        forbid(patch, MIXED_PATH)
        assert str(decide(parse(upper(k))).verdict) == "Valid"


def quantified(exists, x, cf, eliminate):
    """`ex x. cf` or, as its dual, `all x. cf`, eliminated by `eliminate`."""
    return eliminate(x, cf) if exists else c_not(eliminate(x, c_not(cf)))


@pytest.mark.parametrize("exists", [True, False])
@pytest.mark.parametrize("text, side", [
    # Grows with X: X := the domain.
    ("X(a) & (ex x. (X(x) & P(x))) & (all x. (P(x) -> X(x))) & (Q(b) | X(b))", True),
    ("(ex x. ex y. (x ~= y & X(x) & X(y) & Q(y))) | (X(a) & ~(ex x. (~X(x) & P(x))))", True),
    # Shrinks with X: X := empty.
    ("~X(a) & (ex x. (~X(x) & Q(x))) & (all x. (X(x) -> P(x))) & (~X(b) | a = b)", False),
    ("~(ex x. ex y. (x ~= y & X(x) & X(y) & P(x))) | (~X(a) & ex x. (~X(x) & Q(x)))", False),
])
def test_a_pure_body_takes_x_whole_or_empty(text, side, exists, monkeypatch):
    cf = translate_to_counting(to_nnf(parse(text)))
    # Under `all X` the negated body moves the other way, and is pure too.
    with monkeypatch.context() as patch:
        forbid(patch, MIXED_PATH)
        res = quantified(exists, "X", cf, eliminate_exists_pred)
    assert equiv_check(counting_to_formula(res),
                       counting_to_formula(quantified(exists, "X", cf, diagram_first)),
                       3) is None
    # Ackermann: ex X. body is body[X := domain] when it grows with X, and
    # body[X := empty] when it shrinks; all X. body the other way round.
    filled = re.sub(r"X\((\w)\)", r"(\1 = \1)" if side == exists else r"(\1 ~= \1)", text)
    assert equiv_check(counting_to_formula(res), parse(filled), 3) is None


def test_a_side_of_an_iff_moves_both_ways(monkeypatch):
    # The left side, an inner node, occurs in both polarities: X is mixed.
    f = parse("ex X. (((ex x. (X(x) & P(x))) | ex x. R(x)) <-> ex x. Q(x))")
    with monkeypatch.context() as patch:
        calls = count_calls(patch, elimination, ["refine_counting"])
        cf = eliminate_all(f)
    assert calls["refine_counting"] == 1
    assert equiv_check(f, counting_to_formula(cf), 3) is None


def test_pure_and_mixed_bodies_agree_with_diagram_first():
    paths = set()

    @settings(max_examples=120, deadline=None)
    @given(body=name_bodies())
    def check(body):
        with pytest.MonkeyPatch.context() as patch:
            calls = count_calls(patch, elimination, ["refine_counting"])
            res = eliminate_exists_pred("X", body)
        paths.add("mixed" if calls["refine_counting"] else "pure")
        assert equiv_check(counting_to_formula(res),
                           counting_to_formula(diagram_first("X", body)), 3) is None

    check()
    assert paths == {"pure", "mixed"}


# --- universal individual quantifiers, as duals of existential ones ------------------

def half_equated(m):
    """all P Q a1..am b: a disjunction with b equated to every other name
    and Q on the rest; unsatisfiable (b = a1 fails where P(b))."""
    names = [f"a{i}" for i in range(1, m + 1)]
    parts = [f"(P(b) & b = {a})" if i % 2 else f"(~P(b) & Q({a}))"
             for i, a in enumerate(names)]
    return ("all P. all Q. " + " ".join(f"all {a}." for a in names)
            + f" all b. ({' | '.join(parts)} | (Q(b) & ~P(b)))")


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
def test_half_equated_is_unsatisfiable(m):
    f = parse(half_equated(m))
    verdict = decide(f).verdict
    assert verdict.kind is VerdictKind.UNSATISFIABLE
    if m <= 4:
        assert [verdict.spectrum.contains(n) for n in (1, 2, 3)] == spectrum_bruteforce(f, 3)


def wide(firsts, seconds):
    """The disjunction of every conjunction of one of `firsts` with one of
    `seconds`: its negation is 2^(len(firsts) * len(seconds)) conjuncts
    wide before pruning."""
    return " | ".join(f"({x} & {y})" for x in firsts for y in seconds)


@pytest.mark.parametrize("text", [
    # Disjunctions of conjunctions over P and Q, with and without names.
    "all a. (" + wide(["P(a)", "~P(a)", "Q(a)", "~Q(a)"], ["P(b)", "~Q(b)", "Q(c)", "~P(c)"]) + ")",
    "all a. (" + wide(["P(a)", "~Q(a)", "a = b", "a ~= c"], ["Q(b)", "~P(c)", "P(a)", "b = c"]) + ")",
    # A count atom from an inner quantifier.
    "all a. (" + wide(["P(a)", "~Q(a)", "a = b", "ex x. (Q(x) & x ~= a)"],
                      ["Q(b)", "~P(c)", "Q(a)", "b ~= c"]) + ")",
    # Nested universal quantifiers.
    "all d. all a. (" + wide(["P(a)", "~Q(a)", "a = d", "Q(d)"], ["~P(d)", "Q(a)", "a ~= b", "P(b)"])
    + ")",
])
def test_wide_universal_bodies_keep_their_meaning(text):
    # The negated body of each is 2^16 conjuncts wide before pruning.
    f = parse(text)
    assert equiv_check(f, counting_to_formula(translate_to_counting(f)), 3) is None


def test_a_wide_body_over_many_predicates_is_refused_promptly():
    # Ten predicates on a: the DNF of the negated body passes the conjunct
    # cap (3^10 conjuncts).
    text = "all a. (" + " | ".join(f"(P{i}(a) & Q{i}(b)) | (~P{i}(a) & R{i}(b))"
                                   for i in range(10)) + ")"
    with pytest.raises(ResourceLimitError):
        translate_to_counting(to_nnf(parse(text)))


def test_separation_two_five_is_valid(separation_two):
    assert decide(parse(separation_two(5))).verdict.kind is VerdictKind.VALID


@pytest.mark.parametrize("m", [8, 10])
def test_separation_two_decides_many_names(m, separation_two):
    # The X step places no name, so no step splits on the equality
    # pattern of the m names (Bell(10) = 115,975 patterns).
    assert decide(parse(separation_two(m))).verdict.kind is VerdictKind.VALID


# --- full pipeline ------------------------------------------------------------------

def test_eliminate_all_trivial_pair():
    assert eliminate_all(parse("all P. ex Q. all x. (~P(x) | ~Q(x))")) == C_TRUE


def test_eliminate_all_barbara(barbara):
    assert eliminate_all(barbara) == C_TRUE


def test_eliminate_all_witness_pair():
    cf = eliminate_all(parse("ex X. ((ex x. X(x)) & (ex x. ~X(x)))"))
    assert cf == CountAtom(WHOLE, 2)


def test_eliminate_all_requires_closed_individuals():
    with pytest.raises(ContractError):
        eliminate_all(parse("ex X. X(a)"))


def test_eliminate_all_frozen_outer_variables():
    cases = [
        "all y. ex X. (X(y) & ex x. ~X(x))",
        "all y. all z. (y = z | ex X. (X(y) & ~X(z)))",
        "all y. ex X. (X(y) & all x. (X(x) -> x = y))",
        "ex X. all y. (X(y) <-> ex z. (z ~= y & ~X(z)))",
    ]
    for text in cases:
        f = parse(text)
        cf = eliminate_all(f)
        assert at_sizes(cf, 5) == spectrum_bruteforce(f, 5), text


def purity_scan(f, cf):
    bound_preds = {g.var for g in subformulas(f)
                   if isinstance(g, (ExistsPred, ForallPred))}
    regions, _, letters, _ = counting_symbols(cf)
    assert not bound_preds & (regions | letters)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_master_agreement_random_pure(seed):
    f = random_formula(GeneratorParams(seed=seed, max_free_preds=0))
    cf = eliminate_all(f)
    purity_scan(f, cf)
    engine = at_sizes(cf, 5)
    assert engine == spectrum_bruteforce(f, 5)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_resultant_agreement_with_free_predicates(seed):
    f = random_formula(GeneratorParams(seed=seed, max_free_preds=2,
                                       max_ind_quantifiers=2, max_depth=3))
    cf = eliminate_all(f)
    purity_scan(f, cf)
    assert equiv_check(f, counting_to_formula(cf), 3) is None


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_elimination_duality(seed):
    f = random_formula(GeneratorParams(seed=seed, max_free_preds=0,
                                       max_ind_quantifiers=2, max_depth=3))
    lhs = eliminate_all(to_nnf(Not(f)))
    rhs = c_not(eliminate_all(f))
    assert at_sizes(lhs, 5) == at_sizes(rhs, 5)


# --- one translation per side of <-> ----------------------------------------------

def at_least(n, tag):
    xs = [f"x{tag}_{j}" for j in range(n)]
    apart = " & ".join(f"{a} ~= {b}" for i, a in enumerate(xs) for b in xs[i + 1:])
    return "(" + " ".join(f"ex {x}." for x in xs) + f" ({apart}))"


def nested_iff(d):
    """S1 <-> (S2 <-> (... <-> Sd)), where Si says that the domain has at
    least 2 + i % 2 elements."""
    text = at_least(2 + d % 2, d)
    for i in range(d - 1, 0, -1):
        text = f"({at_least(2 + i % 2, i)} <-> {text})"
    return text


def nested_iff_holds(d, n):
    """The value of `nested_iff(d)` on n elements, in closed form."""
    value = n >= 2 + d % 2
    for i in range(d - 1, 0, -1):
        value = (n >= 2 + i % 2) == value
    return value


def count_calls(patch, module, names):
    calls = Counter()
    for name in names:
        def counted(*args, _real=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)
        patch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize("d", [1, 2, 5, 12, 20])
def test_each_side_of_an_iff_is_eliminated_once(d, monkeypatch):
    # One existential step per quantifier, none as a dual, and none for the
    # outermost quantifier of each Si, which the inner ones leave vacuous:
    # the count grows linearly with the depth, where the NNF of the chain
    # doubles it per level.
    with monkeypatch.context() as patch:
        calls = count_calls(patch, normal, ["_eliminate_exists_ind"])
        spectrum = decide(parse(nested_iff(d))).verdict.spectrum
    assert calls == {"_eliminate_exists_ind": sum(1 + i % 2 for i in range(1, d + 1))}
    for n in range(1, 6):
        assert spectrum.contains(n) == nested_iff_holds(d, n), (d, n)


@pytest.mark.parametrize("n", [3, 6, 12])
def test_a_run_of_individual_quantifiers_builds_one_tree(n, monkeypatch):
    # gadget(n) holds two runs of n existential quantifiers under ex X.
    # Each run hands its conjuncts from step to step and builds one tree,
    # of one conjunct, where it ends; the predicate step builds the third.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    gadget = importlib.import_module("workloads").gadget
    with monkeypatch.context() as patch:
        calls = count_calls(patch, normal, ["conjunct_formula"])
        verdict = decide(parse(gadget(n))).verdict
    assert calls == {"conjunct_formula": 3}
    assert str(verdict) == f"SizeContingent: [{2 * n},∞)"


# A quantifier over a body that holds nested_iff(d): the sides of each <->
# are one shared node, which every walk of the body visits once.
OVER_A_SHARED_BODY = ["ex X. ((ex x. X(x)) & {})", "all y. (P(y) | {})"]


def with_p_empty(cf):
    """A counting tree over P with P empty: [-P] is the whole domain."""
    return map_leaves(cf, lambda g: count_atom(WHOLE, g.bound)
                      if isinstance(g, CountAtom) and g.region.signs == (False,) else g)


@pytest.mark.parametrize("template", OVER_A_SHARED_BODY)
def test_a_quantifier_over_nested_iffs_walks_each_shared_side_once(template, monkeypatch):
    literal_calls = {}
    for d in (8, 16):
        with monkeypatch.context() as patch:
            calls = count_calls(patch, normal, ["_literal_dnf"])
            decide(parse(template.format(nested_iff(d))))
        literal_calls[d] = calls["_literal_dnf"]
    assert literal_calls[16] <= 2.5 * literal_calls[8], literal_calls
    expected = {(OVER_A_SHARED_BODY[0], 30): "SizeContingent: {1} ∪ [3,∞)",
                (OVER_A_SHARED_BODY[1], 30): "Resultant: ~(#[] >= 2 & ~(#[] >= 3) & #[-P] >= 1)",
                (OVER_A_SHARED_BODY[0], 40): "Valid",
                (OVER_A_SHARED_BODY[1], 40): "Resultant: true"}
    for d in (8, 16, 30, 40):
        report = decide(parse(template.format(nested_iff(d))))
        if (template, d) in expected:
            assert str(report.verdict) == expected[template, d]
        # With P empty, all y. (P(y) | S) says S; ex X. ((ex x. X(x)) & S) says S.
        spectrum = spectrum_of(with_p_empty(report.resultant))
        for n in range(1, 6):
            assert spectrum.contains(n) == nested_iff_holds(d, n), (d, n)


@pytest.mark.parametrize("d", [10, 40])
def test_max_atoms_counts_every_occurrence_of_a_shared_side(d):
    # Each level's tree holds the level below twice, so the count doubles
    # per level; it is added up per distinct node.
    assert decide(parse(nested_iff(d))).max_atoms == 3 * 2**(d - 1) - 2


def formula_nodes(f):
    """The distinct nodes of a formula, by identity."""
    seen, stack = {}, [f]
    while stack:
        g = stack.pop()
        if id(g) not in seen:
            seen[id(g)] = g
            stack += children(g)
    return seen.values()


def test_a_shared_side_of_an_iff_is_reflected_once():
    # Each level adds a constant number of nodes; reflecting the tree as a
    # tree doubled them per level (68,928 nodes at d=12).
    for d in (12, 40):
        g = counting_to_formula(translate_to_counting(parse(nested_iff(d))))
        assert len(formula_nodes(g)) <= 20 * d
    assert equiv_check(parse(nested_iff(5)), counting_to_formula(
        translate_to_counting(parse(nested_iff(5)))), 4) is None


def test_a_predicate_quantifier_under_an_iff_is_eliminated_once(monkeypatch):
    text = ("(ex R. ((all x. (~A(x) | R(x))) & (all x. (~R(x) | B(x)))))"
            " <-> (all x. (~A(x) | B(x)))")
    with monkeypatch.context() as patch:
        calls = count_calls(patch, elimination, ["eliminate_exists_pred"])
        report = decide(parse(text))
    assert calls == {"eliminate_exists_pred": 1}
    assert [rule for rule, _ in report.trace if rule.startswith("eliminate")] == \
        ["eliminate ex R"]
    assert equiv_check(parse(text), counting_to_formula(report.resultant), 3) is None


def test_one_walk_reads_what_a_predicate_step_needs():
    cf = c_conj([CountAtom(Constituent(("P", "X"), (True, False)), 2),
                 RegionAtom(Constituent(("Q",), (True,)), "a"),
                 c_not(EqAtom("a", "b")), LetterAtom("p")])
    assert counting_symbols(cf) == ({"P", "Q", "X"}, {"P", "X"}, {"p"}, {"a", "b"})
