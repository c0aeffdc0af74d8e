import copy
import itertools
import pickle
from collections import namedtuple

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from mlogic import elimination, normal
from mlogic.decide import decide, spectrum_of
from mlogic.errors import ContractError, ResourceLimitError, WellFormednessError
from mlogic.limits import Limits
from mlogic.models import GeneratorParams, equiv_check, random_formula
from mlogic.normal import (CAnd, CBool, CNot, COr, CountAtom,
                           Constituent, C_FALSE, C_TRUE, EqAtom, LetterAtom,
                           RegionAtom, c_and, c_conj, c_disj, c_eq, c_not, c_or,
                           conjunct_formula, constituents, count_atom,
                           counting_atom_count, counting_dnf, dnf_rebuild,
                           prune_conjuncts,
                           counting_to_formula, map_leaves, name_cases,
                           refine_counting, region_atom, region_of,
                           render_counting,
                           size_bits, subst_counting_name,
                           to_block_form, to_ccnf, to_nnf, translate_to_counting,
                           _compositions, _eliminate_conjunct, _literal_dnf,
                           _merge_conjuncts, _normalize_conjunct, _set_partitions)
from mlogic.parser import parse
from mlogic.syntax import (And, ExistsInd, ForallInd, FormulaClass, Not, Or,
                           PredApp, TruthConst, classify, format_formula,
                           free_symbols, validate)

from conftest import counting_leaves, subformulas

WHOLE = Constituent((), ())
P_IN = Constituent(("P",), (True,))


def nnf_text(s):
    return format_formula(to_nnf(parse(s)))


def test_nnf_examples():
    assert nnf_text("~(all x. P(x))") == "ex x. ~P(x)"
    assert nnf_text("~~p") == "p"
    assert nnf_text("~(p & q)") == "~p | ~q"
    assert nnf_text("~(ex X. all y. X(y))") == "all X. ex y. ~X(y)"
    assert nnf_text("~true") == "false"
    assert nnf_text("p -> q") == "~p | q"


@settings(max_examples=120, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_nnf_shape_and_equivalence(seed):
    f = random_formula(GeneratorParams(seed=seed, max_depth=3,
                                       max_ind_quantifiers=2,
                                       max_pred_quantifiers=1))
    g = to_nnf(f)
    for sub in subformulas(g):
        if isinstance(sub, Not):
            assert not isinstance(sub.body, (Not,)) and \
                type(sub.body).__name__ in ("PredApp", "Equal")
    assert equiv_check(f, g, 3) is None


# --- constituents and counting trees -----------------------------------------

def test_constituent_invariants():
    with pytest.raises(WellFormednessError):
        Constituent(("B", "A"), (True, False))
    with pytest.raises(WellFormednessError):
        Constituent(("A",), (True, False))
    assert str(Constituent(("P", "Q"), (True, False))) == "[+P -Q]"
    assert str(WHOLE) == "[]"


def test_constituents_enumeration():
    cells = constituents(["Q", "P"])
    assert len(cells) == 4
    assert all(cell.signature == ("P", "Q") for cell in cells)


def test_count_atom_canonicalization():
    assert count_atom(P_IN, 0) == C_TRUE
    assert count_atom(WHOLE, 1) == C_TRUE
    assert c_and(CountAtom(P_IN, 2), CountAtom(P_IN, 3)) == CountAtom(P_IN, 3)
    assert c_or(CountAtom(P_IN, 2), CountAtom(P_IN, 3)) == CountAtom(P_IN, 2)


def test_rendering():
    cf = c_and(CountAtom(Constituent(("P", "Q"), (True, False)), 2),
               c_not(CountAtom(WHOLE, 5)))
    assert render_counting(cf) == "#[+P -Q] >= 2 & ~(#[] >= 5)"


# --- the leaf map ----------------------------------------------------------------

Q_OUT = Constituent(("Q",), (False,))
PQ = Constituent(("P", "Q"), (True, False))
LEAVES = st.sampled_from([CountAtom(P_IN, 1), CountAtom(P_IN, 2), CountAtom(PQ, 1),
                          CountAtom(WHOLE, 2), RegionAtom(P_IN, "a"),
                          RegionAtom(Q_OUT, "b"), RegionAtom(PQ, "a"), EqAtom("a", "b"),
                          EqAtom("a", "c"), LetterAtom("p"), LetterAtom("q"),
                          C_TRUE, C_FALSE])
# Raw constructors, so that the rebuild has constants to fold and equal
# siblings to merge.
TREES = st.recursive(LEAVES, lambda kids: st.one_of(
    st.builds(CNot, kids), st.builds(CAnd, kids, kids), st.builds(COr, kids, kids)),
    max_leaves=24)


def rebuild_recursively(cf, leaf_fn):
    """The hand-written visitor that `map_leaves` replaced."""
    if isinstance(cf, CNot):
        return c_not(rebuild_recursively(cf.body, leaf_fn))
    if isinstance(cf, CAnd):
        return c_and(rebuild_recursively(cf.left, leaf_fn),
                     rebuild_recursively(cf.right, leaf_fn))
    if isinstance(cf, COr):
        return c_or(rebuild_recursively(cf.left, leaf_fn),
                    rebuild_recursively(cf.right, leaf_fn))
    return leaf_fn(cf)


def nnf_recursively(cf, neg=False):
    """Negation normal form of a counting tree, by recursion through the
    smart constructors: the reference for the polarity `counting_dnf`
    carries down."""
    if isinstance(cf, CBool):
        return CBool(cf.value != neg)
    if isinstance(cf, CNot):
        return nnf_recursively(cf.body, not neg)
    if isinstance(cf, (CAnd, COr)):
        left, right = nnf_recursively(cf.left, neg), nnf_recursively(cf.right, neg)
        return c_or(left, right) if isinstance(cf, CAnd) == neg else c_and(left, right)
    return c_not(cf) if neg else cf


def rename_recursively(leaf, old, new):
    if isinstance(leaf, RegionAtom):
        return region_atom(leaf.region, new if leaf.name == old else leaf.name)
    if isinstance(leaf, EqAtom):
        return c_eq(new if leaf.left == old else leaf.left,
                    new if leaf.right == old else leaf.right)
    return leaf


def iff_dag(depth, leaf):
    """`<->` as `translate_to_counting` builds it, nested `depth` deep over
    the leaves `leaf(0)`, ..., `leaf(depth)`: each level holds the one
    below twice, so the tree doubles per level while the DAG grows by a
    few nodes."""
    cf = leaf(0)
    for i in range(1, depth + 1):
        a = leaf(i)
        cf = c_and(c_or(c_not(a), cf), c_or(c_not(cf), a))
    return cf


def distinct_nodes(cf):
    """The number of distinct node objects of a counting tree."""
    seen, stack = set(), [cf]
    while stack:
        g = stack.pop()
        if id(g) not in seen:
            seen.add(id(g))
            stack += [g.left, g.right] if isinstance(g, (CAnd, COr)) else \
                [g.body] if isinstance(g, CNot) else []
    return len(seen)


def bits_recursively(cf):
    """`size_bits` of a pure counting tree by recursion, one call per
    occurrence of a node."""
    if isinstance(cf, CNot):
        bits, top = bits_recursively(cf.body)
        return ~bits, top
    if isinstance(cf, (CAnd, COr)):
        (left, top_l), (right, top_r) = bits_recursively(cf.left), bits_recursively(cf.right)
        return (left & right if isinstance(cf, CAnd) else left | right), max(top_l, top_r)
    if isinstance(cf, CBool):
        return (-1 if cf.value else 0), 0
    return -1 << max(cf.bound - 1, 0), cf.bound


@settings(max_examples=300, deadline=None)
@given(cf=TREES)
@example(cf=iff_dag(6, lambda i: [LetterAtom("p"), RegionAtom(P_IN, "a"),
                                   CountAtom(P_IN, 2), EqAtom("a", "b")][i % 4]))
def test_the_leaf_map_builds_the_trees_of_the_recursive_visitors(cf):
    seen = []
    assert map_leaves(cf, lambda leaf: seen.append(leaf) or leaf) == \
        rebuild_recursively(cf, lambda leaf: leaf)
    # One call per distinct leaf object, in order of first occurrence.
    assert seen == list({id(leaf): leaf for leaf in counting_leaves(cf)}.values())
    assert subst_counting_name(cf, "a", "b") == \
        rebuild_recursively(cf, lambda leaf: rename_recursively(leaf, "a", "b"))
    assert counting_dnf(cf) == counting_dnf(nnf_recursively(cf))
    assert counting_dnf(CNot(cf)) == counting_dnf(nnf_recursively(cf, True))
    for signature, mentioning in ((("P", "Q"), None), (("P", "Q"), "Q")):
        assert refine_counting(cf, signature, mentioning=mentioning) == rebuild_recursively(
            cf, lambda leaf: refine_counting(leaf, signature, mentioning=mentioning))


@pytest.mark.parametrize("depth", [1, 6, 12])
def test_the_shared_walk_keeps_a_shared_subtree_shared(depth):
    cf = iff_dag(depth, lambda i: CountAtom(WHOLE, 2 + i % 3))
    seen = []

    def bump(leaf):
        seen.append(leaf)
        return CountAtom(leaf.region, leaf.bound + 1)

    mapped = map_leaves(cf, bump)
    assert mapped == rebuild_recursively(cf, lambda leaf: CountAtom(leaf.region, leaf.bound + 1))
    assert len(seen) == depth + 1
    assert distinct_nodes(mapped) == distinct_nodes(cf) == 6 * depth + 1
    if depth <= 6:  # the references walk every occurrence
        assert size_bits(cf) == bits_recursively(cf)
        assert counting_atom_count(cf) == sum(
            isinstance(leaf, CountAtom) for leaf in counting_leaves(cf))
        assert counting_dnf(cf) == counting_dnf(nnf_recursively(cf))
        assert counting_dnf(CNot(cf)) == counting_dnf(nnf_recursively(cf, True))


def preorder(cf):
    """The nodes of a tree in pre-order, leaves as they are and inner nodes
    by kind; equal for two trees exactly when the trees are equal, and
    computed without recursion."""
    out, stack = [], [cf]
    while stack:
        g = stack.pop()
        if isinstance(g, CNot):
            out.append("~")
            stack.append(g.body)
        elif isinstance(g, (CAnd, COr)):
            out.append(type(g).__name__)
            stack += (g.right, g.left)
        else:
            out.append(g)
    return out


def test_deep_chains_need_no_recursion():
    # A left-deep chain of 5,000 CAnd, COr and CNot nodes, five times
    # Python's default recursion limit, with the NNF of its first 300
    # nodes built bottom-up.
    letters = [LetterAtom(f"p{i}") for i in range(5001)]
    chain, leaves = letters[0], [letters[0]]
    pos, neg = letters[0], c_not(letters[0])
    for i in range(1, 5001):
        leaf = letters[i]
        if i == 300:
            short = chain
        if i % 3 == 0:
            chain = CNot(chain)
            if i < 300:
                pos, neg = neg, pos
            continue
        leaves.append(leaf)
        if i % 3 == 1:
            chain = CAnd(chain, leaf)
            if i < 300:
                pos, neg = c_and(pos, leaf), c_or(neg, c_not(leaf))
        else:
            chain = COr(chain, leaf)
            if i < 300:
                pos, neg = c_or(pos, leaf), c_and(neg, c_not(leaf))
    assert list(counting_leaves(chain)) == leaves
    assert preorder(map_leaves(chain, lambda leaf: leaf)) == preorder(chain)
    # counting_dnf carries the polarity through the negations of the chain.
    # Its DNF grows with each alternation of & and |, so the full chain
    # would take minutes; its first 300 nodes do not.
    assert counting_dnf(short) == counting_dnf(pos)
    assert counting_dnf(CNot(short)) == counting_dnf(neg)
    # counting_dnf: a 5,000-deep chain of conjunctions is one conjunct, and so
    # is one whose every 100th child is a disjunction that an earlier
    # literal absorbs.
    conj = mixed = letters[0]
    for i in range(1, 5001):
        conj = CAnd(conj, letters[i])
        mixed = CAnd(mixed, COr(CNot(letters[i]), letters[i - 1]) if i % 100 == 0 else letters[i])
    assert counting_dnf(conj) == [frozenset((leaf, True) for leaf in letters)]
    # The same conjunction written as ~(~conj | ~leaf) at each step.
    negated = letters[0]
    for i in range(1, 5001):
        negated = CNot(COr(CNot(negated), CNot(letters[i])))
    assert counting_dnf(negated) == counting_dnf(conj)
    assert counting_dnf(mixed) == [frozenset((leaf, True) for i, leaf in enumerate(letters)
                                             if i % 100 or i == 0)]


def test_a_conjunction_chain_folds_constants_and_contradictions():
    p, q = LetterAtom("p"), LetterAtom("q")
    assert counting_dnf(CAnd(CAnd(p, C_TRUE), q)) == [frozenset({(p, True), (q, True)})]
    assert counting_dnf(CAnd(CAnd(p, C_FALSE), COr(q, CNot(p)))) == []
    assert counting_dnf(CAnd(CAnd(p, q), CNot(p))) == []
    # A crossed interval: at least 3 and fewer than 2.
    assert counting_dnf(CAnd(CAnd(CountAtom(P_IN, 3), q), CNot(CountAtom(P_IN, 2)))) == []
    # Disjunction children distribute over the literals of the chain.
    assert counting_dnf(CAnd(CAnd(p, COr(CNot(p), q)), COr(CNot(q), p))) == \
        [frozenset({(p, True), (q, True)})]


# Literal sets on two predicates, two names and bounds 1-3.
PQ_REGIONS = [Constituent(sig, signs) for sig in ((), ("P",), ("Q",), ("P", "Q"))
              for signs in itertools.product((True, False), repeat=len(sig))]
PQ_LITERALS = st.tuples(st.one_of(
    st.builds(CountAtom, st.sampled_from(PQ_REGIONS), st.integers(1, 3)),
    st.builds(RegionAtom, st.sampled_from(PQ_REGIONS[1:]), st.sampled_from(["a", "b"])),
    st.just(EqAtom("a", "b"))), st.booleans())


def carried(c):
    return None if c is None else (set(c), c.bounds, c.sides, c.shape)


@settings(max_examples=400, deadline=None)
@given(left=st.frozensets(PQ_LITERALS, max_size=5), right=st.frozensets(PQ_LITERALS, max_size=5))
def test_merging_two_normal_conjuncts_normalizes_their_union(left, right):
    a, b = _normalize_conjunct(left), _normalize_conjunct(right)
    whole = _normalize_conjunct(left | right)
    if a is None or b is None:
        assert whole is None
    else:
        assert carried(_merge_conjuncts(a, b)) == carried(whole)
        assert carried(_merge_conjuncts(b, a)) == carried(whole)
    if whole is not None:
        assert _normalize_conjunct(whole) == whole
    for lit in left:  # the direct DNF of one literal against the general routine
        assert [carried(c) for c in _literal_dnf(*lit)] == \
            [carried(c) for c in [_normalize_conjunct({lit})] if c is not None]


def test_a_set_of_one_literal_is_normalized_directly(monkeypatch):
    # `prune_conjuncts` builds the conjunct of one literal without the
    # general merge, and gives what the merge gives: a constant literal
    # that holds is the empty conjunct and one that fails is none.
    cases = [(C_TRUE, True), (C_TRUE, False), (CountAtom(WHOLE, 1), True),
             (CountAtom(WHOLE, 1), False), (RegionAtom(P_IN, "a"), False)]
    general = [_normalize_conjunct({lit}) for lit in cases]
    assert [c is not None for c in general] == [True, False, True, False, True]

    def merge_not_called(base, lits):
        raise AssertionError("a set of one literal went to the general merge")

    monkeypatch.setattr(normal, "_merge_conjuncts", merge_not_called)
    for lit, want in zip(cases, general):
        assert [carried(c) for c in prune_conjuncts([frozenset({lit})])] == \
            ([] if want is None else [carried(want)])


def test_constants_are_the_singletons():
    assert c_not(C_TRUE) is C_FALSE and c_not(C_FALSE) is C_TRUE
    assert translate_to_counting(parse("true")) is C_TRUE
    assert translate_to_counting(parse("~true")) is C_FALSE
    assert translate_to_counting(parse("~false -> false")) is C_FALSE


def fresh_copy(cf):
    """A structurally equal tree of new nodes."""
    if isinstance(cf, CNot):
        return CNot(fresh_copy(cf.body))
    if isinstance(cf, (CAnd, COr)):
        return type(cf)(fresh_copy(cf.left), fresh_copy(cf.right))
    return cf


@settings(max_examples=300, deadline=None)
@given(cf=TREES, other=LEAVES)
def test_a_rebuilt_tree_keeps_the_dnf_it_would_have(cf, other):
    tree = dnf_rebuild(counting_dnf(cf))
    fresh = fresh_copy(tree)
    assert fresh == tree and fresh._dnf is None
    if isinstance(tree, COr):
        assert tree._dnf is not None
    for copied in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert copied == tree and copied._dnf == tree._dnf
    for wrap in (lambda t: t, CNot, lambda t: CAnd(t, other), lambda t: COr(other, CNot(t))):
        kept = counting_dnf(wrap(tree))
        assert kept == counting_dnf(wrap(fresh))
        kept.clear()  # the caller's list: the tree keeps its own
        assert counting_dnf(wrap(tree)) == counting_dnf(wrap(fresh))


@settings(max_examples=300, deadline=None)
@given(items=st.lists(st.frozensets(st.tuples(LEAVES, st.booleans()), max_size=4), max_size=6))
def test_rebuilding_from_conjuncts_equals_the_round_trip_through_a_tree(items):
    # The round trip: each literal set as a tree, their disjunction, and
    # its DNF.  Constants among the literals fold on both paths.
    tree = dnf_rebuild(items)
    trip = dnf_rebuild(counting_dnf(c_disj(conjunct_formula(c) for c in items)))
    assert render_counting(tree) == render_counting(trip)
    assert tree._dnf == trip._dnf


def test_the_individual_step_caps_the_conjuncts_it_emits():
    # x apart from three names in a cell: each of the 5 equality patterns
    # emits one conjunct per choice of sides for its representatives, 22
    # in all, and the cap counts those.
    f = parse("ex x. (P(x) & x ~= a & x ~= b & x ~= c)")
    assert len(counting_dnf(translate_to_counting(f, Limits(max_conjuncts=22)))) == 22
    with pytest.raises(ResourceLimitError, match="conjunct cap exceeded during elimination"):
        translate_to_counting(f, Limits(max_conjuncts=21))


def test_a_disjunct_whose_intervals_lie_in_another_is_dropped():
    # b ~= c & #[] >= 3 | b ~= c & #[] >= 2: the second covers the first.
    apart = c_not(c_eq("b", "c"))
    cf = c_or(c_and(apart, CountAtom(WHOLE, 3)), c_and(apart, CountAtom(WHOLE, 2)))
    assert render_counting(dnf_rebuild(counting_dnf(cf))) == "b ~= c & #[] >= 2"
    # Each interval must contain the other's on the same region, and the
    # other literals must be among the subsumed one's.
    at_most = c_not(CountAtom(P_IN, 3))
    cf = c_or(c_and(at_most, CountAtom(P_IN, 1)), c_and(c_not(CountAtom(P_IN, 2)), apart))
    assert render_counting(dnf_rebuild(counting_dnf(cf))) == \
        "#[+P] >= 1 & ~(#[+P] >= 3) | b ~= c & ~(#[+P] >= 2)"
    cf = c_or(c_and(at_most, CountAtom(P_IN, 1)), c_not(CountAtom(P_IN, 2)))
    assert render_counting(dnf_rebuild(counting_dnf(cf))) == \
        "#[+P] >= 1 & ~(#[+P] >= 3) | ~(#[+P] >= 2)"
    cf = c_or(c_and(at_most, CountAtom(P_IN, 1)), c_and(c_not(CountAtom(P_IN, 2)),
                                                         CountAtom(P_IN, 1)))
    assert render_counting(dnf_rebuild(counting_dnf(cf))) == "#[+P] >= 1 & ~(#[+P] >= 3)"


# --- counting normal form ------------------------------------------------------

def test_ccnf_nonempty_region():
    assert to_ccnf(parse("ex x. P(x)")) == CountAtom(P_IN, 1)


def test_ccnf_two_distinct_witnesses():
    cf = to_ccnf(parse("ex x. ex y. (x ~= y & P(x) & P(y))"))
    assert cf == CountAtom(P_IN, 2)


def test_ccnf_pure_size_statement():
    assert to_ccnf(parse("ex x. ex y. x ~= y")) == CountAtom(WHOLE, 2)


def test_ccnf_rejects_predicate_quantifiers():
    with pytest.raises(ContractError):
        to_ccnf(parse("ex X. ex x. X(x)"))


def test_ccnf_closed_output_is_pure_counting():
    for text in ["ex x. ex y. (P(x) & ~P(y))",
                 "all x. (P(x) -> ex y. (y ~= x & P(y)))",
                 "(ex x. P(x)) <-> (all y. Q(y))"]:
        cf = to_ccnf(parse(text))
        from mlogic.normal import counting_symbols
        assert counting_symbols(cf)[3] == set()
        preds, _ = free_symbols(parse(text))
        for leaf in counting_leaves(cf):
            assert isinstance(leaf, (CountAtom, CBool))
            assert set(leaf.region.signature) == set(preds) or not isinstance(leaf, CountAtom)


def test_ccnf_full_signature_for_closed_input():
    cf = to_ccnf(parse("(ex x. P(x)) & (ex y. Q(y))"))
    for leaf in counting_leaves(cf):
        if isinstance(leaf, CountAtom):
            assert leaf.region.signature == ("P", "Q")


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_ccnf_oracle_equivalence(seed):
    f = random_formula(GeneratorParams(seed=seed, max_pred_quantifiers=0,
                                       max_ind_quantifiers=3, max_free_preds=2,
                                       max_depth=4))
    cf = to_ccnf(f)
    assert equiv_check(f, counting_to_formula(cf), 4) is None


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_ccnf_duality(seed):
    f = random_formula(GeneratorParams(seed=seed, max_pred_quantifiers=0,
                                       max_ind_quantifiers=2, max_free_preds=2,
                                       max_depth=3))
    lhs = counting_to_formula(to_ccnf(Not(f)))
    rhs = Not(counting_to_formula(to_ccnf(f)))
    assert equiv_check(lhs, rhs, 3) is None


def test_ccnf_coincident_partners():
    # inequations against two names that may denote the same element
    f = parse("all z1. all z2. (P(z1) -> ex y. (P(y) & y ~= z1 & y ~= z2))")
    assert equiv_check(f, counting_to_formula(to_ccnf(f)), 4) is None


@pytest.mark.parametrize("text, reflected", [
    # A witness named after a letter of the tree (w1, x) or one of its names
    # (x) would make a formula that `validate` rejects.
    ("w1 | ex x. ex y. (x ~= y & P(x) & P(y))",
     "w1 | ex x. ex x1. (x ~= x1 & P(x) & P(x1))"),
    ("x | ex y. ex z. (y ~= z & P(y) & P(z))",
     "x | ex x1. ex x2. (x1 ~= x2 & P(x1) & P(x2))"),
    ("P(x) & ex y. (y ~= x & P(y))",
     "P(x) & (P(x) & (ex x1. ex x2. (x1 ~= x2 & P(x1) & P(x2))) | ~P(x) & ex x1. P(x1))"),
])
def test_reflected_witnesses_avoid_the_letters_and_names(text, reflected):
    f = parse(text)
    g = counting_to_formula(translate_to_counting(f))
    validate(g)
    assert format_formula(g) == reflected
    assert parse(reflected) == g
    assert equiv_check(f, g, 4) is None


# --- one pass with polarity ---------------------------------------------------------

@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_the_polarity_pass_gives_the_spectrum_of_the_nnf_pass(seed):
    f = random_formula(GeneratorParams(seed=seed, max_pred_quantifiers=0,
                                       max_ind_quantifiers=3, max_free_preds=0,
                                       max_depth=5))
    assert spectrum_of(translate_to_counting(f)) == \
        spectrum_of(translate_to_counting(to_nnf(f)))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_the_polarity_pass_is_equivalent_to_the_nnf_pass(seed):
    f = random_formula(GeneratorParams(seed=seed, max_pred_quantifiers=0,
                                       max_ind_quantifiers=2, max_free_preds=2,
                                       max_depth=4))
    assert equiv_check(counting_to_formula(translate_to_counting(f)),
                       counting_to_formula(translate_to_counting(to_nnf(f))), 4) is None


@pytest.mark.parametrize("text, body", [
    ("ex x. (P(a) | ex y. (y ~= a & Q(y)))", "P(a) | ex y. (y ~= a & Q(y))"),
    ("all x. (P(a) & ~(ex y. (y ~= a & Q(y))))", "P(a) & ~(ex y. (y ~= a & Q(y)))"),
    ("~(all x. ~(P(a) -> ex y. Q(y)))", "P(a) -> ex y. Q(y)"),
])
def test_a_vacuous_individual_quantifier_is_its_body(text, body, monkeypatch):
    # The step hands back the very tree it looked for its variable in.
    looked_in = []
    real = normal._nodes
    monkeypatch.setattr(normal, "_nodes", lambda cf: looked_in.append(cf) or real(cf))
    cf = translate_to_counting(parse(text))
    assert cf is looked_in[-1]
    assert cf == translate_to_counting(parse(body))


def test_a_name_on_both_sides_of_a_predicate_is_a_contradiction():
    assert counting_dnf(translate_to_counting(parse("P(a) & ~P(a)"))) == []
    assert counting_dnf(translate_to_counting(parse("P(a) & Q(a) & ~P(a)"))) == []
    # A failing literal on one predicate holds on its complement.
    p_out = Constituent(("P",), (False,))
    assert counting_dnf(c_and(c_not(RegionAtom(P_IN, "a")),
                              c_not(RegionAtom(p_out, "a")))) == []
    pq = Constituent(("P", "Q"), (True, False))
    assert counting_dnf(c_and(RegionAtom(pq, "a"), RegionAtom(p_out, "a"))) == []
    # Different names, or a failing literal on a finer region, stay.
    assert len(counting_dnf(c_and(RegionAtom(P_IN, "a"), RegionAtom(p_out, "b")))) == 1
    assert len(counting_dnf(c_and(c_not(RegionAtom(pq, "a")), RegionAtom(p_out, "a")))) == 1


def distinct(names):
    return [(c_eq(a, b), False) for i, a in enumerate(names) for b in names[i + 1:]]


def test_eliminate_conjunct_pairwise_distinct_partners_one_disjunct():
    partners = ["a", "b", "c", "d"]
    apart_from_v = [(c_eq("v", p), False) for p in partners]
    lits = _normalize_conjunct(frozenset(apart_from_v + distinct(partners)))
    assert len(_eliminate_conjunct("v", lits)) == 1
    # Without the distinctness literals every equality pattern is a case:
    # Bell(4) = 15.  With no region literal on v the one cell is the whole
    # domain, where every representative lies inside: one conjunct each.
    assert len(_eliminate_conjunct("v", _normalize_conjunct(frozenset(apart_from_v)))) == 15


def test_a_partner_whose_sides_put_it_in_the_cell_is_inside_it():
    # a in [+P] and a in [+Q] put a in the cell [+P +Q], though neither
    # literal alone does: one case, with a inside the cell, and no case
    # with ~(a in [+P +Q]), which contradicts them.
    pq = Constituent(("P", "Q"), (True, True))
    lits = _normalize_conjunct(frozenset([
        (c_eq("v", "a"), False), (RegionAtom(pq, "v"), True),
        (RegionAtom(P_IN, "a"), True), (RegionAtom(Constituent(("Q",), (True,)), "a"), True)]))
    assert rendered(_eliminate_conjunct("v", lits)) == \
        ["a in [+P] & a in [+P +Q] & a in [+Q] & #[+P +Q] >= 2"]


def test_fifteen_distinct_partners_give_one_case():
    # One equality pattern and one side of the whole domain: the step on x
    # emits one conjunct, far below the default cap.
    names = [f"a{i}" for i in range(1, 16)]
    body = " & ".join([f"{a} ~= {b}" for i, a in enumerate(names) for b in names[i + 1:]]
                      + [f"x ~= {a}" for a in names])
    f = parse("".join(f"ex {a}. " for a in names) + f"ex x. ({body})")
    assert str(decide(f).verdict) == "SizeContingent: [16,∞)"


def all_picks(var, lits):
    """`_eliminate_conjunct` as it was before it read the conjunct's region
    literals on the names: every representative on both sides of every
    cell.  The reference for the sides each conjunct allows."""
    pos_regions, neg_regions, pos_eqs, partners, residue = [], [], [], [], []
    for leaf, pos in lits:
        if isinstance(leaf, RegionAtom) and leaf.name == var:
            (pos_regions if pos else neg_regions).append(leaf.region)
        elif isinstance(leaf, EqAtom) and var in (leaf.left, leaf.right):
            other = leaf.right if leaf.left == var else leaf.left
            (pos_eqs if pos else partners).append(other)
        else:
            residue.append((leaf, pos))
    if pos_eqs:
        target = sorted(pos_eqs)[0]
        out = []
        for leaf, pos in lits:
            sub = subst_counting_name(leaf, var, target)
            if not isinstance(sub, CBool):
                out.append((sub, pos))
            elif sub.value != pos:
                return []
        merged = _normalize_conjunct(set(out))
        return [] if merged is None else [conjunct_formula(merged)]
    sig = sorted({p for r in pos_regions + neg_regions for p in r.signature})
    cells = [cell for cell in constituents(sig)
             if all(cell.extends(r) for r in pos_regions)
             and not any(cell.extends(r) for r in neg_regions)]
    if not cells:
        return []
    residue_cf = conjunct_formula(residue)
    out = []
    for reps, _, guards in name_cases(partners, residue):
        cases = []
        for cell in cells:
            for picks in itertools.product((True, False), repeat=len(reps)):
                inside = [r for r, inc in zip(reps, picks) if inc]
                cases.append(c_conj(
                    [region_atom(cell, r) if inc else c_not(region_atom(cell, r))
                     for r, inc in zip(reps, picks)]
                    + [count_atom(cell, len(inside) + 1)]))
        out.append(c_conj([residue_cf, conjunct_formula(guards), c_disj(cases)]))
    return out


PQR = ("P", "Q", "R")
conjunct_regions = st.lists(st.tuples(st.sampled_from(PQR), st.booleans()), min_size=1, max_size=3,
                   unique_by=lambda ps: ps[0]).map(
    lambda ps: Constituent(tuple(p for p, _ in sorted(ps)), tuple(s for _, s in sorted(ps))))
conjunct_names = st.sampled_from(["v", "a", "b"])
conjunct_literals = st.one_of(
    st.tuples(st.builds(RegionAtom, conjunct_regions, conjunct_names), st.booleans()),
    st.tuples(st.builds(c_eq, conjunct_names, conjunct_names), st.booleans()))


@settings(max_examples=150, deadline=None)
@given(partners=st.sets(st.sampled_from(["a", "b"]), min_size=1),
       lits=st.lists(conjunct_literals, max_size=6))
@example(partners={"a"}, lits=[(RegionAtom(P_IN, "v"), True),
                               (RegionAtom(Constituent(("P",), (False,)), "a"), False)])
def test_sides_a_conjunct_allows_keep_the_resultant(partners, lits):
    # The variable v apart from its partners, and region literals on v and
    # on the partners, of both signs, and equalities among them: the sides
    # ruled out change no resultant.
    lits = _normalize_conjunct(frozenset(
        [(leaf, pos) for leaf, pos in lits if not isinstance(leaf, CBool)]
        + [(c_eq("v", name), False) for name in partners]))
    assume(lits is not None)
    fewer = _eliminate_conjunct("v", lits)
    every = counting_dnf(c_disj(all_picks("v", lits)))
    # Each conjunct the allowed sides leave is one that every pick gives.
    assert {c for c in map(_normalize_conjunct, fewer) if c is not None} <= set(every)
    assert equiv_check(counting_to_formula(dnf_rebuild(fewer)),
                       counting_to_formula(dnf_rebuild(every)), 4) is None


def rendered(conjuncts):
    return [render_counting(conjunct_formula(c)) for c in conjuncts]


def test_a_partner_takes_only_the_sides_its_literals_allow():
    x_in, x_out = Constituent(("X",), (True,)), Constituent(("X",), (False,))
    xy = Constituent(("X", "Y"), (True, True))
    apart = [(c_eq("v", "a"), False), (RegionAtom(x_in, "v"), True)]
    for lit, texts in [
            # a in [+X]: the cell [+X] holds a, so v needs a second element.
            ((RegionAtom(x_in, "a"), True), ["a in [+X] & #[+X] >= 2"]),
            # a in [+X +Y], a region inside the cell: the same.
            ((RegionAtom(xy, "a"), True), ["a in [+X] & a in [+X +Y] & #[+X] >= 2"]),
            # a not in [-X], the complement of the cell: the same.
            ((RegionAtom(x_out, "a"), False), ["~(a in [-X]) & a in [+X] & #[+X] >= 2"]),
            # a in [-X], disjoint from the cell: one element will do.
            ((RegionAtom(x_out, "a"), True), ["a in [-X] & ~(a in [+X]) & #[+X] >= 1"]),
            # a not in [+X], a region around the cell: the same.
            ((RegionAtom(x_in, "a"), False), ["~(a in [+X]) & #[+X] >= 1"]),
            # a in [+Y], a region that overlaps the cell: both sides.
            ((RegionAtom(Constituent(("Y",), (True,)), "a"), True),
             ["a in [+X] & a in [+Y] & #[+X] >= 2", "~(a in [+X]) & a in [+Y] & #[+X] >= 1"])]:
        cases = _eliminate_conjunct("v", _normalize_conjunct(frozenset(apart + [lit])))
        assert rendered(cases) == texts
    # b equals a, so the literal on b places the block's representative a.
    block = apart + [(c_eq("v", "b"), False), (c_eq("a", "b"), True),
                     (RegionAtom(x_in, "b"), True)]
    assert rendered(_eliminate_conjunct("v", _normalize_conjunct(frozenset(block)))) == \
        ["a = b & a in [+X] & b in [+X] & #[+X] >= 2"]
    # a in [+X] and a in [-X]: no side is left, so the conjunct is
    # contradictory and never reaches the step.
    both = apart + [(RegionAtom(x_in, "a"), True), (RegionAtom(x_out, "a"), True)]
    assert _normalize_conjunct(frozenset(both)) is None


def test_separation_two_places_one_diagram_per_equality_pattern(separation_two, monkeypatch):
    calls = []
    real = elimination._conjunct_resultant

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(elimination, "_conjunct_resultant", counting)
    assert str(decide(parse(separation_two(4))).verdict) == "Valid"
    # X(a_i), X <= P and X disjoint from Q leave each name one half, so
    # the interval step runs once per equality pattern: Bell(4) = 15.
    # Placing every representative in every half ran it 7,624 times.
    assert len(calls) <= 15


def test_name_cases_follow_the_known_equalities():
    cases = list(name_cases(["c", "a", "b"], [(c_eq("a", "b"), True),
                                              (c_eq("b", "c"), False)]))
    assert [reps for reps, _, _ in cases] == [["a", "c"]]
    _, rep_of, guards = cases[0]
    assert rep_of == {"a": "a", "b": "a", "c": "c"}
    assert render_counting(conjunct_formula(guards)) == "a = b & a ~= c"
    assert len(list(name_cases(["a", "b", "c"]))) == 5


@settings(max_examples=60, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.booleans()),
                      max_size=5))
def test_pruned_partitions_are_the_consistent_ones_in_order(pairs):
    names = ["a", "b", "c", "d", "e"]
    together = {frozenset((names[i], names[j])) for i, j, pos in pairs if i != j and pos}
    apart = {frozenset((names[i], names[j])) for i, j, pos in pairs if i != j and not pos}

    def consistent(partition):
        block_of = {name: k for k, block in enumerate(partition) for name in block}
        return (all(len({block_of[n] for n in pair}) == 1 for pair in together)
                and all(len({block_of[n] for n in pair}) == 2 for pair in apart))

    reference = [p for p in _set_partitions(names) if consistent(p)]
    assert list(_set_partitions(names, together, apart)) == reference


def test_refine_splits_counts():
    cf = refine_counting(CountAtom(P_IN, 2), ("P", "Q"))
    # two cells inside P; the bound 2 splits as 2+0, 1+1, 0+2
    assert equiv_check(counting_to_formula(cf),
                       counting_to_formula(CountAtom(P_IN, 2)), 4) is None


def test_refine_rejects_smaller_signature():
    with pytest.raises(ContractError):
        refine_counting(CountAtom(P_IN, 1), ())


def test_refining_a_large_bound_is_capped():
    # 200 split four ways, over the cells of P x {Q, R}: C(203, 3) ways.
    with pytest.raises(ResourceLimitError, match="count refinement blowup"):
        refine_counting(CountAtom(region_of("P", True), 200), ("P", "Q", "R"))


def test_a_signature_past_the_cap_is_refused(monkeypatch):
    # The cap is a constant of `normal`, not a field of `Limits`.
    with pytest.raises(TypeError):
        Limits(max_signature=6)
    wide = ("P",) + tuple(f"Q{i}" for i in range(normal.MAX_SIGNATURE))
    with pytest.raises(ResourceLimitError, match="signature of 7 predicates exceeds cap 6"):
        refine_counting(CountAtom(P_IN, 1), wide)
    # The subset chain over seven predicates is refused by its refinement.
    links = " & ".join(f"(all x. (~P{i}(x) | P{i + 1}(x)))" for i in range(1, 7))
    chain = parse(" ".join(f"all P{i}." for i in range(1, 8))
                  + f" (({links}) -> (all x. (~P1(x) | P7(x))))")
    refused = []
    real = elimination.refine_counting

    def spy(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except ResourceLimitError as exc:
            refused.append(str(exc))
            raise

    monkeypatch.setattr(elimination, "refine_counting", spy)
    with pytest.raises(ResourceLimitError):
        decide(chain)
    assert refused == ["signature of 7 predicates exceeds cap 6"]
    monkeypatch.setattr(normal, "MAX_SIGNATURE", 7)
    assert str(decide(chain).verdict) == "Valid"


def test_refine_mentioning_leaves_the_other_atoms():
    q_in = Constituent(("Q",), (True,))
    cf = refine_counting(c_and(CountAtom(P_IN, 2), CountAtom(q_in, 1)), ("P", "Q"),
                         mentioning="Q")
    assert render_counting(cf) == "#[+P] >= 2 & (#[-P +Q] >= 1 | #[+P +Q] >= 1)"


def _recursive_compositions(total, parts):
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _recursive_compositions(total - head, parts - 1):
            yield (head,) + tail


def test_compositions_in_lexicographic_order():
    for total in range(6):
        for parts in range(1, 6):
            assert list(_compositions(total, parts)) == \
                list(_recursive_compositions(total, parts)), (total, parts)


def test_compositions_do_not_recurse():
    assert next(_compositions(1, 5000)) == (0,) * 4999 + (1,)


def test_nested_regions_cancel():
    pq = Constituent(("P", "Q"), (True, True))
    assert _normalize_conjunct(frozenset({(CountAtom(pq, 1), True),
                                          (CountAtom(P_IN, 1), False)})) is None
    # The whole domain contains every region.
    assert _normalize_conjunct(frozenset({(CountAtom(P_IN, 3), True),
                                          (CountAtom(WHOLE, 3), False)})) is None
    # A lower bound within the upper bound of the coarser region stays.
    kept = frozenset({(CountAtom(pq, 2), True), (CountAtom(P_IN, 3), False)})
    assert _normalize_conjunct(kept) == kept
    # An upper bound on the finer region bounds nothing coarser.
    kept = frozenset({(CountAtom(P_IN, 3), True), (CountAtom(pq, 1), False)})
    assert _normalize_conjunct(kept) == kept


# --- block form ------------------------------------------------------------------

# A block: `all var.` over a disjunction or `ex var.` over a conjunction of
# unary literals (predicate, sign) on var.
Block = namedtuple("Block", "is_forall var literals")


def _block_of(f):
    """The block that f is, or None."""
    if not isinstance(f, (ForallInd, ExistsInd)):
        return None
    is_forall = isinstance(f, ForallInd)
    kind = Or if is_forall else And
    lits, todo = [], [f.body]
    while todo:
        g = todo.pop()
        if type(g) is kind:
            todo += (g.right, g.left)
            continue
        atom = g.body if isinstance(g, Not) else g
        if not (isinstance(atom, PredApp) and atom.arg == f.var):
            return None
        lits.append((atom.name, atom is g))
    return Block(is_forall, f.var, tuple(lits))


def blocks_of(f):
    """The blocks of f, left to right; fails unless f is in block shape:
    `&` and `|` over constants, letters, negated letters and blocks."""
    blocks, todo = [], [f]
    while todo:
        g = todo.pop()
        if isinstance(g, (And, Or)):
            todo += (g.right, g.left)
        elif (block := _block_of(g)) is not None:
            blocks.append(block)
        elif not (isinstance(g, TruthConst)
                  or isinstance(g, PredApp) and g.arg is None
                  or isinstance(g, Not) and isinstance(g.body, PredApp)
                  and g.body.arg is None):
            raise AssertionError(f"not in block shape: {format_formula(g)}")
    return tuple(blocks)


def test_block_form_identity_rejected():
    with pytest.raises(ContractError):
        to_block_form(parse("ex x. ex y. x ~= y"))


def test_block_form_free_names_rejected():
    with pytest.raises(ContractError):
        to_block_form(parse("P(a)"))


def test_block_form_single_block_unchanged():
    bf = to_block_form(parse("all x. (F(x) | G(x))"))
    assert str(bf) == "all x. (F(x) | G(x))"
    blocks = blocks_of(bf)
    assert len(blocks) == 1 and blocks[0].is_forall
    assert blocks[0].literals == (("F", True), ("G", True))


def test_block_form_distributes_exists():
    bf = to_block_form(parse("ex x. (F(x) & (G(x) | H(x)))"))
    assert str(bf) == "(ex x. (F(x) & G(x))) | ex x. (F(x) & H(x))"
    assert len(blocks_of(bf)) == 2
    f = parse("ex x. (F(x) & (G(x) | H(x)))")
    assert equiv_check(f, bf, 4) is None


def test_block_form_two_variable_decomposition():
    f = parse("ex x. ex y. (F(x) & H(x) & G(y) & K(y))")
    bf = to_block_form(f)
    blocks = blocks_of(bf)
    assert len(blocks) == 2
    assert {b.literals for b in blocks} == \
        {(("F", True), ("H", True)), (("G", True), ("K", True))}
    assert equiv_check(f, bf, 3) is None


def test_block_form_shape_validation():
    with pytest.raises(AssertionError, match="not in block shape"):
        blocks_of(parse("all x. ex y. (P(x) | Q(y))"))
    assert blocks_of(parse("(all x. (F(x) | ~G(x))) & p")) == \
        (Block(True, "x", (("F", True), ("G", False))),)


# Seed 6850 draws all x1. ex x2. ((all x3. false) <-> (B(x1) <-> A(x1))),
# whose `all` dualization once passed the conjunct cap.
@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
@example(seed=6850)
def test_block_form_oracle_equivalence(seed):
    f = random_formula(GeneratorParams(seed=seed, max_pred_quantifiers=0,
                                       max_ind_quantifiers=3, max_free_preds=2,
                                       max_depth=4, allow_identity=False))
    if classify(f) not in (FormulaClass.PROPOSITIONAL, FormulaClass.DOMAIN_A):
        return
    bf = to_block_form(f)
    assert equiv_check(f, bf, 4) is None
    for block in blocks_of(bf):
        assert all(name[0].isupper() for name, _ in block.literals)


def test_block_form_tidies_the_dualized_dnf():
    # The dualized `all` holds unfolded constants and tautological clauses;
    # distributing them untidied passed the 20,000 conjunct cap.
    f = parse("all x1. ex x2. ((all x3. false) <-> (B(x1) <-> A(x1)))")
    bf = to_block_form(f)
    blocks_of(bf)
    assert equiv_check(f, bf, 4) is None


def test_block_form_reads_vacuous_quantifiers_off_the_counting_tree():
    # (ex x3. A(x3)) | all x1. ~A(x1) is valid: the counting tree says so.
    assert str(to_block_form(parse("all x1. all x2. ex x3. (A(x1) -> A(x3))"))) == "true"


def test_block_form_binds_a_variable_that_is_not_a_letter():
    bf = to_block_form(parse("x & x1 & ex y. P(y)"))
    assert str(bf) == "x & x1 & ex x2. P(x2)"
    assert blocks_of(bf) == (Block(False, "x2", (("P", True),)),)
    validate(bf)


def test_a_conjunction_of_30_predicates_is_one_cell_and_one_block():
    # The positive regions fix every sign, so one cell is built, not 2^30.
    f = parse("ex x. (" + " & ".join(f"P{i}(x)" for i in range(30)) + ")")
    cell = Constituent(tuple(sorted(f"P{i}" for i in range(30))), (True,) * 30)
    assert elimination.eliminate_all(f) == CountAtom(cell, 1)
    blocks = blocks_of(to_block_form(f))
    assert len(blocks) == 1 and blocks[0].literals == tuple((p, True) for p in cell.signature)


REGIONS = st.lists(st.tuples(st.sampled_from("PQR"), st.booleans()), min_size=1,
                   max_size=2, unique_by=lambda lit: lit[0]).map(
    lambda lits: Constituent(*zip(*sorted(lits))))


@given(inside=st.frozensets(REGIONS, max_size=2), outside=st.frozensets(REGIONS, max_size=3))
def test_cells_within_are_the_constituents_between_the_regions(inside, outside):
    # The regions the variable is inside fix its signs, as a conjunct's
    # sides do; a conjunct with two of them in conflict is contradictory.
    fixed = {pair for r in inside for pair in r.pairs}
    assume(len({p for p, _ in fixed}) == len(fixed))
    sig = sorted({p for r in inside | outside for p in r.signature})
    assert normal._cells_within(tuple(sorted(fixed)), outside) == tuple(
        cell for cell in constituents(sig) if all(cell.extends(r) for r in inside)
        and not any(cell.extends(r) for r in outside))


def test_eval_counting_at_size():
    # A pure counting tree is evaluated at every size at once: bit n-1 of
    # `size_bits` is its value on n elements.
    cf = c_and(CountAtom(WHOLE, 2), c_not(CountAtom(WHOLE, 4)))
    bits, _ = size_bits(cf)
    assert [bool(bits >> (n - 1) & 1) for n in (1, 2, 3, 4)] == \
        [False, True, True, False]
    with pytest.raises(ContractError):
        size_bits(RegionAtom(P_IN, "a"))
