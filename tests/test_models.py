import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from mlogic import models
from mlogic.errors import EvaluationError, ResourceLimitError
from mlogic.limits import Budget, Limits
from mlogic.models import (FiniteModel, GeneratorParams, equiv_check,
                           evaluate, find_countermodel, random_formula,
                           spectrum_bruteforce)
from mlogic.parser import parse
from mlogic.syntax import (And, Equal, ExistsInd, ExistsPred, ForallInd,
                           ForallPred, Iff, Implies, Not, Or, PredApp,
                           TruthConst, children, classify, format_formula,
                           free_symbols, survey, validate)

from conftest import subformulas


def test_evaluate_basics():
    m = FiniteModel.build(2, preds={"P": {0}})
    assert evaluate(m, parse("ex x. P(x)")) is True
    assert evaluate(m, parse("all x. P(x)")) is False


def test_evaluate_empty_extension_edge():
    # the empty subset falsifies on a one-element domain
    assert evaluate(FiniteModel(1), parse("all X. ex x. X(x)")) is False


def test_evaluate_barbara_size_3(barbara):
    assert evaluate(FiniteModel(3), barbara) is True


def test_evaluate_nullary_and_individuals():
    m = FiniteModel.build(2, props={"p": True}, individuals={"a": 1})
    assert evaluate(m, parse("p & ex x. x = a")) is True
    assert evaluate(m, parse("~p | a = a")) is True


def test_evaluate_missing_interpretation():
    with pytest.raises(EvaluationError):
        evaluate(FiniteModel(2), parse("ex x. P(x)"))
    with pytest.raises(EvaluationError):
        evaluate(FiniteModel(2), parse("p"))
    with pytest.raises(EvaluationError):
        evaluate(FiniteModel(2), parse("a = a"))


def test_evaluate_budget():
    # The empty X, Y and Z come first and falsify the body at once: one
    # step per representative gives 11 + 11 + 11 + 1 = 34 steps.
    f = parse("all X. all Y. all Z. ex x. (X(x) | Y(x) | Z(x))")
    assert evaluate(FiniteModel(10), f, limits=Limits(eval_ops=1000)) is False
    # This body mentions X, Y and Z and holds everywhere, so every
    # representative of every quantifier is visited.
    g = parse("all X. all Y. all Z. ex x. (X(x) | Y(x) | Z(x) | ~X(x))")
    with pytest.raises(ResourceLimitError):
        evaluate(FiniteModel(10), g, limits=Limits(eval_ops=1000))


@pytest.mark.parametrize("text, steps", [
    ("all X. all Y. all Z. ex x. (X(x) | Y(x) | Z(x))", 34),
    ("all X. all Y. all Z. ex x. (X(x) | Y(x) | Z(x) | ~X(x))", 39_193),
    # Y and Z are unused, so they range over two truth values
    ("all X. all Y. all Z. ex x. (X(x) | ~X(x))", 121),
])
def test_evaluate_charges_one_step_per_representative(text, steps):
    budget = Budget(10**6)
    evaluate(FiniteModel(10), parse(text), budget=budget)
    assert 10**6 - budget.remaining == steps


def test_find_countermodel_budget():
    f = parse("((all x. (~P(x) | Q(x))) & (all x. (~Q(x) | R(x))))"
              " -> all x. (~P(x) | R(x))")
    with pytest.raises(ResourceLimitError):
        find_countermodel(f, 6, limits=Limits(eval_ops=100))


def chain_body(k):
    """P1 <= P2 <= ... <= Pk implies P1 <= Pk, with P1..Pk free."""
    link = lambda a, b: f"(all x. (~{a}(x) | {b}(x)))"
    chain = " & ".join(link(f"P{i}", f"P{i + 1}") for i in range(1, k))
    return f"({chain}) -> {link('P1', f'P{k}')}"


CHAIN_BODY_3 = chain_body(3)
INTERPOLANT = ("ex R. ((all x. (~A(x) | R(x))) & (all x. (~R(x) | B(x))))",
               "all x. (~A(x) | B(x))")


@pytest.mark.parametrize("search, steps", [
    # 7,136 without skipping the branches whose first symbols settle it,
    # 3,187 when each check of a branch evaluated its settled leaves anew
    (lambda limits: find_countermodel(parse(CHAIN_BODY_3), 6, limits), 2264),
    # 48,420 without skipping, 6,442 with settled leaves evaluated anew
    (lambda limits: find_countermodel(parse(chain_body(4)), 5, limits), 3409),
    # the interpolant is settled only at its last symbol: nothing is skipped
    (lambda limits: equiv_check(parse(INTERPOLANT[0]), parse(INTERPOLANT[1]), 6,
                                limits), 6589),
], ids=["countermodel", "countermodel-chain-4", "equiv"])
def test_a_search_that_finds_nothing_takes_a_fixed_number_of_steps(search, steps):
    # One step per assignment of the free symbols the search reaches and one
    # per element or representative a quantifier visits, also while it
    # checks whether a branch is settled: a search that finds nothing uses
    # exactly this many.
    assert search(Limits(eval_ops=steps)) is None
    with pytest.raises(ResourceLimitError):
        search(Limits(eval_ops=steps - 1))


def test_a_branch_its_first_symbols_make_true_is_skipped():
    # P1 <= P2 <= ... <= P6 implies P1 <= P6: most choices of the first
    # predicates already falsify a link, and the search skips what lies
    # below them.  Trying every assignment would take about 25.8 M steps.
    assert find_countermodel(parse(chain_body(6)), 5, Limits(eval_ops=1_000_000)) is None


def _settling_searches(count):
    """The first `count` generator formulas with two or more free symbols
    and a skeleton node that does not mention the last of them, so that
    the search can settle a branch before its last symbol."""
    out = []
    for seed in itertools.count():
        f = random_formula(GeneratorParams(seed=seed, max_free_preds=4,
                                           max_pred_quantifiers=1, max_depth=5))
        layout = models._Layout(f)
        order = [name for names in layout.free for name in names]
        if len(order) > 1 and any(order[-1] not in preds and order[-1] not in inds
                                  for preds, inds in layout.skeleton.values()):
            out.append(pytest.param(seed, f, id=str(seed)))
            if len(out) == count:
                return out


@pytest.mark.parametrize("seed, f", _settling_searches(40))
def test_skipping_settled_branches_keeps_every_witness(monkeypatch, seed, f):
    g = random_formula(GeneratorParams(seed=seed + 1, max_free_preds=4,
                                       max_pred_quantifiers=1, max_depth=5))
    skipping = find_countermodel(f, 3), equiv_check(f, g, 3)
    compile_ = models._Compiler.compile

    def unsettled(self, h):  # unknown below the last symbol: nothing is skipped
        fn, last = compile_(self, h), self.layout.last
        return lambda env, s: fn(env, s) if s == last else None

    monkeypatch.setattr(models._Compiler, "compile", unsettled)
    assert (find_countermodel(f, 3), equiv_check(f, g, 3)) == skipping
    countermodel, difference = skipping
    if countermodel is not None:
        assert evaluate(countermodel, f) is False
    if difference is not None:
        assert evaluate(difference, f) != evaluate(difference, g)


def test_each_formula_is_compiled_once_per_call(monkeypatch):
    # The outermost compilations: `compile` for a search, `_compile` for a
    # plain evaluation; the leaves and bodies they compile are not counted.
    compiled, depth = [], [0]

    def recording(method):
        def record(self, g, *slot):
            if not depth[0]:
                compiled.append(g)
            depth[0] += 1
            try:
                return method(self, g, *slot)
            finally:
                depth[0] -= 1

        return record

    for name in ("compile", "_compile"):
        monkeypatch.setattr(models._Compiler, name,
                            recording(getattr(models._Compiler, name)))
    f = parse("ex x. ex y. x ~= y")
    assert spectrum_bruteforce(f, 5) == [False] + [True] * 4
    assert compiled == [f]
    compiled.clear()
    lhs, rhs = parse(INTERPOLANT[0]), parse(INTERPOLANT[1])
    assert equiv_check(lhs, rhs, 4) is None
    assert compiled == [lhs, rhs]
    compiled.clear()
    assert find_countermodel(parse(CHAIN_BODY_3), 4) is None
    assert compiled == [parse(CHAIN_BODY_3)]


def test_a_first_order_sentence_evaluates_on_a_large_domain():
    # Only a unary predicate quantifier that draws from the whole domain
    # needs its size + 1 representatives; a first-order sentence builds none.
    f = parse("all x. x = x")
    assert evaluate(FiniteModel(100_000), f)
    assert not evaluate(FiniteModel(100_000), parse("ex x. x ~= x"))
    assert models._Layout(f).new_env(100_000)[models._REPS] is None
    env = models._Layout(parse("ex X. all x. X(x)")).new_env(3)
    assert env[models._REPS] == [0, 1, 3, 7]


@pytest.mark.parametrize("depth", [1500, 1501])
def test_a_chain_of_negations_folds_to_its_parity(depth):
    # Laid out and compiled in a loop, on the plain and the bitmask path.
    m = FiniteModel.build(2, preds={"P": {0}}, props={"p": True})
    nots = "~" * depth
    assert evaluate(m, parse(nots + "p")) == (depth % 2 == 0)
    assert evaluate(m, parse(f"all x. {nots}(x = x)")) == (depth % 2 == 0)
    assert evaluate(m, parse(f"all x. all y. {nots}(P(y) | x = x)")) == (depth % 2 == 0)


def test_model_printing():
    m = FiniteModel.build(2, preds={"P": {0}, "Q": set()}, individuals={"a": 1})
    assert str(m) == "size=2; P={0}; Q={}; a=1"


def test_find_countermodel_smallest():
    cm = find_countermodel(parse("all x. P(x)"), 2)
    assert cm is not None and cm.size == 1
    assert str(cm) == "size=1; P={}"


def test_find_countermodel_bound_attained():
    cm = find_countermodel(parse("(all x. P(x)) | (all x. ~P(x))"), 2)
    assert cm is not None and cm.size == 2
    assert cm.pred("P") in (frozenset({0}), frozenset({1}))


def test_find_countermodel_none_for_barbara(barbara):
    assert find_countermodel(barbara, 8) is None


def test_find_countermodel_interprets_free_predicates():
    cm = find_countermodel(parse("ex x. (P(x) & ~Q(x))"), 3)
    assert cm is not None and cm.size == 1
    assert cm.pred("P") is not None and cm.pred("Q") is not None


def test_spectrum_bruteforce_examples(barbara):
    assert spectrum_bruteforce(parse("ex x. ex y. x ~= y"), 3) == [False, True, True]
    assert spectrum_bruteforce(parse("all X. all y. (X(y) | ~X(y))"), 3) == \
        [True, True, True]
    assert spectrum_bruteforce(barbara, 4) == [True] * 4


def test_spectrum_bruteforce_shape_sentence():
    f = parse("""
        (ex x1. ex x2. x1 ~= x2)
        & ~( (ex x1. ex x2. ex x3. ex x4.
               (x1 ~= x2 & x1 ~= x3 & x1 ~= x4 & x2 ~= x3 & x2 ~= x4 & x3 ~= x4))
           & ~(ex x1. ex x2. ex x3. ex x4. ex x5.
               (x1 ~= x2 & x1 ~= x3 & x1 ~= x4 & x1 ~= x5 & x2 ~= x3
                & x2 ~= x4 & x2 ~= x5 & x3 ~= x4 & x3 ~= x5 & x4 ~= x5)) )
    """)
    assert spectrum_bruteforce(f, 6) == [False, True, True, False, True, True]


def test_spectrum_bruteforce_requires_pure():
    with pytest.raises(EvaluationError):
        spectrum_bruteforce(parse("ex x. P(x)"), 3)


def test_equiv_check_witness():
    w = equiv_check(parse("ex x. P(x)"), parse("all x. P(x)"), 2)
    assert w is not None and w.size == 2


def test_equiv_check_subset_chain():
    lhs = parse("ex R. ((all x. (~A(x) | R(x))) & (all x. (~R(x) | B(x))))")
    rhs = parse("all x. (~A(x) | B(x))")
    assert equiv_check(lhs, rhs, 4) is None


def test_equiv_check_rejects_a_letter_used_as_a_predicate():
    # the two sides give P no common interpretation
    with pytest.raises(EvaluationError):
        equiv_check(parse("P | ~P"), parse("all x. (P(x) | ~P(x))"), 3)


def test_equiv_check_signature_union():
    # right side mentions no predicate at all
    assert equiv_check(parse("all x. (P(x) | ~P(x))"), parse("true"), 3) is None


def test_evaluate_isomorphism_invariance():
    import random
    rng = random.Random(5)
    f = parse("ex x. ex y. (P(x) & ~P(y) & x ~= y) | (p & all z. Q(z))")
    for _ in range(20):
        size = rng.randint(1, 4)
        perm = list(range(size))
        rng.shuffle(perm)
        p_ext = {e for e in range(size) if rng.random() < 0.5}
        q_ext = {e for e in range(size) if rng.random() < 0.5}
        props = {"p": rng.random() < 0.5}
        m1 = FiniteModel.build(size, preds={"P": p_ext, "Q": q_ext}, props=props)
        m2 = FiniteModel.build(size, preds={"P": {perm[e] for e in p_ext},
                                            "Q": {perm[e] for e in q_ext}},
                               props=props)
        assert evaluate(m1, f) == evaluate(m2, f)


# --- cross-check against a reference evaluator -------------------------------------
#
# The reference applies the semantics directly, compiles nothing, and lets
# every predicate range over all 2^n subsets of the domain.

REF_SIZES = 5


def _arity(f, name):
    """1 if a free occurrence of `name` in f is applied to a term, else 0."""
    if isinstance(f, PredApp):
        return int(f.name == name and f.arg is not None)
    if isinstance(f, (ForallInd, ExistsInd, ForallPred, ExistsPred)) \
            and f.var == name:
        return 0
    return max((_arity(c, name) for c in children(f)), default=0)


def _values(size, kind):
    if kind == "ind":
        return range(size)
    if kind == 1:
        return [frozenset(e for e in range(size) if bits >> e & 1)
                for bits in range(1 << size)]
    return (False, True)


def ref_holds(g, size, env):
    """Truth of g over the domain range(size); env maps each name in scope
    to a subset, a truth value or an element."""
    if isinstance(g, TruthConst):
        return g.value
    if isinstance(g, PredApp):
        return env[g.name] if g.arg is None else env[g.arg] in env[g.name]
    if isinstance(g, Equal):
        return env[g.left] == env[g.right]
    if isinstance(g, Not):
        return not ref_holds(g.body, size, env)
    if isinstance(g, (And, Or, Implies, Iff)):
        left = ref_holds(g.left, size, env)
        right = ref_holds(g.right, size, env)
        if isinstance(g, And):
            return left and right
        if isinstance(g, Or):
            return left or right
        if isinstance(g, Implies):
            return not left or right
        return left == right
    if isinstance(g, (ForallInd, ExistsInd)):
        values = _values(size, "ind")
    else:
        values = _values(size, _arity(g.body, g.var))
    test = any if isinstance(g, (ExistsInd, ExistsPred)) else all
    return test(ref_holds(g.body, size, {**env, g.var: v}) for v in values)


def ref_models(f, size):
    """Every interpretation of the free symbols of f over range(size)."""
    preds, inds = free_symbols(f)
    names = sorted(preds) + sorted(inds)
    domains = [_values(size, _arity(f, p)) for p in sorted(preds)]
    domains += [_values(size, "ind")] * len(inds)
    for values in itertools.product(*domains):
        yield dict(zip(names, values))


def model_env(model, f):
    """The model as a reference interpretation of f's free symbols; it must
    interpret each of them, and each at its arity."""
    env = {**dict(model.preds), **dict(model.props), **dict(model.individuals)}
    assert env in list(ref_models(f, model.size)), (str(model), format_formula(f))
    return env


def ref_countermodel_size(f, max_size):
    for size in range(1, max_size + 1):
        if any(not ref_holds(f, size, env) for env in ref_models(f, size)):
            return size
    return None


def ref_difference_size(f, g, max_size):
    probe = And(f, g)
    for size in range(1, max_size + 1):
        if any(ref_holds(f, size, env) != ref_holds(g, size, env)
               for env in ref_models(probe, size)):
            return size
    return None


def check_against_reference(f, max_size=REF_SIZES):
    """evaluate on a sample of models, find_countermodel and, for a pure
    sentence, spectrum_bruteforce, each against the reference."""
    rng = random.Random(format_formula(f))
    for size in range(1, max_size + 1):
        envs = list(ref_models(f, size))
        for env in rng.sample(envs, min(len(envs), 24)):
            model = FiniteModel.build(
                size,
                preds={k: v for k, v in env.items() if isinstance(v, frozenset)},
                props={k: v for k, v in env.items() if isinstance(v, bool)},
                individuals={k: v for k, v in env.items() if type(v) is int})
            assert evaluate(model, f) == ref_holds(f, size, env), (size, env)
    cm = find_countermodel(f, max_size)
    assert (cm and cm.size) == ref_countermodel_size(f, max_size)
    if cm is not None:
        assert evaluate(cm, f) is False
        assert ref_holds(f, cm.size, model_env(cm, f)) is False
    preds, inds = free_symbols(f)
    if not preds and not inds:
        assert spectrum_bruteforce(f, max_size) == \
            [ref_holds(f, size, {}) for size in range(1, max_size + 1)]


def check_equiv_against_reference(f, g, max_size=REF_SIZES):
    w = equiv_check(f, g, max_size)
    assert (w and w.size) == ref_difference_size(f, g, max_size)
    if w is not None:
        env = model_env(w, And(f, g))
        assert ref_holds(f, w.size, env) != ref_holds(g, w.size, env)


REF_CASES = [
    # free individuals: a and b sit in cells of their own
    "(all X. (X(b) -> X(a))) -> a = b",
    "P(a) -> ex x. (P(x) & x = a)",
    "all X. (X(a) | ~X(b) | P(c))",
    "(P(a) & ~P(b)) | a = b | ex X. (X(a) & ~X(b) & all x. (X(x) -> P(x)))",
    # free predicates that neither contain the other
    "(all x. (P(x) -> Q(x))) | all x. (Q(x) -> P(x))",
    # identity
    "ex x. ex y. ex z. (x ~= y & y ~= z & x ~= z & ~P(x) & ~P(y))",
    "ex X. ((ex x. ex y. (x ~= y & X(x) & X(y))) & ex x. ~X(x))",
    # nested all X. ex Y.
    "all X. ex Y. all x. (Y(x) <-> ~X(x))",
    "all X. ex Y. ((ex x. (X(x) & ~Y(x))) & ex x. (Y(x) & ~P(x)))",
    "all X. ex Y. all x. ((X(x) & P(x)) -> (Y(x) & ~Q(x)))",
    # nullary letters, free and bound
    "p -> all X. ((ex x. X(x)) | all x. ~X(x))",
    "ex Q. (Q <-> (p & ex x. P(x)))",
    "all X. ex Y. (X | Y) & all x. (P(x) -> q)",
    # a predicate quantifier under an individual quantifier
    "all x. ex X. (X(x) & all y. (X(y) -> y = x))",
    "ex x. all X. (X(x) -> ex y. (y ~= x & X(y)))",
    "all x. (P(x) -> ex X. (X(x) & ~P(x) | all y. (X(y) <-> P(y))))",
]


@pytest.mark.parametrize("text", REF_CASES)
def test_reference_cross_check_cases(text):
    check_against_reference(parse(text))


def _with_free_predicates(count):
    """The first `count` generator sentences with a free predicate."""
    out = []
    for seed in itertools.count():
        f = random_formula(GeneratorParams(
            seed=seed, max_pred_quantifiers=2, max_ind_quantifiers=2,
            max_free_preds=2, max_depth=4))
        if free_symbols(f)[0]:
            out.append(pytest.param(f, id=str(seed)))
            if len(out) == count:
                return out


@pytest.mark.parametrize("f", _with_free_predicates(40))
def test_reference_cross_check_random(f):
    check_against_reference(f)


@pytest.mark.parametrize("seed", range(15))
def test_reference_cross_check_random_pure(seed):
    check_against_reference(random_formula(GeneratorParams(seed=1000 + seed,
                                                           max_free_preds=0)))


@pytest.mark.parametrize("left, right", [
    ("ex x. ex y. (x ~= y & P(x) & ~P(y))", "(ex x. P(x)) & ex x. ~P(x)"),
    ("ex x. ex y. ex z. (x ~= y & y ~= z & x ~= z & P(x) & P(y) & P(z))",
     "ex x. ex y. (x ~= y & P(x) & P(y))"),
    ("ex R. ((all x. (~A(x) | R(x))) & (all x. (~R(x) | B(x))))",
     "all x. (~A(x) | B(x))"),
    ("all X. (X(a) -> X(b))", "a = b"),
    ("ex X. (X(a) & ~X(b))", "a ~= b & p"),
    ("(ex x. (P(x) & ~Q(x))) & ex x. (Q(x) & ~P(x))",
     "ex x. ex y. (x ~= y & P(x) & Q(y))"),
    # one name, bound at two arities, or free on one side and bound on the other
    ("ex X1. ((all x1. x1 = x1) <-> all x2. X1(x2))", "ex X1. all x1. (A(x1) | X1)"),
    ("P", "ex P. ex x. P(x)"),
    ("ex a. P(a)", "P(a)"),
])
def test_reference_cross_check_equiv(left, right):
    check_equiv_against_reference(parse(left), parse(right))


@pytest.mark.parametrize("seed", range(20))
def test_reference_cross_check_equiv_random(seed):
    make = lambda s: random_formula(GeneratorParams(
        seed=s, max_pred_quantifiers=1, max_ind_quantifiers=2,
        max_free_preds=2, max_depth=3))
    check_equiv_against_reference(make(2000 + 2 * seed), make(2001 + 2 * seed))


# --- generator -------------------------------------------------------------------

GOLDEN_SEED_1 = "(all X1. true) & all x1. x1 = x1"


def test_random_formula_golden():
    params = GeneratorParams(seed=1, max_pred_quantifiers=1,
                             max_ind_quantifiers=1, max_free_preds=0,
                             max_depth=2)
    assert format_formula(random_formula(params)) == GOLDEN_SEED_1


def test_random_formula_deterministic():
    for seed in (0, 7, 123):
        params = GeneratorParams(seed=seed)
        assert random_formula(params) == random_formula(params)


def test_random_formula_zero_caps_is_constant():
    from mlogic.syntax import TruthConst
    params = GeneratorParams(seed=3, max_pred_quantifiers=0,
                             max_ind_quantifiers=0, max_free_preds=0,
                             max_depth=0)
    assert isinstance(random_formula(params), TruthConst)


@settings(max_examples=500, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_random_formula_well_formed_and_in_scope(seed):
    f = random_formula(GeneratorParams(seed=seed))
    validate(f)
    # In scope for `decide`: no free individual names, and the class that
    # `classify` gives is the one `survey` reports.
    cls, _, free_inds = survey(f)
    assert not free_inds
    assert classify(f) is cls


def test_random_formula_respects_caps():
    for seed in range(200):
        params = GeneratorParams(seed=seed, max_pred_quantifiers=2,
                                 max_ind_quantifiers=3, max_free_preds=0,
                                 allow_identity=False)
        f = random_formula(params)
        n_so = sum(1 for g in subformulas(f)
                   if isinstance(g, (ForallPred, ExistsPred)))
        n_fo = sum(1 for g in subformulas(f)
                   if isinstance(g, (ForallInd, ExistsInd)))
        assert n_so <= 2 and n_fo <= 3
        assert not any(isinstance(g, Equal) for g in subformulas(f))
        preds, inds = free_symbols(f)
        assert not preds and not inds
