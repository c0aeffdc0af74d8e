import pytest
from hypothesis import given, settings, strategies as st

from mlogic import syntax
from mlogic.errors import ContractError, ResourceLimitError
from mlogic.limits import Limits
from mlogic.normal import to_nnf
from mlogic.parser import parse
from mlogic.prop import (ClauseForm, PropResult, clause_form_decide,
                         eval_prop, to_clause_form, truth_table_decide)
from mlogic.syntax import (And, Iff, Implies, Not, Or, PredApp, TruthConst,
                           conj)

from conftest import subformulas


def disj(parts):
    """The left-associated disjunction of `parts`; false when there are none."""
    out = TruthConst(False)
    for i, p in enumerate(parts):
        out = p if i == 0 else Or(out, p)
    return out


def clause_form_to_formula(cf: ClauseForm):
    """The conjunction of the clauses, each a disjunction of its literals:
    the reference that reads a clause form back as a formula."""
    if cf.is_false:
        return TruthConst(False)
    return conj(disj(PredApp(name) if pos else Not(PredApp(name))
                     for name, pos in sorted(clause))
                for clause in sorted(cf.clauses, key=sorted))

letters = st.sampled_from("pqrstu")
atoms = st.one_of(letters.map(PredApp),
                  st.booleans().map(TruthConst))
prop_formulas = st.recursive(
    atoms,
    lambda sub: st.one_of(
        sub.map(Not),
        st.tuples(sub, sub).map(lambda t: And(*t)),
        st.tuples(sub, sub).map(lambda t: Or(*t)),
        st.tuples(sub, sub).map(lambda t: Implies(*t)),
        st.tuples(sub, sub).map(lambda t: Iff(*t)),
    ),
    max_leaves=12)


def test_truth_table_paper_formula():
    verdict = truth_table_decide(parse("p -> ((p -> q) -> q)"))
    assert verdict.result is PropResult.VALID
    assert verdict.checked == 4  # two letters, four substitutions


def test_truth_table_trivial():
    assert truth_table_decide(parse("p | ~p")).result is PropResult.VALID
    assert truth_table_decide(parse("p & ~p")).result is PropResult.UNSATISFIABLE


def test_truth_table_contingent_witness():
    f = parse("p -> q")
    verdict = truth_table_decide(f)
    assert verdict.result is PropResult.CONTINGENT
    assert eval_prop(f, dict(verdict.falsifying)) is False


def test_truth_table_letter_cap():
    f = parse(" & ".join(f"l{i}" for i in range(6)))
    with pytest.raises(ResourceLimitError):
        truth_table_decide(f, Limits(max_letters=5))


def test_truth_table_rejects_quantified():
    with pytest.raises(ContractError):
        truth_table_decide(parse("all x. P(x)"))


def test_clause_form_paper_example():
    cf = to_clause_form(parse("~p | (p & ~q) | q"))
    assert cf.clauses == frozenset({
        frozenset({("p", False), ("p", True), ("q", True)}),
        frozenset({("p", False), ("q", False), ("q", True)}),
    })
    assert clause_form_decide(cf) is True


def test_clause_form_single_letter():
    assert to_clause_form(parse("p")).clauses == frozenset({frozenset({("p", True)})})


def test_clause_form_not_valid():
    cf = ClauseForm(frozenset({frozenset({("p", True), ("q", True)})}))
    assert clause_form_decide(cf) is False


def test_clause_form_constants():
    assert to_clause_form(parse("true")).clauses == frozenset()
    assert to_clause_form(parse("p & false")).is_false
    assert clause_form_decide(to_clause_form(parse("true"))) is True
    assert clause_form_decide(to_clause_form(parse("false"))) is False


def test_clause_form_blowup_cap():
    text = " | ".join(f"(a{i} & b{i})" for i in range(8))
    with pytest.raises(ResourceLimitError):
        to_clause_form(parse(text), Limits(max_conjuncts=16))


def _letters(f):
    return sorted({g.name for g in subformulas(f) if isinstance(g, PredApp)})


@settings(max_examples=300, deadline=None)
@given(f=prop_formulas)
def test_clause_form_equivalent(f):
    import itertools
    cf = to_clause_form(f)
    g = clause_form_to_formula(cf)
    names = sorted(set(_letters(f)) | set(_letters(g)))
    for values in itertools.product((False, True), repeat=len(names)):
        assignment = dict(zip(names, values))
        assert eval_prop(f, assignment) == eval_prop(g, assignment)


@settings(max_examples=500, deadline=None)
@given(f=prop_formulas)
def test_method_agreement(f):
    table = truth_table_decide(f).result is PropResult.VALID
    clause = clause_form_decide(to_clause_form(f))
    assert table == clause


@settings(max_examples=200, deadline=None)
@given(f=prop_formulas)
def test_clause_form_idempotent(f):
    cf = to_clause_form(f)
    again = to_clause_form(clause_form_to_formula(cf))
    assert again == cf


def test_tautological_clauses_kept():
    cf = to_clause_form(parse("p | ~p"))
    assert cf.clauses == frozenset({frozenset({("p", True), ("p", False)})})


@settings(max_examples=300, deadline=None)
@given(f=prop_formulas)
def test_clause_form_carries_the_polarity_as_nnf_does(f):
    # No NNF copy is built; the clauses are those of the NNF.
    assert to_clause_form(f) == to_clause_form(to_nnf(f))


def test_clause_form_folds_a_deep_negation_chain():
    f = parse("~" * 1500 + "p")
    assert to_clause_form(f).clauses == frozenset({frozenset({("p", True)})})
    assert to_clause_form(Not(f)).clauses == frozenset({frozenset({("p", False)})})
    assert not clause_form_decide(to_clause_form(f))


def test_a_parsed_formula_is_walked_once(monkeypatch):
    # Both methods read the class and the letters that the check in
    # `parse` kept with the formula.
    walked = []
    walk = syntax._walk
    monkeypatch.setattr(syntax, "_walk", lambda f: walked.append(f) or walk(f))
    f = parse("(p -> q) & (q -> r) -> (p -> r) | ~(p <-> s)")
    assert truth_table_decide(f).result is PropResult.VALID
    assert clause_form_decide(to_clause_form(f))
    assert len(walked) == 1 and walked[0] is f
