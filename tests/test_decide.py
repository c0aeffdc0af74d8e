import importlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from mlogic import normal, syntax
from mlogic.decide import (Spectrum, VerdictKind, decide, spectrum_of,
                           verdict_from_spectrum)
from mlogic.errors import ContractError, OutOfScopeError, ResourceLimitError
from mlogic.limits import Limits
from mlogic.models import GeneratorParams, random_formula, spectrum_bruteforce
from mlogic.normal import (CAnd, CBool, CNot, Constituent, CountAtom, C_FALSE,
                           C_TRUE, RegionAtom, c_and, c_not, c_or)
from mlogic.parser import parse
from mlogic.syntax import Not, format_formula

# The module itself: the package binds the name `decide` to the function.
decide_module = importlib.import_module("mlogic.decide")
WHOLE = Constituent((), ())


def at_least(n):
    return CountAtom(WHOLE, n)


# --- spectra ---------------------------------------------------------------

def test_spectrum_of_atoms():
    assert str(spectrum_of(at_least(2))) == "[2,∞)"
    assert str(spectrum_of(C_TRUE)) == "[1,∞)"
    assert spectrum_of(C_FALSE).is_empty


def test_spectrum_shape_excluding_1_and_4():
    cf = c_and(c_not(c_and(at_least(1), c_not(at_least(2)))),
               c_not(c_and(at_least(4), c_not(at_least(5)))))
    assert str(spectrum_of(cf)) == "{2,3} ∪ [5,∞)"


def test_spectrum_is_read_off_the_runs_of_size_bits():
    assert spectrum_of(C_TRUE).intervals == ((1, None),)
    assert spectrum_of(C_FALSE).intervals == ()
    assert spectrum_of(at_least(3)).intervals == ((3, None),)
    assert spectrum_of(c_not(at_least(3))).intervals == ((1, 2),)
    # {2,3} and [5,oo): formulas/not-1-not-4.fml
    gap = c_and(c_not(c_and(at_least(1), c_not(at_least(2)))),
                c_not(c_and(at_least(4), c_not(at_least(5)))))
    assert spectrum_of(gap).intervals == ((2, 3), (5, None))
    # a run that ends just below the largest bound
    assert spectrum_of(c_and(at_least(2), c_not(at_least(4)))).intervals == ((2, 3),)


def _value_at(cf, n):
    """The truth value of a pure counting tree on a domain of n elements."""
    if isinstance(cf, CountAtom):
        return n >= cf.bound
    if isinstance(cf, CBool):
        return cf.value
    if isinstance(cf, CNot):
        return not _value_at(cf.body, n)
    if isinstance(cf, CAnd):
        return _value_at(cf.left, n) and _value_at(cf.right, n)
    return _value_at(cf.left, n) or _value_at(cf.right, n)


pure_trees = st.recursive(
    st.one_of(st.integers(1, 6).map(at_least), st.sampled_from([C_TRUE, C_FALSE])),
    lambda sub: st.one_of(sub.map(c_not), st.tuples(sub, sub).map(lambda t: c_and(*t)),
                          st.tuples(sub, sub).map(lambda t: c_or(*t))),
    max_leaves=8)


@settings(max_examples=300, deadline=None)
@given(cf=pure_trees)
def test_spectrum_agrees_with_the_value_at_each_size(cf):
    s = spectrum_of(cf)
    # Ascending, disjoint and non-adjacent intervals; only the last unbounded.
    ivs = s.intervals
    assert all(1 <= lo and (hi is None or lo <= hi) for lo, hi in ivs)
    assert all(hi is not None and hi + 1 < lo for (_, hi), (lo, _) in zip(ivs, ivs[1:]))
    assert all(s.contains(n) == _value_at(cf, n) for n in range(1, 10))


def test_spectrum_rejects_impure():
    with pytest.raises(ContractError):
        spectrum_of(RegionAtom(Constituent(("P",), (True,)), "a"))
    with pytest.raises(ContractError):
        spectrum_of(CountAtom(Constituent(("P",), (True,)), 1))


def test_spectrum_normalization():
    # True on 1..7 and from 9 on: adjacent runs of sizes join one interval.
    cf = c_or(c_not(at_least(8)), at_least(9))
    s = spectrum_of(cf)
    assert s.intervals == ((1, 7), (9, None))
    assert s.contains(6) and not s.contains(8)


def test_spectrum_complement():
    two_three_five_on = c_and(at_least(2), c_or(c_not(at_least(4)), at_least(5)))
    assert spectrum_of(c_not(two_three_five_on)).intervals == ((1, 1), (4, 4))
    assert spectrum_of(C_FALSE).is_empty and spectrum_of(C_TRUE).is_all
    assert spectrum_of(c_not(C_TRUE)).is_empty and spectrum_of(c_not(C_FALSE)).is_all


def test_spectrum_tail_stability():
    cf = c_not(c_and(at_least(4), c_not(at_least(5))))  # false exactly at 4
    s = spectrum_of(cf)
    for n in (5, 15, 50):
        assert s.contains(n)
    assert not s.contains(4)


def test_verdict_from_spectrum():
    assert verdict_from_spectrum(Spectrum(((1, None),))).kind is VerdictKind.VALID
    assert verdict_from_spectrum(Spectrum(())).kind is VerdictKind.UNSATISFIABLE
    s = Spectrum(((2, 3), (5, None)))
    assert verdict_from_spectrum(s).kind is VerdictKind.SIZE_CONTINGENT


# --- decide ------------------------------------------------------------------

def test_decide_paper_validity_example():
    report = decide(parse("all X. all y. (X(y) | ~X(y))"))
    assert report.verdict.kind is VerdictKind.VALID


def test_decide_two_element_statement():
    report = decide(parse("ex x. ex y. x ~= y"))
    assert report.verdict.kind is VerdictKind.SIZE_CONTINGENT
    assert str(report.verdict.spectrum) == "[2,∞)"


def test_decide_barbara(barbara):
    assert decide(barbara).verdict.kind is VerdictKind.VALID


def test_decide_witness_pair_not_trivially_satisfiable():
    report = decide(parse("ex X. ((ex x. X(x)) & (ex x. ~X(x)))"))
    assert report.verdict.spectrum.intervals == ((2, None),)


def test_decide_unsatisfiable():
    report = decide(parse("ex x. x ~= x"))
    assert report.verdict.kind is VerdictKind.UNSATISFIABLE


def test_decide_free_predicates_resultant_only():
    report = decide(parse("all x. (P(x) | ~P(x))"))
    assert report.verdict.kind is VerdictKind.RESULTANT_ONLY
    assert report.verdict.spectrum is None


def test_decide_rejects_free_individuals():
    with pytest.raises(OutOfScopeError):
        decide(parse("P(a)"))


def test_decide_walks_a_parsed_formula_once(monkeypatch):
    # The well-formedness check in `parse` is the one walk: it keeps the
    # class and the free symbols with the formula, and decide reads them.
    walked = []
    walk = syntax._walk
    monkeypatch.setattr(syntax, "_walk", lambda f: walked.append(f) or walk(f))
    f = parse("all P. all Q. all R. ((all x. (~P(x) | Q(x))) & (all x. (~Q(x) | R(x)))"
              " -> all x. (~P(x) | R(x)))")
    report = decide(f)
    assert str(report.verdict) == "Valid"
    assert report.trace[0] == ("classify", "DomainB")
    assert len(walked) == 1 and walked[0] is f


def test_decide_resource_error_carries_partial_trace():
    from mlogic.errors import ResourceLimitError
    from mlogic.limits import Limits
    f = parse("ex X. ex Y. ((ex a. ex b. (a ~= b & X(a) & Y(b)))"
              " & (ex c. ex d. (c ~= d & ~X(c) & ~Y(d))))")
    with pytest.raises(ResourceLimitError) as exc:
        decide(f, limits=Limits(max_conjuncts=2))
    assert exc.value.partial_trace[0][0] == "classify"


def test_decide_deterministic_reports(barbara):
    a = decide(barbara).to_dict()
    b = decide(barbara).to_dict()
    a["stats"]["millis"] = b["stats"]["millis"] = 0
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_report_json_schema(barbara):
    data = decide(barbara).to_dict()
    assert set(data) == {"input", "class", "verdict", "trace", "stats"}
    assert data["class"] == "DomainB"
    assert data["verdict"]["kind"] == "valid"
    assert data["verdict"]["spectrum"] == [[1, None]]
    assert all(set(step) == {"rule", "result"} for step in data["trace"])
    assert set(data["stats"]) == {"steps", "max_atoms", "millis"}
    contingent = decide(parse("ex x. ex y. x ~= y")).to_dict()
    assert contingent["verdict"]["spectrum"] == [[2, None]]
    resultant = decide(parse("ex x. P(x)")).to_dict()
    assert resultant["verdict"]["kind"] == "resultant"
    assert resultant["verdict"]["resultant"] == "#[+P] >= 1"


def test_trace_records_elimination_steps(barbara):
    report = decide(barbara)
    rules = [rule for rule, _ in report.trace]
    assert rules[0] == "classify"
    assert "nnf" in rules
    assert any(rule.startswith("eliminate all R") for rule in rules)
    assert rules[-1] == "spectrum"
    assert report.steps == len(report.trace)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_spectrum_agrees_with_oracle(seed):
    f = random_formula(GeneratorParams(seed=seed, max_free_preds=0))
    report = decide(f)
    truth = spectrum_bruteforce(f, 5)
    for size, value in enumerate(truth, start=1):
        assert report.verdict.spectrum.contains(size) == value


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_spectrum_complement_law(seed):
    f = random_formula(GeneratorParams(seed=seed, max_free_preds=0,
                                       max_ind_quantifiers=2, max_depth=3))
    s = decide(f).verdict.spectrum
    t = decide(Not(f)).verdict.spectrum
    # Past the largest finite end, both spectra are constant.
    top = max([end for lo, hi in s.intervals + t.intervals for end in (lo, hi)
               if end is not None], default=1)
    assert all(t.contains(n) != s.contains(n) for n in range(1, top + 2))


# --- lazy rendering ---------------------------------------------------------------

LIMITED = ("ex X. ex Y. ((ex a. ex b. (a ~= b & X(a) & Y(b)))"
           " & (ex c. ex d. (c ~= d & ~X(c) & ~Y(d))))")


def test_report_renders_as_eagerly(barbara, eager_trace):
    report = decide(barbara)
    assert report.trace == tuple(eager_trace)
    assert all(type(rule) is str and type(text) is str for rule, text in report.trace)
    assert report.input_text == format_formula(barbara)
    assert report.steps == len(eager_trace)
    data = report.to_dict()
    assert data["input"] == format_formula(barbara)
    assert data["trace"] == [{"rule": rule, "result": text} for rule, text in eager_trace]
    assert decide(barbara, source="# Barbara\n").input_text == "# Barbara\n"


def test_partial_trace_renders_as_eagerly(eager_trace):
    with pytest.raises(ResourceLimitError) as exc:
        decide(parse(LIMITED), limits=Limits(max_conjuncts=2))
    assert exc.value.partial_trace == tuple(eager_trace)
    assert type(exc.value.partial_trace) is tuple
    assert eager_trace[0] == ("classify", "DomainBStar")


def count_renderings(monkeypatch) -> list:
    """Record every call of format_formula and render_counting, under each
    name that binds them."""
    calls = []

    def counted(name, real):
        def wrapper(f):
            calls.append(name)
            return real(f)
        return wrapper

    fmt = counted("format_formula", syntax.format_formula)
    ren = counted("render_counting", normal.render_counting)
    for module in (syntax, decide_module):
        monkeypatch.setattr(module, "format_formula", fmt)
    for module in (normal, decide_module):
        monkeypatch.setattr(module, "render_counting", ren)
    return calls


def test_decide_renders_nothing_nobody_reads(barbara, monkeypatch):
    calls = count_renderings(monkeypatch)
    report = decide(barbara)
    assert str(report.verdict) == "Valid" and report.steps > 0
    assert calls == []
    report.input_text
    assert calls == ["format_formula"]
    trace = report.trace
    assert calls.count("format_formula") == 2  # the NNF step
    rendered = len(calls)
    assert report.trace is trace and report.to_dict()["trace"]
    assert len(calls) == rendered  # rendered once, on first read


def test_failed_decide_renders_nothing_until_read(monkeypatch):
    calls = count_renderings(monkeypatch)
    with pytest.raises(ResourceLimitError) as exc:
        decide(parse(LIMITED), limits=Limits(max_conjuncts=2))
    assert calls == []
    assert exc.value.partial_trace
    assert calls == ["format_formula"]  # the NNF step
