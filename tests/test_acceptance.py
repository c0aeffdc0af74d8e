"""Acceptance criteria, one test per criterion, each printing a pass/fail
line with its measured cost.  Criteria 4 and 5 sweep seeded random corpora
against the exhaustive model oracle, and the structured families of the
benchmark are checked against it at small sizes."""

import time

import pytest

from mlogic.decide import VerdictKind, decide
from mlogic.elimination import eliminate_all
from mlogic.models import (GeneratorParams, equiv_check, evaluate,
                           find_countermodel, random_formula, spectrum_bruteforce)
from mlogic.normal import counting_symbols
from mlogic.parser import parse
from mlogic.prop import (PropResult, clause_form_decide, to_clause_form,
                         truth_table_decide)
from mlogic.syntax import (ExistsPred, ForallPred, Formula, PredApp,
                           format_formula, free_symbols)

from conftest import subformulas

BARBARA = ("all P. all Q. all R. ((all x. (~P(x) | Q(x))) & (all x. (~Q(x) | R(x)))"
           " -> all x. (~P(x) | R(x)))")

SHAPE_SENTENCE = """
    (ex x1. ex x2. x1 ~= x2)
    & ~( (ex x1. ex x2. ex x3. ex x4.
           (x1 ~= x2 & x1 ~= x3 & x1 ~= x4 & x2 ~= x3 & x2 ~= x4 & x3 ~= x4))
       & ~(ex x1. ex x2. ex x3. ex x4. ex x5.
           (x1 ~= x2 & x1 ~= x3 & x1 ~= x4 & x1 ~= x5 & x2 ~= x3
            & x2 ~= x4 & x2 ~= x5 & x3 ~= x4 & x3 ~= x5 & x4 ~= x5)) )
"""


def report(criterion: int, ok: bool, detail: str) -> None:
    status = "pass" if ok else "FAIL"
    print(f"ACCEPTANCE {criterion}: {status} — {detail}")
    assert ok, detail


def pure_corpus(count: int):
    sentences = []
    seed = 0
    while len(sentences) < count:
        f = random_formula(GeneratorParams(
            seed=seed, max_pred_quantifiers=2, max_ind_quantifiers=3,
            max_free_preds=0, max_depth=4, allow_identity=True,
            count_bound_cap=2))
        sentences.append((seed, f))
        seed += 1
    return sentences


def identity_free_corpus(count: int):
    """Identity-free sentences with at most two predicate symbols."""
    sentences = []
    seed = 0
    while len(sentences) < count:
        f = random_formula(GeneratorParams(
            seed=10_000 + seed, max_pred_quantifiers=2, max_ind_quantifiers=3,
            max_free_preds=2, max_depth=4, allow_identity=False))
        seed += 1
        preds, _ = free_symbols(f)
        bound = {g.var for g in subformulas(f)
                 if isinstance(g, (ForallPred, ExistsPred))}
        if len(preds | bound) <= 2:
            sentences.append((seed - 1, f))
    return sentences


def test_criterion_1_paper_sentences_decide():
    started = time.monotonic()
    checks = []
    for text, expect in [("all X. all y. (X(y) | ~X(y))", VerdictKind.VALID),
                         (BARBARA, VerdictKind.VALID),
                         ("all P. ex Q. all x. (~P(x) | ~Q(x))", VerdictKind.VALID)]:
        t0 = time.monotonic()
        verdict = decide(parse(text)).verdict.kind
        checks.append(verdict is expect and time.monotonic() - t0 < 1.0)
    t0 = time.monotonic()
    f = parse("p -> ((p -> q) -> q)")
    both = (truth_table_decide(f).result is PropResult.VALID
            and clause_form_decide(to_clause_form(f)))
    checks.append(both and time.monotonic() - t0 < 1.0)
    report(1, all(checks),
           f"4 source sentences decide correctly in {time.monotonic()-started:.2f}s")


def test_criterion_2_subset_chain_equivalence():
    t0 = time.monotonic()
    lhs = parse("ex R. ((all x. (~A(x) | R(x))) & (all x. (~R(x) | B(x))))")
    rhs = parse("all x. (~A(x) | B(x))")
    witness = equiv_check(lhs, rhs, 4)
    elapsed = time.monotonic() - t0
    report(2, witness is None and elapsed < 5.0,
           f"exhaustive equivalence on sizes 1–4 in {elapsed:.2f}s "
           f"(witness: {witness})")


def test_criterion_3_witness_distinctness_regression():
    t0 = time.monotonic()
    rep = decide(parse("ex X. ((ex x. X(x)) & (ex x. ~X(x)))"))
    elapsed = time.monotonic() - t0
    ok = (rep.verdict.kind is VerdictKind.SIZE_CONTINGENT
          and rep.verdict.spectrum.intervals == ((2, None),)
          and elapsed < 1.0)
    report(3, ok, f"spectrum is exactly [2,∞) in {elapsed:.2f}s")


def test_criterion_4_master_agreement_500():
    t0 = time.monotonic()
    disagreements = []
    for seed, f in pure_corpus(500):
        rep = decide(f)
        truth = spectrum_bruteforce(f, 5)
        for size, value in enumerate(truth, start=1):
            if rep.verdict.spectrum.contains(size) != value:
                disagreements.append((seed, format_formula(f), size))
                break
    elapsed = time.monotonic() - t0
    report(4, not disagreements and elapsed < 600,
           f"500/500 sentences agree with the oracle at sizes 1–5 "
           f"in {elapsed:.1f}s (mismatches: {disagreements[:3]})")


def _distinct(names):
    return [f"{a} ~= {b}" for i, a in enumerate(names) for b in names[i + 1:]]


def _subset(a, b):
    return f"(all x. (~{a}(x) | {b}(x)))"


def gadget(n):
    """ex X. (n distinct members of X) & (n distinct non-members): [2n, oo)."""
    xs, ys = [f"x{i}" for i in range(n)], [f"y{i}" for i in range(n)]
    inside = " & ".join(_distinct(xs) + [f"X({v})" for v in xs])
    outside = " & ".join(_distinct(ys) + [f"~X({v})" for v in ys])
    return (f"ex X. (({' '.join(f'ex {v}.' for v in xs)} ({inside}))"
            f" & ({' '.join(f'ex {v}.' for v in ys)} ({outside})))")


def subset_chain(k):
    """all P1..Pk. (P1 <= P2 <= ... <= Pk -> P1 <= Pk): valid."""
    links = " & ".join(_subset(f"P{i}", f"P{i + 1}") for i in range(1, k))
    return (" ".join(f"all P{i}." for i in range(1, k + 1))
            + f" (({links}) -> {_subset('P1', f'P{k}')})")


def alternation(depth):
    """all X1. ex X2. all X3. ... over subset links; valid (X2i = X2i-1)."""
    links = [_subset(f"X{j - 1}", f"X{j}") if j % 2 == 0 else
             f"({_subset(f'X{j - 1}', f'X{j}')} -> {_subset(f'X{j - 2}', f'X{j}')})"
             for j in range(2, depth + 1)]
    return (" ".join(("all" if j % 2 else "ex") + f" X{j}." for j in range(1, depth + 1))
            + f" ({' & '.join(links)})")


def separation(m):
    """Any m named individuals can be separated from one more: valid."""
    names = [f"a{i}" for i in range(1, m + 1)]
    return (" ".join(f"all {a}." for a in names) + " all b. (("
            + " & ".join(f"b ~= {a}" for a in names) + ") -> ex X. ("
            + " & ".join([f"X({a})" for a in names] + ["~X(b)"]) + "))")


def test_structured_families_agree_with_the_oracle(separation_two):
    # The families of the benchmark ladders, whose answers are known: the
    # engine's spectrum against the exhaustive oracle at small sizes.
    t0 = time.monotonic()
    cases = ([(gadget(n), n, 2 * n + 1) for n in (1, 2, 3)]
             + [(subset_chain(k), None, 6) for k in (2, 3, 4)]
             + [(alternation(d), None, 6) for d in (2, 3, 4, 5)]
             + [(separation(m), None, 6) for m in (1, 2, 3, 4)]
             + [(separation_two(m), None, 6) for m in (1, 2, 3)])
    wrong = []
    for text, n, max_size in cases:
        f = parse(text)
        spectrum = decide(f).verdict.spectrum
        known = [size >= 2 * n if n else True for size in range(1, max_size + 1)]
        engine = [spectrum.contains(size) for size in range(1, max_size + 1)]
        if not engine == known == spectrum_bruteforce(f, max_size):
            wrong.append(text)
    elapsed = time.monotonic() - t0
    assert not wrong and elapsed < 10, (elapsed, wrong)


@pytest.mark.parametrize("n", [20, 33, 50])
def test_the_gadget_decides(n):
    # Each witness has up to n-1 partners, and each partner's literal on X
    # leaves it one side of the witness's cell.  Trying both sides of every
    # cell for every partner took 8 s at n=13.
    spectrum = decide(parse(gadget(n))).verdict.spectrum
    assert str(spectrum) == f"[{2 * n},∞)"


def _universal_closure(f: Formula) -> Formula:
    preds, _ = free_symbols(f)
    closed = f
    for name in sorted(preds, reverse=True):
        closed = ForallPred(name, closed)
    return closed


def test_criterion_5_small_model_bound():
    t0 = time.monotonic()
    violations = []
    corpus = identity_free_corpus(200)
    for seed, f in corpus:
        preds, _ = free_symbols(f)
        bound_preds = {g.var for g in subformulas(f)
                       if isinstance(g, (ForallPred, ExistsPred))}
        k = len(preds | bound_preds)
        rep = decide(_universal_closure(f))
        engine_valid = rep.verdict.kind is VerdictKind.VALID
        oracle_none = find_countermodel(f, 2 ** k) is None
        if engine_valid != oracle_none:
            violations.append(("bound", seed, format_formula(f)))
            continue
        if engine_valid and find_countermodel(f, 8) is not None:
            violations.append(("beyond", seed, format_formula(f)))
    elapsed = time.monotonic() - t0
    report(5, not violations and elapsed < 300,
           f"200 identity-free sentences (k ≤ 2): verdicts match the 2^k "
           f"countermodel search, none refuted up to size 8, in {elapsed:.1f}s "
           f"(violations: {violations[:3]})")


def test_criterion_5_certificate_at_three_predicates():
    # k = 3 free predicates: a countermodel search to size 2^3 = 8 certifies
    # validity.  The middle term is free here, unlike in BARBARA.
    t0 = time.monotonic()
    theorems = [
        "((all x. (~P(x) | Q(x))) & (all x. (~Q(x) | R(x)))) -> all x. (~P(x) | R(x))",
        "((all x. (~P1(x) | P2(x))) & (all x. (~P2(x) | P3(x))))"
        " -> (all x. (~P1(x) | P3(x)))",
    ]
    checks = []
    for text in theorems:
        f = parse(text)
        checks.append(find_countermodel(f, 8) is None
                      and decide(_universal_closure(f)).verdict.kind is VerdictKind.VALID)
    f = parse("((ex x. (P(x) & Q(x))) & (ex x. (Q(x) & R(x)))) -> ex x. (P(x) & R(x))")
    witness = find_countermodel(f, 8)
    verdict = decide(_universal_closure(f)).verdict.kind
    checks.append(witness is not None and witness.size == 2
                  and evaluate(witness, f) is False
                  and verdict is VerdictKind.SIZE_CONTINGENT)
    elapsed = time.monotonic() - t0
    report(5, all(checks) and elapsed < 300,
           f"k = 3: two theorems without a countermodel to size 8 and VALID, "
           f"one non-theorem refuted by {witness}, in {elapsed:.2f}s")


def test_criterion_6_propositional_method_agreement():
    import random
    t0 = time.monotonic()
    from mlogic.syntax import And, Iff, Implies, Not, Or, TruthConst
    rng = random.Random(202)
    letters = "pqrstu"

    def gen(depth):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.9:
                return PredApp(rng.choice(letters))
            return TruthConst(rng.random() < 0.5)
        node = rng.choice((And, Or, Implies, Iff, Not))
        if node is Not:
            return Not(gen(depth - 1))
        return node(gen(depth - 1), gen(depth - 1))

    mismatches = 0
    for _ in range(1000):
        f = gen(4)
        table = truth_table_decide(f).result is PropResult.VALID
        clause = clause_form_decide(to_clause_form(f))
        mismatches += table != clause
    elapsed = time.monotonic() - t0
    report(6, mismatches == 0 and elapsed < 60,
           f"1000 formulas, table and clause verdicts identical, in {elapsed:.1f}s")


def test_criterion_7_spectrum_shape():
    t0 = time.monotonic()
    f = parse(SHAPE_SENTENCE)
    rep = decide(f)
    engine = str(rep.verdict.spectrum)
    oracle = spectrum_bruteforce(f, 6)
    elapsed = time.monotonic() - t0
    ok = (engine == "{2,3} ∪ [5,∞)"
          and oracle == [False, True, True, False, True, True]
          and elapsed < 1.0)
    report(7, ok, f"spectrum {engine}, oracle {oracle}, in {elapsed:.2f}s")


def test_criterion_8_syntactic_purity():
    t0 = time.monotonic()
    dirty = []
    corpus = pure_corpus(500) + identity_free_corpus(200)
    corpus += [(None, parse(BARBARA)), (None, parse(SHAPE_SENTENCE)),
               (None, parse("all P. ex Q. all x. (~P(x) | ~Q(x))"))]
    for seed, f in corpus:
        cf = eliminate_all(f)
        bound_preds = {g.var for g in subformulas(f)
                       if isinstance(g, (ForallPred, ExistsPred))}
        regions, _, letters, _ = counting_symbols(cf)
        leaked = bound_preds & (regions | letters)
        if leaked:
            dirty.append((seed, format_formula(f), sorted(leaked)))
    elapsed = time.monotonic() - t0
    report(8, not dirty,
           f"{len(corpus)} resultants scanned, no quantified predicate "
           f"survives elimination, in {elapsed:.1f}s (leaks: {dirty[:3]})")
