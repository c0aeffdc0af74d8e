"""Workloads of the mlogic benchmark: instances with their known answers.

A workload is a list of `Instance`s.  Each one names a public-API call on
generated input text and the answer that call must give.  The structured
families have closed-form answers; the random sentences of `corpus` are
checked against the brute-force oracle after the timed passes, outside any
timed region.

Instances reach mlogic only through the module objects passed to `execute`,
looked up at call time, so the tracer's patches on those modules are seen.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

WORKLOADS = ("counting", "names", "oracle", "corpus")

VALID = ("valid", ((1, None),))

# Domain sizes at which the oracle checks a corpus sentence's spectrum.
CORPUS_CHECK_SIZES = 4
# Sizes of the engine/oracle agreement sweep (the `corpus --check` default).
SWEEP_SIZES = 5


@dataclass(frozen=True)
class Instance:
    """One call into the public API.

    kind      decide | countermodel | equiv | sweep | prop
    texts     the input formula texts (two for `equiv`)
    bound     search size for countermodel / equiv, unused otherwise
    expected  the known answer; None for a corpus sentence, whose answer
              the oracle supplies after timing
    """

    workload: str
    family: str
    size: int
    kind: str
    texts: tuple[str, ...]
    expected: object = None
    bound: int = 0


# --- structured families ---------------------------------------------------------

def _distinct(names: list[str]) -> list[str]:
    return [f"{a} ~= {b}" for i, a in enumerate(names) for b in names[i + 1:]]


def gadget(n: int) -> str:
    """ex X. (n distinct members of X) & (n distinct non-members);
    spectrum [2n, oo)."""
    xs = [f"x{i}" for i in range(1, n + 1)]
    ys = [f"y{i}" for i in range(1, n + 1)]
    inside = " & ".join(_distinct(xs) + [f"X({v})" for v in xs])
    outside = " & ".join(_distinct(ys) + [f"~X({v})" for v in ys])
    qx = " ".join(f"ex {v}." for v in xs)
    qy = " ".join(f"ex {v}." for v in ys)
    return f"ex X. (({qx} ({inside})) & ({qy} ({outside})))"


def _subset(a: str, b: str) -> str:
    return f"(all x. (~{a}(x) | {b}(x)))"


def chain_body(k: int) -> str:
    """P1 <= P2 <= ... <= Pk implies P1 <= Pk, with P1..Pk free."""
    links = " & ".join(_subset(f"P{i}", f"P{i + 1}") for i in range(1, k))
    return f"({links}) -> {_subset('P1', f'P{k}')}"


def subset_chain(k: int) -> str:
    """Universal closure of `chain_body(k)`; valid."""
    return " ".join(f"all P{i}." for i in range(1, k + 1)) + f" ({chain_body(k)})"


def alternation(depth: int) -> str:
    """all X1. ex X2. all X3. ... over subset links; valid.

    Each existential X2i must contain the universal before it; each later
    universal X2i+1 is linked by "X2i <= X2i+1 implies X2i-1 <= X2i+1",
    which X2i = X2i-1 satisfies.  Every quantified predicate is mentioned,
    so the innermost elimination refines to all `depth` predicates.
    """
    quants = " ".join(("all" if j % 2 else "ex") + f" X{j}."
                      for j in range(1, depth + 1))
    links = []
    for j in range(2, depth + 1):
        if j % 2 == 0:
            links.append(_subset(f"X{j - 1}", f"X{j}"))
        else:
            links.append(f"({_subset(f'X{j - 1}', f'X{j}')} -> "
                         f"{_subset(f'X{j - 2}', f'X{j}')})")
    return f"{quants} ({' & '.join(links)})"


def separation(m: int) -> str:
    """Any m named individuals can be separated from one more; valid."""
    names = [f"a{i}" for i in range(1, m + 1)]
    quants = " ".join(f"all {a}." for a in names)
    apart = " & ".join(f"b ~= {a}" for a in names)
    inside = " & ".join([f"X({a})" for a in names] + ["~X(b)"])
    return f"{quants} all b. (({apart}) -> ex X. ({inside}))"


def separation_two(m: int) -> str:
    """Named members of P \\ Q lie in some X with X <= P and X disjoint
    from Q; valid (take X = P \\ Q)."""
    names = [f"a{i}" for i in range(1, m + 1)]
    quants = " ".join(f"all {a}." for a in names)
    given = " & ".join(f"P({a}) & ~Q({a})" for a in names)
    inside = " & ".join([_subset("X", "P"), "(all x. (~X(x) | ~Q(x)))"]
                        + [f"X({a})" for a in names])
    return f"all P. all Q. {quants} (({given}) -> ex X. ({inside}))"


INTERPOLANT = ("ex R. ((all x. (~A(x) | R(x))) & (all x. (~R(x) | B(x))))",
               "all x. (~A(x) | B(x))")


# --- random inputs -------------------------------------------------------------

def _generator_seeds(seed: int, stream: str, count: int) -> list[int]:
    rng = random.Random(f"{stream}:{seed}")
    return [rng.randrange(1 << 32) for _ in range(count)]


def _pure_sentences(mods, seed: int, stream: str, count: int) -> list[str]:
    """Pure sentences from the acceptance generator, printed to text."""
    models, syntax = mods["models"], mods["syntax"]
    return [syntax.format_formula(models.random_formula(
                models.GeneratorParams(seed=s, max_free_preds=0)))
            for s in _generator_seeds(seed, stream, count)]


def _prop_formulas(mods, seed: int, count: int) -> list[str]:
    """Propositional formulas over six letters, depth 4, as in the
    propositional acceptance criterion."""
    syntax = mods["syntax"]
    rng = random.Random(f"prop:{seed}")
    connectives = (syntax.And, syntax.Or, syntax.Implies, syntax.Iff, syntax.Not)

    def gen(depth):
        if depth == 0 or rng.random() < 0.3:
            if rng.random() < 0.9:
                return syntax.PredApp(rng.choice("pqrstu"))
            return syntax.TruthConst(rng.random() < 0.5)
        node = rng.choice(connectives)
        if node is syntax.Not:
            return syntax.Not(gen(depth - 1))
        return node(gen(depth - 1), gen(depth - 1))

    return [syntax.format_formula(gen(4)) for _ in range(count)]


# --- workload lists ---------------------------------------------------------------

CORPUS_SENTENCES = 4000
CORPUS_PROP = 1200
SWEEP_SENTENCES = 300


def build(workload: str, seed: int, mods) -> list[Instance]:
    """Instances of `workload`.  Family ladders are fixed; the random
    sentences and propositional formulas come from `seed`."""
    if workload == "counting":
        return ([Instance(workload, "gadget", n, "decide", (gadget(n),),
                          ("contingent", ((2 * n, None),)))
                 for n in range(4, 8)]
                + [Instance(workload, "chain", k, "decide", (subset_chain(k),), VALID)
                   for k in range(2, 8)]
                + [Instance(workload, "alternation", d, "decide", (alternation(d),), VALID)
                   for d in range(2, 9)])
    if workload == "names":
        return ([Instance(workload, "separation", m, "decide", (separation(m),), VALID)
                 for m in range(1, 7)]
                + [Instance(workload, "separation_two", m, "decide",
                            (separation_two(m),), VALID)
                   for m in range(1, 5)])
    if workload == "oracle":
        searches = [Instance(workload, "chain_countermodel", k, "countermodel",
                             (chain_body(k),), None, bound)
                    for k, bound in ((2, 9), (3, 6), (4, 5))]
        searches.append(Instance(workload, "interpolant_equiv", 2, "equiv",
                                 INTERPOLANT, None, 6))
        return searches + [Instance(workload, "sweep", i, "sweep", (text,), ())
                           for i, text in enumerate(
                               _pure_sentences(mods, seed, "sweep", SWEEP_SENTENCES))]
    if workload == "corpus":
        return ([Instance(workload, "random", i, "decide", (text,))
                 for i, text in enumerate(
                     _pure_sentences(mods, seed, "corpus", CORPUS_SENTENCES))]
                + [Instance(workload, "prop", i, "prop", (text,))
                   for i, text in enumerate(_prop_formulas(mods, seed, CORPUS_PROP))])
    raise ValueError(f"unknown workload {workload!r}")


# --- execution and checking ---------------------------------------------------------

def _verdict(report) -> tuple:
    verdict = report.verdict
    spectrum = verdict.spectrum.intervals if verdict.spectrum is not None else None
    return (verdict.kind.value, spectrum)


def execute(inst: Instance, mods):
    """Run one instance and return its outcome (comparable with `expected`)."""
    parse = mods["parser"].parse
    if inst.kind == "decide":
        return _verdict(mods["decide"].decide(parse(inst.texts[0])))
    if inst.kind == "countermodel":
        model = mods["models"].find_countermodel(parse(inst.texts[0]), inst.bound)
        return None if model is None else str(model)
    if inst.kind == "equiv":
        model = mods["models"].equiv_check(parse(inst.texts[0]), parse(inst.texts[1]),
                                           inst.bound)
        return None if model is None else str(model)
    if inst.kind == "sweep":
        f = parse(inst.texts[0])
        spectrum = mods["decide"].decide(f).verdict.spectrum
        truth = mods["models"].spectrum_bruteforce(f, SWEEP_SIZES)
        return tuple(size for size, value in enumerate(truth, start=1)
                     if spectrum.contains(size) != value)
    if inst.kind == "prop":
        prop = mods["prop"]
        f = parse(inst.texts[0])
        table = prop.truth_table_decide(f).result.value
        clause = prop.clause_form_decide(prop.to_clause_form(f))
        return (table, clause)
    raise ValueError(f"unknown instance kind {inst.kind!r}")


def oracle_answer(inst: Instance, mods):
    """Known answer of a corpus sentence: the sizes 1..CORPUS_CHECK_SIZES on
    which the brute-force oracle finds it true."""
    truth = mods["models"].spectrum_bruteforce(mods["parser"].parse(inst.texts[0]),
                                               CORPUS_CHECK_SIZES)
    return tuple(size for size, value in enumerate(truth, start=1) if value)


def is_correct(inst: Instance, outcome, oracle=None) -> bool:
    """Whether an outcome is the known answer.  `oracle` is the result of
    `oracle_answer` for a corpus sentence."""
    if inst.kind == "prop":
        table, clause = outcome
        return (table == "Valid") == clause
    if inst.workload == "corpus":
        kind, intervals = outcome
        if kind == "resultant":
            return False
        holds = tuple(size for size in range(1, CORPUS_CHECK_SIZES + 1)
                      if any(lo <= size and (hi is None or size <= hi)
                             for lo, hi in intervals))
        return holds == oracle
    return outcome == inst.expected
