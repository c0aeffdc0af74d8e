"""Every public call frees what it built by reference counting alone: it
leaves no object in a reference cycle, so a run of calls gives the cyclic
garbage collector nothing to find.  Only calls that succeed are made: a
caught exception's traceback holds the frame that caught it."""

import gc
import importlib
from collections import Counter
from pathlib import Path

from mlogic import cli
from mlogic.decide import decide
from mlogic.models import (GeneratorParams, equiv_check, find_countermodel,
                           random_formula, spectrum_bruteforce)
from mlogic.normal import counting_to_formula, render_counting, to_block_form, to_ccnf
from mlogic.parser import parse
from mlogic.prop import clause_form_decide, to_clause_form, truth_table_decide

ROOT = Path(__file__).resolve().parent.parent


def _sentences(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    w = importlib.import_module("workloads")
    texts = [path.read_text(encoding="utf-8")
             for path in sorted((ROOT / "formulas").glob("*.fml"))]
    texts += [w.gadget(4), w.subset_chain(4), w.alternation(4), w.separation(3),
              w.separation_two(2)]
    return [parse(text) for text in texts]


def _run_calls(sentences):
    generated = [random_formula(GeneratorParams(seed=seed, max_free_preds=0))
                 for seed in range(50)]
    for f in sentences + generated:
        report = decide(f)
        report.trace, report.max_atoms, report.to_json(), str(report.verdict)
    letters = parse("(p -> q) & (q -> r) -> (p -> r) | ~(p <-> s)")
    truth_table_decide(letters)
    clause_form_decide(to_clause_form(letters))
    monadic = parse("(all x. (A(x) -> B(x))) & (ex y. A(y)) -> ex z. B(z)")
    str(to_block_form(monadic))
    cf = to_ccnf(monadic)
    counting_to_formula(cf)
    render_counting(cf)
    chain = parse("(all x. (~P(x) | Q(x))) & (all x. (~Q(x) | R(x))) -> all x. (~R(x) | P(x))")
    find_countermodel(chain, 3)
    equiv_check(chain, parse("true"), 3)
    spectrum_bruteforce(parse("ex x. ex y. x ~= y"), 4)
    assert cli.run(["decide", "--trace", "--json", "--oracle-check", "3",
                    str(ROOT / "formulas" / "witness-pair.fml")]) == 0


def test_no_call_leaves_a_reference_cycle(monkeypatch, capsys):
    sentences = _sentences(monkeypatch)
    _run_calls(sentences)  # warm-up: fills the caches that outlive a call
    gc.collect()
    gc.disable()
    try:
        _run_calls(sentences)
        gc.set_debug(gc.DEBUG_SAVEALL)
        found = gc.collect()
        kinds = Counter(type(obj).__name__ for obj in gc.garbage)
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    capsys.readouterr()
    assert found == 0, f"{found} objects in cycles, most common: {kinds.most_common(5)}"
