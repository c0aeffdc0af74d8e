"""Tests of the benchmark itself: closed-form answers against the oracle,
the tracer's patching, and traced against untraced results."""

import shutil
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import mlogic  # noqa: F401  (loads every layer module)
from mlogic.models import equiv_check, find_countermodel, spectrum_bruteforce
from mlogic.parser import parse

import run
from speed import REFERENCE_CHUNK_S, SpeedProbe
from tracing import WRAPPED, Tracer, mlogic_modules
from workloads import (INTERPOLANT, VALID, Instance, alternation, build, chain_body,
                       execute, gadget, is_correct, separation, separation_two,
                       subset_chain)

MODS = run.layer_modules()


@pytest.mark.parametrize("n", [1, 2])
def test_gadget_spectrum_is_2n_onwards(n):
    truth = spectrum_bruteforce(parse(gadget(n)), 2 * n + 1)
    assert truth == [size >= 2 * n for size in range(1, 2 * n + 2)]


@pytest.mark.parametrize("text,max_size", [
    (subset_chain(2), 4), (subset_chain(3), 3),
    (alternation(2), 3), (alternation(3), 3), (alternation(4), 2),
    (separation(1), 4), (separation(2), 3),
    (separation_two(1), 3), (separation_two(2), 2),
])
def test_valid_families_hold_at_small_sizes(text, max_size):
    assert all(spectrum_bruteforce(parse(text), max_size))


@pytest.mark.parametrize("k,max_size", [(2, 4), (3, 3)])
def test_chain_body_has_no_countermodel(k, max_size):
    assert find_countermodel(parse(chain_body(k)), max_size) is None


def test_interpolant_sides_agree():
    assert equiv_check(parse(INTERPOLANT[0]), parse(INTERPOLANT[1]), 3) is None


def test_families_carry_their_closed_form_answers():
    counting = {(i.family, i.size): i.expected for i in build("counting", 0, MODS)}
    assert counting[("gadget", 5)] == ("contingent", ((10, None),))
    assert counting[("chain", 7)] == VALID and counting[("alternation", 8)] == VALID
    names = build("names", 0, MODS)
    assert [i.expected for i in names] == [VALID] * 10
    oracle = build("oracle", 0, MODS)
    assert all(i.expected is None for i in oracle if i.kind != "sweep")


def test_seed_decides_random_inputs_only():
    assert build("counting", 1, MODS) == build("counting", 2, MODS)
    assert build("corpus", 1, MODS) == build("corpus", 1, MODS)
    assert build("corpus", 1, MODS) != build("corpus", 2, MODS)


def test_small_rungs_get_their_known_answers():
    small = [i for i in build("counting", 0, MODS) + build("names", 0, MODS)
             if i.size <= 3]
    for inst in small:
        assert is_correct(inst, execute(inst, MODS)), inst


def test_a_wrong_answer_is_caught():
    inst = Instance("counting", "gadget", 2, "decide", (gadget(2),),
                    ("contingent", ((5, None),)))
    assert not is_correct(inst, execute(inst, MODS))


def _bindings():
    """(module name, attribute) -> object, for every mlogic module."""
    return {(name, attr): value for name, mod in mlogic_modules().items()
            for attr, value in vars(mod).items()}


def test_every_binding_of_a_wrapped_function_is_patched():
    originals = {}
    for layer, names in WRAPPED.items():
        for qualname in names:
            if "." not in qualname:
                originals[id(getattr(MODS[layer], qualname))] = f"{layer}.{qualname}"
    before = _bindings()
    bound_at = {key: originals[id(value)] for key, value in before.items()
                if id(value) in originals}
    # functions imported into other modules are among the bindings checked
    assert bound_at[("mlogic.elimination", "counting_dnf")] == "normal.counting_dnf"
    assert bound_at[("mlogic.decide", "eliminate_all")] == "elimination.eliminate_all"
    assert bound_at[("mlogic", "decide")] == "decide.decide"
    record = MODS["elimination"].Trace.record
    tracer = Tracer(MODS)
    with tracer.installed():
        during = _bindings()
        for key in bound_at:
            assert during[key] is not before[key], key
            assert during[key].__wrapped__ is before[key], key
        assert not any(id(value) in originals for value in during.values())
        assert MODS["elimination"].Trace.record is not record
        assert MODS["models"].Budget is not sys.modules["mlogic.limits"].Budget
    after = _bindings()
    assert all(after[key] is value for key, value in before.items())
    assert MODS["elimination"].Trace.record is record


def _sample():
    counting = build("counting", 3, MODS)
    corpus = build("corpus", 3, MODS)
    oracle = build("oracle", 3, MODS)
    refused = [i for i in counting if i.family == "chain" and i.size == 7]
    return ([i for i in counting if i.size <= 4] + refused
            + corpus[:40] + corpus[-20:] + [i for i in oracle if i.kind == "sweep"][:20])


def test_traced_pass_gives_the_untraced_results():
    instances = _sample()
    plain = run.run_pass(instances, MODS)
    tracer = Tracer(MODS)
    with tracer.installed():
        traced = run.run_pass(instances, MODS, tracer)
    assert run.same_results(plain, traced)
    values = run.layer_values(tracer)
    assert set(values) == {name for name, _ in run.PER_LAYER} - {"trace_overhead_frac"}
    assert values["parser.parse.calls"] == len(instances)
    assert values["normal.refine_counting.failed.ResourceLimitError"] == 1
    assert values["models.eval_ops"] > 0
    assert values["prop.to_clause_form.clauses_out"] > 0
    assert all(seconds > -1e-9 for seconds in tracer.self_s.values())
    assert not tracer.spans


def test_a_probed_pass_gives_the_plain_results_and_stops_the_timer():
    instances = _sample()
    plain = run.run_pass(instances, MODS)
    probe = SpeedProbe()
    with probe.running():
        probed = run.run_pass(instances, MODS, clock=probe)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert run.same_results(plain, probed)
    assert probe.at and probe.busy > 0 and probed[2] > 0
    assert all(seconds > 0 for _, _, seconds in probed[1])


def test_speed_is_the_reference_over_the_mean_chunk_time():
    probe = SpeedProbe()
    probe.at = [1.0, 2.0, 3.0]
    probe.timed = [0.0, 1.0, 3.0, 4.0]
    assert probe.speed(1.5, 2.5) == pytest.approx(REFERENCE_CHUNK_S / 2)
    assert probe.speed(1.5, 1.6, margin=0.6) == pytest.approx(REFERENCE_CHUNK_S * 2 / 3)
    assert probe.speed(3.5, 4.0) == 1.0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(Path(run.__file__).parent, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "bench/run.py", "--workload", "counting",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
