import json
from pathlib import Path

import pytest

from mlogic.cli import run

BARBARA = ("all P. all Q. all R. ((all x. (~P(x) | Q(x))) & (all x. (~Q(x) | R(x)))"
           " -> all x. (~P(x) | R(x)))")


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


def test_decide_valid(tmp_path, capsys):
    path = write(tmp_path, "barbara.fml", BARBARA)
    assert run(["decide", path]) == 0
    assert capsys.readouterr().out.strip() == "Valid"


def test_decide_json_matches_text(tmp_path, capsys):
    path = write(tmp_path, "two.fml", "ex x. ex y. x ~= y")
    assert run(["decide", path]) == 0
    text_out = capsys.readouterr().out.strip()
    assert run(["decide", "--json", path]) == 0
    data = json.loads(capsys.readouterr().out)
    assert text_out == "SizeContingent: [2,∞)"
    assert data["verdict"]["kind"] == "contingent"
    assert data["verdict"]["spectrum"] == [[2, None]]


def test_decide_trace(tmp_path, capsys):
    path = write(tmp_path, "wp.fml", "ex X. ((ex x. X(x)) & (ex x. ~X(x)))")
    assert run(["decide", "--trace", path]) == 0
    out = capsys.readouterr().out
    assert "[eliminate ex X]" in out


def test_decide_oracle_check(tmp_path, capsys):
    path = write(tmp_path, "wp.fml", "ex X. ((ex x. X(x)) & (ex x. ~X(x)))")
    assert run(["decide", "--oracle-check", "4", path]) == 0


def test_eliminate(tmp_path, capsys):
    path = write(tmp_path, "wp.fml", "ex X. ((ex x. X(x)) & (ex x. ~X(x)))")
    assert run(["eliminate", path]) == 0
    assert capsys.readouterr().out.strip() == "#[] >= 2"


def test_normalize_forms(tmp_path, capsys):
    path = write(tmp_path, "f.fml", "~(all x. (P(x) & Q(x)))")
    assert run(["normalize", "--form", "nnf", path]) == 0
    assert capsys.readouterr().out.strip() == "ex x. (~P(x) | ~Q(x))"
    assert run(["normalize", "--form", "ccnf", path]) == 0
    out = capsys.readouterr().out
    assert "#[" in out
    path2 = write(tmp_path, "g.fml", "ex x. (F(x) & (G(x) | H(x)))")
    assert run(["normalize", "--form", "blocks", path2]) == 0
    assert capsys.readouterr().out.strip() == \
        "(ex x. (F(x) & G(x))) | ex x. (F(x) & H(x))"


def test_prop_methods(tmp_path, capsys):
    path = write(tmp_path, "a.fml", "p -> ((p -> q) -> q)")
    assert run(["prop", "--method", "cnf", path]) == 0
    assert capsys.readouterr().out.strip() == "Valid"
    assert run(["prop", "--method", "table", path]) == 0
    assert capsys.readouterr().out.strip() == "Valid"
    path2 = write(tmp_path, "b.fml", "p -> q")
    assert run(["prop", "--method", "table", path2]) == 0
    assert capsys.readouterr().out.startswith("Contingent")
    assert run(["prop", "--method", "cnf", path2]) == 0
    assert capsys.readouterr().out.strip() == "NotValid"


def test_spectrum_shape(tmp_path, capsys):
    text = """
    (ex x1. ex x2. x1 ~= x2)
    & ~( (ex x1. ex x2. ex x3. ex x4.
           (x1 ~= x2 & x1 ~= x3 & x1 ~= x4 & x2 ~= x3 & x2 ~= x4 & x3 ~= x4))
       & ~(ex x1. ex x2. ex x3. ex x4. ex x5.
           (x1 ~= x2 & x1 ~= x3 & x1 ~= x4 & x1 ~= x5 & x2 ~= x3
            & x2 ~= x4 & x2 ~= x5 & x3 ~= x4 & x3 ~= x5 & x4 ~= x5)) )
    """
    path = write(tmp_path, "shape.fml", text)
    assert run(["spectrum", path]) == 0
    assert capsys.readouterr().out.strip() == "{2,3} ∪ [5,∞)"


def test_equiv_command(tmp_path, capsys):
    f1 = write(tmp_path, "f1.fml",
               "ex R. ((all x. (~A(x) | R(x))) & (all x. (~R(x) | B(x))))")
    f2 = write(tmp_path, "f2.fml", "all x. (~A(x) | B(x))")
    assert run(["equiv", "--max-size", "4", f1, f2]) == 0
    assert capsys.readouterr().out.strip() == "equivalent up to size 4"
    f3 = write(tmp_path, "f3.fml", "ex x. A(x)")
    f4 = write(tmp_path, "f4.fml", "all x. A(x)")
    assert run(["equiv", "--max-size", "4", f3, f4]) == 0
    assert capsys.readouterr().out.startswith("differ on size=2")


def test_corpus_check(capsys):
    assert run(["corpus", "--count", "25", "--seed", "11", "--check"]) == 0
    captured = capsys.readouterr()
    assert "# agreement: 25/25" in captured.err
    assert len([l for l in captured.out.splitlines() if l.strip()]) == 25


def test_corpus_output_reparses(capsys):
    from mlogic.parser import parse
    assert run(["corpus", "--count", "10", "--seed", "3"]) == 0
    for line in capsys.readouterr().out.splitlines():
        if line.strip():
            parse(line)


def test_exit_code_usage_error(capsys):
    assert run(["decide"]) == 1
    assert run(["nonsense"]) == 1


def test_exit_code_parse_error(tmp_path, capsys):
    path = write(tmp_path, "bad.fml", "p & & q")
    assert run(["decide", path]) == 1
    assert "parse error" in capsys.readouterr().err


def test_exit_code_missing_file(capsys):
    assert run(["decide", "/nonexistent/path.fml"]) == 1


@pytest.mark.parametrize("make", [
    lambda tmp_path: str(tmp_path),
    lambda tmp_path: write_bytes(tmp_path, "latin.fml", b"\xff\xfe"),
])
def test_unreadable_input_is_a_usage_error(tmp_path, capsys, make):
    assert run(["decide", make(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("cannot read input: ")


def write_bytes(tmp_path, name, data):
    path = tmp_path / name
    path.write_bytes(data)
    return str(path)


@pytest.mark.parametrize("argv, flag", [
    (["equiv", "--max-size", "-1", "{f}", "{f}"], "--max-size"),
    (["equiv", "--max-size", "0", "{f}", "{f}"], "--max-size"),
    (["corpus", "--count", "2", "--seed", "1", "--max-size", "0"], "--max-size"),
    (["corpus", "--count", "-1", "--seed", "1"], "--count"),
    (["corpus", "--count", "0", "--seed", "1"], "--count"),
    (["decide", "--oracle-check", "-3", "{f}"], "--oracle-check"),
    (["decide", "--oracle-check", "two", "{f}"], "--oracle-check"),
])
def test_count_arguments_must_be_in_range(tmp_path, capsys, argv, flag):
    path = write(tmp_path, "t.fml", "true")
    assert run([arg.format(f=path) for arg in argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage error:") and flag in captured.err


def test_oracle_check_zero_is_off(tmp_path, capsys):
    path = write(tmp_path, "t.fml", "true")
    assert run(["decide", "--oracle-check", "0", path]) == 0
    assert capsys.readouterr().out.strip() == "Valid"


def test_exit_code_out_of_scope(tmp_path, capsys):
    path = write(tmp_path, "free.fml", "P(a)")
    assert run(["decide", path]) == 2
    path2 = write(tmp_path, "so.fml", "ex X. ex x. X(x)")
    assert run(["normalize", "--form", "ccnf", path2]) == 2
    assert run(["prop", "--method", "table", path2]) == 2
    path3 = write(tmp_path, "open.fml", "ex x. P(x)")
    assert run(["spectrum", path3]) == 2


def test_decide_trace_prints_the_eager_rendering(tmp_path, capsys, eager_trace):
    path = write(tmp_path, "barbara.fml", BARBARA)
    assert run(["decide", "--trace", path]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(eager_trace) > 2
    assert out == ["Valid"] + [f"  [{rule}] {text}" for rule, text in eager_trace]


def test_resource_limit_prints_the_eager_partial_trace(tmp_path, capsys, eager_trace):
    path = write(tmp_path, "g2.fml", "ex X. ex Y. ((ex a. ex b. (a ~= b & X(a) & Y(b)))"
                                     " & (ex c. ex d. (c ~= d & ~X(c) & ~Y(d))))")
    assert run(["decide", "--max-atoms", "2", path]) == 3
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("resource limit:") and eager_trace
    assert err[1:] == [f"  [{rule}] {text}" for rule, text in eager_trace]


def test_exit_code_resource_limit(tmp_path, capsys):
    letters = " & ".join(f"l{i}" for i in range(25))
    path = write(tmp_path, "many.fml", letters)
    assert run(["prop", "--method", "table", path]) == 3
    assert "resource limit" in capsys.readouterr().err


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO("p | ~p"))
    assert run(["prop", "--method", "cnf", "-"]) == 0
    assert capsys.readouterr().out.strip() == "Valid"


def test_budget_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MLOGIC_BUDGET_MS", "60000")
    path = write(tmp_path, "wp.fml", "ex X. ((ex x. X(x)) & (ex x. ~X(x)))")
    assert run(["decide", "--oracle-check", "3", path]) == 0


@pytest.mark.parametrize("flag", ["--max-atoms", "--max-letters", "--budget"])
@pytest.mark.parametrize("value", ["0", "-5", "abc"])
def test_cap_flags_must_be_positive_integers(tmp_path, capsys, flag, value):
    path = write(tmp_path, "wp.fml", "ex X. ((ex x. X(x)) & (ex x. ~X(x)))")
    assert run(["decide", flag, value, path]) == 1
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and flag in err


def test_small_conjunct_cap_is_applied(tmp_path, capsys):
    # Two witness disjuncts, neither implying the other: the X step's body
    # has two conjuncts after pruning, one more than the cap allows.
    path = write(tmp_path, "g2.fml", "ex X. ((ex x1. ex x2. (x1 ~= x2 & X(x1) & X(x2)))"
                                     " | (ex y1. ex y2. (y1 ~= y2 & ~X(y1) & ~X(y2))))")
    assert run(["decide", "--max-atoms", "1", path]) == 3
    assert "cap exceeded" in capsys.readouterr().err
    assert run(["decide", path]) == 0


@pytest.mark.parametrize("value", ["abc", "0", "-20"])
def test_bad_budget_env_is_a_usage_error(tmp_path, capsys, monkeypatch, value):
    monkeypatch.setenv("MLOGIC_BUDGET_MS", value)
    path = write(tmp_path, "wp.fml", "ex X. ((ex x. X(x)) & (ex x. ~X(x)))")
    assert run(["decide", "--oracle-check", "3", path]) == 1
    assert capsys.readouterr().err.startswith("usage error: MLOGIC_BUDGET_MS")


@pytest.mark.parametrize("text", [
    "~" * 1500 + "p",
    " & ".join(f"l{i}" for i in range(1500)),
    "(" * 600 + "p" + ")" * 600,
])
def test_deep_input_gets_a_verdict_or_a_resource_limit(tmp_path, capsys, text):
    path = write(tmp_path, "deep.fml", text)
    for argv in (["decide", path], ["prop", "--method", "table", path]):
        code = run(argv)
        err = capsys.readouterr().err
        assert code in (0, 3), argv
        if code == 3:
            assert err.startswith("resource limit:") and len(err.splitlines()) == 1


@pytest.mark.parametrize("depth, falsifying", [(1500, "false"), (1501, "true")])
def test_a_chain_of_negations_gets_a_truth_table_verdict(tmp_path, capsys, depth,
                                                         falsifying):
    # The truth table folds a chain of `~` to its parity.
    path = write(tmp_path, "nots.fml", "~" * depth + "p")
    assert run(["prop", "--method", "table", path]) == 0
    assert capsys.readouterr().out == f"Contingent (falsified by p={falsifying})\n"


def test_a_flat_chain_of_letters_gets_a_clause_form_and_an_oracle_check(tmp_path, capsys):
    # The clause form, the reflection of the resultant and the oracle's
    # search over the 1,500 letters nest no call per letter.
    letters = [f"p{i}" for i in range(3000)]
    assert run(["prop", "--method", "cnf", write(tmp_path, "flat.fml",
                                                 " & ".join(letters))]) == 0
    assert capsys.readouterr().out == "NotValid\n"
    text = " & ".join(letters[:1500])
    assert run(["decide", "--oracle-check", "2", write(tmp_path, "flat.fml", text)]) == 0
    assert capsys.readouterr().out == f"Resultant: {text}\n"


@pytest.mark.parametrize("op", ["&", "|"])
def test_a_flat_chain_of_3000_letters_decides(tmp_path, capsys, op):
    # The translation and the rendering walk the left spine of a chain of
    # one connective in a loop, not a call per letter.
    text = f" {op} ".join(f"p{i}" for i in range(3000))
    assert run(["decide", write(tmp_path, "flat.fml", text)]) == 0
    assert capsys.readouterr().out.strip() == "Resultant: " + text


@pytest.mark.parametrize("op", ["&", "|"])
@pytest.mark.parametrize("flag", ["--trace", "--json"])
def test_a_flat_chain_of_3000_letters_traces_and_renders_as_json(tmp_path, capsys, flag, op):
    # The trace's nnf step and its rendering walk the chain in a loop too.
    text = f" {op} ".join(f"p{i}" for i in range(3000))
    assert run(["decide", flag, write(tmp_path, "flat.fml", text)]) == 0
    out = capsys.readouterr().out
    if flag == "--trace":
        assert out.startswith("Resultant: " + text) and f"[nnf] {text}\n" in out
    else:
        data = json.loads(out)
        assert data["verdict"] == {"kind": "resultant", "resultant": text}
        assert {"rule": "nnf", "result": text} in data["trace"]


@pytest.mark.parametrize("command, out", [
    (["decide", "--oracle-check", "2"], "Valid"),
    (["equiv", "--max-size", "2"], "equivalent up to size 2"),
], ids=["decide", "equiv"])
@pytest.mark.parametrize("text", [
    " & ".join(["(ex x. x = x)"] * 3000),
    "ex X. all x. (~X(x) | " + " | ".join(["X(x)"] * 2999) + ")",
], ids=["and-of-quantifiers", "or-under-quantifiers"])
def test_the_oracle_checks_a_flat_chain_of_3000_operands(tmp_path, capsys, command, out, text):
    # The oracle lays out a chain of one connective in a loop and compiles
    # it to one closure over all its operands, in `&` and in bitmask `|`.
    path = write(tmp_path, "flat.fml", text)
    files = [path, path] if command[0] == "equiv" else [path]
    assert run(command + files) == 0
    assert capsys.readouterr().out.strip() == out


@pytest.mark.parametrize("command, out", [
    (["decide", "--oracle-check", "2"], None),
    (["equiv", "--max-size", "2"], "equivalent up to size 2"),
], ids=["decide", "equiv"])
@pytest.mark.parametrize("text, verdict", [
    ("~" * 1500 + "p", "Resultant: p"),
    ("ex x. " + "~" * 1500 + "(x = x)", "Valid"),
], ids=["letter", "under-a-quantifier"])
def test_the_oracle_checks_a_chain_of_1500_negations(tmp_path, capsys, command, out, text,
                                                     verdict):
    # The oracle skips a chain of `~` in a loop and compiles it to its parity.
    path = write(tmp_path, "deep.fml", text)
    files = [path, path] if command[0] == "equiv" else [path]
    assert run(command + files) == 0
    assert capsys.readouterr().out.strip() == (out or verdict)


@pytest.mark.parametrize("text, start", [
    (" & ".join(f"p{i}" for i in range(3000)), "p0 & p1 & p2 & "),
    ("ex x. (" + " & ".join(f"P{i}(x)" for i in range(3000)) + ")",
     "ex x. (P0(x) & P1(x) & P10(x) & "),
], ids=["letters", "one-block"])
def test_the_block_form_of_a_flat_chain_of_3000_operands(tmp_path, capsys, text, start):
    # The block form walks the counting tree, and checks its shape, in loops.
    assert run(["normalize", "--form", "blocks", write(tmp_path, "flat.fml", text)]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith(start) and out.count(" & ") == 2999


def test_deep_negations_render_in_the_trace_and_the_json(tmp_path, capsys):
    # The trace's nnf step folds the chain of negations without recursion.
    path = write(tmp_path, "deep.fml", "~" * 1500 + "p")
    assert run(["decide", "--trace", path]) == 0
    out = capsys.readouterr().out
    assert out.startswith("Resultant: p") and "[nnf] p" in out
    assert run(["decide", "--json", path]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == \
        {"kind": "resultant", "resultant": "p"}


# --- the README's examples ----------------------------------------------------------

FORMULAS = Path(__file__).resolve().parent.parent / "formulas"


@pytest.mark.parametrize("argv, out", [
    (["decide", "barbara.fml"], "Valid"),
    (["eliminate", "witness-pair.fml"], "#[] >= 2"),
    (["spectrum", "not-1-not-4.fml"], "{2,3} ∪ [5,∞)"),
    (["prop", "--method", "table", "assertion.fml"], "Valid"),
])
def test_readme_examples_give_the_stated_output(argv, out, capsys):
    assert run(argv[:-1] + [str(FORMULAS / argv[-1])]) == 0
    assert capsys.readouterr().out.strip() == out


def test_every_example_file_decides(capsys):
    paths = sorted(FORMULAS.glob("*.fml"))
    assert len(paths) == 6
    for path in paths:
        assert run(["decide", str(path)]) == 0, path.name
    capsys.readouterr()


def test_the_entry_point_runs_a_readme_command(monkeypatch, capsys):
    # pyproject.toml installs `mlogic` as mlogic.cli:main.
    from mlogic.cli import main
    monkeypatch.setattr("sys.argv", ["mlogic", "decide", str(FORMULAS / "barbara.fml")])
    with pytest.raises(SystemExit) as done:
        main()
    assert done.value.code == 0
    assert capsys.readouterr().out.strip() == "Valid"
