from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from mlogic.errors import ParseError, WellFormednessError
from mlogic.models import GeneratorParams, random_formula
from mlogic.parser import parse
from mlogic.syntax import (And, Equal, ExistsInd, ExistsPred, ForallInd,
                           ForallPred, FormulaClass, Iff, Implies, Not, Or,
                           PredApp, TruthConst, classify, format_formula,
                           free_symbols, is_predicate_name, survey, validate)

from conftest import subformulas


def test_parse_paper_example():
    f = parse("all X. all y. (X(y) | ~X(y))")
    assert f == ForallPred("X", ForallInd("y", Or(PredApp("X", "y"),
                                                  Not(PredApp("X", "y")))))


def test_parse_bare_letter():
    assert parse("p") == PredApp("p")


def test_parse_inequality_sugar():
    assert parse("ex x. ex y. x ~= y") == \
        ExistsInd("x", ExistsInd("y", Not(Equal("x", "y"))))


def test_parse_precedence():
    assert parse("p -> q -> r") == Implies(PredApp("p"),
                                           Implies(PredApp("q"), PredApp("r")))
    assert parse("p <-> q <-> r") == Iff(Iff(PredApp("p"), PredApp("q")), PredApp("r"))
    assert parse("p | q & r") == Or(PredApp("p"), And(PredApp("q"), PredApp("r")))
    assert parse("(p <-> q) -> r") == Implies(Iff(PredApp("p"), PredApp("q")),
                                              PredApp("r"))


def test_quantifier_scope_maximal():
    f = parse("all x. P(x) & Q(x)")
    assert f == ForallInd("x", And(PredApp("P", "x"), PredApp("Q", "x")))


def test_comments_and_whitespace():
    assert parse("# header\n p  # trailing\n & q") == And(PredApp("p"), PredApp("q"))


def test_parse_error_position():
    with pytest.raises(ParseError) as exc:
        parse("p &\n& q")
    assert exc.value.line == 2
    assert exc.value.col == 1
    assert exc.value.expected


def test_shadowing_rejected():
    with pytest.raises(WellFormednessError):
        parse("all x. ex x. P(x)")
    with pytest.raises(WellFormednessError):
        parse("all X. ex X. X(y)")


def test_sibling_binders_allowed():
    parse("(all x. P(x)) & (ex x. Q(x))")


def test_free_and_bound_mixing_rejected():
    with pytest.raises(WellFormednessError):
        parse("P(x) & all x. Q(x)")


def test_namespace_clash_rejected():
    with pytest.raises(WellFormednessError):
        parse("p & ex x. x = p")


def test_arity_clash_rejected():
    with pytest.raises(WellFormednessError):
        parse("P(x) & all y. (P | Q(y))")


def test_predicate_as_individual_rejected():
    with pytest.raises(ParseError):
        parse("P(Q)")
    with pytest.raises(ParseError):
        parse("X = y")


def test_print_basic():
    f = ForallInd("x", Or(Not(PredApp("A", "x")), PredApp("B", "x")))
    assert format_formula(f) == "all x. (~A(x) | B(x))"


def test_print_iff_in_implies():
    f = Implies(Iff(PredApp("p"), PredApp("q")), PredApp("r"))
    assert format_formula(f) == "(p <-> q) -> r"


def test_print_quantifier_needs_parens_on_left():
    f = And(ForallInd("x", PredApp("F", "x")), PredApp("p"))
    assert format_formula(f) == "(all x. F(x)) & p"
    # rightmost quantifier needs none
    g = Or(PredApp("P", "a"), ExistsPred("X", ExistsInd("y", PredApp("X", "y"))))
    assert format_formula(g) == "P(a) | ex X. ex y. X(y)"


def test_roundtrip_barbara(barbara):
    assert parse(format_formula(barbara)) == barbara


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_roundtrip_random(seed):
    f = random_formula(GeneratorParams(seed=seed))
    assert parse(format_formula(f)) == f


def test_classify_examples():
    assert classify(parse("p -> ((p -> q) -> q)")) is FormulaClass.PROPOSITIONAL
    assert classify(parse("all x. (~A(x) | B(x))")) is FormulaClass.DOMAIN_A
    assert classify(parse("ex x. ex y. x ~= y")) is FormulaClass.DOMAIN_A_STAR
    assert classify(parse("ex X. ex y. X(y)")) is FormulaClass.DOMAIN_B
    assert classify(parse("ex X. (ex y. X(y)) & (ex y. (~X(y) & y ~= y))")) \
        is FormulaClass.DOMAIN_B_STAR


# The features each class allows: individual quantifiers, identity and
# predicate quantifiers.  One class lies below another when its features do.
FEATURES = {
    FormulaClass.PROPOSITIONAL: frozenset(),
    FormulaClass.DOMAIN_A: frozenset({"fo"}),
    FormulaClass.DOMAIN_A_STAR: frozenset({"fo", "id"}),
    FormulaClass.DOMAIN_B: frozenset({"fo", "so"}),
    FormulaClass.DOMAIN_B_STAR: frozenset({"fo", "id", "so"}),
}


def test_classify_lattice():
    # Each class is the smallest of a formula that uses exactly its features.
    for text, features in [("p", set()), ("all x. A(x)", {"fo"}),
                           ("ex x. ex y. x ~= y", {"fo", "id"}),
                           ("ex X. ex y. X(y)", {"fo", "so"}),
                           ("ex X. ex y. (X(y) & y = y)", {"fo", "id", "so"})]:
        assert FEATURES[classify(parse(text))] == features


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 10**9))
def test_classify_monotone_under_subformulas(seed):
    f = random_formula(GeneratorParams(seed=seed))
    top = FEATURES[classify(f)]
    for sub in subformulas(f):
        assert FEATURES[classify(sub)] <= top


def test_free_symbols_examples(barbara):
    assert free_symbols(barbara) == (frozenset(), frozenset())
    assert free_symbols(parse("A(a)")) == (frozenset({"A"}), frozenset({"a"}))
    assert free_symbols(parse("ex X. (A(x) & X(x))")) == \
        (frozenset({"A"}), frozenset({"x"}))


def test_validate_accepts_generated():
    for seed in range(100):
        validate(random_formula(GeneratorParams(seed=seed)))


def test_survey_answers_for_an_ill_formed_formula():
    # X1 is unary on one side of <-> and a letter on the other: survey
    # reports without raising, and validate raises afterwards.
    f = Iff(parse("ex X1. ((all x1. x1 = x1) <-> all x2. X1(x2))"),
            parse("ex X1. all x1. (A(x1) | X1)"))
    assert survey(f) == (FormulaClass.DOMAIN_B_STAR, frozenset({"A"}), frozenset())
    with pytest.raises(WellFormednessError) as exc:
        validate(f)
    assert str(exc.value) == "predicate 'X1' used both as a letter and applied to a term"


# The two walks the one walk replaced: the survey, and the well-formedness
# check raising its first fault.
def ref_survey(f):
    preds, inds, has_id, has_so, has_fo = set(), set(), False, False, False
    stack = [(f, frozenset())]
    while stack:
        g, bound = stack.pop()
        if isinstance(g, PredApp):
            preds |= {g.name} - bound
            if g.arg is not None:
                has_fo = True
                inds |= {g.arg} - bound
        elif isinstance(g, Equal):
            has_id = True
            inds |= {g.left, g.right} - bound
        elif isinstance(g, (ForallInd, ExistsInd, ForallPred, ExistsPred)):
            has_fo = True
            has_so = has_so or isinstance(g, (ForallPred, ExistsPred))
            stack.append((g.body, bound | {g.var}))
        elif isinstance(g, Not):
            stack.append((g.body, bound))
        elif isinstance(g, (And, Or, Implies, Iff)):
            stack += [(g.left, bound), (g.right, bound)]
    if has_so:
        cls = FormulaClass.DOMAIN_B_STAR if has_id else FormulaClass.DOMAIN_B
    elif has_id:
        cls = FormulaClass.DOMAIN_A_STAR
    else:
        cls = FormulaClass.DOMAIN_A if has_fo else FormulaClass.PROPOSITIONAL
    return cls, frozenset(preds), frozenset(inds)


def ref_fault(f):
    roles, bound_names, free_names = {}, set(), set()

    def note(name, role):
        prev = roles.setdefault(name, role)
        if prev != role:
            if {prev, role} == {"pred0", "pred1"}:
                raise WellFormednessError(
                    f"predicate {name!r} used both as a letter and applied to a term")
            raise WellFormednessError(f"name {name!r} used both as predicate and individual")

    def visit(g, scope):
        if isinstance(g, PredApp):
            note(g.name, "pred0" if g.arg is None else "pred1")
            (bound_names if g.name in scope else free_names).add(g.name)
            if g.arg is not None:
                note(g.arg, "ind")
                (bound_names if g.arg in scope else free_names).add(g.arg)
        elif isinstance(g, Equal):
            for t in (g.left, g.right):
                note(t, "ind")
                (bound_names if t in scope else free_names).add(t)
        elif isinstance(g, (ForallInd, ExistsInd, ForallPred, ExistsPred)):
            if g.var in scope:
                raise WellFormednessError(f"binder for {g.var!r} shadows an enclosing binder")
            if isinstance(g, (ForallInd, ExistsInd)):
                note(g.var, "ind")
            bound_names.add(g.var)
            visit(g.body, scope | {g.var})
        elif isinstance(g, Not):
            visit(g.body, scope)
        elif isinstance(g, (And, Or, Implies, Iff)):
            visit(g.left, scope)
            visit(g.right, scope)

    try:
        visit(f, frozenset())
        mixed = bound_names & free_names
        if mixed:
            raise WellFormednessError(
                f"name {sorted(mixed)[0]!r} occurs both bound and outside its binder")
        for name, role in roles.items():
            if is_predicate_name(name) and role == "ind":
                raise WellFormednessError(f"uppercase name {name!r} used as an individual")
            if not is_predicate_name(name) and role == "pred1":
                raise WellFormednessError(f"lowercase name {name!r} applied to a term")
    except WellFormednessError as exc:
        return str(exc)
    return None


# Few names in every role, so that most formulas break some rule.
NAMES = st.sampled_from(["P", "X", "p", "x", "y"])
loose_formulas = st.recursive(
    st.one_of(st.builds(PredApp, NAMES, st.one_of(st.none(), NAMES)),
              st.builds(Equal, NAMES, NAMES), st.booleans().map(TruthConst)),
    lambda sub: st.one_of(
        sub.map(Not),
        *[st.builds(kind, sub, sub) for kind in (And, Or, Implies, Iff)],
        *[st.builds(kind, NAMES, sub)
          for kind in (ForallInd, ExistsInd, ForallPred, ExistsPred)]),
    max_leaves=8)


@settings(max_examples=1000, deadline=None)
@given(f=loose_formulas)
def test_one_walk_gives_what_the_survey_and_the_check_gave(f):
    assert survey(f) == ref_survey(f)
    try:
        validate(f)
        fault = None
    except WellFormednessError as exc:
        fault = str(exc)
    assert fault == ref_fault(f)


# --- parse errors, pinned ---------------------------------------------------------

OPERAND = ("'~'", "'all'", "'ex'", "'('", "identifier", "'true'", "'false'")
AT_OPERAND = " (expected '~' or 'all' or 'ex' or '(' or identifier or 'true' or 'false')"

# (text, str(ParseError), line, col, expected), as the recursive-descent
# parser with the character-by-character tokenizer reported them.
PINNED_PARSE_ERRORS = [
    ("p & ²", "1:5: unexpected character '²'", 1, 5, ()),
    ("p²q & ²", "1:7: unexpected character '²'", 1, 7, ()),
    ("p $ q", "1:3: unexpected character '$'", 1, 3, ()),
    ("1p", "1:1: unexpected character '1'", 1, 1, ()),
    ("_x", "1:1: unexpected character '_'", 1, 1, ()),
    ("p & \U0001F600", "1:5: unexpected character '\U0001F600'", 1, 5, ()),
    ("p q ²", "1:5: unexpected character '²'", 1, 5, ()),
    ("p <- q", "1:3: unexpected character '<'", 1, 3, ()),
    ("(p & q", "1:7: unexpected 'end of input' (expected ')')", 1, 7, ("')'",)),
    ("(p q)", "1:4: unexpected 'q' (expected ')')", 1, 4, ("')'",)),
    ("all x. (P(x) & q", "1:17: unexpected 'end of input' (expected ')')", 1, 17,
     ("')'",)),
    ("P(x", "1:4: unexpected 'end of input' (expected ')')", 1, 4, ("')'",)),
    ("all x P(x)", "1:7: unexpected 'P' (expected '.')", 1, 7, ("'.'",)),
    ("all . P(x)", "1:5: unexpected '.' (expected identifier)", 1, 5, ("identifier",)),
    ("ex all. p", "1:4: unexpected 'all' (expected identifier)", 1, 4, ("identifier",)),
    ("x(y)", "1:1: individual name 'x' applied like a predicate", 1, 1, ()),
    ("P(Q)", "1:3: predicate 'Q' used as individual", 1, 3, ()),
    ("P = x", "1:1: predicate 'P' used as individual", 1, 1, ()),
    ("x = Y", "1:5: predicate 'Y' used as individual", 1, 5, ()),
    ("P ~= x", "1:1: predicate 'P' used as individual", 1, 1, ()),
    ("x ~= Q", "1:6: predicate 'Q' used as individual", 1, 6, ()),
    ("x = ", "1:5: unexpected 'end of input' (expected individual name)", 1, 5,
     ("individual name",)),
    ("p q", "1:3: unexpected 'q' after formula", 1, 3, ()),
    ("P(x) = y", "1:6: unexpected '=' after formula", 1, 6, ()),
    ("p & )", "1:5: unexpected ')'" + AT_OPERAND, 1, 5, OPERAND),
    # At the end of input after a trailing comment, the column is the end of the text.
    ("p & # comment", "1:14: unexpected 'end of input'" + AT_OPERAND, 1, 14, OPERAND),
    ("p &\n# comment", "2:10: unexpected 'end of input'" + AT_OPERAND, 2, 10, OPERAND),
    ("# only a comment", "1:17: unexpected 'end of input'" + AT_OPERAND, 1, 17, OPERAND),
    ("\tp\t&\t\t", "1:7: unexpected 'end of input'" + AT_OPERAND, 1, 7, OPERAND),
    ("p &\r\n& q", "2:1: unexpected '&'" + AT_OPERAND, 2, 1, OPERAND),
    ("(p |\r\n q\r\n", "3:1: unexpected 'end of input' (expected ')')", 3, 1, ("')'",)),
    ("p & # c\r\n", "2:1: unexpected 'end of input'" + AT_OPERAND, 2, 1, OPERAND),
    ("", "1:1: unexpected 'end of input'" + AT_OPERAND, 1, 1, OPERAND),
    ("~", "1:2: unexpected 'end of input'" + AT_OPERAND, 1, 2, OPERAND),
]


@pytest.mark.parametrize("text, message, line, col, expected", PINNED_PARSE_ERRORS)
def test_parse_error_is_pinned(text, message, line, col, expected):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert str(exc.value) == message
    assert (exc.value.line, exc.value.col, exc.value.expected) == (line, col, expected)


@pytest.mark.parametrize("text, message", [
    ("all x. ex x. P(x)", "binder for 'x' shadows an enclosing binder"),
    ("P(x) & all x. Q(x)", "name 'x' occurs both bound and outside its binder"),
    ("p & ex x. x = p", "name 'p' used both as predicate and individual"),
    ("P(x) & all y. (P | Q(y))",
     "predicate 'P' used both as a letter and applied to a term"),
    # With two faults, the leftmost is reported.
    ("(all y. ex y. Q(y)) | (p & ex x. x = p)", "binder for 'y' shadows an enclosing binder"),
    ("(p & ex x. x = p) | (all y. ex y. Q(y))",
     "name 'p' used both as predicate and individual"),
])
def test_well_formedness_error_is_pinned(text, message):
    with pytest.raises(WellFormednessError) as exc:
        parse(text)
    assert str(exc.value) == message


# --- deep input -------------------------------------------------------------------

def test_deep_input_parses_without_recursion():
    # Walk the trees by hand: dataclass equality on them would recurse.
    f = parse("~" * 1500 + "p")
    for _ in range(1500):
        assert isinstance(f, Not)
        f = f.body
    assert f == PredApp("p")
    f = parse(" & ".join(f"l{i}" for i in range(1500)))
    rights = []
    while isinstance(f, And):
        rights.append(f.right)
        f = f.left
    assert [f] + rights[::-1] == [PredApp(f"l{i}") for i in range(1500)]
    assert parse("(" * 600 + "p" + ")" * 600) == PredApp("p")



def test_subformulas_walk_deep_trees_in_pre_order():
    f = parse("(P(a) & ~Q(b)) | ex x. (R(x) -> all X. X(x))")
    assert [format_formula(g) for g in subformulas(f)] == [
        format_formula(f), "P(a) & ~Q(b)", "P(a)", "~Q(b)", "Q(b)",
        "ex x. (R(x) -> all X. X(x))", "R(x) -> all X. X(x)", "R(x)", "all X. X(x)", "X(x)"]
    chain = parse(" | ".join(f"l{i}" for i in range(1500)))
    assert [g for g in subformulas(chain) if isinstance(g, PredApp)] == \
        [PredApp(f"l{i}") for i in range(1500)]

# --- differential test against the recursive-descent parser ----------------------

@dataclass(frozen=True)
class RefToken:
    kind: str  # "ident", "keyword", one of REF_SYMBOLS, or "eof"
    text: str
    line: int
    col: int


REF_KEYWORDS = {"all", "ex", "true", "false"}
REF_SYMBOLS = ("<->", "->", "~=", "(", ")", ".", "~", "&", "|", "=")


def ref_tokenize(text: str) -> list[RefToken]:
    """Reference: the character-by-character tokenizer the parser replaced,
    with the column advanced through a comment, so that the end of input
    after a trailing comment is at the end of the text."""
    tokens: list[RefToken] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch.isspace():
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
                col += 1
            continue
        for sym in REF_SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(RefToken(sym, sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            if ch.isalpha():
                j = i
                while j < n and (text[j].isalnum() or text[j] == "_"):
                    j += 1
                word = text[i:j]
                kind = "keyword" if word in REF_KEYWORDS else "ident"
                tokens.append(RefToken(kind, word, line, col))
                col += j - i
                i = j
            else:
                raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(RefToken("eof", "", line, col))
    return tokens


class RefParser:
    """Reference: the five-level recursive descent the parser replaced."""

    def __init__(self, tokens: list[RefToken]):
        self.tokens = tokens
        self.pos = 0

    def peek(self) -> RefToken:
        return self.tokens[self.pos]

    def advance(self) -> RefToken:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, expected: tuple[str, ...]) -> RefToken:
        tok = self.peek()
        if tok.kind != kind:
            got = tok.text or "end of input"
            raise ParseError(f"unexpected {got!r}", tok.line, tok.col, expected)
        return self.advance()

    def fail(self, expected: tuple[str, ...]):
        tok = self.peek()
        got = tok.text or "end of input"
        raise ParseError(f"unexpected {got!r}", tok.line, tok.col, expected)

    def formula(self):
        out = self.imp()
        while self.peek().kind == "<->":
            self.advance()
            out = Iff(out, self.imp())
        return out

    def imp(self):
        left = self.disjunction()
        if self.peek().kind == "->":
            self.advance()
            return Implies(left, self.imp())
        return left

    def disjunction(self):
        out = self.conjunction()
        while self.peek().kind == "|":
            self.advance()
            out = Or(out, self.conjunction())
        return out

    def conjunction(self):
        out = self.unary()
        while self.peek().kind == "&":
            self.advance()
            out = And(out, self.unary())
        return out

    def unary(self):
        tok = self.peek()
        if tok.kind == "~":
            self.advance()
            return Not(self.unary())
        if tok.kind == "keyword" and tok.text in ("all", "ex"):
            return self.quantified()
        if tok.kind == "(":
            self.advance()
            out = self.formula()
            self.expect(")", ("')'",))
            return out
        if tok.kind == "keyword" and tok.text in ("true", "false"):
            self.advance()
            return TruthConst(tok.text == "true")
        if tok.kind == "ident":
            return self.atom()
        self.fail(("'~'", "'all'", "'ex'", "'('", "identifier", "'true'", "'false'"))

    def quantified(self):
        kw = self.advance()
        name = self.expect("ident", ("identifier",))
        self.expect(".", ("'.'",))
        body = self.formula()  # maximal scope
        if is_predicate_name(name.text):
            return (ForallPred if kw.text == "all" else ExistsPred)(name.text, body)
        return (ForallInd if kw.text == "all" else ExistsInd)(name.text, body)

    def atom(self):
        name = self.advance()
        nxt = self.peek()
        if nxt.kind == "(":
            if not is_predicate_name(name.text):
                raise ParseError(
                    f"individual name {name.text!r} applied like a predicate",
                    name.line, name.col)
            self.advance()
            arg = self.expect("ident", ("individual name",))
            if is_predicate_name(arg.text):
                raise ParseError(
                    f"predicate {arg.text!r} used as individual", arg.line, arg.col)
            self.expect(")", ("')'",))
            return PredApp(name.text, arg.text)
        if nxt.kind in ("=", "~="):
            if is_predicate_name(name.text):
                raise ParseError(
                    f"predicate {name.text!r} used as individual", name.line, name.col)
            self.advance()
            other = self.expect("ident", ("individual name",))
            if is_predicate_name(other.text):
                raise ParseError(
                    f"predicate {other.text!r} used as individual", other.line, other.col)
            eq = Equal(name.text, other.text)
            return Not(eq) if nxt.kind == "~=" else eq
        return PredApp(name.text)


def ref_parse(text: str):
    parser = RefParser(ref_tokenize(text))
    f = parser.formula()
    tok = parser.peek()
    if tok.kind != "eof":
        raise ParseError(f"unexpected {tok.text!r} after formula", tok.line, tok.col)
    return validate(f)


def outcome(parse_fn, text: str):
    """The tree, or the error's class, message, position and expected tokens."""
    try:
        return parse_fn(text)
    except ParseError as exc:
        return (ParseError, str(exc), exc.line, exc.col, exc.expected)
    except WellFormednessError as exc:
        return (WellFormednessError, str(exc))


# Whole atoms and binders, so that some soups parse, single tokens, layout
# and comments, letters beyond ASCII, and characters no token may start with.
SOUP = ["p", "q", "P", "x", "X", "a1", "P(x)", "Q(y)", "X(x)", "x = y", "x ~= y",
        "all x.", "ex y.", "all X.", "ex Y.", "all", "ex", "true", "false",
        "(", ")", ".", "~", "&", "|", "->", "<->", "=", "~=",
        "# c\n", "#", "\n", "\t", "\r", "é", "Ω(x)", "ǅ", "²", "1", "_", "$", "<"]


@settings(max_examples=600, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(SOUP), st.sampled_from(["", " "])),
                max_size=24))
def test_parse_matches_reference_on_token_soup(parts):
    text = "".join(tok + sep for tok, sep in parts)
    assert outcome(parse, text) == outcome(ref_parse, text)


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 10**9), cut=st.integers(0, 10**4))
def test_parse_matches_reference_on_generated_sentences(seed, cut):
    text = format_formula(random_formula(GeneratorParams(seed=seed)))
    assert outcome(parse, text) == outcome(ref_parse, text)
    damaged = text[:cut % (len(text) + 1)] + text[cut % (len(text) + 1) + 1:]
    assert outcome(parse, damaged) == outcome(ref_parse, damaged)
