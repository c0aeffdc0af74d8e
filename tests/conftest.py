import pytest

from mlogic.elimination import Trace
from mlogic.normal import CAnd, CNot, COr
from mlogic.parser import parse
from mlogic.syntax import children


def subformulas(f):
    """Pre-order traversal, including f itself; the walk keeps its own
    stack, so deep trees need no recursion."""
    stack = [f]
    while stack:
        g = stack.pop()
        yield g
        stack += children(g)[::-1]


def counting_leaves(cf):
    """The leaves of a counting tree from left to right, one per
    occurrence: a leaf shared by both sides of `<->` comes once for each
    side.  The walk keeps its own stack, so deep trees need no recursion."""
    stack = [cf]
    while stack:
        g = stack.pop()
        kind = type(g)
        if kind is CAnd or kind is COr:
            stack += (g.right, g.left)
        elif kind is CNot:
            stack.append(g.body)
        else:
            yield g


@pytest.fixture
def barbara():
    return parse(
        "all P. all Q. all R. ((all x. (~P(x) | Q(x))) & (all x. (~Q(x) | R(x)))"
        " -> all x. (~P(x) | R(x)))")


def _separation_two(m: int) -> str:
    """Named members of P \\ Q lie in some X with X <= P and X disjoint
    from Q; valid.  X stays in count atoms, so the X step places names."""
    names = [f"a{i}" for i in range(1, m + 1)]
    quants = " ".join(f"all {a}." for a in names)
    given = " & ".join(f"P({a}) & ~Q({a})" for a in names)
    inside = " & ".join(["(all x. (~X(x) | P(x)))", "(all x. (~X(x) | ~Q(x)))"]
                        + [f"X({a})" for a in names])
    return f"all P. all Q. {quants} (({given}) -> ex X. ({inside}))"


@pytest.fixture
def separation_two():
    return _separation_two


@pytest.fixture
def eager_trace(monkeypatch):
    """The (rule, rendering) steps of the runs that follow, each result
    rendered with str() at the moment it is recorded."""
    rendered = []
    record = Trace.record

    def eager_record(self, rule, result):
        rendered.append((rule, str(result)))
        record(self, rule, result)

    monkeypatch.setattr(Trace, "record", eager_record)
    return rendered
