"""Per-layer tracing of mlogic from outside the package.

`Tracer.installed` replaces each function in `WRAPPED` by a wrapper that
records a span (name, start, end, parent) and counts taken from its
arguments and return value.  A function bound under several names (for
example `counting_dnf`, imported by `elimination` from `normal`, or
`decide`, re-exported by the package) is replaced under every name in every
loaded mlogic module, and restored on exit.  The traced run also swaps a
counting `Budget` subclass into `mlogic.models` to count the oracle's
evaluation steps.

Self time is a span's duration minus the time covered by its child spans.
Counting done by the tracer runs as a span of its own, so it is charged to
no layer.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager

# Layer (module of src/mlogic) -> public functions wrapped in that layer.
WRAPPED = {
    "parser": ("parse",),
    "syntax": ("validate", "classify", "free_symbols"),
    "prop": ("truth_table_decide", "to_clause_form", "clause_form_decide"),
    "normal": ("to_nnf", "translate_to_counting", "counting_dnf", "dnf_rebuild",
               "refine_counting"),
    "elimination": ("eliminate_all", "eliminate_exists_pred", "eliminate_counting",
                    "Trace.record"),
    "decide": ("decide", "spectrum_of"),
    "models": ("find_countermodel", "spectrum_bruteforce", "equiv_check"),
}

# Span name of the tracer's own counting work.
COUNTING_SPAN = "tracer.counts"


def _count_atoms(cf, normal) -> int:
    """Count atoms of a counting tree, without recursion so that tracing
    never adds a RecursionError of its own."""
    count, stack = 0, [cf]
    while stack:
        g = stack.pop()
        if isinstance(g, normal.CountAtom):
            count += 1
        elif isinstance(g, normal.CNot):
            stack.append(g.body)
        elif isinstance(g, (normal.CAnd, normal.COr)):
            stack += (g.left, g.right)
    return count


def mlogic_modules() -> dict:
    return {name: mod for name, mod in sys.modules.items()
            if name == "mlogic" or name.startswith("mlogic.")}


class Tracer:
    """Spans and counts of the wrapped calls, kept in memory."""

    def __init__(self, mods):
        self.mods = mods
        self.spans: list = []      # (name, start, end, parent index or None)
        self.self_s: Counter = Counter()   # span name -> self time, seconds
        self.counts: Counter = Counter()   # counts, sums and maxima by name
        self._stack: list[int] = []
        self._escaped: list[BaseException] = []
        self._budgets: list = []           # (budget, ops it started with)

    # -- recording ------------------------------------------------------------

    def _wrap(self, name: str, fn, counter):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counts, calls = self.counts, f"{name}.calls"

        def traced(*args, **kwargs):
            counts[calls] += 1
            parent = stack[-1] if stack else None
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
                self._failed(name, exc)
                raise
            spans[index] = (name, start, clock(), parent)
            stack.pop()
            if counter is not None:
                begin = clock()
                counter(args, kwargs, result)
                spans.append((COUNTING_SPAN, begin, clock(), parent))
            return result

        return functools.update_wrapper(traced, fn)

    def _failed(self, name: str, exc: BaseException) -> None:
        """Count an exception once, at the innermost wrapped function it
        escaped from."""
        if any(seen is exc for seen in self._escaped):
            return
        self._escaped.append(exc)
        self.counts[f"{name}.failed.{type(exc).__name__}"] += 1

    def _counters(self) -> dict:
        normal = self.mods["normal"]
        counts = self.counts

        def raise_to(name: str, value: int) -> None:
            counts[name] = max(counts[name], value)

        def dnf(args, kwargs, result):
            counts["normal.counting_dnf.conjuncts_out"] += len(result)
            raise_to("normal.counting_dnf.conjuncts_out_max", len(result))

        def refine(args, kwargs, result):
            signature = args[1] if len(args) > 1 else kwargs["signature"]
            raise_to("normal.refine_counting.signature_max", len(set(signature)))
            counts["normal.refine_counting.atoms_out"] += _count_atoms(result, normal)

        def counting(args, kwargs, result):
            if result == normal.C_FALSE:
                counts["elimination.eliminate_counting.false"] += 1

        def clauses(args, kwargs, result):
            if result.clauses is not None:
                counts["prop.to_clause_form.clauses_out"] += len(result.clauses)

        return {"normal.counting_dnf": dnf, "normal.refine_counting": refine,
                "elimination.eliminate_counting": counting,
                "prop.to_clause_form": clauses}

    def instance_done(self) -> None:
        """Close an instance: fold its spans into the self times and drop
        them, and forget the exceptions it raised."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        for index, (name, start, end, parent) in enumerate(self.spans):
            self.self_s[name] += end - start - covered[index]
        self.spans.clear()
        self._escaped.clear()
        self.counts["models.eval_ops"] += sum(ops - budget.remaining
                                              for budget, ops in self._budgets)
        self._budgets.clear()

    # -- patching -------------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every function in WRAPPED under every name that binds it,
        and count the oracle's budget ticks, for the duration of the block."""
        counters = self._counters()
        wrappers: dict[int, object] = {}
        patches: list[tuple[object, str, object]] = []
        for layer, names in WRAPPED.items():
            mod = self.mods[layer]
            for qualname in names:
                owner, _, attr = qualname.rpartition(".")
                holder = getattr(mod, owner) if owner else mod
                fn = vars(holder)[attr]
                name = f"{layer}.{qualname}"
                wrapper = self._wrap(name, fn, counters.get(name))
                if owner:
                    patches.append((holder, attr, fn))
                    setattr(holder, attr, wrapper)
                else:
                    wrappers[id(fn)] = (fn, wrapper)
        for mod in mlogic_modules().values():
            for attr, value in list(vars(mod).items()):
                entry = wrappers.get(id(value))
                if entry is not None and entry[0] is value:
                    patches.append((mod, attr, value))
                    setattr(mod, attr, entry[1])
        models = self.mods["models"]
        patches.append((models, "Budget", models.Budget))
        models.Budget = self._counting_budget(models.Budget)
        try:
            yield self
        finally:
            for holder, attr, value in reversed(patches):
                setattr(holder, attr, value)

    def _counting_budget(self, base):
        """A Budget that registers itself, so that the steps it was charged
        are read off its `remaining` when the instance ends."""
        budgets = self._budgets

        class CountingBudget(base):
            def __init__(self, ops: int, ms: int | None = None):
                super().__init__(ops, ms)
                budgets.append((self, ops))

        return CountingBudget

    def reset(self) -> None:
        self.spans.clear()
        self.self_s.clear()
        self.counts.clear()
        self._escaped.clear()
        self._budgets.clear()
