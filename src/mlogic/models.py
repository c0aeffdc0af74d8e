"""Independent semantics: explicit finite models, countermodel search,
brute-force spectra, equivalence checking, and a seeded formula generator.

This module deliberately knows nothing about the rewrite engine.  It makes
two reductions.  The first is the symmetry of the semantics: a formula
cannot tell apart two elements that lie in the same cell of the symbols in
scope (the same Venn cell of the unary predicates, and neither named by an
individual), so permuting them preserves truth.  Predicate quantifiers, and
the free symbols of a countermodel or equivalence search, therefore range
over one subset per vector of cell counts -- the j lowest elements of each
cell c, j = 0..|c| -- which is prod(|c|+1) subsets instead of 2^n.  The
second is settled branches: a search assigns the free symbols one at a
time, and once those assigned make the formula true in Kleene's strong
three-valued logic (the quantifiers and atoms that mention a symbol not
yet assigned read as unknown), no extension of the branch can falsify it,
so the branch is skipped.  Everything here is still exhaustive and only
usable at desk scale; the Budget guard, which charges one step per
representative, turns runaway searches into ResourceLimitError.

Internally a formula is compiled once per call into closures over a slot
array whose first slots hold the domain (its full mask, its size and, when
needed, the representatives of the whole domain), so one compilation
serves every size.  Predicate extensions are bitmasks; a chain of `&` or
of `|` is one closure over all its operands; a quantifier whose body is
quantifier-free and mentions no individual variable but its own is
evaluated bit-parallel.  A search evaluates one three-valued closure at
every level; its value at the last free symbol is the truth value, and
each leaf of it is evaluated at most once while the symbols it mentions
keep their values.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from .errors import EvaluationError
from .limits import DEFAULT_LIMITS, Budget, Limits
from .syntax import (And, Equal, ExistsInd, ExistsPred, ForallInd, ForallPred,
                     Formula, Iff, Implies, Not, Or, PredApp, TruthConst,
                     conj, operands)


@dataclass(frozen=True)
class FiniteModel:
    """Domain {0..size-1} with extensions for every free symbol in play.

    `preds` maps unary predicate names to subsets, `props` maps nullary
    letters to truth values, `individuals` maps free individual names to
    elements.  Subsets are kept sorted so witnesses print deterministically.
    """

    size: int
    preds: tuple[tuple[str, frozenset[int]], ...] = ()
    props: tuple[tuple[str, bool], ...] = ()
    individuals: tuple[tuple[str, int], ...] = ()

    @classmethod
    def build(cls, size, preds=None, props=None, individuals=None) -> "FiniteModel":
        return cls(
            size,
            tuple(sorted((k, frozenset(v)) for k, v in (preds or {}).items())),
            tuple(sorted((props or {}).items())),
            tuple(sorted((individuals or {}).items())),
        )

    def pred(self, name: str) -> frozenset[int] | None:
        for k, v in self.preds:
            if k == name:
                return v
        return None

    def prop(self, name: str) -> bool | None:
        for k, v in self.props:
            if k == name:
                return v
        return None

    def individual(self, name: str) -> int | None:
        for k, v in self.individuals:
            if k == name:
                return v
        return None

    def __str__(self) -> str:
        parts = [f"size={self.size}"]
        for name, ext in self.preds:
            parts.append(f"{name}={{{','.join(str(e) for e in sorted(ext))}}}")
        for name, val in self.props:
            parts.append(f"{name}={'true' if val else 'false'}")
        for name, elem in self.individuals:
            parts.append(f"{name}={elem}")
        return "; ".join(parts)


# --- compiled evaluation ------------------------------------------------------

_CONNECTIVES = (And, Or, Implies, Iff)
_QUANTIFIERS = (ForallInd, ExistsInd, ForallPred, ExistsPred)

# The first slots of an env hold the domain: full mask, size, and the
# representatives of the whole domain (None unless the formula uses them).
_FULL, _SIZE, _REPS = range(3)


class _Layout:
    """Slot array layout of a formula, shared by its compilation and every
    env of one call.

    Each free symbol and each quantifier gets a slot of its own, so a name
    that one side of an equivalence check leaves free and the other binds,
    or binds at another arity, is never confused; a free name used at two
    arities has no interpretation and raises EvaluationError.  `free` holds
    the free unary predicates, nullary letters and individuals, each sorted
    by name, and `slot` maps them to their slots.  `binder` maps each
    quantifier, by id, to its slot; for a predicate quantifier also to the
    arity of its variable and to the unary predicates and individuals free
    in its body, the symbols whose values cut the domain into the cells its
    representatives are drawn from; `whole` tells whether some unary one
    has none of them, and so draws its representatives from the whole domain.

    The skeleton is the part of f reached from the root only through `~`,
    `&`, `|`, `->` and `<->`.  `skeleton` maps each of its nodes, by id,
    to its free symbols.  The free symbols take consecutive slots in `free`
    order, the order in which a search assigns them, so the level of a
    node, the slot of the last free symbol it mentions, tells from which
    point of the search on its value is known; `last` is the level of the
    root.  `cached` maps a level to the slots that hold the values of the
    compiled skeleton's leaves at that level, which a search clears when it
    assigns that level's symbol.
    """

    def __init__(self, f: Formula):
        self.width, self.whole = _REPS + 1, False
        self.binder: dict[int, tuple[int, int, list[str], list[str]]] = {}
        self.skeleton: dict[int, tuple[dict[str, int], set[str]]] = {}
        self.cached: dict[int, list[int]] = {}
        preds, inds = self._walk(f, True)
        self.free = (sorted(p for p, a in preds.items() if a),
                     sorted(p for p, a in preds.items() if not a),
                     sorted(inds))
        self.slot = {name: self._new_slot() for names in self.free for name in names}
        self.last = max(self.slot.values(), default=-1)

    def level(self, node: Formula) -> int:
        """The slot of the last free symbol a node of the skeleton mentions,
        -1 if it mentions none."""
        preds, inds = self.skeleton[id(node)]
        return max(map(self.slot.__getitem__, [*preds, *inds]), default=-1)

    def _new_slot(self) -> int:
        self.width += 1
        return self.width - 1

    def _walk(self, g: Formula, top: bool = False) -> tuple[dict[str, int], set[str]]:
        """Give the quantifiers in g their slots; return the predicates free
        in g, each with its arity, and the individuals free in g.  A chain
        of `~` is skipped in a loop: it binds nothing.  `top` tells whether
        g is reached from the root through connectives only, so that it is
        a node of the skeleton, whose free symbols are kept."""
        kind = type(g)
        while kind is Not:
            g = g.body
            kind = type(g)
        if kind is PredApp:
            out = ({g.name: 0}, set()) if g.arg is None else ({g.name: 1}, {g.arg})
        elif kind is Equal:
            out = {}, {g.left, g.right}
        elif kind is TruthConst:
            out = {}, set()
        elif kind in _QUANTIFIERS:
            s = self._new_slot()
            out = preds, inds = self._walk(g.body)
            if kind is ForallInd or kind is ExistsInd:
                inds.discard(g.var)
                self.binder[id(g)] = (s, 0, [], [])
            else:
                arity = preds.pop(g.var, 0)  # unused predicate variable: nullary
                cut = sorted(p for p in preds if preds[p])
                self.binder[id(g)] = (s, arity, cut, sorted(inds))
                self.whole |= bool(arity and not cut and not inds)
        else:
            preds, inds = {}, set()
            for c in operands(g):
                c_preds, c_inds = self._walk(c, top)
                for name, arity in c_preds.items():
                    if preds.setdefault(name, arity) != arity:
                        raise EvaluationError(f"{name!r} is used both as a letter "
                                              f"and as a predicate")
                inds |= c_inds
            out = preds, inds
        if top:
            self.skeleton[id(g)] = out
        return out

    def new_env(self, size: int) -> list:
        env, full = [None] * self.width, (1 << size) - 1
        env[_FULL], env[_SIZE] = full, size
        if self.whole:  # size + 1 masks of up to size bits: only when used
            env[_REPS] = _representatives([full])
        return env


def _split(cells: list[int], mask: int) -> list[int]:
    """Each cell cut into its part inside and its part outside `mask`;
    empty parts are dropped."""
    out = []
    for c in cells:
        inside = c & mask
        if inside:
            out.append(inside)
        if inside != c:
            out.append(c ^ inside)
    return out


def _representatives(cells: list[int]) -> list[int]:
    """One subset per vector of counts over the cells: the union of the j
    lowest elements of each cell c, for every choice of j = 0..|c|."""
    reps = [0]
    for c in cells:
        prefixes = [0]
        while c:
            low = c & -c
            prefixes.append(prefixes[-1] | low)
            c ^= low
        reps = [r | p for r in reps for p in prefixes]
    return reps


def _strip_nots(g: Formula) -> tuple[Formula, bool]:
    """The body under a chain of `~` at g, and whether the chain is odd."""
    odd = False
    while isinstance(g, Not):
        g, odd = g.body, not odd
    return g, odd


def _kleene(kind: type, fns: list[Callable]) -> Callable:
    """fn(env, s) -> bool | None of a `~`, a chain of `&` or of `|`, a `->`
    or a `<->` over its operands' fns, in Kleene's strong three-valued
    logic: None is unknown, and a value that is known holds whatever the
    unknowns turn out to be."""
    if kind is Not:
        (sub,) = fns
        return lambda env, s: None if (v := sub(env, s)) is None else not v
    if kind is And or kind is Or:
        want = kind is Or

        def chain(env, s):
            out = not want
            for fn in fns:
                v = fn(env, s)
                if v is None:
                    out = None
                elif v == want:
                    return want
            return out

        return chain
    lf, rf = fns
    if kind is Implies:
        def implies(env, s):
            a = lf(env, s)
            if a is not None and not a:
                return True
            b = rf(env, s)
            if b:
                return True
            return None if a is None or b is None else False

        return implies

    def iff(env, s):
        a = lf(env, s)
        if a is None:
            return None
        b = rf(env, s)
        return None if b is None else a == b

    return iff


class _Compiler:
    """Compiles formulas to closures over a slot array; the domain is read
    from the env's reserved slots."""

    def __init__(self, layout: _Layout, budget: Budget):
        self.layout = layout
        self.budget = budget

    def compile(self, f: Formula) -> Callable:
        """fn(env, s) -> bool | None: f's value in Kleene's strong
        three-valued logic once the free symbols up to slot s are assigned,
        None if unknown; at `layout.last` it is f's truth value.

        A node of the skeleton is split into its operands only where some
        part below it is known before the node's own level; every other
        node is one leaf compiled to fn(env) -> bool, which reads as
        unknown below its level.  So a skeleton all of whose parts are known
        at the last level only is one leaf.  A leaf is evaluated when the
        three-valued walk first reaches it, and its value is kept in a slot
        of its own until the search assigns its level's symbol anew; a leaf
        at the last level changes with every assignment and keeps none."""
        fn, level = self._skeleton(f)
        return fn or self._leaf(f, level)

    def _skeleton(self, g: Formula) -> tuple[Callable | None, int]:
        """g's three-valued fn if g is split, else None, and g's level."""
        body, odd = _strip_nots(g)
        level = self.layout.level(body)
        if type(body) not in _CONNECTIVES:
            return None, level
        parts = [(c, *self._skeleton(c)) for c in operands(body)]
        if all(fn is None and at == level for _, fn, at in parts):
            return None, level
        fn = _kleene(type(body), [fn or self._leaf(c, at) for c, fn, at in parts])
        return (_kleene(Not, [fn]) if odd else fn), level

    def _leaf(self, g: Formula, level: int) -> Callable:
        fn = self._compile(g, self.layout.slot)
        if level == self.layout.last:
            return lambda env, s: fn(env) if s >= level else None
        kept = self.layout._new_slot()
        self.layout.cached.setdefault(level, []).append(kept)

        def leaf(env, s):
            if s < level:
                return None
            v = env[kept]
            if v is None:
                v = env[kept] = fn(env)
            return v

        return leaf

    # bit-parallel fast path: body quantifier-free, only individual variable
    # is `var`; returns fn(env) -> bitmask of elements satisfying the body.
    def _mask_fn(self, g: Formula, var: str, slot: dict[str, int]) -> Callable | None:
        if isinstance(g, TruthConst):
            return (lambda env: env[_FULL]) if g.value else (lambda env: 0)
        if isinstance(g, PredApp):
            s = slot[g.name]
            if g.arg is None:
                return lambda env: env[_FULL] if env[s] else 0
            if g.arg == var:
                return lambda env: env[s]
            sa = slot[g.arg]
            return lambda env: env[_FULL] if env[s] >> env[sa] & 1 else 0
        if isinstance(g, Equal):
            if g.left == var and g.right == var:
                return lambda env: env[_FULL]
            if g.left == var:
                sa = slot[g.right]
                return lambda env: 1 << env[sa]
            if g.right == var:
                sa = slot[g.left]
                return lambda env: 1 << env[sa]
            sl, sr = slot[g.left], slot[g.right]
            return lambda env: env[_FULL] if env[sl] == env[sr] else 0
        if isinstance(g, Not):  # a chain of `~` folds to its parity
            g, odd = _strip_nots(g)
            sub = self._mask_fn(g, var, slot)
            if sub is None or not odd:
                return sub
            return lambda env: sub(env) ^ env[_FULL]
        if isinstance(g, (And, Or, Implies, Iff)):
            fns = [self._mask_fn(c, var, slot) for c in operands(g)]
            if None in fns:
                return None
            if isinstance(g, (And, Or)):  # a chain of & or of |: one fold
                conj = isinstance(g, And)

                def fold(env):
                    bits = env[_FULL] if conj else 0
                    for fn in fns:
                        bits = bits & fn(env) if conj else bits | fn(env)
                    return bits

                return fold
            lf, rf = fns
            if isinstance(g, Implies):
                return lambda env: (lf(env) ^ env[_FULL]) | rf(env)
            return lambda env: (lf(env) ^ rf(env)) ^ env[_FULL]
        return None  # quantifier inside: no fast path

    def _compile(self, g: Formula, slot: dict[str, int]) -> Callable:
        kind = type(g)
        if kind is TruthConst:
            val = g.value
            return lambda env: val
        if kind is PredApp:
            s = slot[g.name]
            if g.arg is None:
                return lambda env: env[s]
            sa = slot[g.arg]
            return lambda env: env[s] >> env[sa] & 1 != 0
        if kind is Equal:
            sl, sr = slot[g.left], slot[g.right]
            return lambda env: env[sl] == env[sr]
        if kind is Not:  # a chain of `~` folds to its parity
            g, odd = _strip_nots(g)
            sub = self._compile(g, slot)
            return (lambda env: not sub(env)) if odd else sub
        if kind is And or kind is Or:  # a chain of & or of |: one loop
            want, fns = kind is Or, [self._compile(c, slot) for c in operands(g)]

            def chain(env):
                for fn in fns:
                    if fn(env) == want:
                        return want
                return not want

            return chain
        if kind is Implies or kind is Iff:
            lf, rf = self._compile(g.left, slot), self._compile(g.right, slot)
            if kind is Implies:
                return lambda env: rf(env) if lf(env) else True
            return lambda env: lf(env) == rf(env)
        if kind is ForallInd or kind is ExistsInd:
            want = kind is ExistsInd
            s = self.layout.binder[id(g)][0]
            slot = {**slot, g.var: s}
            mask = self._mask_fn(g.body, g.var, slot)
            tick = self.budget.tick
            if mask is not None:
                if want:
                    return lambda env: (tick(), mask(env) != 0)[1]
                return lambda env: (tick(), mask(env) == env[_FULL])[1]
            sub = self._compile(g.body, slot)

            def fo(env, want=want, s=s, sub=sub, tick=tick):
                tick(env[_SIZE])
                for e in range(env[_SIZE]):
                    env[s] = e
                    if sub(env) == want:
                        return want
                return not want

            return fo
        if kind is ForallPred or kind is ExistsPred:
            want = kind is ExistsPred
            s, arity, pred_names, ind_names = self.layout.binder[id(g)]
            preds = [slot[p] for p in pred_names]
            inds = [slot[i] for i in ind_names]
            sub = self._compile(g.body, {**slot, g.var: s})
            tick = self.budget.tick
            if arity == 0:
                def so0(env, want=want, s=s, sub=sub, tick=tick):
                    tick(2)
                    for v in (False, True):
                        env[s] = v
                        if sub(env) == want:
                            return want
                    return not want

                return so0
            # Permuting the elements of a cell of the body's free symbols
            # preserves the body's truth, so only the count of X in each
            # cell matters: one representative per vector of counts.
            if preds or inds:
                def representatives(env, preds=preds, inds=inds):
                    cells = [env[_FULL]]
                    for p in preds:
                        cells = _split(cells, env[p])
                    for i in inds:
                        cells = _split(cells, 1 << env[i])
                    return _representatives(cells)
            else:
                representatives = lambda env: env[_REPS]

            def so1(env, want=want, s=s, sub=sub, reps=representatives, tick=tick):
                choices = reps(env)
                tick(len(choices))
                for bits in choices:
                    env[s] = bits
                    if sub(env) == want:
                        return want
                return not want

            return so1
        raise AssertionError(f"unknown node {g!r}")


def _load_model(layout: _Layout, model: FiniteModel) -> list:
    env = layout.new_env(model.size)
    unary, nullary, inds = layout.free
    for name in unary:
        ext = model.pred(name)
        if ext is None:
            raise EvaluationError(f"no interpretation for predicate {name!r}")
        bits = 0
        for e in ext:
            bits |= 1 << e
        env[layout.slot[name]] = bits
    for name in nullary:
        val = model.prop(name)
        if val is None:
            raise EvaluationError(f"no interpretation for letter {name!r}")
        env[layout.slot[name]] = val
    for name in inds:
        e = model.individual(name)
        if e is None:
            raise EvaluationError(f"no interpretation for individual {name!r}")
        env[layout.slot[name]] = e
    return env


def evaluate(model: FiniteModel, f: Formula, budget: Budget | None = None,
             limits: Limits = DEFAULT_LIMITS) -> bool:
    """Truth value of f in the model; raises EvaluationError on missing symbols."""
    layout = _Layout(f)
    comp = _Compiler(layout, budget or Budget.from_limits(limits))
    return bool(comp._compile(f, layout.slot)(_load_model(layout, model)))


def _falsify(env, layout: _Layout, budget: Budget, top: Callable) -> bool:
    """Whether some assignment of the free symbols, one per isomorphism class
    and one budget step each, makes top false; env is left at the first
    that does.  The unary predicates, in name order, each take one subset
    per vector of counts over the cells cut by those before them; the
    nullary letters take both values; each individual in turn takes the
    lowest element of each current cell and then becomes a cell of its own.

    Besides the symmetry, one reduction: top(env, s) is evaluated after
    each assignment, at slot s of the symbol just assigned, and a branch
    its assigned symbols already make true is skipped, for no extension of
    it falsifies the formula.  The assignments left are tried in the same
    order, so the witness is the same.  The search keeps one iterator of
    choices per assigned symbol on a stack of its own, so the number of
    free symbols costs no frames."""
    unary, nullary, _ = layout.free
    slots = [layout.slot[name] for names in layout.free for name in names]
    tick = budget.tick
    if not slots:
        tick()
        return not top(env, layout.last)
    n_pred, n_sym, last = len(unary), len(unary) + len(nullary), len(slots) - 1
    clear = [layout.cached.get(s, ()) for s in slots]
    cells = [[env[_FULL]]]  # the cells cut by the symbols before each level
    branches = [iter(_choices(0, cells[0], n_pred, n_sym))]
    while branches:
        i = len(branches) - 1
        s = slots[i]
        for v in branches[i]:
            env[s] = v
            if i == last:  # no leaf keeps a value at the last level
                tick()
                if not top(env, s):
                    return True
                continue
            for kept in clear[i]:
                env[kept] = None
            if not top(env, s):  # unknown, or false: go deeper
                break
        else:
            branches.pop()
            cells.pop()
            continue
        here = cells[i]
        cells.append(_split(here, v) if i < n_pred else here if i < n_sym
                     else _split(here, 1 << v))
        branches.append(iter(_choices(i + 1, cells[-1], n_pred, n_sym)))
    return False


def _choices(i: int, cells: list[int], n_pred: int, n_sym: int):
    """The values the i-th free symbol takes over `cells`: the first n_pred
    symbols are unary predicates and the next ones up to n_sym nullary
    letters, the rest individuals."""
    if i < n_pred:
        return _representatives(cells)
    if i < n_sym:
        return False, True
    return [(c & -c).bit_length() - 1 for c in cells]


def _witness(layout: _Layout, env) -> FiniteModel:
    unary, nullary, inds = layout.free
    slot, size = layout.slot, env[_SIZE]
    return FiniteModel.build(
        size,
        {p: frozenset(e for e in range(size) if env[slot[p]] >> e & 1) for p in unary},
        {p: bool(env[slot[p]]) for p in nullary},
        {i: env[slot[i]] for i in inds})


def find_countermodel(f: Formula, max_size: int,
                      limits: Limits = DEFAULT_LIMITS) -> FiniteModel | None:
    """Smallest model falsifying f within max_size, or None.

    Free predicate symbols are interpreted as part of the model, one
    interpretation per isomorphism class (see `_falsify`), so the
    smallest falsifying size is still found.  For an identity-free sentence
    with k predicate symbols, None at max_size >= 2^k certifies validity
    (small-model property); with identity in play no such certificate is
    claimed and max_size is just a search bound.
    """
    budget = Budget.from_limits(limits)
    layout = _Layout(f)
    top = _Compiler(layout, budget).compile(f)
    for size in range(1, max_size + 1):
        env = layout.new_env(size)
        if _falsify(env, layout, budget, top):
            return _witness(layout, env)
    return None


def spectrum_bruteforce(f: Formula, max_size: int,
                        limits: Limits = DEFAULT_LIMITS) -> list[bool]:
    """Truth value of a pure sentence at each domain size 1..max_size."""
    layout = _Layout(f)
    if any(layout.free):
        raise EvaluationError("spectrum_bruteforce requires a pure sentence")
    holds = _Compiler(layout, Budget.from_limits(limits))._compile(f, layout.slot)
    return [bool(holds(layout.new_env(size))) for size in range(1, max_size + 1)]


def equiv_check(f: Formula, g: Formula, max_size: int,
                limits: Limits = DEFAULT_LIMITS) -> FiniteModel | None:
    """Exhaustive equivalence check up to max_size; a differing model or None.

    The two formulas are evaluated over the union of their free signatures,
    so one side may mention fewer symbols than the other.  As in
    `find_countermodel`, one interpretation per isomorphism class is tried.
    """
    budget = Budget.from_limits(limits)
    probe = Iff(f, g)  # carries the union signature, and keeps f and g whole
    layout = _Layout(probe)
    comp = _Compiler(layout, budget)
    agree = _kleene(Iff, [comp.compile(f), comp.compile(g)])
    for size in range(1, max_size + 1):
        env = layout.new_env(size)
        if _falsify(env, layout, budget, agree):
            return _witness(layout, env)
    return None


@dataclass(frozen=True)
class GeneratorParams:
    """Caps for the seeded random-formula generator; the same params and
    seed always produce the same formula."""

    seed: int
    max_pred_quantifiers: int = 2
    max_ind_quantifiers: int = 3
    max_free_preds: int = 2
    max_depth: int = 4
    allow_identity: bool = True
    count_bound_cap: int = 2


_FREE_PRED_POOL = ("A", "B", "C", "D")


@dataclass
class _GenState:
    params: GeneratorParams
    rng: random.Random
    free_preds: list[str]
    so_left: int
    fo_left: int
    ind_counter: int = 0
    pred_counter: int = 0


def random_formula(params: GeneratorParams) -> Formula:
    """Well-formed closed formula within the caps (free predicates allowed)."""
    rng = random.Random(params.seed)
    n_free = rng.randint(0, params.max_free_preds) if params.max_free_preds else 0
    state = _GenState(params, rng, list(_FREE_PRED_POOL[:n_free]),
                      params.max_pred_quantifiers, params.max_ind_quantifiers)
    return _gen(state, params.max_depth, [], [])


def _gen_leaf(state: _GenState, ind_scope, pred_scope) -> Formula:
    # pred_scope entries are (name, arity)
    rng = state.rng
    options = ["const"]
    unary = [p for p, a in pred_scope if a == 1] + state.free_preds
    nullary = [p for p, a in pred_scope if a == 0]
    if unary and ind_scope:
        options += ["app"] * 4
    if nullary:
        options += ["letter"] * 2
    if state.params.allow_identity and ind_scope:
        options += ["eq"] * 2
    pick = rng.choice(options)
    if pick == "app":
        return PredApp(rng.choice(unary), rng.choice(ind_scope))
    if pick == "letter":
        return PredApp(rng.choice(nullary))
    if pick == "eq":
        return Equal(rng.choice(ind_scope), rng.choice(ind_scope))
    return TruthConst(rng.random() < 0.5)


def _gen(state: _GenState, depth, ind_scope, pred_scope) -> Formula:
    if depth <= 0:
        return _gen_leaf(state, ind_scope, pred_scope)
    rng, params = state.rng, state.params
    options = ["leaf", "not", "and", "or", "imp", "iff"]
    if state.fo_left > 0:
        options += ["qind"] * 3
    if state.so_left > 0:
        options += ["qpred"] * 3
    if params.allow_identity and params.count_bound_cap >= 2 and state.fo_left >= 2:
        options += ["atleast"]
    pick = rng.choice(options)
    if pick == "leaf":
        return _gen_leaf(state, ind_scope, pred_scope)
    if pick == "not":
        return Not(_gen(state, depth - 1, ind_scope, pred_scope))
    if pick in ("and", "or", "imp", "iff"):
        node = {"and": And, "or": Or, "imp": Implies, "iff": Iff}[pick]
        return node(_gen(state, depth - 1, ind_scope, pred_scope),
                    _gen(state, depth - 1, ind_scope, pred_scope))
    if pick == "qind":
        state.fo_left -= 1
        state.ind_counter += 1
        var = f"x{state.ind_counter}"
        body = _gen(state, depth - 1, ind_scope + [var], pred_scope)
        return (ForallInd if rng.random() < 0.5 else ExistsInd)(var, body)
    if pick == "qpred":
        state.so_left -= 1
        state.pred_counter += 1
        var = f"X{state.pred_counter}"
        arity = 1 if rng.random() < 0.85 else 0
        body = _gen(state, depth - 1, ind_scope, pred_scope + [(var, arity)])
        return (ForallPred if rng.random() < 0.5 else ExistsPred)(var, body)
    if pick == "atleast":
        # "at least m distinct elements satisfy a literal" gadget
        m = rng.randint(2, min(params.count_bound_cap, state.fo_left))
        state.fo_left -= m
        names = []
        for _ in range(m):
            state.ind_counter += 1
            names.append(f"x{state.ind_counter}")
        unary = [p for p, a in pred_scope if a == 1] + state.free_preds
        if unary:
            p = rng.choice(unary)
            if rng.random() < 0.7:
                mk = lambda v: PredApp(p, v)
            else:
                mk = lambda v: Not(PredApp(p, v))
        else:
            mk = lambda v: TruthConst(True)
        parts = [Not(Equal(a, b)) for i, a in enumerate(names) for b in names[i + 1:]]
        parts += [mk(v) for v in names]
        body = conj(parts)
        for var in reversed(names):
            body = ExistsInd(var, body)
        return body
    raise AssertionError(pick)
