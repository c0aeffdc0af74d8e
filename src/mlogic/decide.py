"""The end-to-end decision pipeline.

A closed sentence is translated to a quantifier-free counting tree; if it
is pure (no free predicate symbols) the tree mentions only whole-domain
counts, so its truth depends on the domain size alone.  Evaluating at
sizes 1..N for N = largest bound + 1 determines the whole spectrum,
because every atom is constant beyond its bound.  The sentence is valid
exactly when the spectrum is all of [1, oo), unsatisfiable when it is
empty, and size-contingent otherwise.  Sentences with free predicate
symbols get the first-order resultant instead of a verdict.
"""

from __future__ import annotations

import enum
import json
import time
from dataclasses import dataclass, field
from functools import cached_property

from .elimination import Trace, eliminate_all
from .errors import OutOfScopeError, ResourceLimitError
from .limits import DEFAULT_LIMITS, Limits
from .normal import CountingFormula, counting_atom_count, render_counting, size_bits
from .syntax import Formula, FormulaClass, format_formula, survey


@dataclass(frozen=True)
class Spectrum:
    """Domain sizes on which a pure sentence holds: disjoint, non-adjacent,
    ascending intervals; hi is None only on the last (unbounded) interval."""

    intervals: tuple[tuple[int, int | None], ...]

    def contains(self, n: int) -> bool:
        for lo, hi in self.intervals:
            if lo <= n and (hi is None or n <= hi):
                return True
        return False

    @property
    def is_empty(self) -> bool:
        return not self.intervals

    @property
    def is_all(self) -> bool:
        return self.intervals == ((1, None),)

    def __str__(self) -> str:
        if not self.intervals:
            return "∅"
        parts = []
        for lo, hi in self.intervals:
            if hi is None:
                parts.append(f"[{lo},∞)")
            elif hi == lo:
                parts.append(f"{{{lo}}}")
            elif hi == lo + 1:
                parts.append(f"{{{lo},{hi}}}")
            else:
                parts.append(f"[{lo},{hi}]")
        return " ∪ ".join(parts)


class VerdictKind(enum.Enum):
    VALID = "valid"
    UNSATISFIABLE = "unsat"
    SIZE_CONTINGENT = "contingent"
    RESULTANT_ONLY = "resultant"


@dataclass(frozen=True)
class Verdict:
    kind: VerdictKind
    spectrum: Spectrum | None = None
    resultant: CountingFormula | None = None

    def __str__(self) -> str:
        if self.kind is VerdictKind.VALID:
            return "Valid"
        if self.kind is VerdictKind.UNSATISFIABLE:
            return "Unsatisfiable"
        if self.kind is VerdictKind.SIZE_CONTINGENT:
            return f"SizeContingent: {self.spectrum}"
        return f"Resultant: {render_counting(self.resultant)}"


def spectrum_of(cf: CountingFormula) -> Spectrum:
    """Exact spectrum of a pure counting tree, read off `size_bits`: from
    the largest bound `top` on every atom, hence the tree, is constant.
    Each run of set bits is one interval, unbounded when it reaches bit top."""
    bits, top = size_bits(cf)
    intervals, lo = [], None
    for n in range(top + 1):  # bit n holds the value at n + 1 elements
        if bits >> n & 1:
            lo = n + 1 if lo is None else lo
        elif lo is not None:
            intervals.append((lo, n))
            lo = None
    if lo is not None:
        intervals.append((lo, None))
    return Spectrum(tuple(intervals))


def verdict_from_spectrum(spectrum: Spectrum) -> Verdict:
    if spectrum.is_all:
        return Verdict(VerdictKind.VALID, spectrum)
    if spectrum.is_empty:
        return Verdict(VerdictKind.UNSATISFIABLE, spectrum)
    return Verdict(VerdictKind.SIZE_CONTINGENT, spectrum)


@dataclass(frozen=True)
class DecisionReport:
    """The outcome of `decide`.

    `input_text` (the source text, or the formula rendered when no source
    was given), `trace` (the (rule, rendering) steps) and `max_atoms` (the
    most count atoms in one step's result) are computed on first read, so
    a caller that reads only the verdict walks and renders nothing."""

    _formula: Formula = field(repr=False)
    _source: str | None = field(repr=False)
    formula_class: FormulaClass
    _trace: Trace = field(repr=False, compare=False)
    resultant: CountingFormula
    verdict: Verdict
    steps: int
    millis: int

    @cached_property
    def input_text(self) -> str:
        return self._source if self._source is not None else format_formula(self._formula)

    @cached_property
    def trace(self) -> tuple[tuple[str, str], ...]:
        return self._trace.entries

    @cached_property
    def max_atoms(self) -> int:
        return max((counting_atom_count(result) for _, result in self._trace.steps
                    if isinstance(result, CountingFormula)), default=0)

    def to_dict(self) -> dict:
        verdict: dict = {"kind": self.verdict.kind.value}
        if self.verdict.spectrum is not None:
            verdict["spectrum"] = [[lo, hi] for lo, hi in self.verdict.spectrum.intervals]
        if self.verdict.kind is VerdictKind.RESULTANT_ONLY:
            verdict["resultant"] = render_counting(self.verdict.resultant)
        return {
            "input": self.input_text,
            "class": self.formula_class.value,
            "verdict": verdict,
            "trace": [{"rule": rule, "result": result} for rule, result in self.trace],
            "stats": {"steps": self.steps, "max_atoms": self.max_atoms,
                      "millis": self.millis},
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), ensure_ascii=False)


def decide(f: Formula, source: str | None = None,
           limits: Limits = DEFAULT_LIMITS) -> DecisionReport:
    """Classify, eliminate, and judge a sentence.

    The input must have no free individual names.  A pure sentence gets a
    Valid / Unsatisfiable / SizeContingent verdict with its exact spectrum;
    free predicate symbols demote the verdict to the first-order resultant,
    since validity is only meaningful without predicate constants.
    """
    started = time.monotonic()
    cls, free_preds, free_inds = survey(f)
    if free_inds:
        raise OutOfScopeError(
            f"free individual names {sorted(free_inds)} are not decidable input")
    trace = Trace()
    trace.record("classify", cls.value)
    try:
        cf = eliminate_all(f, limits, trace)
    except ResourceLimitError as exc:
        exc.trace = trace
        raise
    if free_preds:
        verdict = Verdict(VerdictKind.RESULTANT_ONLY, resultant=cf)
    else:
        spectrum = spectrum_of(cf)
        trace.record("spectrum", spectrum)
        verdict = verdict_from_spectrum(spectrum)
    millis = int((time.monotonic() - started) * 1000)
    return DecisionReport(
        _formula=f,
        _source=source,
        formula_class=cls,
        _trace=trace,
        resultant=cf,
        verdict=verdict,
        steps=len(trace.steps),
        millis=millis,
    )
