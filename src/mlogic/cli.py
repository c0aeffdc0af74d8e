"""Command-line driver.

Exit codes: 0 success, 1 usage or parse error, 2 out-of-scope input,
3 resource limit exceeded, 4 engine/oracle disagreement (soundness alarm,
kept distinct from resource exhaustion so CI can tell them apart).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .decide import VerdictKind, decide, spectrum_of
from .elimination import eliminate_all
from .errors import (ContractError, EvaluationError, MlogicError,
                     OutOfScopeError, ParseError, ResourceLimitError,
                     WellFormednessError)
from .limits import DEFAULT_LIMITS, Limits
from .models import (GeneratorParams, equiv_check, random_formula,
                     spectrum_bruteforce)
from .normal import (counting_to_formula, render_counting, to_ccnf, to_nnf,
                     to_block_form)
from .parser import parse
from .prop import (PropResult, to_clause_form, truth_table_decide,
                   clause_form_decide)
from .syntax import Formula, format_formula, free_symbols

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_OUT_OF_SCOPE = 2
EXIT_RESOURCE = 3
EXIT_MISMATCH = 4


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


class _InputError(Exception):
    pass


def _read_formula(path: str) -> tuple[str, Formula]:
    try:
        if path == "-":
            text = sys.stdin.read()
        else:
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _InputError(exc) from None
    return text.strip(), parse(text)


def _positive_int(text: str) -> int:
    return _int_from(text, 1)


def _non_negative_int(text: str) -> int:
    return _int_from(text, 0)


def _int_from(text: str, least: int) -> int:
    try:
        value = int(text)
    except ValueError:
        value = least - 1
    if value < least:
        kind = "a positive" if least else "a non-negative"
        raise argparse.ArgumentTypeError(f"expected {kind} integer, got {text!r}")
    return value


def _limits_from(args) -> Limits:
    updates = {}
    if args.max_letters is not None:
        updates["max_letters"] = args.max_letters
    if args.max_atoms is not None:
        updates["max_conjuncts"] = args.max_atoms
    if args.budget is not None:
        updates["eval_ops"] = args.budget
    env_ms = os.environ.get("MLOGIC_BUDGET_MS")
    if env_ms:
        try:
            updates["eval_ms"] = _positive_int(env_ms)
        except argparse.ArgumentTypeError as exc:
            raise _UsageError(f"MLOGIC_BUDGET_MS: {exc}") from None
    return dataclasses.replace(DEFAULT_LIMITS, **updates)


def _cmd_decide(args) -> int:
    limits = _limits_from(args)
    source, f = _read_formula(args.file)
    report = decide(f, source=source, limits=limits)
    if args.oracle_check:
        code = _oracle_check(f, report, args.oracle_check, limits)
        if code != EXIT_OK:
            return code
    if args.json:
        print(report.to_json())
    else:
        print(report.verdict)
        if args.trace:
            for rule, result in report.trace:
                print(f"  [{rule}] {result}")
    return EXIT_OK


def _oracle_check(f, report, max_size: int, limits: Limits) -> int:
    if report.verdict.kind is VerdictKind.RESULTANT_ONLY:
        witness = equiv_check(f, counting_to_formula(report.resultant), max_size, limits)
        if witness is not None:
            print(f"oracle mismatch: resultant differs on {witness}", file=sys.stderr)
            return EXIT_MISMATCH
        return EXIT_OK
    truth = spectrum_bruteforce(f, max_size, limits)
    for size, value in enumerate(truth, start=1):
        if report.verdict.spectrum.contains(size) != value:
            print(f"oracle mismatch at size {size}: engine says "
                  f"{report.verdict.spectrum.contains(size)}, oracle says {value}",
                  file=sys.stderr)
            return EXIT_MISMATCH
    return EXIT_OK


def _cmd_eliminate(args) -> int:
    limits = _limits_from(args)
    source, f = _read_formula(args.file)
    cf = eliminate_all(f, limits)
    if args.json:
        print(json.dumps({"input": source, "resultant": render_counting(cf)},
                         ensure_ascii=False))
    else:
        print(render_counting(cf))
    return EXIT_OK


def _cmd_normalize(args) -> int:
    limits = _limits_from(args)
    _, f = _read_formula(args.file)
    if args.form == "nnf":
        print(format_formula(to_nnf(f)))
    elif args.form == "blocks":
        print(to_block_form(f, limits))
    else:
        print(render_counting(to_ccnf(f, limits)))
    return EXIT_OK


def _cmd_prop(args) -> int:
    limits = _limits_from(args)
    _, f = _read_formula(args.file)
    if args.method == "table":
        verdict = truth_table_decide(f, limits)
        if verdict.result is PropResult.CONTINGENT:
            assignment = " ".join(f"{k}={'true' if v else 'false'}"
                                  for k, v in verdict.falsifying)
            print(f"Contingent (falsified by {assignment})")
        else:
            print(verdict.result.value)
    else:
        valid = clause_form_decide(to_clause_form(f, limits))
        print("Valid" if valid else "NotValid")
    return EXIT_OK


def _cmd_spectrum(args) -> int:
    limits = _limits_from(args)
    _, f = _read_formula(args.file)
    preds, inds = free_symbols(f)
    if preds or inds:
        raise OutOfScopeError("spectra are defined for pure sentences only")
    print(spectrum_of(eliminate_all(f, limits)))
    return EXIT_OK


def _cmd_equiv(args) -> int:
    limits = _limits_from(args)
    _, f = _read_formula(args.file1)
    _, g = _read_formula(args.file2)
    witness = equiv_check(f, g, args.max_size, limits)
    if witness is None:
        print(f"equivalent up to size {args.max_size}")
        return EXIT_OK
    print(f"differ on {witness}")
    return EXIT_OK


def _cmd_corpus(args) -> int:
    limits = _limits_from(args)
    agree = 0
    mismatches = 0
    for index in range(args.count):
        params = GeneratorParams(seed=args.seed + index, max_free_preds=0)
        f = random_formula(params)
        text = format_formula(f)
        print(text)
        if not args.check:
            continue
        report = decide(f, source=text, limits=limits)
        truth = spectrum_bruteforce(f, args.max_size, limits)
        ok = all(report.verdict.spectrum.contains(size) == value
                 for size, value in enumerate(truth, start=1))
        if ok:
            agree += 1
        else:
            mismatches += 1
            print(f"# MISMATCH on seed {args.seed + index}", file=sys.stderr)
    if args.check:
        print(f"# agreement: {agree}/{args.count} "
              f"(sizes 1..{args.max_size})", file=sys.stderr)
        if mismatches:
            return EXIT_MISMATCH
    return EXIT_OK


def _build_parser() -> _Parser:
    parser = _Parser(prog="mlogic",
                     description="decision engine for monadic second-order "
                                 "logic with identity")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_caps(p):
        p.add_argument("--max-letters", type=_positive_int, help="truth-table letter cap")
        p.add_argument("--max-atoms", type=_positive_int,
                       help="width cap of a clause form or a DNF")
        p.add_argument("--budget", type=_positive_int,
                       help="oracle step budget: one step per representative "
                            "model or predicate extension tried")

    p = sub.add_parser("decide", help="full pipeline: classify, eliminate, verdict")
    p.add_argument("--json", action="store_true")
    p.add_argument("--oracle-check", type=_non_negative_int, metavar="N", default=0,
                   help="cross-check against brute-force models up to size N "
                        "(0, the default, skips it)")
    p.add_argument("--trace", action="store_true")
    p.add_argument("file")
    add_caps(p)
    p.set_defaults(fn=_cmd_decide)

    p = sub.add_parser("eliminate", help="print the first-order counting resultant")
    p.add_argument("--json", action="store_true")
    p.add_argument("file")
    add_caps(p)
    p.set_defaults(fn=_cmd_eliminate)

    p = sub.add_parser("normalize", help="print a normal form")
    p.add_argument("--form", choices=("nnf", "blocks", "ccnf"), required=True)
    p.add_argument("file")
    add_caps(p)
    p.set_defaults(fn=_cmd_normalize)

    p = sub.add_parser("prop", help="propositional decision")
    p.add_argument("--method", choices=("table", "cnf"), required=True)
    p.add_argument("file")
    add_caps(p)
    p.set_defaults(fn=_cmd_prop)

    p = sub.add_parser("spectrum", help="print the spectrum of a pure sentence")
    p.add_argument("file")
    add_caps(p)
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("equiv", help="oracle equivalence of two formulas")
    p.add_argument("--max-size", type=_positive_int, required=True)
    p.add_argument("file1")
    p.add_argument("file2")
    add_caps(p)
    p.set_defaults(fn=_cmd_equiv)

    p = sub.add_parser("corpus", help="generate sentences; optionally cross-check")
    p.add_argument("--count", type=_positive_int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--check", action="store_true")
    p.add_argument("--max-size", type=_positive_int, default=5)
    add_caps(p)
    p.set_defaults(fn=_cmd_corpus)

    return parser


# Built once: building a parser leaves argparse's objects in reference
# cycles, and parsing does not change it.
_PARSER = _build_parser()


def run(argv: list[str]) -> int:
    try:
        args = _PARSER.parse_args(argv)
        return args.fn(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (ParseError, WellFormednessError) as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except _InputError as exc:
        print(f"cannot read input: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (OutOfScopeError, ContractError, EvaluationError) as exc:
        print(f"out of scope: {exc}", file=sys.stderr)
        return EXIT_OUT_OF_SCOPE
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        partial = getattr(exc, "partial_trace", ())
        for rule, result in partial:
            print(f"  [{rule}] {result}", file=sys.stderr)
        return EXIT_RESOURCE
    except (RecursionError, MemoryError) as exc:
        # Deeply nested input can still exhaust the interpreter's stack or
        # memory; report it as a resource limit, never as a traceback.
        print(f"resource limit: {type(exc).__name__} {exc}".rstrip(), file=sys.stderr)
        return EXIT_RESOURCE
    except MlogicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
