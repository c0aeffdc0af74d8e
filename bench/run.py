"""Benchmark of the mlogic decision engine.

    python3 bench/run.py --workload counting --seed 1 --seconds 30 --trace 0

Runs one workload from the repository's `src/` as a closed loop with one
caller in one thread: each instance starts when the previous one returns.
Set-up (importing mlogic and generating the inputs) is repeated and timed,
then whole passes over the instance list run until `--seconds` have gone
by.  Every outcome is checked against its known answer; a refusal or
crash is recorded with its class and counts against `ok_frac`, a wrong
answer makes the run incorrect and the exit code 1.

The speed of the shared host changes under a run, by a factor of up to
1.6.  With `--trace 0` a speed probe (see speed.py) samples it throughout,
and every time reported is scaled to the probe's reference speed.

`--trace 0` reports the end-to-end metrics.  `--trace 1` alternates
untraced passes with traced ones (see tracing.py) and reports the
per-layer metrics of the traced passes and the tracing overhead.

Standard output holds one JSON row per pass (its time, unscaled and
scaled, and the host's speed during it), one per instance (median time
over the passes) and, as its last line, the result object.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from speed import SpeedProbe, Stopwatch
from tracing import WRAPPED, Tracer, mlogic_modules
from workloads import WORKLOADS, build, execute, is_correct, oracle_answer

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_REPEATS = 9
MIN_PASSES = 3
# An instance's time is scaled by the host's speed from this long before it
# started to this long after it ended.
LOCAL_SPEED_S = 0.1

# Per-layer metrics of a traced run, as (name, unit).  `<layer>.<function>.
# failed.<ErrorClass>` names the innermost wrapped function an exception
# escaped from; escapes from anywhere else add up in `failed.other`.
SELF_TIMES = [f"{layer}.{fn}.self_s" for layer, fns in WRAPPED.items() for fn in fns]
COUNTS = ["normal.counting_dnf.calls", "normal.counting_dnf.conjuncts_out",
          "normal.counting_dnf.conjuncts_out_max", "normal.dnf_rebuild.calls",
          "normal.refine_counting.calls", "normal.refine_counting.signature_max",
          "normal.refine_counting.atoms_out", "elimination.eliminate_exists_pred.calls",
          "elimination.eliminate_counting.calls", "elimination.Trace.record.calls",
          "parser.parse.calls", "prop.to_clause_form.clauses_out", "models.eval_ops"]
FAILURES = ["normal.refine_counting.failed.ResourceLimitError",
            "normal.counting_dnf.failed.ResourceLimitError",
            "normal.counting_dnf.failed.RecursionError"]
PER_LAYER = ([(name, "s") for name in SELF_TIMES]
             + [(name, "count") for name in COUNTS + FAILURES + ["failed.other"]]
             + [("elimination.eliminate_counting.false_frac", "share"),
                ("trace_overhead_frac", "share")])


def layer_modules() -> dict:
    """The loaded layer modules of mlogic by layer name."""
    return {layer: sys.modules[f"mlogic.{layer}"] for layer in WRAPPED}


def import_mlogic() -> dict:
    """Import mlogic afresh from SRC; return its layer modules."""
    for name in mlogic_modules():
        del sys.modules[name]
    importlib.import_module("mlogic")
    return layer_modules()


def set_up(workload: str, seed: int, repeats: int, clock):
    """Import and generate `repeats` times; the last round is kept.  The
    set-up time is the median of the rounds, at the speed of all of them."""
    times, first = [], clock.mark()
    for _ in range(repeats):
        mark = clock.mark()
        mods = import_mlogic()
        instances = build(workload, seed, mods)
        times.append(clock.since(mark)[2])
    start, end, _ = clock.since(first)
    return mods, instances, statistics.median(times) * clock.speed(start, end)


def run_pass(instances, mods, tracer: Tracer | None = None, clock=Stopwatch()):
    """One pass over the instances; returns (seconds, rows, speed).  With a
    SpeedProbe for `clock` each instance's time is scaled by the speed
    around it, the pass's time is the sum of theirs and of the time between
    them at the pass's speed, and speed is the pass's scaled time over its
    unscaled one.  With a Stopwatch these are wall times and speed is 1."""
    rows = []
    gc.collect()
    started = clock.mark()
    for inst in instances:
        mark = clock.mark()
        try:
            outcome, error = execute(inst, mods), None
        except Exception as exc:  # a refusal or crash is this instance's result
            outcome, error = None, exc
        rows.append((outcome, error, clock.since(mark)))
        if tracer is not None:
            tracer.instance_done()
    start, end, seconds = clock.since(started)
    scaled = [(out, err, t * clock.speed(a, b, LOCAL_SPEED_S))
              for out, err, (a, b, t) in rows]
    between = seconds - sum(t for _, _, (_, _, t) in rows)
    total = sum(t for _, _, t in scaled) + between * clock.speed(start, end)
    return total, scaled, total / seconds


def repeat_for(seconds: float, minimum: int, step) -> None:
    """Call `step` at least `minimum` times, and again while one more call
    of average length still ends within `seconds`."""
    started = time.perf_counter()
    done = 0
    while True:
        step()
        done += 1
        elapsed = time.perf_counter() - started
        if done >= minimum and elapsed * (done + 1) / done > seconds:
            return


def check(instances, mods, passes) -> tuple[int, int]:
    """(failed, wrong) over all rows of all passes.  Failed counts every
    row without the known answer; wrong counts rows with an answer that is
    not the known one."""
    oracle = [oracle_answer(inst, mods) if inst.workload == "corpus"
              and inst.kind == "decide" else None for inst in instances]
    failed = wrong = 0
    for _, rows, _ in passes:
        for inst, expect, (outcome, error, _) in zip(instances, oracle, rows):
            if error is not None:
                failed += 1
            elif not is_correct(inst, outcome, expect):
                failed += 1
                wrong += 1
    return failed, wrong


def same_results(a, b) -> bool:
    """Whether two passes gave the same outcome or failure class per instance."""
    return all(x[0] == y[0] and type(x[1]) is type(y[1])
               for x, y in zip(a[1], b[1]))


def print_rows(instances, passes) -> None:
    for i, (seconds, _, factor) in enumerate(passes):
        print(json.dumps({"pass": i, "unscaled_s": seconds / factor, "speed": factor,
                          "wall_s": seconds}))
    for i, inst in enumerate(instances):
        outcome, error, _ = passes[0][1][i]
        row = {"workload": inst.workload, "family": inst.family, "size": inst.size,
               "seconds": statistics.median(rows[i][2] for _, rows, _ in passes)}
        if error is None:
            row["result"] = repr(outcome)
        else:
            row["error"] = type(error).__name__
            row["message"] = str(error)[:200]
        print(json.dumps(row))


def percentile_ms(passes, q: int) -> float:
    """The q-th percentile over the instances of each one's median latency
    in ms over the passes.  The median drops a pass in which the instance
    was held up, by a garbage collection for example."""
    latencies = [statistics.median(rows[i][2] for _, rows, _ in passes) * 1000
                 for i in range(len(passes[0][1]))]
    return statistics.quantiles(latencies, n=100, method="inclusive")[q - 1]


def end_to_end(instances, mods, setup_s: float, seconds: float, probe: SpeedProbe):
    passes, peak_rss_mb = [], 0.0

    def step():
        nonlocal peak_rss_mb
        passes.append(run_pass(instances, mods, clock=probe))
        # later passes add only allocator fragmentation, by how many fit
        if len(passes) == MIN_PASSES:
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    repeat_for(seconds, MIN_PASSES, step)
    failed, wrong = check(instances, mods, passes)
    attempted = len(instances) * len(passes)
    metrics = {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(wall for wall, _, _ in passes), "s"),
        "ok_frac": ((attempted - failed) / attempted, "share"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "decide_ms.p50": (percentile_ms(passes, 50), "ms"),
        "decide_ms.p99": (percentile_ms(passes, 99), "ms"),
    }
    correct = wrong == 0 and all(same_results(passes[0], p) for p in passes)
    return passes, metrics, attempted, failed, correct


def per_layer(instances, mods, seconds: float):
    tracer = Tracer(mods)
    plain, traced, layers = [], [], []

    def pair():
        plain.append(run_pass(instances, mods))
        tracer.reset()
        with tracer.installed():
            traced.append(run_pass(instances, mods, tracer))
        layers.append(layer_values(tracer))

    repeat_for(seconds, 2, pair)
    metrics = {name: (statistics.median(values[name] for values in layers), unit)
               for name, unit in PER_LAYER if name != "trace_overhead_frac"}
    overhead = (statistics.median(wall for wall, _, _ in traced)
                / statistics.median(wall for wall, _, _ in plain) - 1)
    metrics["trace_overhead_frac"] = (overhead, "share")
    failed, wrong = check(instances, mods, traced)
    attempted = len(instances) * len(traced)
    correct = wrong == 0 and all(same_results(plain[0], p) for p in plain + traced)
    return plain, metrics, attempted, failed, correct


def layer_values(tracer: Tracer) -> dict:
    values = {name: tracer.self_s[name.removesuffix(".self_s")] for name in SELF_TIMES}
    counts = tracer.counts
    values.update({name: counts[name] for name in COUNTS})
    escaped = {name: n for name, n in counts.items() if ".failed." in name}
    values.update({name: escaped.pop(name, 0) for name in FAILURES})
    values["failed.other"] = sum(escaped.values())
    calls = counts["elimination.eliminate_counting.calls"]
    values["elimination.eliminate_counting.false_frac"] = (
        counts["elimination.eliminate_counting.false"] / calls if calls else 0.0)
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "mlogic" / "__init__.py").is_file():
        print(f"no mlogic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.trace:
        mods, instances, _ = set_up(args.workload, args.seed, 1, Stopwatch())
        result = per_layer(instances, mods, args.seconds)
    else:
        probe = SpeedProbe()
        with probe.running():
            mods, instances, setup_s = set_up(args.workload, args.seed,
                                              SETUP_REPEATS, probe)
            result = end_to_end(instances, mods, setup_s, args.seconds, probe)
    passes, metrics, attempted, failed, correct = result
    print_rows(instances, passes)
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
