"""The host's speed, sampled while the benchmark runs.

The benchmark runs on a share of a host whose other load sets the speed of
the CPU for seconds to minutes at a time: the same pass can take 2.2 s or
3.9 s, with the CPU time moving with it.  A `SpeedProbe` measures that
speed during a timed region.  A real-time interval timer interrupts the
program every `INTERVAL_S` seconds and its handler times a fixed chunk
of interpreter work.  The chunk does in small what the engine's DNF does
(frozensets of literals over frozen dataclasses, merged, deduplicated,
sorted and pruned by inclusion) and what the model-checking oracle does
(a tree of closures evaluated over bit masks), and it runs on whatever
the program left in the caches.  These choices make it track the
program's slowdowns more closely: plain arithmetic, either half alone on
the other half's workloads, or the chunk timed again once its caches are
warm, tracks them worse.  The cost is that the chunk time depends a
little on the program's own use of the caches (the DNF half took 0 to
30 % longer cold than warm).  The garbage collector is off while the
chunk runs, and the chunk frees all it allocates, so it neither runs nor
brings on a collection of the program's heap.

A timed region runs from `mark` to `since`, and its time leaves out the
handler's.  The `speed` over a stretch of time is the reference chunk time
over the mean time of the chunks timed in it: 1 on a host that runs the
chunk in `REFERENCE_CHUNK_S`, 0.5 on one at half that speed.  A region's
time times the speed over it is its time at the reference speed.  A
region of a few milliseconds holds no sample or one, so its speed is taken
over a margin around it.  `Stopwatch` times regions the same way without a
probe: wall time at speed 1.
"""

from __future__ import annotations

import gc
import signal
from bisect import bisect_left, bisect_right
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter

INTERVAL_S = 0.01
# About the chunk's time during a pass on the host the baseline was
# recorded on (2 vCPUs of an Intel Xeon, python 3.11).
REFERENCE_CHUNK_S = 0.00035


# Fields are ints, whose hashes, unlike those of strings, are the same in
# every process, so the chunk's sets collide alike in every run.
@dataclass(frozen=True)
class _Leaf:
    region: int
    bound: int


_LEAVES = [_Leaf(i % 5, i) for i in range(12)]


def _merge(a: frozenset, b: frozenset) -> frozenset | None:
    out = a | b
    for leaf, pos in out:
        if (leaf, not pos) in out:
            return None
    return out


def _formula(depth: int, i: int):
    """A tree of closures over an environment of bit masks, as the oracle
    compiles a formula."""
    if depth == 0:
        s, a = i % 4, (i + 1) % 4
        return lambda env: env[s] >> env[a] & 1 != 0
    left, right = _formula(depth - 1, 2 * i), _formula(depth - 1, 2 * i + 1)
    if depth % 2:
        return lambda env: left(env) and right(env)
    return lambda env: left(env) or not right(env)


_FORMULA = _formula(4, 0)


def chunk() -> int:
    return _dnf() + _evaluate()


def _evaluate() -> int:
    """Evaluate the formula under 120 assignments."""
    env = [0, 1, 2, 3]
    holds = 0
    for bits in range(120):
        env[0], env[1] = bits, bits >> 2 & 3
        holds += _FORMULA(env)
    return holds


def _dnf() -> int:
    """Distribute two small DNFs and prune the result."""
    left = [frozenset({(_LEAVES[i], True), (_LEAVES[i * 5 % 12], i % 2 == 0)})
            for i in range(6)]
    right = [frozenset({(_LEAVES[i * 7 % 12], False)}) for i in range(6)]
    seen, out = set(), []
    for a in left:
        for b in right:
            merged = _merge(a, b)
            if merged is not None and merged not in seen:
                seen.add(merged)
                out.append(merged)
    out.sort(key=lambda c: (len(c), sorted((leaf.region, leaf.bound, pos)
                                           for leaf, pos in c)))
    kept: list[frozenset] = []
    for c in out:
        if not any(k <= c for k in kept):
            kept.append(c)
    return len(kept)


class Stopwatch:
    """Times regions without sampling the speed: wall time at speed 1."""

    busy = 0.0  # seconds spent in a probe's handler

    def mark(self) -> tuple[float, float]:
        """The start of a timed region."""
        return perf_counter(), self.busy

    def since(self, mark) -> tuple[float, float, float]:
        """(start, end, seconds without the handler's) of the region that
        began at `mark`."""
        ended = perf_counter()
        started, busy = mark
        return started, ended, ended - started - (self.busy - busy)

    def speed(self, start: float, end: float, margin: float = 0.0) -> float:
        return 1.0


class SpeedProbe(Stopwatch):
    """Samples the host's speed while `running`; see the module docstring."""

    def __init__(self):
        self.busy = 0.0
        self.at: list[float] = []    # when each sample ended
        self.timed = [0.0]           # timed chunk seconds of the first k samples

    def _handler(self, signum, frame) -> None:
        collecting = gc.isenabled()
        gc.disable()
        started = perf_counter()
        chunk()
        ended = perf_counter()
        if collecting:
            gc.enable()
        self.at.append(ended)
        self.timed.append(self.timed[-1] + ended - started)
        self.busy += perf_counter() - started

    @contextmanager
    def running(self):
        previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)

    def speed(self, start: float, end: float, margin: float = 0.0) -> float:
        """The host's speed relative to the reference, from the samples
        taken from `margin` seconds before `start` to as long after `end`;
        1 without samples."""
        lo = bisect_left(self.at, start - margin)
        hi = bisect_right(self.at, end + margin)
        if hi == lo:
            return 1.0
        return REFERENCE_CHUNK_S * (hi - lo) / (self.timed[hi] - self.timed[lo])
