"""A fixed reference computation that measures how fast the host runs now.

The host this benchmark was sized on (2 vCPUs) switches between a fast and
a slow state, often within a second and sometimes for minutes, and CPU time
moves with wall time, so the slowdown is not time spent waiting.  Raw pass
times of the same code then spread more than any bound the benchmark may
set.  To steady them, the worker times a short reference chunk between
requests and, every SAMPLE_S seconds, during them, and rescales each
request's time to the speed at which the chunk runs in REF_S seconds.

Not all code slows alike.  In the slow state, loops of Python bytecode took
about 1.7 times as long, small numpy operations and big-int arithmetic about
1.45 times, and numpy operations on 200k-element arrays about 1.2 times.
Still, padicdyn's requests slowed about as much as the chunk: divided by
the chunk time itself, ten runs in a fast period and ten in a slow one
agreed within 4% on each workload.  A power of the chunk time fitted per
workload did better only on verify-suites, so none is used.

The chunk does the kinds of work padicdyn does: difference tables over
lists of Python ints, digit arithmetic, dict lookups, calls of small
functions, and numpy operations on arrays of a few hundred residues.  It
imports nothing from padicdyn, so a change to the program never changes
the yardstick.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

import numpy as np

REF_S = 0.0025  # the chunk took 2.0 ms fast and 3.3 ms slow on a 2-vCPU host
SHARE = 0.05  # reference time spent per second of request time
MAX_CHUNKS = 20
SAMPLE_S = 0.05  # while a request runs, the chunk is timed this often

_P = 3
_MOD = _P**6
_VALUES = [(7 * x * x + 3 * x + 1) % _MOD for x in range(320)]
_ARRAY = np.arange(625, dtype=np.int64)


def _minus(m: int) -> int:
    lead = 1
    while lead * _P <= m:
        lead *= _P
    return m % lead


def chunk() -> int:
    """The reference work; returns a checksum so nothing is skipped."""
    row = _VALUES
    first = []
    while len(row) > 200:
        first.append(row[0])
        row = [(row[i + 1] - row[i]) % _MOD for i in range(len(row) - 1)]
    seen = {}
    for m in range(1, 600):
        seen[m] = (_VALUES[m % 320] - _VALUES[_minus(m) % 320]) % _MOD
    acc = _ARRAY.copy()
    for c in (5, 1, 4, 2, 3):
        acc = (acc * _ARRAY + c) % 625
        acc = np.concatenate(([0], np.cumsum(acc)[:-1])) % 625
    return sum(first) + sum(seen.values()) + int(acc.sum())


def chunk_seconds(work_s: float) -> float:
    """Median time of the chunk, run in proportion to the work just timed:
    SHARE of work_s, at least one chunk and at most MAX_CHUNKS."""
    count = max(1, min(MAX_CHUNKS, round(SHARE * work_s / REF_S)))
    times = []
    for _ in range(count):
        start = perf_counter()
        chunk()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Sampler:
    """Times the chunk every SAMPLE_S seconds while a request runs.

    A SIGALRM handler runs it, so the host's speed is sampled during a long
    request and not only around it.  Python runs the handler between
    bytecodes, so inside a long numpy call it waits for the call to return.
    `spent` is the time the handler took, to be taken off the request's
    time.  Main thread only.  A disabled sampler takes no samples; traced
    passes use one, so that no chunk time lands in a layer's span.
    """

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.times: list[float] = []
        self.spent = 0.0

    def _sample(self, _signum, _frame):
        start = perf_counter()
        chunk()
        self.times.append(perf_counter() - start)
        self.spent += perf_counter() - start

    def __enter__(self):
        if self.enabled:
            signal.signal(signal.SIGALRM, self._sample)
            signal.setitimer(signal.ITIMER_REAL, SAMPLE_S, SAMPLE_S)
        return self

    def __exit__(self, *exc):
        if self.enabled:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, signal.SIG_DFL)


def request_chunk_seconds(before: float, during: list[float], after: float) -> float:
    """The chunk time a request is rescaled by: the mean of the samples taken
    during it and the medians just before and after it, without the slowest
    tenth, where an interrupt or a garbage collection hit a chunk."""
    samples = sorted([before, after, *during])
    return statistics.fmean(samples[: max(2, len(samples) - len(samples) // 10)])


def rescale(seconds: float, chunk_s: float) -> float:
    """Seconds at the reference speed, where the chunk takes REF_S."""
    return seconds * REF_S / chunk_s
