"""Machine-speed probe: rescales operation times to one reference speed.

The host the benchmark was built on runs the same code up to about twice as
slowly in some spells as in others, and the spells come and go within a run,
from fractions of a second to tens of seconds.  CPU time slows down with
wall time, so neither clock removes it.  A probe times four fixed pieces of
pure-Python work shaped like the library's hot paths (tuple sums modulo
small orders, row eliminations, mixed bookkeeping, integer steps), each as
the faster of two back-to-back runs so that a preemption does not pass for
a slow spell; the probe's cost is their sum.  Spells slow the pieces by
different factors, and the sum follows the library more closely than any
one piece.  The probe runs before each operation, every ``INTERVAL_S``
seconds during it (from ``SIGALRM``, so between two bytecodes of the
operation) and after it.  The operation's time is split into the stretches
between probes, the probes' own time left out; each stretch is scaled by
``REF_S`` over the mean cost of the probes at its two ends.  A scaled time
reads as seconds at the speed where one probe costs ``REF_S``: a fast spell
of the 2-core Xeon VM the benchmark was built on.
"""

from __future__ import annotations

import gc
import signal
import time

ORDERS = (4, 6, 9)
#: Times each piece of probe work runs; the faster run counts.
REPEATS = 2
#: Cost of one probe in a fast spell of the VM the benchmark was built on.
REF_S = 0.00052
INTERVAL_S = 0.03


def tuple_sums(n: int = 250):
    """Coordinate tuples added modulo the factor orders, as in ``groups``."""
    acc = (0, 0, 0)
    for i in range(n):
        b = (i % 4, i % 6, i % 9)
        acc = tuple((x + y) % m for x, y, m in zip(acc, b, ORDERS))
    return acc


def row_ops(n: int = 30):
    """Row eliminations modulo 8 by list comprehension, as in ``residues``."""
    r1, r2 = list(range(1, 25)), list(range(3, 27))
    for i in range(n):
        f = i % 7 + 1
        r1, r2 = r2, [(a - f * b) % 8 for a, b in zip(r1, r2)]
    return r1


def bookkeeping(n: int = 75):
    """Tuples, short rows and a dictionary of counts, mixed."""
    counts: dict = {}
    acc = (0, 0, 0)
    row = list(range(12))
    for i in range(n):
        acc = tuple((x + y) % m for x, y, m in zip(acc, (i % 4, i % 6, i % 9), ORDERS))
        row = [(a + i * c) % 9 for a, c in zip(row, acc * 4)]
        counts[acc] = counts.get(acc, 0) + 1
    return row, len(counts)


def int_steps(n: int = 1500):
    """Scalar integer arithmetic."""
    h = 0
    for i in range(n):
        h = (h * 31 + i) % 1000003
    return h


PROBE_WORK = (tuple_sums, row_ops, bookkeeping, int_steps)


def scaled_time(samples: list[tuple[float, float, float]],
                ref: float = REF_S) -> tuple[float, float]:
    """(raw, scaled) seconds of the work between probes.  `samples` holds
    (start, end, cost) of each probe in order: the first taken before the
    work, the last after it."""
    raw = scaled = 0.0
    for (_, e0, c0), (s1, _, c1) in zip(samples, samples[1:]):
        work = s1 - e0
        raw += work
        scaled += work * ref / ((c0 + c1) / 2)
    return raw, scaled


class SpeedProbe:
    def __init__(self, clock=time.perf_counter, interval: float = INTERVAL_S):
        self.clock = clock
        self.interval = interval
        self.samples: list[tuple[float, float, float]] = []

    def probe(self, *_signal_args) -> None:
        # the probe frees what it allocates, and the collector is held off
        # so that it never collects the operation's objects on its clock
        enabled = gc.isenabled()
        gc.disable()
        start = end = self.clock()
        cost = 0.0
        for work in PROBE_WORK:
            best = float("inf")
            for _ in range(REPEATS):
                work()
                now = self.clock()
                best = min(best, now - end)
                end = now
            cost += best
        if enabled:
            gc.enable()
        self.samples.append((start, end, cost))

    def run(self, fn):
        """Call `fn()` between probes, with probes every `interval` seconds
        while it runs; `scaled_time(self.samples)` then times it."""
        self.samples = []
        self.probe()
        previous = signal.signal(signal.SIGALRM, self.probe)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        try:
            return fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)
            self.probe()
