"""Host-speed calibration: a fixed probe sampled while the program runs.

The host this benchmark was tuned on (a shared 2-vCPU KVM guest on a
2.1 GHz Xeon) changes speed by 1.3-1.8x in phases lasting from seconds
to minutes, in step on both vCPUs; the same op can take 0.15 s or
0.20 s a minute apart.  Raw host times are therefore too noisy to gate
on, so the worker measures the host's speed *during* each op and
reports the op's time at a fixed reference speed.

:class:`Sampler` runs :func:`probe` (a ~0.2 ms pure-Python heap,
generator and dict mix that never touches ``repro``, so no change to
the program can move it) from a ``SIGALRM`` handler every
:data:`INTERVAL_S` of wall time.  For an interval of raw host time ``T``
holding probe samples ``p_i`` (their own time ``sum(p_i)`` removed), the
reference time is ``(T - sum(p_i)) * mean((REFERENCE_PROBE_S / p_i) **
SPEED_EXPONENT)``: the seconds the same work takes when the probe runs
in :data:`REFERENCE_PROBE_S`.  Averaging speed ratios, not probe times,
is what converts time at a varying speed into work.

The probe reacts more strongly to the host's contention than the
simulator does: regressing ln(op time) on ln(probe speed ratio) over
526 samples of ops of 0.3 s or more, each centred on the repetitions of
the same op and seed, gives a slope of 0.84.  :data:`SPEED_EXPONENT`
applies that measured slope.  Sampling
costs about 1.3% of the op's time, and it is not counted.
"""

import heapq
import signal
import time

INTERVAL_S = 0.02
REFERENCE_PROBE_S = 200e-6  # the probe's time when the host above runs fast
SPEED_EXPONENT = 0.85
MIN_SAMPLES = 3


def _stream(n, stride):
    for i in range(n):
        yield (i * stride) % 1013


def probe(rounds=2, width=150):
    """One probe: heap pushes and pops fed by a generator, dict counts."""
    heap = []
    seen = {}
    acc = 0
    for r in range(rounds):
        for v in _stream(width, 7 + r):
            heapq.heappush(heap, (v, r))
            seen[v] = seen.get(v, 0) + 1
        while heap:
            acc += heapq.heappop(heap)[0]
    return acc


class Sampler:
    """Times :func:`probe` every :data:`INTERVAL_S` from a timer signal."""

    def __init__(self):
        self.samples = []

    def _tick(self, _signum, _frame):
        t0 = time.perf_counter()
        probe()
        self.samples.append(time.perf_counter() - t0)

    def start(self):
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)

    def mark(self):
        """Index of the next sample; pass it to :meth:`reference_time`."""
        return len(self.samples)

    def reference_time(self, raw_s, since):
        """(reference seconds, mean probe seconds) of a ``raw_s`` interval
        whose samples start at index ``since``.  An interval too short to
        hold :data:`MIN_SAMPLES` borrows the latest samples before it."""
        inside = self.samples[since:]
        while len(self.samples) < MIN_SAMPLES:
            self._tick(None, None)
        used = inside if len(inside) >= MIN_SAMPLES else self.samples[-MIN_SAMPLES:]
        speed = sum((REFERENCE_PROBE_S / p) ** SPEED_EXPONENT
                    for p in used) / len(used)
        return (raw_s - sum(inside)) * speed, sum(used) / len(used)
