"""Event-kernel microbenchmark — the sim loop with nothing on top.

The tracked throughput grid (``BENCH_perf.json``) times whole scenarios
— scheduler, runtime, serving layers included — so a kernel regression
can hide behind an application-layer win.  This benchmark exercises the
:mod:`repro.sim` hot path *standalone* with three synthetic patterns:

* ``timeout_churn`` — many processes sleeping pseudo-random delays:
  the calendar queue's steady state (pushes and pops on the timed heap);
* ``same_timestamp`` — wide same-instant fan-out through shared
  events: the immediate/deferred O(1) lanes and batch advance;
* ``wake_chain`` — two processes ping-ponging through fresh events:
  the single-waiter fast path and the Timeout pool.

Every pattern's event count is deterministic (seeded LCG, no wall
input); the events-per-wall-second rates carry the ``_wall`` suffix so
the artifact (``benchmarks/out/bench_kernel.json``) stays byte-stable
across machines.  The churn pattern also records
:meth:`Environment.kernel_stats` — the same gauges the runner publishes
as ``run.kernel.*``.

Runs under pytest like the other benchmarks, or standalone::

    PYTHONPATH=src python benchmarks/bench_kernel.py
"""

import time

from repro.sim import Environment

REPS = 3


def _lcg(seed):
    """Deterministic delay stream; no ``random`` import on the hot path."""
    state = seed & 0xFFFFFFFF
    while True:
        state = (1103515245 * state + 12345) & 0x7FFFFFFF
        yield (state % 1000) / 100.0


def timeout_churn(n_procs=100, n_sleeps=200, seed=7):
    """Calendar steady state: ``n_procs`` sleepers, mixed delays."""
    env = Environment()

    def sleeper(rank):
        delays = _lcg(seed + rank)
        for _ in range(n_sleeps):
            yield env.timeout(next(delays))

    procs = [env.process(sleeper(i)) for i in range(n_procs)]
    env.run_until_complete(env.all_of(procs))
    return env


def same_timestamp(n_waiters=500, n_rounds=40):
    """Same-instant fan-out: one trigger wakes ``n_waiters`` per round."""
    env = Environment()

    def waiter(gates):
        for gate in gates:
            yield gate

    def ticker(gates):
        for gate in gates:
            yield env.timeout(1.0)
            gate.succeed()

    gates = [env.event() for _ in range(n_rounds)]
    procs = [env.process(waiter(gates)) for _ in range(n_waiters)]
    procs.append(env.process(ticker(gates)))
    env.run_until_complete(env.all_of(procs))
    return env


def wake_chain(n_rounds=20000):
    """Two-process ping-pong: single-waiter events, pooled timeouts."""
    env = Environment()
    box = {"ping": env.event(), "pong": env.event()}

    def left():
        for _ in range(n_rounds):
            yield env.timeout(0.5)
            box["ping"].succeed()
            box["pong"] = env.event()
            yield box["pong"]

    def right():
        for _ in range(n_rounds):
            yield box["ping"]
            box["ping"] = env.event()
            box["pong"].succeed()

    procs = [env.process(left()), env.process(right())]
    env.run_until_complete(env.all_of(procs))
    return env


PATTERNS = (
    ("timeout_churn", timeout_churn),
    ("same_timestamp", same_timestamp),
    ("wake_chain", wake_chain),
)


def measure_kernel(reps=REPS, time_source=time.perf_counter):
    """Best-of-``reps`` wall time per pattern; the artifact payload."""
    scenarios = {}
    kernel = None
    for name, pattern in PATTERNS:
        best, env = float("inf"), None
        for _ in range(max(1, reps)):
            t0 = time_source()
            env = pattern()
            best = min(best, time_source() - t0)
        scenarios[name] = {
            "events": env.events_processed,
            "events_per_sec_wall": (
                env.events_processed / best if best > 0 else 0.0
            ),
            "seconds_wall": best,
        }
        if name == "timeout_churn":
            kernel = env.kernel_stats()
    return {"reps": reps, "scenarios": scenarios, "kernel": kernel}


def test_kernel_hot_path(benchmark, record_json):
    from conftest import run_once

    payload = run_once(benchmark, measure_kernel)
    for name, row in payload["scenarios"].items():
        assert row["events"] > 0, name
        assert row["events_per_sec_wall"] > 0.0, name
    # The pool and the O(1) lanes must actually be exercised — a silent
    # fall-back to heap-everything would pass a pure throughput check.
    assert payload["kernel"]["pool_hit_rate"] > 0.5
    assert payload["kernel"]["heap_events"] > 0
    record_json("bench_kernel", payload)


if __name__ == "__main__":
    import json

    from repro.obs.bench import stable_payload

    print(json.dumps(stable_payload(measure_kernel()), indent=2,
                     sort_keys=True))
