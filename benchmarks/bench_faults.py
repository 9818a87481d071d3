"""Fault-handling overhead — tolerance must be free when nothing fails.

The retry/watchdog/fallback machinery wraps every off-load as soon as a
fault plan is attached, so its cost is paid even on runs where no fault
ever fires.  This benchmark times the tracked MGPS workload three ways —
no fault machinery at all, a *null* fault plan (tolerant path armed but
silent), and a fixed small storm (two SPE kills plus transient off-load
and DMA error rates) — and records the summary to
``benchmarks/out/BENCH_faults.json`` (the tracked repo-root
``BENCH_faults.json`` is written only by ``repro bench --write``).

Two invariants are asserted here and re-checked by ``repro bench
--check``:

* the zero-fault tolerant run stays within a few percent of the plain
  fast path (the watchdog deadline must never fire on a healthy run);
* both perturbed runs produce application results *bit-identical* to
  the fault-free run (``digest_match``) — faults may only stretch the
  timeline, never change what was computed.
"""

from conftest import run_once

from repro.obs.bench import measure_faults, semantic_violations


def test_fault_overhead(benchmark, record_json):
    payload = run_once(benchmark, measure_faults)

    tolerant = payload["zero_fault_tolerant"]
    faulty = payload["faulty"]

    # The semantic gates `repro bench --check` applies: same answers
    # under the null plan and the storm, and a chaos soak that loses no
    # job, changes no digest and conserves every admitted job.
    broken = semantic_violations("faults", payload)
    assert not broken, [str(v) for v in broken]

    # Tolerance machinery is near-free when healthy: no retries, no
    # fallbacks, and single-digit-percent makespan overhead.
    assert tolerant["offload_retries"] == 0
    assert tolerant["retry_fallbacks"] == 0
    assert tolerant["overhead_ratio"] < 1.10, (
        f"zero-fault tolerant path costs "
        f"{(tolerant['overhead_ratio'] - 1) * 100:.1f}% over the fast "
        f"path; the watchdog or backoff is firing on healthy off-loads"
    )

    # The storm actually exercised the machinery and the run degraded
    # gracefully instead of hanging or shedding work.
    assert faulty["spe_kills"] == 2
    assert faulty["live_spes"] <= 6
    assert faulty["offload_retries"] > 0
    assert faulty["slowdown_ratio"] >= 1.0

    # The deadline-enforcement cell fired.
    assert payload["fleet_faults"]["deadline_aborts"] > 0

    record_json("BENCH_faults", payload)
