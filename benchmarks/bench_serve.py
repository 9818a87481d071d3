"""The tracked serving-layer SLO grid — online behavior as a trajectory.

Runs the multi-tenant serving simulation once per (dispatch policy,
elasticity) cell — static-block, least-loaded and work-stealing, each
with the fleet fixed at max size and with the MGPS-style autoscaler —
and records tail latency (p50/p95/p99), goodput, rejection accounting
and autoscaler activity to ``benchmarks/out/BENCH_serve.json``.
It also re-asserts the layer's headline invariant: per-job result
digests are identical across dispatch policies.

The same payload is the tracked repo-root ``BENCH_serve.json``,
written only by ``repro bench --write``.  Every non-``_wall`` field is
deterministic, so the committed file is a regression gate: ``repro
bench --check`` re-measures and diffs.  A diff in that file inside a PR
is a deliberate statement that serving behavior changed.
"""

from conftest import run_once

from repro.obs.bench import SERVE_POLICIES, measure_serve, semantic_violations


def test_serving_slo_grid(benchmark, record_json):
    payload = run_once(benchmark, measure_serve)

    policies = payload["policies"]
    assert set(policies) == set(SERVE_POLICIES)
    for name, cells in policies.items():
        for label in ("fixed", "autoscale"):
            row = cells[label]
            assert row["completed"] > 0, f"{name}/{label} completed nothing"
            # Percentiles must be ordered and positive.
            assert (0 < row["latency_p50_s"] <= row["latency_p95_s"]
                    <= row["latency_p99_s"]), f"{name}/{label} percentiles"
            assert row["goodput_jps"] > 0
        # The elastic fleet starts smaller, so its tail can only be
        # worse-or-equal; it must actually have scaled at least once on
        # this workload or the autoscaler is inert.
        assert (cells["autoscale"]["latency_p99_s"]
                >= cells["fixed"]["latency_p99_s"] - 1e-9)
        assert cells["autoscale"]["scale_ups"] > 0, (
            f"{name}: the autoscaler never scaled up under load"
        )
        assert cells["fixed"]["scale_ups"] == 0

    # The headline invariant: what a job computes never depends on which
    # blade ran it, in what order, or under which dispatch policy.
    broken = semantic_violations("serve", payload)
    assert not broken, [str(v) for v in broken]

    record_json("BENCH_serve", payload)
