#!/usr/bin/env python
"""Online serving demo: a multi-tenant job service over the blade fleet.

Runs the serving layer on the same fleet the offline scaling example
declares (``multicell_scaling.FLEET_*``): three tenants — an open-loop
Poisson stream with a deadline, a closed-loop think-time population and
a bursty batch submitter — stream jobs through admission control and a
dispatch policy at dual-Cell blades, with the MGPS-style autoscaler
resizing the active set.  Prints the SLO ledger per dispatch policy,
then re-runs the winner with a mid-stream blade death to show failover:
zero jobs lost, digests unchanged.
"""

import argparse

from multicell_scaling import FLEET_BLADE, FLEET_MAX_BLADES, FLEET_MIN_BLADES

from repro.invariants import digest_diff
from repro.serve import (
    BladeKill,
    FleetFaultPlan,
    ServeConfig,
    default_tenants,
    run_service,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--duration", type=float, default=1800.0, metavar="S",
                        help="arrival horizon in simulated seconds")
    parser.add_argument("--arrival-rate", type=float, default=0.05,
                        metavar="R", help="open-loop tenant rate [jobs/s]")
    parser.add_argument("--seed", type=int, default=7)
    return parser


def main() -> None:
    args = build_parser().parse_args()
    tenants = default_tenants(arrival_rate=args.arrival_rate)

    def config(**overrides) -> ServeConfig:
        base = dict(
            tenants=tenants,
            duration_s=args.duration,
            seed=args.seed,
            blade=FLEET_BLADE,
            min_blades=FLEET_MIN_BLADES,
            max_blades=FLEET_MAX_BLADES,
            autoscale=True,
        )
        base.update(overrides)
        return ServeConfig(**base)

    results = {}
    for dispatch in ("static-block", "least-loaded", "work-stealing"):
        results[dispatch] = run_service(config(dispatch=dispatch))
    for dispatch, result in results.items():
        print(result.summary_text())
        print()
    best = min(results, key=lambda d: results[d].summary["latency_p99_s"])
    print(f"lowest p99 on this workload: {best} "
          f"({results[best].summary['latency_p99_s']:.2f} s)")

    # Kill a blade mid-stream: queued and running jobs fail over and the
    # digests of every completed job match the fault-free run exactly.
    kill_at = args.duration / 3
    faulty = run_service(config(
        dispatch=best,
        faults=FleetFaultPlan(kills=(BladeKill(blade=1, at=kill_at),)),
    ))
    clean = results[best]
    clean_map, faulty_map = clean.digest_map(), faulty.digest_map()
    common = clean_map.keys() & faulty_map.keys()
    matched = not any(v.check == "digest.changed"
                      for v in digest_diff(clean_map, faulty_map))
    print(f"\nblade 1 killed at t={kill_at:g} s under {best} dispatch:")
    print(f"  {faulty.summary['completed']} jobs completed, "
          f"{faulty.lost_jobs} lost, "
          f"{faulty.summary['failovers']} failover(s)")
    print(f"  digests of {len(common)} common jobs "
          f"{'identical to the fault-free run' if matched else 'DIVERGED'}")


if __name__ == "__main__":
    main()
