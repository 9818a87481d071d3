"""Workload generators: how tenants put jobs into the front-end.

Three arrival models, all driven by named :class:`~repro.sim.rng.RngStreams`
substreams so a single root seed makes every arrival time, template
variant, and think time bit-reproducible:

* **open-loop Poisson** — exponential inter-arrival gaps at the tenant's
  ``arrival_rate``; the tenant keeps submitting whether or not the fleet
  keeps up, which is what exposes saturation and shedding.
* **closed-loop think-time** — ``clients`` concurrent clients, each
  waiting for its previous job to *finish* before thinking (exponential
  mean ``think_time_s``) and submitting the next; load self-throttles as
  latency grows.
* **bursty** — quiet gaps (exponential mean ``burst_interval_s``)
  punctuated by ``burst_size`` back-to-back submissions, the adversarial
  pattern for token buckets and bounded queues.

Generators never talk to blades: they hand jobs to the front-end
``submit`` callback and the admission layer decides their fate.
"""

from __future__ import annotations

from typing import Callable, Generator, Optional

import numpy as np

from ..sim.engine import Environment
from ..sim.events import Event
from .jobs import Job, TenantSpec

__all__ = ["tenant_generators"]

# submit(tenant, variant, source, awaited=False) -> the admitted Job, or
# None when shed.  ``source`` is the job's stable identity: the k-th
# submission of one generator loop keeps the same source (and, because
# variants come from that loop's private RNG stream, the same variant)
# no matter how the rest of the run times out.  Only the closed-loop
# client passes ``awaited=True``: it alone waits on the job's ``done``.
SubmitFn = Callable[..., Optional[Job]]


def _pick_variant(rng: np.random.Generator, tenant: TenantSpec) -> int:
    return int(rng.integers(tenant.template.variants))


def _open_loop(
    env: Environment,
    tenant: TenantSpec,
    rng: np.random.Generator,
    submit: SubmitFn,
    horizon: float,
) -> Generator[Event, None, int]:
    """Poisson arrivals until the horizon; returns jobs offered."""
    offered = 0
    while True:
        gap = float(rng.exponential(1.0 / tenant.arrival_rate))
        if env.now + gap >= horizon:
            return offered
        yield env.timeout(gap)
        submit(tenant, _pick_variant(rng, tenant),
               f"{tenant.name}:open:{offered}")
        offered += 1


def _closed_loop_client(
    env: Environment,
    tenant: TenantSpec,
    rng: np.random.Generator,
    submit: SubmitFn,
    horizon: float,
    client: int,
) -> Generator[Event, None, int]:
    """One think-submit-wait client; returns jobs offered."""
    offered = 0
    # Desynchronize clients: an initial think so a tenant's clients do
    # not all submit at t=0 in lockstep.
    yield env.timeout(float(rng.exponential(tenant.think_time_s)))
    while env.now < horizon:
        job = submit(tenant, _pick_variant(rng, tenant),
                     f"{tenant.name}:client{client}:{offered}",
                     awaited=True)
        offered += 1
        if job is not None:
            yield job.done
        think = float(rng.exponential(tenant.think_time_s))
        if env.now + think >= horizon:
            return offered
        yield env.timeout(think)
    return offered


def _bursty(
    env: Environment,
    tenant: TenantSpec,
    rng: np.random.Generator,
    submit: SubmitFn,
    horizon: float,
) -> Generator[Event, None, int]:
    """Exponential quiet gaps, then burst_size submissions at once."""
    offered = 0
    while True:
        gap = float(rng.exponential(tenant.burst_interval_s))
        if env.now + gap >= horizon:
            return offered
        yield env.timeout(gap)
        for _ in range(tenant.burst_size):
            submit(tenant, _pick_variant(rng, tenant),
                   f"{tenant.name}:burst:{offered}")
            offered += 1


def tenant_generators(
    env: Environment,
    tenant: TenantSpec,
    streams,
    submit: SubmitFn,
    horizon: float,
):
    """Start this tenant's arrival processes; returns the Process list.

    Each client/loop draws from its own named substream
    (``arrivals:{tenant}:{k}``) so adding a client, or changing how one
    consumes randomness, never perturbs the others — the common-random-
    numbers discipline the rest of the simulator follows.
    """
    if tenant.arrival == "poisson":
        rng = streams.stream(f"arrivals:{tenant.name}:0")
        return [env.process(
            _open_loop(env, tenant, rng, submit, horizon),
            name=f"arrivals:{tenant.name}",
        )]
    if tenant.arrival == "closed":
        procs = []
        for k in range(tenant.clients):
            rng = streams.stream(f"arrivals:{tenant.name}:{k}")
            procs.append(env.process(
                _closed_loop_client(env, tenant, rng, submit, horizon, k),
                name=f"arrivals:{tenant.name}:{k}",
            ))
        return procs
    if tenant.arrival == "bursty":
        rng = streams.stream(f"arrivals:{tenant.name}:0")
        return [env.process(
            _bursty(env, tenant, rng, submit, horizon),
            name=f"arrivals:{tenant.name}",
        )]
    raise ValueError(f"unknown arrival model {tenant.arrival!r}")
