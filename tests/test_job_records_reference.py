"""Columnar job records and one-sort percentiles against the old forms.

``Service.result`` fills one column per record field, rounding the time
columns in one vectorized pass, and hands out each record as a dict
built on read (:class:`JobRecords`); :class:`ServeStats` sorts each
latency group once and reads every percentile from that list.  The
references here are the code they replace: the tuple of
``stable_round``-ed dicts built from the same finished
:class:`Service`, ``stable_round`` called value by value, the
per-tenant filter-and-sort summary, and :func:`exact_percentile` (which
sorts on every call).
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

import repro.serve.dag as dag_module
from repro.obs.metrics import stable_round
from repro.serve import (
    BladeKill,
    DagConfig,
    FleetFaultPlan,
    ServeConfig,
    TenantSpec,
    available_dispatch_policies,
    default_tenants,
    raxml_workflow,
    run_dag,
)
from repro.serve.service import JobRecords, Service, _rounded
from repro.serve.slo import exact_percentile, sorted_percentiles
from repro.sim.engine import Environment


def reference_records(service):
    """The tuple of dicts ``Service.result`` used to build per job."""
    return tuple(
        {
            "job_id": j.job_id,
            "source": j.source,
            "tenant": j.tenant,
            "template": j.template.name,
            "variant": j.variant,
            "submit": stable_round(j.submit_time),
            "start": stable_round(j.start_time),
            "finish": stable_round(j.finish_time),
            "latency": stable_round(j.latency),
            "blade": j.blade,
            "failovers": j.failovers,
            "missed_deadline": j.missed_deadline,
            "digest": j.digest,
        }
        for j in sorted(service.stats.completed_jobs,
                        key=lambda j: j.job_id)
    )


def reference_tenant_summary(stats, tenant, duration):
    """One tenant's summary block as a filter and a sort per value."""
    jobs = [j for j in stats.completed_jobs if j.tenant == tenant]
    lat = [j.latency for j in jobs]
    rejected = sum(1 for _, t, _ in stats.rejections if t == tenant)
    offered = len(jobs) + rejected
    missed = sum(1 for j in jobs if j.missed_deadline)
    return {
        "completed": len(jobs),
        "rejected": rejected,
        "deadline_misses": missed,
        "latency_p50_s": exact_percentile(lat, 50),
        "latency_p95_s": exact_percentile(lat, 95),
        "latency_p99_s": exact_percentile(lat, 99),
        "rejection_rate": rejected / offered if offered else 0.0,
        "deadline_miss_rate": missed / len(jobs) if jobs else 0.0,
        "goodput_jps": (len(jobs) - missed) / duration if duration > 0
        else 0.0,
    }


def check_records(result, service):
    ref = reference_records(service)
    rec = result.job_records
    assert isinstance(rec, JobRecords)
    assert len(rec) == len(ref) > 0
    # repr also tells 0 from 0.0 and -0.0 from 0.0, and shows key order.
    assert [repr(r) for r in rec] == [repr(r) for r in ref]
    assert [repr(rec[i]) for i in range(len(ref))] \
        == [repr(r) for r in ref]
    assert rec[-1] == ref[-1] and rec[-len(ref)] == ref[0]
    assert rec[1:4] == ref[1:4] and rec[::-2] == ref[::-2]
    with pytest.raises(IndexError):
        rec[len(ref)]
    assert rec == ref and ref == rec
    assert rec != ref[:-1] and rec != list(ref)
    assert rec == JobRecords(rec._columns)
    assert result.digest_map() \
        == {r["source"]: r["digest"] for r in ref}
    old = dataclasses.replace(result, job_records=ref)
    assert result.to_json() == old.to_json()


def check_summary(summary, stats, duration):
    for tenant, block in summary["tenants"].items():
        assert repr(block) == repr(
            reference_tenant_summary(stats, tenant, duration))
    lat = [j.latency for j in stats.completed_jobs]
    for p in (50, 95, 99):
        assert summary[f"latency_p{p}_s"] == exact_percentile(lat, p)
    assert summary["deadline_misses"] \
        == sum(1 for j in stats.completed_jobs if j.missed_deadline)


def _serve(config):
    env = Environment()
    service = Service(env, config)
    service.start()
    env.run_until_complete(service._main)
    return service.result(), service


@pytest.mark.parametrize(
    "dispatch", [info.name for info in available_dispatch_policies()])
def test_serve_records_match_the_tuple_of_dicts(dispatch):
    # Saturated, with a tight-deadline tenant and a mid-run blade kill,
    # so the missed_deadline and failovers columns are not constant.
    mix = default_tenants(arrival_rate=0.08)
    tight = TenantSpec("tight", mix[0].template, arrival_rate=0.02,
                       priority=2, deadline_s=25.0)
    config = ServeConfig(
        tenants=(*mix, tight), duration_s=1800.0,
        seed=5, dispatch=dispatch, min_blades=2, max_blades=3,
        faults=FleetFaultPlan(kills=(BladeKill(blade=2, at=700.0),)),
    )
    result, service = _serve(config)
    check_records(result, service)
    check_summary(result.summary, service.stats, result.makespan)
    missed = result.job_records.column("missed_deadline")
    assert True in missed and False in missed
    assert any(result.job_records.column("failovers"))


def test_dag_records_match_the_tuple_of_dicts(monkeypatch):
    made = []

    class Recorded(Service):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(dag_module, "Service", Recorded)
    result = run_dag(DagConfig(workflow=raxml_workflow(replicates=8),
                               submissions=2, seed=3))
    check_records(result.serve, made[-1])
    check_summary(result.serve.summary, made[-1].stats,
                  result.serve.makespan)


def test_empty_records():
    rec = JobRecords(((),) * 13)
    assert len(rec) == 0 and list(rec) == [] and rec == ()
    assert rec[:] == ()


_latencies = st.lists(
    st.one_of(
        st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
        # Ties: draw from a handful of values.
        st.sampled_from([0.0, 1.5, 2.0, 2.0, 1e-9]),
    ),
    max_size=60,
)


@settings(max_examples=300, deadline=None)
@given(_latencies)
def test_sorted_percentiles_match_exact_percentile(values):
    assert sorted_percentiles(sorted(values)) \
        == tuple(exact_percentile(values, p) for p in (50, 95, 99))


# Values near the fast path's edges: ties of the ninth decimal (k + 0.5
# nanoseconds), the 2**47 product bound, tiny and negative values.
_near_ties = st.builds(
    lambda k, eps, sign: sign * (k + 0.5 + eps) / 1e9,
    st.integers(min_value=0, max_value=2 ** 48),
    st.sampled_from([0.0, 1e-3, -1e-3, 0.04, -0.04, 0.06, -0.06, 1e-9]),
    st.sampled_from([1.0, -1.0]),
)
_columns = st.lists(
    st.one_of(
        st.floats(allow_nan=True, allow_infinity=True),
        st.floats(min_value=-2e5, max_value=2e5),
        st.floats(min_value=-1e-8, max_value=1e-8),
        st.sampled_from([0.0, -0.0, 5e-10, -5e-10, 2.0 ** 47 / 1e9,
                         -(2.0 ** 47) / 1e9, 140737.48835532]),
        _near_ties,
    ),
    max_size=40,
)


@settings(max_examples=400, deadline=None)
@given(_columns)
def test_rounded_column_matches_stable_round(values):
    values = tuple(values)
    assert [repr(x) for x in _rounded(values)] \
        == [repr(stable_round(x)) for x in values]


def test_rounded_column_passes_non_floats_through():
    values = (None, 0, 1.25e-10, -0.0, 3)
    assert [repr(x) for x in _rounded(values)] \
        == [repr(stable_round(x)) for x in values]
