"""The scheduling-policy registry: registration, lookup, end-to-end use."""

import pytest

from repro.core.runner import run_experiment
from repro.core.runtime import (
    SchedulingPolicy,
    available_policies,
    register_policy,
    resolve_policy,
)
from repro.core.runtime.policy import _REGISTRY
from repro.core.schedulers import SchedulerSpec, edtlp, linux, mgps, static_hybrid
from repro.workloads import Workload


# The convenience constructor for each built-in registry entry.
_CONVENIENCE = {
    "linux": linux,
    "edtlp": edtlp,
    "static_hybrid": lambda: static_hybrid(4),
    "mgps": mgps,
}


@pytest.fixture
def scratch_registry():
    """Let a test register throwaway policies without polluting others."""
    before = set(_REGISTRY)
    yield
    for name in set(_REGISTRY) - before:
        del _REGISTRY[name]


class TestRegistry:
    def test_builtins_registered(self):
        names = [info.name for info in available_policies()]
        assert names == sorted(names)
        assert {"linux", "edtlp", "static_hybrid", "mgps"} <= set(names)

    def test_duplicate_name_rejected(self, scratch_registry):
        register_policy("dup-policy", lambda spec: SchedulingPolicy())
        with pytest.raises(ValueError, match=r"already registered"):
            register_policy("dup-policy", lambda spec: SchedulingPolicy())

    def test_duplicate_name_allowed_with_replace(self, scratch_registry):
        first = register_policy("dup-policy", lambda spec: SchedulingPolicy())
        second = register_policy(
            "dup-policy", lambda spec: SchedulingPolicy(), replace=True
        )
        assert resolve_policy("dup-policy").factory is second
        assert resolve_policy("dup-policy").factory is not first

    def test_unknown_name_lists_known_policies(self):
        with pytest.raises(ValueError) as err:
            resolve_policy("no-such-policy")
        message = str(err.value)
        assert "no-such-policy" in message
        assert "known policies" in message
        for name in ("edtlp", "linux", "mgps", "static_hybrid"):
            assert name in message

    def test_spec_kind_goes_through_registry(self):
        with pytest.raises(ValueError, match=r"known policies"):
            SchedulerSpec(kind="bogus")

    def test_historical_static_spelling_rejected(self):
        with pytest.raises(ValueError, match=r"known policies"):
            SchedulerSpec(kind="static", llp_degree=4)

    def test_knobs_recorded(self):
        assert "llp_degree" in resolve_policy("static_hybrid").knobs
        assert "history_window" in resolve_policy("mgps").knobs


@pytest.mark.parametrize("name", [info.name for info in available_policies()])
def test_registry_name_builds_the_convenience_experiment(name):
    helper = _CONVENIENCE[name]()
    by_name = SchedulerSpec(kind=name, llp_degree=helper.llp_degree)
    assert by_name.name == helper.name
    assert by_name.default_processes(8, 16) == helper.default_processes(8, 16)
    wl = Workload(bootstraps=3, tasks_per_bootstrap=60, seed=0)
    got, want = run_experiment(by_name, wl), run_experiment(helper, wl)
    assert got.result_digest == want.result_digest
    assert got.makespan == want.makespan


class TestCustomPolicyEndToEnd:
    def test_registered_policy_runs_via_spec(self, scratch_registry):
        class FixedDegree(SchedulingPolicy):
            name = "fixed3"

            def llp_degree(self, ctx):
                return 3

        register_policy("fixed3", lambda spec: FixedDegree())
        wl = Workload(bootstraps=4, tasks_per_bootstrap=120, seed=0)
        result = run_experiment(SchedulerSpec(kind="fixed3"), wl)
        assert result.offloads > 0
        assert result.llp_invocations > 0  # degree 3 forces loop splits
        assert result.scheduler == "fixed3"

    def test_factory_reads_spec_knobs(self, scratch_registry):
        seen = {}

        class Probe(SchedulingPolicy):
            name = "probe"

        def factory(spec):
            seen["llp_degree"] = spec.llp_degree
            return Probe()

        register_policy("probe", factory)
        wl = Workload(bootstraps=2, tasks_per_bootstrap=40, seed=0)
        run_experiment(SchedulerSpec(kind="probe", llp_degree=5), wl)
        assert seen["llp_degree"] == 5

    def test_admit_veto_forces_ppe_fallback(self, scratch_registry):
        class NoOffload(SchedulingPolicy):
            name = "no-offload"

            def admit(self, ctx, task, decision):
                return False

        register_policy("no-offload", lambda spec: NoOffload())
        wl = Workload(bootstraps=2, tasks_per_bootstrap=60, seed=0)
        vetoed = run_experiment(SchedulerSpec(kind="no-offload"), wl)
        free = run_experiment(edtlp(), wl)
        assert vetoed.offloads == 0
        assert vetoed.ppe_fallbacks > 0
        # Results are computed either way; only placement changes.
        assert vetoed.result_digest == free.result_digest
