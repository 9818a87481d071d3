"""Tests for the tracked benchmark trajectory and its regression gate.

Tier-1 guarantees: the committed repo-root ``BENCH_*.json`` baselines
parse and carry the keys the gate needs; :func:`repro.obs.bench.compare`
applies per-metric tolerances and ignores wall-clock fields; and a fresh
measurement of the scheduler ladder still matches the committed
baseline (the actual regression gate, run end to end).
"""

import json
import pathlib

import pytest

from repro.cli import main
from repro.obs.bench import (
    OBS,
    PERF_REGRESSION_TOLERANCE,
    SECTIONS,
    check_baselines,
    check_perf_floors,
    compare,
    find_repo_root,
    flatten,
    is_wall_field,
    measure_core,
    stable_payload,
)

REPO_ROOT = pathlib.Path(__file__).parent.parent

# The whole-gate tests below check that every deterministic field still
# matches its baseline.  They run with a wide throughput-floor tolerance
# so that a slow or busy host cannot fail them; only a >10x slowdown
# trips a floor here.  TestPerfFloors covers the floor logic itself, and
# CI's bench-gate job enforces the real floors.
WHOLE_GATE_TOLERANCE = 0.9


# -- committed baselines ------------------------------------------------------

class TestCommittedBaselines:
    @pytest.mark.parametrize("name,required", [
        (SECTIONS["core"].file, SECTIONS["core"].required),
        (OBS.file, OBS.required),
        (SECTIONS["perf"].file, SECTIONS["perf"].required),
    ])
    def test_baseline_parses_with_required_keys(self, name, required):
        path = REPO_ROOT / name
        assert path.exists(), (
            f"{name} must be committed at the repo root; regenerate with "
            f"the benchmarks suite or 'repro bench --write'"
        )
        payload = json.loads(path.read_text())
        for key in required:
            assert key in payload, f"{name} lost required key {key!r}"

    def test_core_baseline_covers_the_ladder(self):
        payload = json.loads((REPO_ROOT / SECTIONS["core"].file).read_text())
        assert set(payload["schedulers"]) == {
            "serial", "edtlp", "edtlp-llp4", "mgps",
        }
        for row in payload["schedulers"].values():
            assert {"makespan_s", "offloads", "llp_invocations"} <= set(row)

    def test_find_repo_root_locates_baselines(self):
        root = find_repo_root(pathlib.Path(__file__))
        assert (root / SECTIONS["core"].file).exists()


# -- compare() semantics ------------------------------------------------------

class TestCompare:
    BASE = {"a": {"makespan_s": 10.0, "offloads": 600,
                  "seconds_wall": 1.0}, "tag": "x"}

    def test_identical_payloads_pass(self):
        assert compare(self.BASE, self.BASE) == []

    def test_wall_fields_never_compared(self):
        current = {"a": {"makespan_s": 10.0, "offloads": 600,
                         "seconds_wall": 99.0}, "tag": "x"}
        assert compare(current, self.BASE) == []

    def test_drift_beyond_tolerance_flagged(self):
        current = {"a": {"makespan_s": 10.2, "offloads": 600,
                         "seconds_wall": 1.0}, "tag": "x"}
        violations = compare(current, self.BASE)
        assert [v["path"] for v in violations] == ["a.makespan_s"]
        assert violations[0]["kind"] == "drift"

    def test_tolerance_allows_slack(self):
        current = {"a": {"makespan_s": 10.2, "offloads": 600,
                         "seconds_wall": 1.0}, "tag": "x"}
        assert compare(current, self.BASE,
                       tolerances={"makespan_s": 0.05}) == []

    def test_count_metrics_compare_exactly(self):
        current = {"a": {"makespan_s": 10.0, "offloads": 601,
                         "seconds_wall": 1.0}, "tag": "x"}
        violations = compare(current, self.BASE)
        assert [v["path"] for v in violations] == ["a.offloads"]

    def test_missing_and_new_leaves_flagged(self):
        current = {"a": {"makespan_s": 10.0, "extra": 1.0,
                         "seconds_wall": 1.0}, "tag": "x"}
        kinds = {v["path"]: v["kind"] for v in compare(current, self.BASE)}
        assert kinds == {"a.offloads": "missing", "a.extra": "new"}

    def test_non_numeric_leaves_compare_exactly(self):
        current = dict(self.BASE, tag="y")
        violations = compare(current, self.BASE)
        assert [v["path"] for v in violations] == ["tag"]
        assert violations[0]["kind"] == "changed"

    def test_flatten_paths(self):
        flat = flatten({"a": {"b": [1, {"c": 2}]}, "d": 3})
        assert flat == {"a.b.0": 1, "a.b.1.c": 2, "d": 3}

    def test_stable_payload_rounds_but_passes_wall_through(self):
        raw = {"x": 0.123456789123456789, "t_wall": 0.123456789123456789}
        out = stable_payload(raw)
        assert out["x"] != raw["x"]  # rounded
        assert out["t_wall"] == raw["t_wall"]  # verbatim


# -- throughput floors --------------------------------------------------------

class TestPerfFloors:
    BASE = {"scenarios": {"fig8": {"events": 9016,
                                   "events_per_sec_wall": 100000.0,
                                   "seconds_wall": 0.09}}}

    def _current(self, rate):
        return {"scenarios": {"fig8": {"events": 9016,
                                       "events_per_sec_wall": rate,
                                       "seconds_wall": 0.09}}}

    def test_equal_rate_passes(self):
        assert check_perf_floors(self._current(100000.0), self.BASE) == []

    def test_faster_never_fails(self):
        assert check_perf_floors(self._current(1e9), self.BASE) == []

    def test_regression_within_tolerance_passes(self):
        # 30% default tolerance: 71k is above the 70k floor.
        assert check_perf_floors(self._current(71000.0), self.BASE) == []

    def test_regression_beyond_tolerance_fails(self):
        violations = check_perf_floors(self._current(69000.0), self.BASE)
        assert [v["path"] for v in violations] == [
            "scenarios.fig8.events_per_sec_wall"
        ]
        v = violations[0]
        assert v["kind"] == "throughput"
        assert v["floor"] == pytest.approx(70000.0)
        assert v["tolerance"] == PERF_REGRESSION_TOLERANCE

    def test_missing_rate_flagged(self):
        current = {"scenarios": {"fig8": {"events": 9016}}}
        violations = check_perf_floors(current, self.BASE)
        assert [v["kind"] for v in violations] == ["missing"]

    def test_explicit_tolerance_overrides_default(self):
        assert check_perf_floors(self._current(69000.0), self.BASE,
                                 tolerance=0.5) == []
        violations = check_perf_floors(self._current(99000.0), self.BASE,
                                       tolerance=0.0)
        assert len(violations) == 1

    def test_wall_rates_skipped_by_compare(self):
        # The very fields the floors enforce are invisible to the
        # two-sided diff — wall fields stay informational there.
        assert is_wall_field("scenarios.fig8.events_per_sec_wall")
        assert not is_wall_field("scenarios.fig8.events")
        current = self._current(12345.0)
        assert compare(current, self.BASE) == []


# -- the gate, end to end -----------------------------------------------------

class TestRegressionGate:
    @pytest.fixture(scope="class")
    def current(self):
        return measure_core()

    def test_fresh_measurement_matches_committed_baseline(self, current):
        baseline = json.loads((REPO_ROOT / SECTIONS["core"].file).read_text())
        violations = compare(current, baseline)
        assert violations == [], (
            "scheduler behavior drifted from the committed BENCH_core.json "
            "baseline; if intended, refresh it with 'repro bench --write' "
            f"and commit the diff: {violations}"
        )

    def test_check_baselines_passes(self, current):
        ok, report = check_baselines(root=REPO_ROOT,
                                     current={"core": current},
                                     perf_floor_tolerance=WHOLE_GATE_TOLERANCE)
        assert ok, report
        assert "bench: OK" in report

    def test_cli_bench_check_exits_zero(self, capsys):
        assert main(["bench", "--check", "--perf-tolerance",
                     str(WHOLE_GATE_TOLERANCE)]) == 0
        out = capsys.readouterr().out
        assert "bench: OK" in out
