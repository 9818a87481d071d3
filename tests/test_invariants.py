"""Tests for the correctness invariants (src/repro/invariants.py).

Each check is exercised on hand-built summaries and digest maps; a
real bootstopped workflow run with its conservation identity broken
must be caught by every caller that routes through the module; and the
replay exit codes of ``repro faults``, ``repro serve`` and ``repro
dag`` follow the checks' verdicts.
"""

import json

import pytest

import repro.invariants as invariants
from repro.cli import main
from repro.invariants import (
    Violation,
    conservation,
    digest_diff,
    no_lost_jobs,
)
from repro.obs.bench import semantic_violations
from repro.serve import BootstopConfig, DagConfig, raxml_workflow, run_dag
from repro.serve.chaos import ChaosConfig, check_plan_invariants


def summary(admitted=10, completed=6, cancelled=2, deadline_aborts=1,
            lost=1):
    return {"admitted": admitted, "completed": completed,
            "cancelled": cancelled, "deadline_aborts": deadline_aborts,
            "lost": lost}


def checks(violations):
    return [v.check for v in violations]


# -- the checks on hand-built inputs ------------------------------------------

class TestConservation:
    def test_exact_identity_holds(self):
        assert conservation(summary()) == []

    @pytest.mark.parametrize("field", ["completed", "cancelled",
                                       "deadline_aborts", "lost"])
    def test_every_terminal_class_counts(self, field):
        s = summary()
        s[field] += 1
        (v,) = conservation(s)
        assert v.check == "conservation"
        assert "admitted 10" in v.detail and "cancelled" in v.detail

    def test_str_names_the_check(self):
        (v,) = conservation(summary(admitted=11))
        assert str(v).startswith("conservation: admitted 11 != ")


class TestNoLostJobs:
    def test_zero_lost_passes(self):
        assert no_lost_jobs(summary(lost=0, completed=7)) == []

    def test_lost_jobs_reported(self):
        (v,) = no_lost_jobs(summary(lost=3))
        assert v == Violation("lost", "lost 3 job(s)")


class TestDigestDiff:
    REF = {"a": "1", "b": "2", "c": "3"}

    def test_identical_maps(self):
        assert digest_diff(self.REF, dict(self.REF)) == []

    def test_missing_extra_changed_carry_sorted_keys(self):
        cand = {"a": "1", "c": "X", "z": "9", "y": "8"}
        by_check = {v.check: v for v in digest_diff(self.REF, cand)}
        assert list(by_check) == ["digest.missing", "digest.extra",
                                  "digest.changed"]
        assert by_check["digest.missing"].keys == ("b",)
        assert by_check["digest.extra"].keys == ("y", "z")
        assert by_check["digest.changed"].keys == ("c",)

    def test_only_changed_when_key_sets_agree(self):
        (v,) = digest_diff({1: "x", 2: "y"}, {1: "x", 2: "Y"})
        assert (v.check, v.keys) == ("digest.changed", (2,))

    def test_detail_lists_at_most_three_keys(self):
        ref = {k: "d" for k in "abcde"}
        (v,) = digest_diff(ref, {})
        assert v.keys == tuple("abcde")
        assert v.detail == "5 key(s): a, b, c, ..."


# -- a broken identity on a real run ------------------------------------------

@pytest.fixture
def bootstopped():
    result = run_dag(DagConfig(
        workflow=raxml_workflow(replicates=20), seed=3,
        bootstop=BootstopConfig(min_replicates=10, check_every=2),
    ))
    assert result.serve.summary["cancelled"] > 0
    return result


def dag_payload(result):
    """The conservation fields of a ``BENCH_dag`` payload for ``result``."""
    return {"conservation_ok": result.conservation_ok,
            "lost_jobs": result.serve.summary["lost"]}


class TestBrokenIdentity:
    def callers(self, result):
        """What each caller reports about ``result``'s conservation."""
        plan = check_plan_invariants(ChaosConfig(plans=1), result.serve,
                                     result.serve)
        return {
            "DagResult.conservation_ok": result.conservation_ok,
            "check_plan_invariants": "conservation" not in checks(plan),
            "semantic_violations": "conservation" not in checks(
                semantic_violations("dag", dag_payload(result))
            ),
        }

    def test_real_identity_holds_in_every_caller(self, bootstopped):
        verdicts = self.callers(bootstopped)
        assert all(verdicts.values()), verdicts

    def test_dropped_cancellation_fails_in_every_caller(self, bootstopped):
        bootstopped.serve.summary["cancelled"] -= 1
        verdicts = self.callers(bootstopped)
        assert not any(verdicts.values()), verdicts


# -- CLI replay exit codes ----------------------------------------------------

def broken(check):
    return lambda *args, **kwargs: [Violation(check, "forced")]


FAULTS = ["faults", "mgps", "--bootstraps", "2", "--tasks", "30",
          "--spe-kill", "2:1e-4"]
DAG_KILL = ["dag", "--replicates", "20", "--blades", "3",
            "--kill-blade", "1:60"]
SERVE_KILL = ["serve", "--duration", "600", "--kill-blade", "1:200"]


class TestReplayExitCodes:
    @pytest.mark.parametrize("argv", [FAULTS, DAG_KILL, SERVE_KILL])
    def test_healthy_run_exits_zero(self, argv, capsys):
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("argv,patched", [
        (FAULTS, "digest_diff"),
        (DAG_KILL, "conservation"),
        (SERVE_KILL, "conservation"),
    ])
    def test_broken_check_exits_one(self, argv, patched, monkeypatch,
                                    capsys):
        monkeypatch.setattr(invariants, patched, broken(
            "digest.changed" if patched == "digest_diff" else "conservation"
        ))
        assert main(argv) == 1
        assert "forced" in capsys.readouterr().err

    def test_serve_digest_gate_reads_changed_keys_only(self, monkeypatch,
                                                       capsys):
        # Closed-loop tenants change the key set under faults; only a
        # changed digest on a shared key fails the replay.
        monkeypatch.setattr(invariants, "digest_diff",
                            broken("digest.missing"))
        assert main(SERVE_KILL) == 0
        monkeypatch.setattr(invariants, "digest_diff",
                            broken("digest.changed"))
        assert main(SERVE_KILL) == 1
        assert "DIVERGED" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [FAULTS, DAG_KILL, SERVE_KILL])
    def test_json_mode_names_the_violation_on_stderr(self, argv,
                                                     monkeypatch, capsys):
        monkeypatch.setattr(invariants, "digest_diff",
                            broken("digest.changed"))
        monkeypatch.setattr(invariants, "conservation",
                            broken("conservation"))
        assert main(argv + ["--json"]) == 1
        captured = capsys.readouterr()
        json.loads(captured.out)  # stdout stays pure JSON
        assert f"repro {argv[0]}: " in captured.err
        assert "forced" in captured.err
