"""Tests for the command-line interface."""

import argparse
import pathlib

import pytest

from repro.cli import build_parser, main


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


def test_table2_command(capsys):
    assert main(["table2", "--tasks", "150"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "llp(paper)" in out


def test_sec51_command(capsys):
    assert main(["sec51", "--tasks", "200"]) == 0
    out = capsys.readouterr().out
    assert "ppe-only" in out


def test_compare_command(capsys):
    assert main(["compare", "--bootstraps", "2", "--tasks", "100"]) == 0
    out = capsys.readouterr().out
    for name in ("linux", "edtlp", "mgps", "llp2", "llp4"):
        assert name in out


def test_fig7_small_panel(capsys):
    assert main(["fig7", "--panel", "a", "--tasks", "60"]) == 0
    out = capsys.readouterr().out
    assert "EDTLP-LLP2" in out and "Figure 7a" in out


def test_fig10_command(capsys):
    assert main(["fig10", "--tasks", "60"]) == 0
    out = capsys.readouterr().out
    assert "Power5" in out and "Xeon" in out


def test_timeline_command(capsys):
    assert main(["timeline", "--scheduler", "edtlp", "--bootstraps", "2",
                 "--tasks", "80", "--width", "40"]) == 0
    out = capsys.readouterr().out
    assert "SPE timeline" in out
    assert "%" in out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["bogus"])


def test_bsp_command(capsys):
    assert main(["bsp", "--ranks", "4", "--iterations", "2",
                 "--imbalance", "1.0"]) == 0
    out = capsys.readouterr().out
    assert "BSP" in out and "mgps" in out


def test_fig9_dual_cell_panel(capsys):
    assert main(["fig9", "--panel", "a", "--tasks", "60"]) == 0
    out = capsys.readouterr().out
    assert "two Cells" in out and "MGPS" in out


def test_table1_command(capsys):
    assert main(["table1", "--tasks", "120"]) == 0
    out = capsys.readouterr().out
    assert "edtlp(paper)" in out and "linux(paper)" in out


def test_trace_command_writes_chrome_trace(tmp_path, capsys):
    import json

    out_path = tmp_path / "t.json"
    jsonl_path = tmp_path / "t.jsonl"
    assert main(["trace", "fig8", "--out", str(out_path),
                 "--jsonl", str(jsonl_path),
                 "--bootstraps", "2", "--tasks", "60"]) == 0
    out = capsys.readouterr().out
    assert "perfetto" in out

    doc = json.loads(out_path.read_text())
    assert set(doc) >= {"traceEvents", "displayTimeUnit"}
    events = doc["traceEvents"]
    assert events
    phases = {e["ph"] for e in events}
    assert {"B", "E", "M"} <= phases
    for e in events:
        assert {"ph", "pid", "tid", "name"} <= set(e)
        if e["ph"] != "M":
            assert isinstance(e["ts"], (int, float))
    # Every B has a matching E per (pid, tid) — Perfetto requirement.
    depth = {}
    for e in sorted((e for e in events if e["ph"] in "BE"),
                    key=lambda e: e["ts"]):
        key = (e["pid"], e["tid"])
        depth[key] = depth.get(key, 0) + (1 if e["ph"] == "B" else -1)
        assert depth[key] >= 0
    assert all(d == 0 for d in depth.values())
    assert jsonl_path.read_text().count("\n") > 0


def test_stats_command_reports_scheduler_metrics(capsys):
    assert main(["stats", "fig8", "--bootstraps", "3",
                 "--tasks", "100"]) == 0
    out = capsys.readouterr().out
    assert "MGPS window utilization U=" in out
    assert "context switches" in out
    assert "granularity accept/reject" in out
    assert "llp.chunk_size" in out
    assert "metrics snapshot" in out


def test_stats_command_json_mode(capsys):
    import json

    assert main(["stats", "edtlp", "--bootstraps", "2", "--tasks", "60",
                 "--json"]) == 0
    snap = json.loads(capsys.readouterr().out)
    assert snap["runtime.offloads"]["value"] > 0


def test_scenario_trace_flag(tmp_path, capsys):
    import json

    path = tmp_path / "cmp.json"
    assert main(["compare", "--bootstraps", "2", "--tasks", "60",
                 "--trace", str(path)]) == 0
    doc = json.loads(path.read_text())
    # One Perfetto process per scheduler in the comparison.
    pids = {e["pid"] for e in doc["traceEvents"]}
    assert len(pids) == 5


def test_serve_fault_flags_print_digest_verdict(capsys):
    assert main(["serve", "--duration", "900", "--arrival-rate", "0.05",
                 "--min-blades", "3", "--max-blades", "3", "--tenants", "1",
                 "--slow-blade", "0:100:3.0", "--resilience"]) == 0
    out = capsys.readouterr().out
    assert "digests: identical to the fault-free run" in out


def test_serve_rejects_malformed_fault_flag():
    with pytest.raises(SystemExit):
        main(["serve", "--slow-blade", "not-a-fault"])


def test_chaos_command_small_soak(capsys):
    assert main(["chaos", "--plans", "1", "--seed", "1",
                 "--duration", "1200", "--check"]) == 0
    out = capsys.readouterr().out
    assert "verdict: PASS" in out


def test_chaos_command_json_mode(capsys):
    import json

    assert main(["chaos", "--plans", "1", "--seed", "1",
                 "--duration", "1200", "--json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["ok"]
    assert doc["outcomes"][0]["lost"] == 0


# -- shared observed-run flags, usage errors, bench sections ------------------

# Every subcommand built on one representative run, with the arguments
# it needs besides the shared flags.
OBSERVED = {
    "run": ["fig8"],
    "trace": ["fig8", "--out", "t.json"],
    "stats": ["fig8"],
    "health": ["fig8"],
    "report": ["fig8", "--out", "r.html"],
    "explain": ["fig8"],
    "profile": ["--scenario", "fig8"],
    "faults": ["fig8"],
}


@pytest.mark.parametrize("command", sorted(OBSERVED))
def test_observed_subcommands_accept_the_shared_flags(command):
    args = build_parser().parse_args(
        [command, *OBSERVED[command], "--bootstraps", "2", "--tasks", "60",
         "--seed", "5", "--llp-schedule", "guided"])
    assert (args.scenario, args.bootstraps, args.tasks, args.seed,
            args.llp_schedule) == ("fig8", 2, 60, 5, "guided")


@pytest.mark.parametrize("flag,value,shape", [
    ("--spe-kill", "bad", "INDEX:VALUE"),
    ("--slow-spe", "5", "INDEX:VALUE"),
])
def test_faults_malformed_flag_is_a_usage_error(flag, value, shape, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["faults", "mgps", "--bootstraps", "2", "--tasks", "30",
              flag, value])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (
        f"repro faults: error: {flag} expects {shape}, got {value!r}\n")


@pytest.mark.parametrize("command,plan,message", [
    ("faults", '{"spe_kills": [{"spe": 1, "when": 1e-4}]}',
     "fault-plan key 'spe_kills': unknown spe kill key 'when'; "
     "known keys: spe, time"),
    ("faults", '{"spe_kills": [[1]]}',
     "fault-plan key 'spe_kills': expected a JSON object for a spe kill, "
     "got [1]"),
    ("faults", "[1, 2]", "expected a JSON object for a fault-plan, got [1, 2]"),
    ("serve", '{"kills": [[0, 50.0]]}',
     "fleet fault plan key 'kills': expected a JSON object for a blade "
     "kill, got [0, 50.0]"),
    ("serve", "[1, 2]",
     "expected a JSON object for a fleet fault plan, got [1, 2]"),
])
def test_malformed_plan_file_is_a_usage_error(command, plan, message,
                                              tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text(plan)
    argv = (["faults", "mgps", "--bootstraps", "2", "--tasks", "30",
             "--plan", str(path)] if command == "faults"
            else ["serve", "--duration", "300", "--fault-plan", str(path)])
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"repro {command}: error: {message}\n"


@pytest.mark.parametrize("argv", [
    ["table2", "--tasks", "60", "--trace"],
    ["serve", "--duration", "300", "--trace"],
    ["profile", "--scenario", "fig8", "--bootstraps", "2", "--tasks", "40",
     "--perfetto"],
])
def test_output_in_missing_directory_fails_before_the_run(argv, capsys):
    path = "/nonexistent/dir/out.json"
    assert main(argv + [path]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"repro {argv[0]}: error: directory of {path!r} "
                            f"does not exist\n")


def test_bench_only_choices_are_the_section_names():
    from repro.obs.bench import SECTIONS

    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    only = next(a for a in sub.choices["bench"]._actions if a.dest == "only")
    assert list(only.choices) == list(SECTIONS)


def test_bench_write_only_dag_writes_exactly_its_baseline(tmp_path,
                                                         monkeypatch, capsys):
    import json

    from repro.obs import bench

    monkeypatch.setattr(bench, "find_repo_root",
                        lambda start=None: tmp_path)
    assert main(["bench", "--write", "--only", "dag"]) == 0
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_dag.json"]
    written = tmp_path / "BENCH_dag.json"
    assert f"wrote {written}" in capsys.readouterr().out
    committed = pathlib.Path(__file__).parent.parent / "BENCH_dag.json"
    assert bench.compare(json.loads(written.read_text()),
                         json.loads(committed.read_text())) == []
