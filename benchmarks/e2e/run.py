#!/usr/bin/env python3
"""End-to-end benchmark of the simulator: five workloads, host-time metrics.

    python3 benchmarks/e2e/run.py [--workload NAME]... [--seed N]
                                  [--trace [0|1]]

Each repetition of a workload runs in a fresh single-threaded
subprocess (``worker.py``), one at a time, exactly :data:`R` times.  An
op's time is the median of its R samples; ``wall_s`` is the sum of those
medians.  Outputs are checked against ``reference.json`` (seeds 0 and 1)
and against seed-independent invariants on every seed; a failed check
fails the run (exit 1).

``--trace`` runs, in the same invocation, untraced repetitions and traced
ones (layer spans installed from ``layers.py``) and reports the
per-layer metrics of the median traced repetition.  Every metric is
printed with its name and unit; the last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``
(end-to-end metrics untraced, per-layer metrics with ``--trace``).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("llp-sweep", "task-sweep", "serve-steady", "dag-fanout",
             "traced-serve")
# (name, unit, better, bound): the gated end-to-end metrics, as in
# BENCHMARK.json.  Each is reported for every workload and is never 0.
END_TO_END = (
    ("wall_s", "s", "lower", 0.10),
    ("setup_s", "s", "lower", 0.10),
    ("peak_rss_mb", "MB", "lower", 0.05),
)
# (name, unit, workloads): printed, not gated, because each exists on
# some workloads only (or, for error_rate, is 0 on a passing run, whose
# failed ops already fail the run).
WORKLOAD_METRICS = (
    ("offloads_per_s", "1/s", ("llp-sweep", "task-sweep")),
    ("jobs_per_s", "1/s", ("serve-steady", "dag-fanout", "traced-serve")),
    ("paper_error_pct", "%", ("llp-sweep", "task-sweep")),
    ("obs_overhead_x", "x", ("traced-serve",)),
    ("error_rate", "ratio", WORKLOADS),
)
# The per-layer metrics as name: (unit, better): first the ones layers.py
# derives from one traced repetition, then the ones run.py adds.
# Units s, us, ms and ns are host time at the reference speed; the others
# are deterministic (sim_s is simulated time) and must agree across
# traced repetitions.
LO, HI = "lower", "higher"
PER_LAYER = {
    "sim.events": ("count", LO), "sim.self_s": ("s", LO),
    "sim.us_per_event": ("us", LO), "sim.pool_hit_rate": ("ratio", HI),
    "sim.batch_advance_fraction": ("ratio", HI),
    "cell.code_loads": ("count", LO), "cell.ppe_context_switches": ("count", LO),
    "cell.spe_utilization": ("ratio", HI), "cell.ppe_occupancy": ("ratio", LO),
    "runtime.offloads": ("count", HI), "runtime.ppe_fallbacks": ("count", LO),
    "runtime.offload_waits": ("count", LO),
    "runtime.offload_ratio": ("ratio", HI),
    "runtime.decide_calls": ("count", LO), "runtime.decide_s": ("s", LO),
    "runtime.ledger_records": ("count", LO), "runtime.ledger_s": ("s", LO),
    "llp.invocations": ("count", LO), "llp.invoke_s": ("s", LO),
    "llp.us_per_invoke": ("us", LO), "llp.join_idle_s": ("sim_s", LO),
    "mgps.llp_decisions": ("count", LO), "mgps.mode_switches": ("count", LO),
    "mgps.decide_s": ("s", LO),
    "workloads.trace_builds": ("count", LO),
    "workloads.trace_build_s": ("s", LO),
    "compile.calls": ("count", LO), "compile.misses": ("count", LO),
    "compile.hit_rate": ("ratio", HI), "compile.incl_s": ("s", LO),
    "compile.self_s": ("s", LO), "compile.ms_per_miss": ("ms", LO),
    "compile.nested_events": ("count", LO),
    "admission.submits": ("count", HI), "admission.rejected": ("count", LO),
    "admission.submit_self_s": ("s", LO), "admission.pop_s": ("s", LO),
    "dispatch.units": ("count", HI), "dispatch.select_s": ("s", LO),
    "serve.result_s": ("s", LO), "serve.completed": ("count", HI),
    "slo.publish_s": ("s", LO),
    "cache.gets": ("count", LO), "cache.hits": ("count", HI),
    "cache.hit_rate": ("ratio", HI), "cache.get_s": ("s", LO),
    "bootstop.adds": ("count", LO), "bootstop.cancelled": ("count", HI),
    "bootstop.add_s": ("s", LO),
    "phylo.replicate_trees": ("count", LO), "phylo.replicate_tree_s": ("s", LO),
    "phylo.consensus_s": ("s", LO),
    "obs.emits": ("count", LO), "obs.emit_s": ("s", LO),
    "obs.ns_per_emit": ("ns", LO), "obs.causal_build_s": ("s", LO),
    "obs.aggregate_s": ("s", LO),
    "trace.unattributed_s": ("s", LO), "trace.wall_s": ("s", LO),
    # added by run.py
    "trace.overhead_x": ("x", LO),
    "host.calib_ms": ("ms", LO),
    "runtime.offloads_per_s": ("1/s", HI),
    "serve.jobs_per_s": ("1/s", HI),
    "cell.paper_error_pct": ("%", LO),
    "obs.overhead_x": ("x", LO),
}
DETERMINISTIC_UNITS = ("count", "ratio", "sim_s")
# The self-time metrics: with trace.unattributed_s they sum to trace.wall_s.
SELF_TIMES = (
    "sim.self_s", "runtime.decide_s", "runtime.ledger_s", "llp.invoke_s",
    "mgps.decide_s", "workloads.trace_build_s", "compile.self_s",
    "admission.submit_self_s", "admission.pop_s", "dispatch.select_s",
    "serve.result_s", "slo.publish_s", "cache.get_s", "bootstop.add_s",
    "phylo.replicate_tree_s", "phylo.consensus_s", "obs.emit_s",
    "obs.causal_build_s", "obs.aggregate_s",
)
R = 3                      # repetitions per run: the sample count of every op
SETUP_SAMPLES = 5          # set-up-only interpreters per run, besides the reps
UNATTRIBUTED_LIMIT = 0.05  # share of traced wall outside every layer span
UNSTABLE_SPREAD = 0.10     # probe quartile spread that flags a run UNSTABLE
WORKER_TIMEOUT_S = 170


def quartile_spread(values):
    """(Q3 - Q1) / median, or 0 with fewer than two values."""
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worker_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS"):
        env[var] = "1"
    return env


def spawn(workload, seed, mode):
    """Run one worker to completion; returns its JSON report."""
    spans = OUT / f"{workload}-seed{seed}.spans.jsonl"
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode,
           str(spans)]
    proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                          text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} {mode} worker failed "
                           f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, trace, reps=R):
    """All repetitions of one workload: (plain reports, traced reports,
    set-up samples)."""
    spawn(workload, seed, "setup")  # warm the bytecode caches; not timed
    setups = [spawn(workload, seed, "setup")["setup_s"]
              for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    for _ in range(reps):
        plain.append(spawn(workload, seed, "plain"))
        if trace:
            traced.append(spawn(workload, seed, "traced"))
    setups += [r["setup_s"] for r in plain + traced]
    return plain, traced, setups


def check(workload, seed, plain, traced, reference):
    """Output checks; returns (attempted, failed, messages)."""
    expected = reference.get(str(seed), {}).get(workload)
    first = {row["op"]: row["fields"] for row in plain[0]["ops"]}
    attempted = failed = 0
    messages = []
    for rep in plain + traced:
        attempted += len(rep["ops"])
        if rep["invariants"]:
            failed += len(rep["ops"])
            messages += rep["invariants"]
            continue
        for row in rep["ops"]:
            want = expected.get(row["op"]) if expected else first[row["op"]]
            if row["fields"] != want:
                failed += 1
                messages.append(f"{row['op']}: output differs from the "
                                f"{'reference' if expected else 'first repetition'}")
    return attempted, failed, sorted(set(messages))


def op_medians(reports, key="seconds"):
    names = [row["op"] for row in reports[0]["ops"]]
    return {name: statistics.median(rep["ops"][i][key] for rep in reports)
            for i, name in enumerate(names)}


def summarize(workload, seed, plain, traced, setups, reference):
    """Metrics and check results of one workload."""
    attempted, failed, messages = check(workload, seed, plain, traced, reference)
    medians = op_medians(plain)
    wall = sum(medians.values())
    rows = plain[0]["ops"]
    probes = [row["probe_s"] * 1e3 for rep in plain for row in rep["ops"]]
    e2e = {
        "wall_s": wall,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.median(rep["peak_rss_mb"] for rep in plain),
    }
    offloads = sum(row["offloads"] for row in rows)
    jobs = sum(row["jobs"] for row in rows)
    traced_legs = [t for name, t in medians.items() if name.endswith("/traced")]
    plain_legs = [t for name, t in medians.items() if name.endswith("/plain")]
    info = {
        "offloads_per_s": offloads / wall if offloads else None,
        "jobs_per_s": jobs / wall if jobs else None,
        "paper_error_pct": plain[0]["paper_error_pct"],
        "obs_overhead_x": (sum(traced_legs) / sum(plain_legs)
                           if plain_legs else None),
        "error_rate": failed / attempted,
        "host_wall_s": sum(op_medians(plain, "raw_s").values()),
        "host_calib_ms": statistics.median(probes),
        "host_calib_spread": quartile_spread(probes),
    }
    summary = {"workload": workload, "seed": seed, "samples": len(plain),
               "e2e": e2e, "info": info, "op_medians": medians,
               "fields": {row["op"]: row["fields"] for row in rows},
               "attempted": attempted, "failed": failed}
    if traced:
        summary["layers"], problems = layer_summary(traced, wall, info)
        summary["traced_samples"] = len(traced)
        messages = sorted(set(messages + problems))
    summary["messages"] = messages
    return summary


def layer_summary(traced, untraced_wall, info):
    """(per-layer metrics of the median traced repetition, failed checks)."""
    ordered = sorted(traced, key=lambda rep: rep["layers"]["trace.wall_s"])
    median_rep = ordered[(len(ordered) - 1) // 2]["layers"]
    messages = []
    for rep in traced:
        m = rep["layers"]
        for name, value in median_rep.items():
            if PER_LAYER[name][0] in DETERMINISTIC_UNITS and m[name] != value:
                messages.append(f"layer count {name} differs between "
                                f"traced repetitions")
        wall = m["trace.wall_s"]
        tiled = sum(m[name] for name in SELF_TIMES) + m["trace.unattributed_s"]
        if abs(tiled - wall) > 1e-9 * wall or rep["min_self_s"] < -1e-9:
            messages.append("layer self times do not tile the traced wall")
        if m["trace.unattributed_s"] > UNATTRIBUTED_LIMIT * wall:
            messages.append(f"unattributed share "
                            f"{m['trace.unattributed_s'] / wall:.1%} exceeds "
                            f"{UNATTRIBUTED_LIMIT:.0%}")
    layers = dict(median_rep)
    layers.update({
        "trace.overhead_x": layers["trace.wall_s"] / untraced_wall,
        "host.calib_ms": info["host_calib_ms"],
        "runtime.offloads_per_s": info["offloads_per_s"] or 0.0,
        "serve.jobs_per_s": info["jobs_per_s"] or 0.0,
        "cell.paper_error_pct": info["paper_error_pct"] or 0.0,
        "obs.overhead_x": info["obs_overhead_x"] or 0.0,
    })
    return layers, messages


def render(summary):
    """Human-readable report of one workload."""
    info = summary["info"]
    lines = [
        f"== {summary['workload']}  seed={summary['seed']}  "
        f"samples per op={summary['samples']} (op time = median)  "
        f"host_calib_ms={info['host_calib_ms']:.4f} "
        f"(quartile spread {info['host_calib_spread']:.1%}"
        f"{', UNSTABLE' if info['host_calib_spread'] > UNSTABLE_SPREAD else ''})",
    ]
    for name, unit, better, bound in END_TO_END:
        lines.append(f"  {name:<22} {summary['e2e'][name]:>14.6g} {unit:<6} "
                     f"{better} is better, bound {bound:.0%}")
    lines.append(f"  {'host_wall_s':<22} {info['host_wall_s']:>14.6g} s      "
                 f"raw host time, not gated")
    for name, unit, workloads in WORKLOAD_METRICS:
        if summary["workload"] in workloads:
            lines.append(f"  {name:<22} {info[name]:>14.6g} {unit:<6} "
                         f"not gated")
    lines.append(f"  ({summary['failed']}/{summary['attempted']} op runs "
                 f"failed a check)")
    lines.append("  op medians: " + ", ".join(
        f"{k} {v:.3f}s" for k, v in summary["op_medians"].items()))
    if "layers" in summary:
        m = summary["layers"]
        lines.append(f"  -- per layer (median of {summary['traced_samples']} "
                     f"traced repetitions)")
        for name in sorted(m):
            lines.append(f"  {name:<30} {m[name]:>14.6g} {PER_LAYER[name][0]}")
        lines.append(f"  tiling: layer self times "
                     f"{sum(m[n] for n in SELF_TIMES):.4f} s + unattributed "
                     f"{m['trace.unattributed_s']:.4f} s = traced wall "
                     f"{m['trace.wall_s']:.4f} s (unattributed "
                     f"{m['trace.unattributed_s'] / m['trace.wall_s']:.1%})")
    lines += [f"  FAILED: {m}" for m in summary["messages"]]
    return "\n".join(lines)


def result_line(summaries, trace):
    """The final JSON object."""
    metrics = {}
    for s in summaries:
        prefix = "" if len(summaries) == 1 else f"{s['workload']}:"
        if trace:
            values = {n: (s["layers"][n], u) for n, (u, _b) in PER_LAYER.items()}
        else:
            values = {n: (s["e2e"][n], u) for n, u, _b, _x in END_TO_END}
        for name, (value, unit) in values.items():
            metrics[prefix + name] = {"value": value, "unit": unit}
    return json.dumps({
        "correct": all(not s["messages"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    })


def write_reference(path, summaries):
    ref = json.loads(path.read_text()) if path.exists() else {}
    for s in summaries:
        ref.setdefault(str(s["seed"]), {})[s["workload"]] = s["fields"]
    path.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", action="append", choices=WORKLOADS,
                   help="workload to run (repeatable; default: all five)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float,
                   help="nominal run length, accepted from benchmark runners; "
                   f"a run is always R={R} repetitions, so every run has the "
                   "same sample count")
    p.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                   choices=(0, 1), help="add traced repetitions and report "
                   "per-layer metrics")
    p.add_argument("--write-reference", action="store_true",
                   help="store this seed's outputs in the reference file")
    return p.parse_args(argv)


def benchmark(workloads, seed, trace, reference, reps=R):
    """Measure, check and print each workload; returns their summaries."""
    OUT.mkdir(exist_ok=True)
    summaries = []
    for workload in workloads:
        plain, traced, setups = measure(workload, seed, trace, reps)
        summary = summarize(workload, seed, plain, traced, setups, reference)
        summaries.append(summary)
        print(render(summary), flush=True)
    return summaries


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    reference = ({} if args.write_reference or not REFERENCE.exists()
                 else json.loads(REFERENCE.read_text()))
    try:
        summaries = benchmark(args.workload or WORKLOADS, args.seed,
                              bool(args.trace), reference)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.write_reference:
        write_reference(REFERENCE, summaries)
    line = result_line(summaries, bool(args.trace))
    print(line)
    return 0 if json.loads(line)["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
