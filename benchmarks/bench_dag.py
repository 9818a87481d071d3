"""The tracked workflow-DAG grid — pipelines, bootstop, stage cache.

Runs the raxml-style workflow (check -> infer -> bootstrap fan-out ->
consensus) through four cells — cache-cold, cache-warm (repeat
submission), bootstop-on converging, and the diverging control — and
records the grid to ``benchmarks/out/BENCH_dag.json``.  It
also re-asserts the layer's acceptance invariants: the repeat
submission hits the stage cache on 100% of stages and lands on a
digest-identical final result; autoMRE bootstopping cancels at least
30% of the converging fan-out; job conservation (admitted = completed
+ cancelled + aborted + lost) is exact with zero losses everywhere.

The same payload is the tracked repo-root ``BENCH_dag.json``, written
only by ``repro bench --write``.  Every non-``_wall`` field is
deterministic, so the committed file is a regression gate: ``repro
bench --check`` re-measures and diffs.  A diff in that file inside a PR
is a deliberate statement that workflow behavior changed.
"""

from conftest import run_once

from repro.obs.bench import measure_dag, semantic_violations


def test_workflow_dag_grid(benchmark, record_json):
    payload = run_once(benchmark, measure_dag)

    grid = payload["grid"]
    assert set(grid) == {"cache-cold", "cache-warm", "bootstop",
                         "bootstop-diverging"}
    # The semantic gates `repro bench --check` applies: every cell
    # conserves its jobs and loses none, the repeat submission hits the
    # stage cache on every stage with a bit-identical result, and
    # bootstop cancels >= 30% of the converging fan-out.
    broken = semantic_violations("dag", payload)
    assert not broken, [str(v) for v in broken]

    # Cache: the repeat submission finishes faster than the cold run.
    assert grid["cache-warm"]["warm_makespan"] < grid["cache-cold"]["makespan"]

    # Bootstop: the converging fan-out stops earlier than the full run;
    # the diverging control needs more replicates before it converges.
    assert grid["bootstop"]["makespan"] < grid["cache-cold"]["makespan"]
    assert (grid["bootstop-diverging"]["bootstop_cancelled"]
            < grid["bootstop"]["bootstop_cancelled"])

    record_json("BENCH_dag", payload)
