"""One repetition of one workload, in a fresh single-threaded interpreter.

    python3 worker.py WORKLOAD SEED MODE SPANS_PATH

``run.py`` starts this once per repetition with ``PYTHONPATH`` pointing
at the program's sources.  The host-speed sampler starts first; set-up
(imports plus building every op's inputs) is timed from there, and MODE
``setup`` stops after it.  Otherwise the ops run in order and one JSON
object is printed: per op its raw and reference-speed seconds, the mean
probe time, the output fields; the seed-independent invariant
violations; the process's peak RSS.  MODE ``traced`` installs the layer
spans first, writes them to ``SPANS_PATH`` and adds the per-layer
metrics.
"""

import gc
import json
import resource
import sys
import time

from probe import Sampler


def main(argv, t_start):
    name, seed, mode, spans_path = argv[0], int(argv[1]), argv[2], argv[3]
    sampler = Sampler().start()
    import ops as workloads  # the program's imports are part of set-up

    op_list = workloads.build(name, seed)
    setup_s, _probe = sampler.reference_time(time.perf_counter() - t_start, 0)
    if mode == "setup":
        sampler.stop()
        print(json.dumps({"setup_s": setup_s}))
        return

    recorder = None
    if mode == "traced":
        import layers
        recorder = layers.install()

    rows, outs = [], {}
    for op in op_list:
        gc.collect()
        mark = sampler.mark()
        t0 = time.perf_counter()
        if recorder is None:
            out = op.call()
        else:
            with recorder.op(op.name):
                out = op.call()
        raw_s = time.perf_counter() - t0
        seconds, probe_s = sampler.reference_time(raw_s, mark)
        outs[op.name] = out
        rows.append({
            "op": op.name,
            "seconds": seconds,
            "raw_s": raw_s,
            "probe_s": probe_s,
            "jobs": workloads.jobs(op.kind, out),
            "offloads": workloads.offloads(op.kind, out),
            "fields": workloads.fields(op.kind, out),
        })
    sampler.stop()
    report = {
        "setup_s": setup_s,
        "ops": rows,
        "invariants": workloads.invariants(name, op_list, outs),
        "paper_error_pct": workloads.paper_error_pct(outs),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if recorder is not None:
        recorder.uninstall()
        for op in op_list:
            for r in workloads.schedule_results(op.kind, outs[op.name]):
                recorder.note_schedule(r)
        serves = [workloads.serve_of(op.kind, outs[op.name]) for op in op_list
                  if op.kind in ("serve", "dag", "traced-serve")]
        cancelled = sum(outs[op.name].bootstop_cancelled for op in op_list
                        if op.kind == "dag")
        scales = {row["op"]: row["seconds"] / row["raw_s"] for row in rows}
        report["layers"], report["min_self_s"] = recorder.metrics(
            sum(s.summary["completed"] for s in serves), cancelled, scales)
        recorder.write(spans_path)
    print(json.dumps(report))


if __name__ == "__main__":
    main(sys.argv[1:], time.perf_counter())
