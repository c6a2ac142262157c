"""Runs one in-process workload in a fresh interpreter and records its passes.

Usage: python3 perfbench/worker.py WORKDIR

WORKDIR/config.json names the workload, the seconds to measure, whether to
trace, and the inputs; the result goes to WORKDIR/result.json.  One warm-up
pass comes first and its outputs are the ones the checker verifies; every
timed pass must reproduce them.  Between passes the collector runs, and the
warm-up outputs are frozen out of its way.  Passes take turns on the CPUs
the process may use.  A traced run alternates untraced and traced passes, so
that both see the same host conditions.
"""
from __future__ import annotations

import gc
import json
import os
import statistics
import sys
import time
from pathlib import Path

import jobs as J
import tracing

perf = time.perf_counter
MIN_PASSES = 3


def run_pass(jobs, rec=None):
    """Each job's seconds, every operation's seconds, and the results."""
    times, latencies, outputs = {}, [], []
    request = 0
    for job in jobs:
        results = []
        start = perf()
        for item in job.items:
            if rec is not None:
                rec.request = request
            request += 1
            t = perf()
            try:
                r = job.op(item)
            except Exception as exc:  # an operation that raises counts as failed
                r = exc
            latencies.append(perf() - t)
            results.append(r)
        times[job.name] = perf() - start
        outputs.append(results)
    return times, latencies, outputs


def digests(jobs, outputs):
    return [[{"error": repr(r)} if isinstance(r, Exception) else job.digest(r) for r in results]
            for job, results in zip(jobs, outputs)]


def main(workdir: Path) -> None:
    cfg = json.loads((workdir / "config.json").read_text())
    jobs = J.JOBS[cfg["workload"]](cfg["inputs"], workdir)
    _, _, out = run_pass(jobs)
    reference = digests(jobs, out)
    del out
    gc.collect()
    gc.freeze()

    kinds = ["untraced", "traced"] if cfg["trace"] else ["untraced"]
    cpus = sorted(os.sched_getaffinity(0))
    result = {"jobs": [[j.name, j.mode, len(j.items)] for j in jobs],
              "reference": reference, "passes": {k: [] for k in kinds}, "mismatched": 0}
    latencies = []
    rec = tracing.Recorder() if cfg["trace"] else None
    deadline = perf() + cfg["seconds"]
    i = 0
    while min(map(len, result["passes"].values())) < MIN_PASSES or perf() < deadline:
        traced = kinds[i % len(kinds)] == "traced"
        # the host slows one vCPU at a time for seconds on end, so successive
        # passes (or pairs of untraced and traced passes) move between CPUs
        os.sched_setaffinity(0, {cpus[i // len(kinds) % len(cpus)]})
        i += 1
        gc.collect()
        if traced:
            first_span = len(rec.spans)
            rec.counts.clear()
            rec.install()
        start = perf()
        times, lat, out = run_pass(jobs, rec if traced else None)
        record = {"wall": perf() - start, "jobs": times}
        if traced:
            rec.restore()
            self_s, calls, top = tracing.self_times(rec.spans, first_span)
            record.update(self_s=self_s, calls=calls, top=top, counts=dict(rec.counts),
                          span_range=[first_span, len(rec.spans)])
        else:
            latencies.extend(lat)
        got = digests(jobs, out)
        del out
        result["mismatched"] += sum(a != b for ga, gb in zip(got, reference)
                                    for a, b in zip(ga, gb))
        result["passes"]["traced" if traced else "untraced"].append(record)
    if rec:
        Path(cfg["spans_path"]).write_text(json.dumps(
            {"fields": ["name", "start", "end", "parent", "request"],
             "passes": [p["span_range"] for p in result["passes"]["traced"]],
             "spans": rec.spans}))
    q = statistics.quantiles(latencies, n=100)
    result["latency"] = {"p50": q[49], "p99": q[98], "samples": len(latencies)}
    (workdir / "result.json").write_text(json.dumps(result))


if __name__ == "__main__":
    main(Path(sys.argv[1]))
