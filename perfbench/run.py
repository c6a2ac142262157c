"""Benchmark of the okamoto library and CLI: one workload, one seed, one run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload eval|analysis|cli --seed N --seconds S --trace 0|1

The library is imported from ``src/`` of the checkout, and nothing is
installed.  The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The line before it is the run record.
Full results go to ``.perfbench-out/`` in the checkout.  See README.md in
this directory for the workloads and metrics.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import workloads as W

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench-out"
perf = time.perf_counter

RUN_LIMIT = 170.0  # seconds a run may take in all
SETUP_PROBES = 7
ENTRY = 'import sys; from okamoto.cli import entry; sys.argv[0] = "okamoto"; entry()'
PROBES = {
    "library": "import sys, time; t = time.perf_counter(); import okamoto; "
               "print(repr(time.perf_counter() - t), file=sys.stderr)",
    "cli": "import sys, time; t = time.perf_counter(); from okamoto.cli import entry; "
           "print(repr(time.perf_counter() - t), file=sys.stderr); "
           'sys.argv[0] = "okamoto"; entry()',
}

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mb", "MB"))
CLI_WALL_JOBS = ("chaos", "iterate", "dim")
PER_LAYER = (
    ("ternary.to_ternary.calls", "count"), ("ternary.to_ternary.self_s", "s"),
    ("ternary.to_ternary.digits", "count"), ("ternary.to_ternary.terminated_ratio", "1"),
    ("ternary.ternary_rational.calls", "count"), ("ternary.ternary_rational.self_s", "s"),
    ("ternary.digit_stats.self_s", "s"),
    ("function.eval_digit_series.calls", "count"),
    ("function.eval_digit_series.exact.self_s", "s"),
    ("function.eval_digit_series.float.self_s", "s"),
    ("function.eval_digit_series.digits_used", "count"),
    ("function.eval_digit_series.precision_errors", "count"),
    ("function.eval_digit_series.certified_ratio", "1"),
    ("function.eval_digit_series.float.bound_exceeded", "count"),
    ("function.construct_iteration.calls", "count"), ("function.construct_iteration.self_s", "s"),
    ("function.refine.calls", "count"), ("function.refine.exact.self_s", "s"),
    ("function.refine.float.self_s", "s"), ("function.sample_graph.self_s", "s"),
    ("function.vertices", "count"), ("function.array_bytes", "B"),
    *((f"geometry.{f}.self_s", "s") for f in (
        "arc_length_profile", "cover_profile", "square_grid_counts", "dimension_estimate",
        "chaos_game", "mass_bound_check")),
    ("geometry.chaos_game.points", "count"), ("geometry.vertices_per_level", "count"),
    *((f"differentiability.{f}.self_s", "s") for f in (
        "derivative_trace", "digit_frequency_experiment", "region_classify")),
    ("differentiability.derivative_trace.digits", "count"),
    *((f"cli.{c}.self_s", "s") for c in ("chaos", "iterate", "dim", "eval")),
    *((f"cli.{j}.wall_s", "s") for j in CLI_WALL_JOBS),
    ("cli.bytes_written", "B"), ("cli.rows_written", "count"), ("cli.format_mb_per_s", "MB/s"),
    ("process.interpreter_s", "s"), ("process.import_s", "s"),
    *((f"process.peak_rss_mb.{j}", "MB") for j in (
        "chaos", "iterate", "dim", "iterate_exact", "iterate_svg", "arclength", "eval",
        "classify", "derivative", "experiment")),
    ("jobs.exact_s", "s"), ("jobs.float_s", "s"),
    ("eval.exact_per_s", "1/s"), ("eval.float_per_s", "1/s"), ("eval.us_p50", "us"),
    ("eval.us_p99", "us"), ("eval.latency_samples", "count"),
    ("trace.overhead_ratio", "1"), ("bench.self_s", "s"),
)


class Runner:
    """Runs child processes one at a time, within the run's time limit.

    The children are started by perfbench/spawn.py, which reports each one's
    own wall time, exit code and peak RSS."""

    def __init__(self, work: Path):
        self.work = work
        self.deadline = perf() + RUN_LIMIT
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""))
        self.spawner = subprocess.Popen([sys.executable, str(HERE / "spawn.py")], cwd=ROOT,
                                        env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                        text=True)

    def close(self):
        self.spawner.stdin.close()
        self.spawner.wait()

    def run(self, argv, name, reserve=10.0, cpu=None):
        """(exit code, wall seconds, peak RSS in MB of this child alone)."""
        timeout = self.deadline - perf() - reserve
        if timeout <= 0:
            raise TimeoutError(f"no time left to run {name}")
        self.spawner.stdin.write(json.dumps(
            {"argv": [str(a) for a in argv], "timeout": timeout, "cpu": cpu,
             "stdout": str(self.work / f"{name}.stdout"),
             "stderr": str(self.work / f"{name}.stderr")}) + "\n")
        self.spawner.stdin.flush()
        line = self.spawner.stdout.readline()
        if not line:
            raise RuntimeError("the process spawner exited")
        reply = json.loads(line)
        if "error" in reply:
            raise TimeoutError(reply["error"])
        return reply["rc"], reply["wall"], reply["maxrss_mb"]

    def text(self, name, stream="stdout"):
        return (self.work / f"{name}.{stream}").read_text()

    def setup_probe(self, kind):
        """(wall, import seconds) of one set-up: the faster of one probe per CPU.

        The host slows one vCPU at a time, often for seconds on end."""
        argv = [sys.executable, "-c", PROBES[kind]] + (["--version"] if kind == "cli" else [])
        samples = []
        for cpu in sorted(os.sched_getaffinity(0)):
            rc, wall, _ = self.run(argv, "probe", cpu=cpu)
            if rc != 0 or (kind == "cli" and not self.text("probe").strip()):
                raise RuntimeError(f"set-up failed: {self.text('probe', 'stderr')[-2000:]}")
            samples.append((wall, float(self.text("probe", "stderr").split()[-1])))
        return min(samples)


def best_pass(passes, names=None):
    """One pass with each job at its fastest over the run's passes.

    The host this was built on alternates between two CPU speeds ~1.6x apart
    in phases of seconds; the fastest sample of a short job tracks the code,
    a median tracks the neighbours (see README.md)."""
    jobs = passes[0]["jobs"]
    return sum(min(p["jobs"][j] for p in passes if j in p["jobs"])
               for j in jobs if names is None or j in names)


def layer_metrics(traced: list[dict]) -> dict:
    """Per-layer numbers from per-pass span self times, calls and counters."""
    def self_s(*names):
        return statistics.median(sum(p["self_s"].get(n, 0.0) for n in names) for p in traced)

    last = traced[-1]

    def calls(*names):
        return sum(last["calls"].get(n, 0) for n in names)

    def count(name):
        return last["counts"].get(name, 0)

    def ratio(a, b):
        return a / b if b else 0.0

    ev = ("function.eval_digit_series.exact", "function.eval_digit_series.float")
    rf = ("function.refine.exact", "function.refine.float")
    m = {
        "ternary.to_ternary.calls": calls("ternary.to_ternary"),
        "ternary.to_ternary.self_s": self_s("ternary.to_ternary"),
        "ternary.to_ternary.digits": count("ternary.to_ternary.digits"),
        "ternary.to_ternary.terminated_ratio": ratio(count("ternary.to_ternary.terminated"),
                                                     calls("ternary.to_ternary")),
        "ternary.ternary_rational.calls": calls("ternary.ternary_rational"),
        "ternary.ternary_rational.self_s": self_s("ternary.ternary_rational"),
        "ternary.digit_stats.self_s": self_s("ternary.digit_stats"),
        "function.eval_digit_series.calls": calls(*ev),
        "function.eval_digit_series.exact.self_s": self_s(ev[0]),
        "function.eval_digit_series.float.self_s": self_s(ev[1]),
        "function.eval_digit_series.digits_used": count("function.eval_digit_series.digits_used"),
        "function.eval_digit_series.precision_errors": sum(
            count(f"{n}.exc.PrecisionError") for n in ev),
        "function.eval_digit_series.certified_ratio": ratio(
            count("function.eval_digit_series.returned"), calls(*ev)),
        "function.construct_iteration.calls": calls("function.construct_iteration"),
        "function.construct_iteration.self_s": self_s("function.construct_iteration"),
        "function.refine.calls": calls(*rf),
        "function.refine.exact.self_s": self_s(rf[0]),
        "function.refine.float.self_s": self_s(rf[1]),
        "function.sample_graph.self_s": self_s("function.sample_graph"),
        "function.vertices": count("function.vertices"),
        "function.array_bytes": count("function.array_bytes"),
        "geometry.chaos_game.points": count("geometry.chaos_game.points"),
        "geometry.vertices_per_level": ratio(count("geometry.vertices"), count("geometry.levels")),
        "differentiability.derivative_trace.digits":
            count("differentiability.derivative_trace.digits"),
    }
    for name, unit in PER_LAYER:
        layer, _, stat = name.rpartition(".")
        if stat == "self_s" and name not in m:
            m[name] = self_s(layer)
    return m


def run_workload(runner, workload, inputs, seconds, trace, spans_path):
    """Run the workload in a worker process, check its outputs, derive metrics."""
    cfg = {"workload": workload, "seconds": seconds, "trace": trace, "inputs": inputs,
           "spans_path": str(spans_path)}
    (runner.work / "config.json").write_text(json.dumps(cfg))
    rc, _, rss = runner.run([sys.executable, HERE / "worker.py", runner.work], "worker",
                            reserve=20.0)
    if rc != 0:
        raise RuntimeError(f"worker exited {rc}: {runner.text('worker', 'stderr')[-3000:]}")
    res = json.loads((runner.work / "result.json").read_text())

    import checks
    outputs = {name: ref for (name, _, _), ref in zip(res["jobs"], res["reference"])}
    stats = {"bound_exceeded": 0}
    if workload == "cli":
        fails = checks.check_cli(inputs, outputs, runner.work)
    else:
        fails = (checks.check_eval if workload == "eval" else checks.check_analysis)(
            inputs, outputs, stats)
    ops = sum(n for _, _, n in res["jobs"])
    n_passes = 1 + sum(len(p) for p in res["passes"].values())
    attempted = ops * n_passes
    failed = min(attempted, len(fails) * n_passes + res["mismatched"])

    untraced = res["passes"]["untraced"]
    modes = {name: mode for name, mode, _ in res["jobs"]}
    by_mode = {mode: [n for n, m in modes.items() if m == mode] for mode in ("exact", "float")}
    e2e = {"wall_s": best_pass(untraced), "peak_rss_mb": rss}
    layers = {}
    if trace:
        traced = res["passes"]["traced"]
        layers = layer_metrics(traced)
        for mode, names in by_mode.items():
            layers[f"jobs.{mode}_s"] = best_pass(untraced, names)
        layers["trace.overhead_ratio"] = best_pass(traced) / e2e["wall_s"]
        layers["bench.self_s"] = statistics.median(p["wall"] - p["top"] for p in traced)
        layers["function.eval_digit_series.float.bound_exceeded"] = stats["bound_exceeded"]
        if workload == "eval":
            sizes = {name: n for name, _, n in res["jobs"]}
            for mode in ("exact", "float"):
                layers[f"eval.{mode}_per_s"] = (sum(sizes[n] for n in by_mode[mode])
                                                / layers[f"jobs.{mode}_s"])
            layers["eval.us_p50"] = res["latency"]["p50"] * 1e6
            layers["eval.us_p99"] = res["latency"]["p99"] * 1e6
            layers["eval.latency_samples"] = res["latency"]["samples"]
        if workload == "cli":
            cli_self = statistics.median(sum(v for k, v in p["self_s"].items()
                                             if k.startswith("cli.")) for p in traced)
            procs, procs_failed = cli_layers(runner, inputs, outputs, layers, fails, cli_self)
            attempted += procs
            failed += procs_failed
    return e2e, layers, attempted, failed, fails, n_passes


def cli_layers(runner, inputs, outputs, layers, fails, cli_self) -> tuple[int, int]:
    """Add output volume, and each command run once as its own process.

    The process round gives each command's own peak RSS (``os.wait4``) and
    wall time, start-up included; its output must match the worker's.
    Returns the processes run and how many failed."""
    failed = written = rows = 0
    for name, _, argv, stdout, out in W.cli_argv(inputs, runner.work):
        body = stdout.read_bytes() + (out.read_bytes() if out else b"")
        written += len(body)
        rows += body.count(b"\n")
        rc, wall, rss = runner.run([sys.executable, "-c", ENTRY, *argv], name)
        if rc != 0 or W.output_digest(stdout, out) != outputs[name][0].get("sha256"):
            failed += 1
            fails.append(f"{name}: as its own process, exit {rc} or output differs")
        layers[f"process.peak_rss_mb.{name}"] = rss
        if name in CLI_WALL_JOBS:
            layers[f"cli.{name}.wall_s"] = wall
    layers.update({"cli.bytes_written": written, "cli.rows_written": rows,
                   "cli.format_mb_per_s": written / 1e6 / cli_self})
    return len(W.CLI_JOBS), failed


def run_record(workload, seed, seconds, trace):
    import numpy
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        target = ROOT / ".git" / ref[5:] if ref.startswith("ref: ") else None
        commit = target.read_text().strip() if target and target.is_file() else ref
    digest = hashlib.sha256()
    for f in sorted((SRC / "okamoto").glob("*.py")):
        digest.update(f.name.encode() + b"\0" + f.read_bytes())
    return {"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
            "commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "platform": platform.platform()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=W.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    missing = [f for f in (SRC / "okamoto" / "__init__.py", ROOT / "tests" / "oracles.py")
               if not f.is_file()]
    if missing:
        print(f"perfbench: not an okamoto checkout, missing {', '.join(map(str, missing))}",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}"
    inputs = W.make_inputs(args.workload, args.seed)
    with tempfile.TemporaryDirectory(prefix=".perfbench-work-", dir=ROOT) as tmp:
        runner = Runner(Path(tmp))
        try:
            kind = "cli" if args.workload == "cli" else "library"
            # set-up is sampled before and after the measurement, so that its
            # median spans the whole run
            probes = [runner.setup_probe(kind) for _ in range(SETUP_PROBES // 2 + 1)]
            e2e, layers, attempted, failed, fails, n_passes = run_workload(
                runner, args.workload, inputs, args.seconds, args.trace,
                OUT / f"spans-{tag}.json")
            probes += [runner.setup_probe(kind) for _ in range(SETUP_PROBES - len(probes))]
        finally:
            runner.close()
    e2e["setup_s"] = statistics.median(w for w, _ in probes)
    layers["process.import_s"] = statistics.median(i for _, i in probes)
    layers["process.interpreter_s"] = statistics.median(w - i for w, i in probes)
    table = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": float(layers.get(name, e2e.get(name, 0.0))), "unit": unit}
               for name, unit in table}
    record = run_record(args.workload, args.seed, args.seconds, args.trace)
    record["passes"] = n_passes
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    (OUT / f"{tag}-trace{args.trace}.json").write_text(json.dumps(
        {"record": record, "failures": fails, **result}, indent=1))
    for msg in fails[:20]:
        print(f"perfbench: check failed: {msg}", file=sys.stderr)
    print("# record " + json.dumps(record))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
