"""Workload definitions: fixed cases and the inputs drawn from the seed.

Everything a workload feeds the library is made here, by the benchmark,
before anything is timed; the library sees only these values (or the argv
built from them).  Both the worker that runs the library and the checker
that verifies its outputs read the same dictionary.
"""
from __future__ import annotations

import hashlib
import random
from pathlib import Path

TOL = 1e-12

# eval: a = 3/5 at every level-8 grid point, exact
EXACT_GRID = {"a": (3, 5), "level": 8}
# eval: a = 7/10 at seeded m / 10^9, exact Fraction expansion to 200 digits
EXACT_RANDOM = {"a": (7, 10), "den": 10**9, "count": 300, "digits": 200}
# eval: floats a at seeded random float x, 200 digits
FLOAT_RANDOM = {"a": (0.3, 0.6, 0.7, 2 / 3), "count": 500, "digits": 200}
# eval: a = 0.7 at the floats k / 3^8, which take to_ternary's snap path
FLOAT_GRID = {"a": 0.7, "level": 8, "digits": 200}

# analysis cases
CONSTRUCT = {"a": (3, 5), "level": 9, "sample": 300}
ARC = ({"a": 0.35, "level": 14}, {"a": 0.6, "level": 14})
COVER = {"a": 0.7, "level": 14}
DIM_SQUARE = {"a": 0.9, "lo": 1, "hi": 12}
DIM_COLUMN = {"a": 2 / 3, "lo": 1, "hi": 14}
CHAOS = {"a": 2 / 3, "n": 300_000, "grid_level": 5, "sample": 300}
TRACE = {"a": (0.4, 0.7), "streams": 200, "digits": 200, "sample_m": 8}
FREQ = {"samples": 200, "digits": 3000}

# cli: one command per job, heavy ones first; "{out}" marks commands writing a file
CLI_CHAOS_N = 300_000
CLI_JOBS = (
    ("chaos", "float", "chaos --a 2/3 --n {n} --seed {seed} --out {out}"),
    ("iterate", "float", "iterate --a 0.7 --level 11 --out {out}"),
    ("dim", "float", "dim --a 0.9 --levels 1..12 --method square"),
    ("iterate_exact", "exact", "iterate --a 3/5 --level 9"),
    ("iterate_svg", "float", "iterate --a 0.7 --level 9 --format svg --out {out}"),
    ("arclength", "float", "arclength --a 0.35 --levels 0..12"),
    ("eval", "exact", "eval --a 7/10 --x {m}/1000000000"),
    ("classify", "float", "classify --a 0.7"),
    ("derivative", "float", "derivative --a 0.4 --x {x} --n 1000"),
    ("experiment", "float", "experiment --seed {seed}"),
)
CLI_SAMPLE = 300

WORKLOADS = ("eval", "analysis", "cli")


def float_random_name(a: float) -> str:
    return f"float_random_{a:.4g}"


def make_inputs(workload: str, seed: int) -> dict:
    """The seeded inputs of one run; the same seed gives the same inputs."""
    rng = random.Random(f"okamoto-bench/{workload}/{seed}")
    if workload == "eval":
        return {
            "exact_random_m": [rng.randrange(EXACT_RANDOM["den"] + 1)
                               for _ in range(EXACT_RANDOM["count"])],
            "float_random_x": [[rng.random() for _ in range(FLOAT_RANDOM["count"])]
                               for _ in FLOAT_RANDOM["a"]],
        }
    if workload == "analysis":
        n_vertices = 3 ** CONSTRUCT["level"] + 1
        return {
            "construct_k": sorted({0, n_vertices - 1,
                                   *rng.sample(range(n_vertices), CONSTRUCT["sample"])}),
            "chaos_seed": seed,
            "chaos_rows": sorted(rng.sample(range(CHAOS["n"]), CHAOS["sample"])),
            "streams": [[rng.randrange(3) for _ in range(TRACE["digits"])]
                        for _ in range(TRACE["streams"])],
            "trace_m": sorted({TRACE["digits"], *rng.sample(range(1, TRACE["digits"]),
                                                            TRACE["sample_m"])}),
            "freq_seed": seed,
        }
    if workload == "cli":
        return {
            "seed": seed,
            "m": rng.randrange(1, 10**9),
            "x": f"{rng.random():.12f}",
        }
    raise ValueError(f"unknown workload {workload!r}")


def cli_argv(inp, workdir: Path):
    """(name, mode, argv, stdout path, output file or None) of each CLI command."""
    cmds = []
    for name, mode, template in CLI_JOBS:
        out = workdir / f"{name}.{'svg' if '--format svg' in template else 'csv'}"
        argv = template.format(n=CLI_CHAOS_N, seed=inp["seed"], m=inp["m"], x=inp["x"],
                               out=out).split()
        cmds.append((name, mode, argv, workdir / f"{name}.stdout",
                     out if "{out}" in template else None))
    return cmds


def output_digest(stdout: Path, out: Path | None) -> str:
    digest = hashlib.sha256(stdout.read_bytes())
    if out is not None:
        digest.update(out.read_bytes())
    return digest.hexdigest()
