import contextlib
import hashlib
import importlib
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types
import typing
import weakref
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import okamoto
import okamoto._ascii
import okamoto.cli
from okamoto import Parameter, construct_iteration
from okamoto.cli import main
from okamoto.function import vertex_bytes

from oracles import printf_rows

SRC = str(Path(okamoto.__file__).resolve().parents[1])


def process_env():
    """Environment of a fresh interpreter that imports okamoto from this checkout."""
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=SRC + (os.pathsep + path if path else ""))


def run_process(*args, cwd=None):
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=process_env(), cwd=cwd, timeout=60)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_fields(text):
    fields = {}
    for line in text.splitlines():
        if " = " in line:
            k, _, v = line.partition(" = ")
            fields[k.strip()] = v.strip()
    return fields


def test_eval_identity(capsys):
    code, out, _ = run(capsys, "eval", "--a", "1/3", "--x", "0.7317")
    assert code == 0
    from fractions import Fraction

    f = parse_fields(out)
    assert abs(Fraction(f["value"]) - Fraction("0.7317")) < Fraction(1, 10**10)
    assert Fraction(f["error_bound"]) < Fraction(1, 10**12)


def test_eval_exact_fraction(capsys):
    code, out, _ = run(capsys, "eval", "--a", "2/3", "--x", "1/3", "--exact")
    assert code == 0
    assert parse_fields(out)["value"] == "2/3"
    assert "mode=exact" in out


def test_eval_cantor_half(capsys):
    code, out, _ = run(capsys, "eval", "--a", "0.5", "--x", "0.5")
    assert code == 0
    assert abs(float(parse_fields(out)["value"]) - 0.5) < 1e-14


def test_eval_bad_x_exit_code(capsys):
    code, _, err = run(capsys, "eval", "--a", "0.5", "--x", "1.5")
    assert code == 1
    assert "error" in err


def test_eval_precision_exit_code(capsys):
    # 1 - 2a rounds to 1 in float, so no number of digits certifies a bound
    code, _, err = run(capsys, "eval", "--a", "1e-17", "--x", "0.123456")
    assert code == 2
    assert "precision" in err


@pytest.mark.parametrize("av, x", [("0.999", "0.3"), ("0.999", "0.25"), ("0.9", "0.123456"),
                                       ("9/10", "1/7")])
def test_eval_expands_the_digits_its_tol_needs(capsys, av, x):
    # a = 0.999 needs 35 214 digits for 1e-12 at worst; 200 digits certify only 775 at x = 0.3
    code, out, _ = run(capsys, "eval", "--a", av, "--x", x)
    assert code == 0
    assert Fraction(parse_fields(out)["error_bound"]) <= Fraction(1e-12)


@pytest.mark.parametrize("argv, code", [
    (["eval", "--a", "1e-300", "--x", "0.3"], 2),  # 1 - 2a rounds to 1 in float
    (["eval", "--a", "1/0", "--x", "0.3"], 1),
    (["eval", "--a", "3/5", "--x", "2/0"], 1),
    (["eval", "--a", "3/5", "--x", "0.3", "--tol", "nan"], 1),
    (["arclength", "--a", "0.6", "--levels=-2..3"], 1),
    (["arclength", "--a", "0.6", "--levels", "3..1"], 1),
    (["dim", "--a", "0.9", "--levels", "1..346"], 1),  # box count past the float range
    (["iterate", "--a", "3/5", "--level", "14"], 1),  # over the construction budget
    (["iterate", "--a", "0.4", "--level", "1000000000"], 1),
    (["arclength", "--a", "0.6", "--out", "/nonexistent/dir/f.csv"], 1),
    (["arclength", "--a", "0.6", "--out", "."], 1),  # the working directory
    (["dim", "--a", "0.9", "--levels", "1..x"], 1),
    (["arclength", "--a", "0.6", "--levels", "x..3"], 1),
    (["arclength", "--a", "0.6", "--levels", "1..1e3"], 1),
    (["arclength", "--a", "0.6", "--levels", "1.."], 1),
])
def test_eval_bad_input_exits_with_one_line(argv, code, tmp_path):
    proc = run_process("-m", "okamoto.cli", *argv, cwd=tmp_path)
    assert proc.returncode == code
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("okamoto: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""
    assert not any(tmp_path.iterdir()) and not os.path.exists("/nonexistent/dir/f.csv")


@pytest.mark.parametrize("levels", ("1..x", "x..3", "1..1e3", "1..", "3", "1..2..3"))
def test_a_level_range_that_is_not_two_ints_is_named(capsys, levels):
    code, out, err = run(capsys, "dim", "--a", "0.9", "--levels", levels)
    assert (code, out) == (1, "")
    assert err == f"okamoto: error: level range {levels!r} must look like 'lo..hi'\n"


@pytest.mark.parametrize("argv, read_first", [
    (["chaos", "--a", "0.7", "--n", "300000"], True),  # megabytes: more than a pipe holds
    (["classify", "--a", "0.7"], False),  # the reader is gone before the first write
])
def test_closed_pipe_exits_with_one_line(argv, read_first):
    env = process_env()
    env.pop("PYTHONUNBUFFERED", None)  # a block-buffered stdout, as from a plain shell
    r, w = os.pipe()
    proc = subprocess.Popen([sys.executable, "-m", "okamoto.cli", *argv], stdout=w,
                            stderr=subprocess.PIPE, env=env)
    os.close(w)
    with open(r, "rb") as reader:
        if read_first:
            assert reader.readline().startswith(b"# a=")
    err = proc.communicate(timeout=60)[1].decode()
    assert proc.returncode == 1
    assert err.startswith("okamoto: ") and err.count("\n") == 1
    assert "Traceback" not in err and "Exception ignored" not in err


# Runs argv and prints its exit code and ru_maxrss.  A child's ru_maxrss
# starts at its parent's resident size at fork time, so the child is started
# from this small interpreter rather than from the test process.
_PEAK_RSS = """
import os, subprocess, sys
proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(proc.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
@pytest.mark.parametrize("fmt", ("csv", "svg"))
def test_chaos_memory_grows_at_most_28_bytes_a_point(tmp_path, fmt):
    def peak_bytes(n):
        proc = run_process("-c", _PEAK_RSS, sys.executable, "-m", "okamoto.cli", "chaos",
                           "--a", "2/3", "--n", str(n), "--format", fmt,
                           "--out", str(tmp_path / "f"))
        code, maxrss = map(int, proc.stdout.split())
        assert code == 0
        return maxrss * (1 if sys.platform == "darwin" else 1024)  # KiB on Linux

    n = 400_000
    assert (peak_bytes(n) - peak_bytes(1)) / n <= 28


@pytest.mark.skipif(not hasattr(os, "wait4"), reason="needs os.wait4")
def test_square_dim_memory_stays_near_construction():
    def peak_bytes(levels):
        proc = run_process("-c", _PEAK_RSS, sys.executable, "-m", "okamoto.cli", "dim",
                           "--a", "0.9", "--levels", levels, "--method", "square")
        code, maxrss = map(int, proc.stdout.split())
        assert code == 0
        return maxrss * (1 if sys.platform == "darwin" else 1024)  # KiB on Linux

    # f_16 is read a block at a time: 30.7 MB against 30.0 MB at levels 1..2;
    # built whole, it took 511 MB
    peak = peak_bytes("1..16")
    assert peak < 64 * 2**20
    assert peak - peak_bytes("1..2") < 4 * 2**20


@pytest.mark.parametrize("av, level, fmt", [("0.7", 10, "csv"), ("0.7", 10, "svg"),
                                            ("3/5", 9, "csv")])
def test_iterate_peaks_near_construction(tmp_path, monkeypatch, av, level, fmt):
    # f_i is refined a block at a time and formatted a slice at a time, so a
    # level peaks no higher than the level below plus one block's worth: 4 KB
    # lower for float CSV, 64 KB higher for SVG and 0.53 MB higher for 3/5,
    # whose level 9 is one block, against 216 KB and 4.2 MB allowed.  Built
    # whole, float level 10 peaked 311 KB (CSV) and 306 KB (SVG) above level
    # 9.  Small slices keep the formatting's share small.
    monkeypatch.setattr(okamoto.cli, "_SLICE", 1024)
    argv = ["iterate", "--a", av, "--format", fmt, "--out", str(tmp_path / "f"), "--level"]
    assert main(argv + ["1"]) == 0  # numpy and the formatting code load untraced
    peaks = []
    for i in (level - 1, level):
        tracemalloc.start()
        try:
            assert main(argv + [str(i)]) == 0
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    run, depth = okamoto.function._BLOCK
    assert peaks[1] <= peaks[0] + (run * 3**depth + 1) * vertex_bytes(Parameter.parse(av), level)


def test_write_releases_each_piece_before_the_next_is_made(tmp_path):
    class Piece(str):  # a str that takes a weak reference
        pass

    refs = []

    def piece(k):  # made with no name bound to it, as _table yields its slices
        p = Piece(f"piece {k}")
        refs.append(weakref.ref(p))
        return p

    def pieces():
        for k in range(3):
            assert all(r() is None for r in refs), "a written piece is still alive"
            yield piece(k)

    okamoto.cli._write(str(tmp_path / "f"), pieces())
    assert (tmp_path / "f").read_text() == "piece 0\npiece 1\npiece 2\n"


def test_a0_nan_tol_exits_with_one_line():
    proc = run_process("-m", "okamoto.cli", "a0", "--tol", "nan")
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert proc.stderr.startswith("okamoto: ") and proc.stderr.count("\n") == 1
    assert proc.stdout == ""


def test_import_and_commands_leave_numpy_unloaded():
    script = """
import contextlib, io, sys
sys.modules["numpy"] = None  # any numpy import raises
import okamoto, okamoto.cli
argvs = (["eval", "--a", "3/5", "--x", "1/7"], ["classify", "--a", "0.7"],
         ["derivative", "--a", "1/3", "--x", "2/9", "--n", "12"],
         ["derivative", "--a", "0.6", "--x", "0.3", "--n", "40"],  # %.17g on a list
         ["arclength", "--a", "0.35", "--levels", "0..646"],
         ["dim", "--a", "2/3", "--levels", "1..14"],
         ["dim", "--a", "0.3", "--levels", "1..646"],  # the last float level at a <= 1/2
         ["a0"])
with contextlib.redirect_stdout(io.StringIO()):
    assert [okamoto.cli.main(argv) for argv in argvs] == [0] * len(argvs)
assert sys.modules["numpy"] is None, "numpy was imported"
assert okamoto.chaos_game is okamoto.geometry.chaos_game
names = {}
exec("from okamoto import *", names)
missing = set(okamoto.__all__) - set(names)
assert not missing, missing
assert {"geometry", "chaos_game", "square_grid_counts", "MassSample"} <= set(okamoto.__all__)
"""
    proc = run_process("-c", script)
    assert proc.returncode == 0, proc.stderr


# The public names as the package listed them when it imported every module eagerly.
_PUBLIC = [
    "AffineMap2D", "CoverProfile", "DerivativeTrace", "DigitStats", "DimensionEstimate",
    "DomainError", "EvalResult", "FrequencySummary", "IterationGraph", "LengthProfile",
    "LimitClass", "MassBoundReport", "MassSample", "OkamotoError", "Parameter",
    "PrecisionError", "RegionClass", "RegionLabel", "ResourceError", "TernaryExpansion",
    "UnsupportedRegionError", "arc_length_profile", "chaos_game", "chaos_weights",
    "classify_limit", "construct_iteration", "cover_profile", "critical_a0", "derivative_trace",
    "differentiability", "digit_frequency_experiment", "digit_stats", "dimension_estimate",
    "errors", "eval_digit_series", "find_a0", "function", "geometry", "ifs_maps",
    "mass_bound_check", "nondiff_points", "refine", "region_classify", "sample_graph",
    "square_grid_counts", "ternary", "ternary_rational", "to_ternary",
]
_LIBRARY = ("okamoto.ternary", "okamoto.function", "okamoto.geometry", "okamoto.differentiability")


def test_package_surface():
    assert okamoto.__all__ == _PUBLIC
    assert set(_PUBLIC) <= set(dir(okamoto))
    with pytest.raises(AttributeError, match="'okamoto' has no attribute 'no_such_name'"):
        okamoto.no_such_name
    for name in _PUBLIC:  # each name is the object its defining module holds
        obj = getattr(okamoto, name)
        if isinstance(obj, types.ModuleType):
            assert obj is importlib.import_module(f"okamoto.{name}")
        else:
            assert obj.__module__.startswith("okamoto.")
            assert obj is getattr(importlib.import_module(obj.__module__), name)
    proc = run_process("-c", f"import sys, okamoto; print(sorted(set({_LIBRARY}) & set(sys.modules)))")
    assert proc.returncode == 0 and proc.stdout == "[]\n", proc.stderr


_BYTES = "okamoto._ascii"  # loaded by the first table slice made as bytes, with numpy


@pytest.mark.parametrize("argv, unloaded, loaded", [
    (["--version"], (*_LIBRARY, "fractions", "dataclasses", "numpy", _BYTES), ()),
    (["eval", "--a", "3/5", "--x", "1/7"], ("okamoto.geometry", "okamoto.differentiability",
                                            _BYTES), ()),
    (["classify", "--a", "0.7"], ("okamoto.geometry", _BYTES), ()),
    (["dim", "--a", "2/3", "--levels", "1..10"], ("numpy", _BYTES), ()),
    (["arclength", "--a", "0.35", "--levels", "0..12"], ("numpy", _BYTES), ()),
    (["derivative", "--a", "0.4", "--x", "0.3", "--n", "50"], ("numpy", _BYTES), ()),
    (["derivative", "--a", "5/12", "--x", "1/7", "--n", "30"], ("numpy", _BYTES), ()),
    (["chaos", "--a", "2/3", "--n", "5000"], (), (_BYTES,)),
    (["iterate", "--a", "0.7", "--level", "6"], (), (_BYTES,)),
], ids=("--version", "eval", "classify", "dim", "arclength", "derivative", "derivative-exact",
        "chaos", "iterate"))
def test_a_command_loads_only_the_modules_it_runs(argv, unloaded, loaded):
    script = f"""
import contextlib, io, sys
import okamoto.cli
with contextlib.redirect_stdout(io.StringIO()):
    assert okamoto.cli.main({argv!r}) == 0
print(sorted(set({unloaded!r}) & set(sys.modules)),
      sorted(set({loaded!r}) - set(sys.modules)))
"""
    proc = run_process("-c", script)
    assert proc.returncode == 0 and proc.stdout == "[] []\n", proc.stderr + proc.stdout


def test_public_classes_have_resolvable_type_hints():
    # annotations name no module the package does not import at its top level
    classes = [getattr(okamoto, n) for n in okamoto.__all__
               if isinstance(getattr(okamoto, n), type)]
    assert {okamoto.IterationGraph, okamoto.MassSample, okamoto.MassBoundReport} <= set(classes)
    for cls in classes:
        typing.get_type_hints(cls)


@pytest.mark.parametrize("av", ("3/5", "0.6"), ids=("exact", "float"))
def test_derivative_reports_divergence_in_both_modes(capsys, av):
    code, out, err = run(capsys, "derivative", "--a", av, "--x", "0", "--n", "1300")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1].endswith(" diverged=True")


def test_exact_values_print_in_full(capsys):
    code, out, err = run(capsys, "derivative", "--a", "3/5", "--x", "0", "--n", "5000")
    assert (code, err) == (0, "")
    # Decimal prints an int's digits without int's own string-length limit
    assert out.splitlines()[-2] == f"5000,0,{Decimal(9**5000)}/{Decimal(5**5000)}"


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="no int string limit")
def test_main_restores_the_int_string_limit(capsys):
    limit = sys.get_int_max_str_digits()
    assert run(capsys, "eval", "--a", "3/5", "--x", "1/7", "--exact")[0] == 0
    assert run(capsys, "eval", "--a", "3/5", "--x", "2")[0] == 1
    assert sys.get_int_max_str_digits() == limit


def test_size_limits_exit_with_one_line(capsys):
    start = time.perf_counter()
    for argv in (["eval", "--a", "1e-10", "--x", "0.3"],  # about 2.5e11 digits for 1e-12
                 ["eval", "--a", "0.999999999999", "--x", "0.5"],  # about 5.6e13
                 ["derivative", "--a", "0.4", "--x", "0.3", "--n", "1000000000000"],
                 ["derivative", "--a", "3/5", "--x", "0", "--n", "100000"],  # about 2.9 GB exact
                 ["chaos", "--a", "0.7", "--n", "1000000000000"],
                 ["experiment", "--samples", "1000000000000"],
                 ["experiment", "--digits", "1000000000000"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, ""), argv
        assert err.startswith("okamoto: error: ") and err.count("\n") == 1, argv
        if argv[0] == "eval":  # the count the tolerance needs, not a cap
            assert int(err.split()[2]) in (253284338833, 55956449387266), err
    assert time.perf_counter() - start < 1


def test_exact_derivative_refuses_a_slice_whose_text_is_over_budget(capsys, monkeypatch):
    # at 3/5, x = 0 and n = 3000 the trace is sized at 2.8 MB and its one slice at 7.5 MB
    # of text: D_m = 9^m / 5^m, so row m holds about 1.65 m digits
    argv = ["derivative", "--a", "3/5", "--x", "0", "--n", "3000"]
    monkeypatch.setattr(okamoto.errors, "CONSTRUCTION_BUDGET", 6 * 2**20)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("okamoto: error: the text of 3000 trace rows needs over 6 MiB")
    assert err.count("\n") == 1
    assert run(capsys, "derivative", "--a", "0.6", "--x", "1/7", "--n", "3000")[0] == 0  # float
    monkeypatch.setattr(okamoto.cli, "_SLICE", 1000)  # the last slice, rows 2001-3000: 4.2 MB
    assert run(capsys, *argv)[0] == 0
    # slices of 1500 rows: 1.9 MB, then 5.6 MB, against a budget of 5 MiB
    monkeypatch.setattr(okamoto.errors, "CONSTRUCTION_BUDGET", 5 * 2**20)
    monkeypatch.setattr(okamoto.cli, "_SLICE", 1500)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("okamoto: error: the text of 1500 trace rows needs over 5 MiB")
    monkeypatch.setattr(okamoto.errors, "CONSTRUCTION_BUDGET", 8 * 2**20)
    monkeypatch.setattr(okamoto.cli, "_SLICE", 4096)
    assert run(capsys, *argv)[0] == 0


_JUNK = st.text(max_size=8)
_REAL = st.one_of(st.floats(0, 1).map(repr), st.integers(-1, 10).map(str),
                  st.builds("{}/{}".format, st.integers(-1, 30), st.integers(0, 30)), _JUNK)
_TOL = st.one_of(st.floats().map(repr), _JUNK)
_LEVELS = st.one_of(st.builds("{}..{}".format, st.integers(-1, 8), st.integers(-1, 8)), _JUNK)
_SMALL = st.integers(-2, 2000).map(str)


def _command(name, a=True, **options):
    """argv of one subcommand: each option left out or given a drawn value."""
    parts = [st.just([name])]
    if a:
        parts += [st.sampled_from(([], ["--exact"]))]
        options = {"a": _REAL, **options}
    parts += [st.one_of(st.just([]), value.map(lambda v, k=k: [f"--{k}", v]))
              for k, value in options.items()]
    return st.tuples(*parts).map(lambda lists: sum(lists, []))


_ARGV = st.one_of(
    _command("eval", x=_REAL, tol=_TOL),
    _command("iterate", level=st.integers(-2, 8).map(str),
             format=st.sampled_from(("csv", "svg", "npy"))),
    _command("dim", levels=_LEVELS, method=st.sampled_from(("column", "square", "x"))),
    _command("arclength", levels=_LEVELS),
    _command("derivative", x=_REAL, n=_SMALL),
    _command("classify"),
    _command("a0", a=False, tol=_TOL),
    _command("chaos", n=_SMALL, seed=_SMALL, format=st.just("svg")),
    _command("experiment", a=False, samples=st.integers(-1, 20).map(str), digits=_SMALL,
             seed=_SMALL),
)


@settings(max_examples=100, deadline=None)
@given(argv=_ARGV, to_file=st.booleans())
def test_cli_fuzz_exits_0_1_or_2_with_one_line(argv, to_file):
    with tempfile.TemporaryDirectory() as tmp:
        if to_file:
            argv = argv + ["--out", os.path.join(tmp, "f")]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert code in (0, 1, 2), argv
    if code:
        assert err.getvalue().splitlines()[-1].startswith("okamoto"), argv


def test_usage_error_exit_code(capsys):
    assert run(capsys, "eval", "--a", "0.5")[0] == 1
    assert run(capsys, "nonsense")[0] == 1


def test_a0_report(capsys):
    code, out, _ = run(capsys, "a0", "--tol", "1e-14")
    assert code == 0
    f = parse_fields(out)
    assert 0.5592 < float(f["a0"]) < 0.5593
    assert abs(float(f["residual"])) < 1e-12


def test_classify_nowhere(capsys):
    code, out, _ = run(capsys, "classify", "--a", "0.7")
    assert code == 0
    assert parse_fields(out)["label"] == "nowhere-differentiable"


def test_dim_csv(capsys):
    code, out, _ = run(capsys, "dim", "--a", "2/3", "--levels", "1..10")
    assert code == 0
    lines = out.splitlines()
    assert lines[1] == "level,delta,area,boxes,log_inv_delta,log_boxes"
    slope = float(lines[-1].split("slope=")[1].split()[0])
    assert abs(slope - math.log(5) / math.log(3)) < 1e-6


def test_dim_up_to_last_float_level(capsys):
    # at a = 0.9 the box count (12a-3)^i is a finite float up to level 345
    code, out, _ = run(capsys, "dim", "--a", "0.9", "--levels", "1..345")
    assert code == 0
    slope = float(out.splitlines()[-1].split("slope=")[1].split()[0])
    assert abs(slope - math.log(12 * 0.9 - 3) / math.log(3)) < 1e-12


def test_arclength_csv_roundtrip(capsys, tmp_path):
    path = tmp_path / "arc.csv"
    code, _, _ = run(capsys, "arclength", "--a", "0.6", "--levels", "0..5", "--out", str(path))
    assert code == 0
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# a=0.59999999999999998 mode=float")
    assert lines[1] == "level,euclidean_length,manhattan_length,total_variation"
    row0 = lines[2].split(",")
    assert float(row0[1]) == math.sqrt(2)  # 17g round-trips bit-for-bit
    assert len(lines) == 2 + 6


def test_iterate_csv_and_svg(capsys, tmp_path):
    code, out, _ = run(capsys, "iterate", "--a", "2/3", "--level", "1", "--exact")
    assert code == 0
    assert out.splitlines()[1] == "x,y"
    assert "1/3,2/3" in out
    svg = tmp_path / "g.svg"
    code, _, _ = run(capsys, "iterate", "--a", "0.6", "--level", "2",
                     "--format", "svg", "--out", str(svg))
    assert code == 0
    body = svg.read_text()
    assert body.startswith("<svg") and body.count("<polyline") == 1
    assert 'viewBox="0 0 1 1"' in body


def _byte_rows(monkeypatch):
    """The list of the row counts of the slices _table makes as bytes from now on."""
    rows, make = [], okamoto._ascii.rows
    monkeypatch.setattr(okamoto._ascii, "rows", lambda pieces, cols: rows.append(len(cols[0]))
                        or make(pieces, cols))
    return rows


@pytest.mark.parametrize("av, level, small", [
    ("7/9", 5, True), (f"{10**30 - 1}/{10**30}", 5, False), ("3/5", 6, True),
    ("7/94906265", 2, True), ("7/94906267", 2, False), ("94906264/94906265", 1, True),
], ids=("7/9", "1-10^-30", "3/5", "q^2 below 2^53", "q^2 above 2^53", "q below 2^53"))
def test_exact_iterate_rows_are_the_vertices(capsys, monkeypatch, av, level, small):
    # rows print k/3^i and the vertex in lowest terms; SVG points are their floats.  With
    # q^i < 2^53 the numerators go to int64, and the CSV is made as bytes
    a = Parameter.parse(av)
    assert (a.value.denominator ** level < 2**53) == small
    ys = construct_iteration(a, level).vertices
    xs = [Fraction(k, 3**level) for k in range(len(ys))]
    rows = _byte_rows(monkeypatch)
    code, out, _ = run(capsys, "iterate", "--a", av, "--level", str(level))
    assert code == 0
    assert out.splitlines()[2:] == [f"{x.numerator}/{x.denominator},{y.numerator}/{y.denominator}"
                                    for x, y in zip(xs, ys)]
    assert sum(rows) == (len(ys) if small else 0)
    code, out, _ = run(capsys, "iterate", "--a", av, "--level", str(level), "--format", "svg")
    assert code == 0
    assert out.splitlines()[2:-2] == [f"{float(x):.8g},{1 - float(y):.8g}" for x, y in zip(xs, ys)]


def test_exact_iterate_goldens_take_the_byte_path(capsys, monkeypatch):
    rows = _byte_rows(monkeypatch)
    for command, digest in GOLDEN:
        if command.startswith("iterate --a 3/5") and "svg" not in command:
            code, out, _ = run(capsys, *command.split())
            assert code == 0
            assert hashlib.sha256(out.encode()).hexdigest() == digest, command
    assert sum(rows) == 3**4 + 1 + 3**9 + 1


def test_chaos_csv_determinism(capsys):
    code1, out1, _ = run(capsys, "chaos", "--a", "2/3", "--n", "50", "--seed", "9")
    code2, out2, _ = run(capsys, "chaos", "--a", "2/3", "--n", "50", "--seed", "9")
    assert code1 == code2 == 0
    assert out1 == out2
    lines = out1.splitlines()
    assert lines[0].startswith("# a=") and "seed=9" in lines[0]
    assert lines[1] == "x,y,step"
    # float columns re-parse bit-for-bit
    x, y, t = lines[2].split(",")
    assert f"{float(x):.17g}" == x and f"{float(y):.17g}" == y


def test_chaos_rejects_low_a(capsys):
    assert run(capsys, "chaos", "--a", "0.4", "--n", "10")[0] == 1


@pytest.mark.parametrize("argv", ("chaos --a 2/3 --n 5 --seed -1", "experiment --seed -5"))
def test_negative_seed_is_named(capsys, argv):
    code, out, err = run(capsys, *argv.split())
    assert code == 1 and out == ""
    assert err.startswith("okamoto: error: ") and err.count("\n") == 1 and "seed" in err


def test_experiment_report(capsys):
    code, out, _ = run(capsys, "experiment", "--samples", "20", "--digits", "500", "--seed", "3")
    assert code == 0
    f = parse_fields(out)
    assert abs(float(f["mean_ratio"]) - 1 / 3) < 0.05
    code2, out2, _ = run(capsys, "experiment", "--samples", "20", "--digits", "500", "--seed", "3")
    assert out2 == out


def test_derivative_report(capsys):
    code, out, _ = run(capsys, "derivative", "--a", "1/3", "--x", "2/9", "--n", "12")
    assert code == 0
    lines = [l for l in out.splitlines() if l and l[0].isdigit()]
    assert len(lines) == 12
    from fractions import Fraction

    assert all(Fraction(l.split(",")[2]) == 1 for l in lines)


def test_version_flag(capsys):
    code, out, _ = run(capsys, "--version")
    assert code == 0
    assert out.strip() == "0.1.0"


# Every output `_table` formats, at a size that leaves a short last slice for
# a slice of 7 rows, except float `iterate` at level 3 (28 rows, 4 whole
# slices); `--a 0.01` and `--a 1e-300` mix 17-digit values with 0, 1 and
# exponent forms, and `--a 0.5` has y values of 1 to 11 characters.
# Each `iterate` spans several blocks of f_i at the small block layouts below.
_SLICED = ["chaos --a 0.8 --n 50 --seed 2", "chaos --a 0.8 --n 50 --seed 2 --format svg",
           "iterate --a 0.7 --level 3", "iterate --a 0.7 --level 3 --format svg",
           "iterate --a 3/5 --level 4", "iterate --a 3/5 --level 4 --format svg",
           "derivative --a 3/5 --x 1/7 --n 30", "derivative --a 0.6 --x 0.3 --n 30",
           "dim --a 0.6 --levels 1..8", "arclength --a 0.35 --levels 0..12",
           "iterate --a 0.01 --level 7", "iterate --a 1e-300 --level 3",
           "iterate --a 0.5 --level 9"]


@pytest.mark.parametrize("command", _SLICED)
def test_output_does_not_depend_on_the_slice_size(capsys, monkeypatch, command):
    outputs = []
    # blocks of one segment of f_(i-1) refined once, and of two segments of f_i
    for size, block in ((1, (1, 1)), (7, (2, 0)), (okamoto.cli._SLICE, okamoto.function._BLOCK)):
        monkeypatch.setattr(okamoto.cli, "_SLICE", size)
        monkeypatch.setattr(okamoto.function, "_BLOCK", block)
        code, out, _ = run(capsys, *command.split())
        assert code == 0
        outputs.append(out)
    assert outputs[0] == outputs[1] == outputs[2]


# Each printf row template of cli.py, the str.format row it replaced, and the
# kinds of values in its columns: f float, i int, q a Fraction, which the
# printf row takes as two columns, numerator and denominator
_TEMPLATES = [
    ("%.8g,%.8g", "{:.8g},{:.8g}", "ff"),
    ("%.17g,%.17g", "{:.17g},{:.17g}", "ff"),
    ("%d/%d,%d/%d", "{}/{},{}/{}", "iiii"),
    ("%d,%.17g,%.17g,%.17g,%.17g,%.17g", "{},{:.17g},{:.17g},{:.17g},{:.17g},{:.17g}", "ifffff"),
    ("%d,%.17g,%.17g,%.17g", "{},{:.17g},{:.17g},{:.17g}", "ifff"),
    ("%d,%d,%d/%d", "{0},{1},{2.numerator}/{2.denominator}", "iiq"),
    ("%d,%d,%.17g", "{0},{1},{2:.17g}", "iif"),
    ("%.17g,%.17g,%d", "{:.17g},{:.17g},{}", "ffi"),
]
_FIELD = r"%[.\d]*[dg]"
_INTS = st.one_of(st.integers(), st.builds(lambda d, s: s * (10**d + 7), st.integers(4300, 4400),
                                           st.sampled_from((-1, 1))))  # past 4300 digits
_UNIT = st.floats(1e-4, 1, exclude_max=True)  # where the byte path makes the 17 digits
_VALUES = {"f": st.floats(allow_subnormal=True),  # nan, -inf, inf and -0.0 too
           "i": _INTS,
           "q": st.builds(Fraction, _INTS, _INTS.filter(bool))}


def test_every_row_template_is_listed():
    source = Path(okamoto.cli.__file__).read_text()
    found = set(re.findall(rf'"((?:{_FIELD}[,/]?)+)"', source))
    assert found == {row for row, _, _ in _TEMPLATES}


@pytest.mark.parametrize("row, old, kinds", _TEMPLATES, ids=[t[0] for t in _TEMPLATES])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_printf_rows_match_the_str_format_rows(row, old, kinds, data):
    import numpy as np

    n = data.draw(st.integers(0, 9), "rows")
    floats = _VALUES["f"] if data.draw(st.booleans(), "any floats") else _UNIT
    cols = [data.draw(st.lists(floats if k == "f" else _VALUES[k], min_size=n, max_size=n))
            for k in kinds]
    if row == "%.17g,%.17g,%d" and data.draw(st.booleans(), "steps as a range"):
        start = data.draw(_INTS, "first step")  # a range, as cmd_chaos passes it
        cols[2] = range(start, start + n)
    arrays = data.draw(st.booleans(), "float columns as float64 arrays")  # as numpy gives them
    printf_cols = [c for k, col in zip(kinds, cols)
                   for c in ([[q.numerator for q in col], [q.denominator for q in col]]
                             if k == "q" else [np.array(col, float) if k == "f" and arrays
                                               else col])]
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    with contextlib.ExitStack() as stack:
        if limit:  # as main sets it
            sys.set_int_max_str_digits(0)
            stack.callback(sys.set_int_max_str_digits, limit)
        stack.enter_context(pytest.MonkeyPatch.context()).setattr(
            okamoto.cli, "_SLICE", data.draw(st.integers(1, 4), "slice"))
        new = "\n".join(okamoto.cli._table((), row, [printf_cols]))
        assert new == "\n".join(map(old.format, *cols))


def test_printf_integer_fields_get_ints(capsys, monkeypatch):
    # %d prints True as 1 and truncates 1.5 to 1, where {} printed True and 1.5
    table, seen = okamoto.cli._table, set()

    def spy(head, row, parts, tail=()):
        parts, fields = list(parts), re.findall(_FIELD, row)
        for cols in parts:
            assert len(fields) == len(cols)
            for field, col in zip(fields, cols):
                if field == "%d":
                    values = col.tolist() if hasattr(col, "tolist") else list(col)
                    assert values and all(type(v) is int for v in values), (row, values[:3])
        seen.add(row)
        return table(head, row, parts, tail)

    monkeypatch.setattr(okamoto.cli, "_table", spy)
    for command in _SLICED:
        assert run(capsys, *command.split())[0] == 0
    assert seen == {row for row, _, _ in _TEMPLATES}


def _printed(xs):
    """xs as the byte path of _table prints them under %.17g, one a line."""
    import numpy as np

    return okamoto._ascii.rows(["", ".17g"], [np.array(xs, float)]).split("\n")


@settings(max_examples=300, deadline=None)
@given(st.lists(_UNIT, min_size=1, max_size=40))
def test_byte_path_gives_the_17_digits_in_the_unit_range(xs):
    assert _printed(xs) == ["%.17g" % x for x in xs]


def test_byte_path_at_powers_of_ten_ties_and_grid_points():
    import numpy as np

    # 1000 ulps each side of 10^-k: the decade's comparisons and its top, where
    # the digits must not carry; 1.0 and above fall back to %.17g
    near = [float(x) for k in range(5)
            for x in (np.array(10.0**-k).view(np.int64) + np.arange(-1000, 1001)).view(float)]
    # odd j / 2^i in [10^(17-i), 10^(18-i)) have 18 significant digits, the last
    # a 5: exact ties at 17 digits, rounded half to even
    ties = [j / 2**i for i in range(18, 22)
            for j in range(2 * math.ceil(10.0 ** (17 - i) * 2**(i - 1)) + 1,
                           math.floor(10.0 ** (18 - i) * 2**i), 2 * 37)]
    assert all(len(Decimal(x).as_tuple().digits) == 18 for x in ties)
    assert {int(("%.17e" % x)[17]) % 2 for x in ties} == {0, 1}  # both ways round
    grid = (np.arange(3**11 + 1) / 3**11).tolist()  # iterate's x at level 11
    # 2^-k down to 2^-13 > 1e-4: 17 digits that end in whole groups of 4 zeros,
    # after 0 to 3 leading zeros
    dyadics = [2.0**-k for k in range(1, 14)]
    assert {("%.17e" % x)[-3:] for x in dyadics} == {"-01", "-02", "-03", "-04"}
    xs = near + ties + grid + dyadics + [float(np.nextafter(1, 0)), 0.5, 0.25, 1e-4]
    assert _printed(xs) == ["%.17g" % x for x in xs]


def test_digit_tables_hold_each_group_plain_and_stripped():
    groups = okamoto._ascii._GROUPS

    def text(i):  # the 4 bytes at index i, with their NULs dropped
        return groups[i:i + 1].tobytes().replace(b"\0", b"").decode("ascii")

    for k in range(10**4):
        g = "%04d" % k
        assert (text(k), text(10**4 + k), text(2 * 10**4 + k)) == (g, g.rstrip("0"), g.lstrip("0"))
    # a float's group 0: z leading zeros, then its leading digit d
    assert [text(3 * 10**4 + 10 * z + d) for z in range(4) for d in range(10)] == [
        "0" * z + str(d) for z in range(4) for d in range(10)]
    assert len(groups) == 3 * 10**4 + 40


def test_byte_path_leaves_other_values_to_17g():
    import numpy as np

    xs = [0.0, -0.0, 1.0, 1e-5, math.nan, math.inf, -math.inf, 5e-324, 1e-310,
          float(np.nextafter(1e-4, 0)), -0.5, 1e300, 0.5, -2.2250738585072014e-308]
    assert _printed(xs) == ["%.17g" % x for x in xs]
    # between other fields, where a fallback's 24 bytes must not spill into them
    steps = range(2**53 - len(xs), 2**53)
    assert (okamoto._ascii.rows(["", ".17g,", ".17g;", "d"],
                                [np.array(xs), np.array(xs[::-1]), steps])
            == printf_rows("%.17g,%.17g;%d", [xs, xs[::-1], steps]))


def test_byte_path_prints_ranges_of_ints_at_every_width():
    ints = [range(0, 12), range(2**53 - 3, 2**53), range(7, 100, 9),
            *(range(10**k - 1, 10**k + 1) for k in range(1, 16))]
    for r in ints:
        assert okamoto._ascii.rows(["x=", "d;"], [r]) == printf_rows("x=%d;", [r])


# Int values at the edges of 4-digit groups, where an int field's width changes
_EDGES = (0, 9, 10, 9999, 10**4, 10**8 - 1, 10**8, 10**12 - 1, 10**12, 2**53 - 1)
_FLOATS = st.one_of(_UNIT, st.floats(allow_subnormal=True),
                    st.sampled_from((-2.2250738585072014e-308, -1.7976931348623157e308, 0.0, 1e-4,
                                     0.99999999999999989, 1.0)))  # 24 characters, and edges


def _dense_column(data, kind, n):
    """A column of n values for a field of kind "f" (float64) or "d" (a range or int64)."""
    import numpy as np

    start = st.one_of(st.sampled_from(_EDGES), st.integers(0, 2**53 - 1))
    if kind == "f":
        return np.array(data.draw(st.lists(_FLOATS, min_size=n, max_size=n)), float)
    if data.draw(st.booleans(), "a range"):
        step = data.draw(st.integers(1, 3), "step")
        first = min(data.draw(start, "first"), 2**53 - 1 - step * (n - 1))
        return range(first, first + step * n, step)
    near = st.builds(lambda e, k: min(max(e + k, 0), 2**53 - 1), st.sampled_from(_EDGES),
                     st.integers(-2, 2))
    return np.array(data.draw(st.lists(st.one_of(near, start), min_size=n, max_size=n)),
                    np.int64)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_dense_rows_print_as_printf_at_every_field_offset(data):
    # literals of 0 to 7 bytes put each field at every offset mod 4
    kinds = data.draw(st.lists(st.sampled_from("fd"), min_size=1, max_size=5), "kinds")
    lits = [data.draw(st.text(st.characters(min_codepoint=32, max_codepoint=126,
                                            blacklist_characters="%"), max_size=7), "literal")
            for _ in range(len(kinds) + 1)]
    row = lits[0] + "".join(("%.17g" if k == "f" else "%d") + t for k, t in zip(kinds, lits[1:]))
    n = data.draw(st.integers(1, 20), "rows")
    cols = [_dense_column(data, k, n) for k in kinds]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(okamoto.cli, "_SLICE", data.draw(st.integers(1, 8), "slice"))
        rows = _byte_rows(mp)
        assert "\n".join(okamoto.cli._table((), row, [cols])) == printf_rows(row, cols)
    assert sum(rows) == n  # every slice was made as bytes


def test_int_fields_change_width_between_slices():
    import numpy as np

    # 9990..10009: slices of 7 rows need 1, then 2 groups of 4 digits
    for steps in (range(9990, 10010), np.arange(9990, 10010), np.arange(10009, 9989, -1)):
        cols = [np.linspace(0, 1, 20, endpoint=False), steps]
        for size in (1, 7, 4096):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(okamoto.cli, "_SLICE", size)
                assert ("\n".join(okamoto.cli._table((), "%.17g,%d", [cols]))
                        == printf_rows("%.17g,%d", cols))
    steps = range(9990, 10010)
    assert okamoto._ascii.rows(["", "d"], [steps]) == printf_rows("%d", [steps])
    # int64 values outside [0, 2^53) go to printf, and so does a slice holding one
    for ints in ([-1, 5], [2**53, 7], [2**62, 2**63 - 1], [-(2**63), 0]):
        cols = [np.array([0.5, 0.25]), np.array(ints, np.int64)]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(okamoto._ascii, "rows", None)  # any call fails
            assert ("\n".join(okamoto.cli._table((), "%.17g,%d", [cols]))
                    == printf_rows("%.17g,%d", cols))
    # a 24-character fallback between one-byte literals, then a 1-group int
    xs = np.array([0.5, -2.2250738585072014e-308, 1e-300, 0.25])
    cols = [xs, np.arange(4), xs[::-1].copy()]
    assert (okamoto._ascii.rows(["", ".17g;", "d,", ".17g"], cols)
            == printf_rows("%.17g;%d,%.17g", cols))


_BITS = st.one_of(st.integers(0, 2**64 - 1),  # any float64, nan and inf too
                  st.builds(lambda e, f: e << 52 | f, st.integers(1009, 1022),
                            st.integers(0, 2**52 - 1)))  # in [2^-14, 1)


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_float64_bit_patterns_print_as_the_per_row_loop_does(data):
    import numpy as np

    n = data.draw(st.integers(1, 30), "rows")
    row = data.draw(st.sampled_from(["%.17g,%.17g", "%.17g,%.17g,%d"]), "row")
    cols = [np.array(data.draw(st.lists(_BITS, min_size=n, max_size=n)), np.uint64).view(float)
            for _ in range(2)]
    cols += [range(data.draw(st.integers(0, 2**53 - n)), 2**53)[:n]] * row.endswith("d")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(okamoto.cli, "_SLICE", data.draw(st.integers(1, 8), "slice"))
        assert "\n".join(okamoto.cli._table((), row, [cols])) == printf_rows(row, cols)


# SHA-256 of the stdout of each command.  CLI output stays byte-identical
# unless a change says what changed and why; only then is a digest updated.
# The SVG digests were re-recorded when the polyline went to one point a
# line; its whitespace-split coordinates were checked unchanged first.
# The headers carry the version, and `chaos` also depends on numpy's
# `Generator.random` stream (its map indices are the ones `Generator.choice`
# draws, see geometry._map_indices), so a numpy that changes that stream
# changes the chaos digests without any change to okamoto.
GOLDEN = [
    ("iterate --a 3/5 --level 4",
     "2894691fcff3fe9c81c50c7eafeb682ca82834e1dd1bc2b6c2ad8198a5786fc5"),
    ("iterate --a 3/5 --level 3 --format svg",
     "2c76e3cebef6495f33091b006df47d8b0cc8e0e9dbc3107500741afb3f04b17e"),
    ("iterate --a 0.7 --level 5",
     "9726f2ae810755e7b0e9309743f832082e4b8db60862500ca08971d97e751888"),
    ("iterate --a 0.7 --level 4 --format svg",
     "9d8c12ab395b11b3756465d5665126316320af88a2ab2f691d8c88d25f8764ff"),
    ("chaos --a 0.8 --n 500 --seed 3",
     "448582686444423483dad3be69595651475f1abb49378fb7268986ecc1c7c540"),
    ("chaos --a 2/3 --n 200 --seed 1 --format svg",
     "978e59ae294439da5d5bff225788b72b8137d46516f1d8a543828d9de270818c"),
    ("dim --a 0.9 --levels 1..8 --method square",
     "41ff3fae8da90bca24700a259c3ea665d633861dd2c3ecd800993eede5c8a519"),
    ("dim --a 0.6 --levels 1..8",
     "189176f5197e43151a7184bbddd471045c7badaa5659c171d217d0deeaebe57f"),
    ("arclength --a 0.35 --levels 0..12",
     "3c8ad7df1736a43aa188f51cec465b16fd6161b54ee7216ff892236e540b25c5"),
    ("eval --a 3/5 --x 1/7 --exact",
     "05a475d2ff66a4d3404b250cb985f27a8084764a15ff365e75570dd860222164"),
    ("eval --a 0.6 --x 0.3",
     "c9460419d6b998b7e90453585ca818cc0e7cca2dfa95529dc07adfde4b070241"),
    ("derivative --a 0.6 --x 0.3 --n 40",
     "9d2df4b76afc19f6a093503218a8c66dbac705eddd015d275a8a220ebff99ae3"),
    ("classify --a 1/3",
     "0b15e7f8fea1e158b50648929341f92d0e1c354ecd36d63a02176d9f545b9139"),
    ("a0",
     "1068fad5b00c67c9085047914bd668c1614a4a4589a575c2b53002cba40ff1b9"),
    ("experiment --samples 20 --digits 500 --seed 3",
     "4d1b367962b3b6be85485d78af840e4e438b84b7502fb211a71c9d7455b6844d"),
    ("derivative --a 1/3 --x 2/9 --n 12",
     "809caebe32c0a86dd06f403fbb08dd47e99d9dd227c40273d6e64f0b0bc1afba"),
    # 19 684 and 16 385 rows: more than one formatting slice
    ("iterate --a 0.7 --level 9",
     "d961ce0c5f8fe86bc3b908ffd06287060646451353cb0f587ce2c5d65e402458"),
    ("chaos --a 0.8 --n 16385 --seed 5",
     "ad1122d99db43cbddcf8c3b2bfa2594ab4d5b10d448b3dbc3b7bd2c1f50f59d7"),
    ("derivative --a 3/5 --x 1/7 --n 30",
     "0bc4a6b52246b605f40f161acee27aaad9b2d87e1f4589bdeb1c20b5bdc953dd"),
    # square counts of an exact a, recorded once they matched a Fraction-only reference
    ("dim --a 2/3 --levels 1..8 --method square",
     "b48f28118740c0bc1faedc642beba828d9bdeddaae90ff075e1013f5ff823df4"),
    # exact CSV and both SVGs across several formatting slices
    ("iterate --a 3/5 --level 9",
     "a8d39f397196e3e79a3c6ab844c986ddd90d1e4b06c54c805761887be2ccec04"),
    ("iterate --a 0.7 --level 9 --format svg",
     "e7659fcc72a05b3c668641a9ac6e47347be10d980a44e95fb068163605d64f56"),
    ("chaos --a 2/3 --n 20000 --seed 7 --format svg",
     "9b825915c7ad1181ef2d8dbc9872ca8b7539868865f14e44c33a6a0697c458c0"),
    # %.17g columns whose values leave [1e-4, 1): 12 exponent fields over 5
    # slices; 242 exponent fields with 0 and 1; 0, 1e-300 and 2.0000000000000001e-300
    ("chaos --a 2/3 --n 20000 --seed 7",
     "607fc4c665fe394515113103764f5a8f4c39314a47e145cd9bcef1a350259cc8"),
    ("iterate --a 0.01 --level 7",
     "04afe7d09bf7a4c9e634d38ed8b8dd25cd4cdf99ab79c84cc9fc67fde6f32839"),
    ("iterate --a 1e-300 --level 3",
     "d43fe68e082922ee96b0839c2d7b2c3951bc1f62b41dbd2c0e06c5728b483eac"),
    # y is the Cantor function, j / 2^m with 1 to 11 characters: up to 16 of
    # the 17 digits are trailing zeros
    ("iterate --a 0.5 --level 9",
     "be3facd9bca3255401b09a827e6a0126090b6eb7d26d53e693d56e487bbc538a"),
    # exact square counts where q^i < 2^53 but q^i 3^i > 2^63 (181^7), and of 3/5 to level 12
    ("dim --a 1/181 --levels 1..7 --method square",
     "4bfbec04347568511b6b006bb55fcfe59c08b8499d59a60de31a86b3515bdb4c"),
    ("dim --a 3/5 --levels 1..12 --method square",
     "7e4b856d7c569aef2cc262142a62c2c9a91594dfa7ac20995ef020a1c9d8e20d"),
    # exact traces recorded from the Fraction-a-digit loop: q = 12 shares 2 and 3 with
    # the factors, 1/2 prints 0/1 from its first 1-digit on, and 3/5 passes the float range
    ("derivative --a 5/12 --x 1/7 --n 40",
     "a0b6660c5ab262e936287c2fb731650697048fd2ff26d75c7da784c780b92115"),
    ("derivative --a 1/2 --x 1/7 --n 40",
     "13ebfbf24aff61c4b681c07fe43fb845e08becabaa42b323b1b153e96cf88b7a"),
    ("derivative --a 3/5 --x 0 --n 1300",
     "f26bc605414b92eee5b7d3a960d5df3e3ec22d52f27ab5f56e8d617f3fe4e0ac"),
]


@pytest.mark.parametrize("command, digest, to_file", [
    *(pytest.param(c, d, False, id=c) for c, d in GOLDEN),
    *(pytest.param(c, d, True, id=c + " --out") for c, d in GOLDEN),
])
def test_cli_output_matches_golden_digest(capsys, tmp_path, command, digest, to_file):
    path = tmp_path / "f"
    code, out, _ = run(capsys, *command.split(), *(["--out", str(path)] if to_file else []))
    assert code == 0
    data = out.encode()
    if to_file:
        assert out == ""
        data = path.read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
