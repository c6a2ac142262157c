"""Command-line front end: evaluation, construction, geometry, experiments.

Every command is deterministic given its full flag set.  CSV and text
outputs embed the parameter, arithmetic mode, seed and tool version; SVG
output is a single polyline in a unit viewBox with the y axis flipped so
mathematical up is visual up, one point a line.

A command computes its result (iterate: checks its level, then refines a block
at a time) before its lines are streamed, so a failing command writes nothing.
Tables and polylines are formatted a slice at a time as they are written, each
slice by one printf-style % on its rows' templates, or built as bytes by _ascii
where every field is %.17g on a float64 array or %d on a range or an int64
array in [0, 2^53): the chaos CSV, and the iterate CSV of a float a and of an
exact a = p/q with q^i < 2^53, whose numerators _level_blocks makes int64.

Exit codes: 0 success, 1 usage/domain/output error, 2 numerical/precision failure.
"""
from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import nullcontext

from . import __version__
from .errors import DomainError, OkamotoError, PrecisionError, check_budget

# Each command imports the library modules it calls, so that --version and --help load
# none, and the annotations name Parameter and TernaryExpansion without importing them.

# Rows formatted at a time.  16384 formats about 20 % faster, but its larger pieces
# add 2.6 MB to the peak of chaos and iterate, which glibc's heap keeps.
_SLICE = 4096
_SVG_HEAD = ('<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1 1">',
             '  <polyline fill="none" stroke="black" stroke-width="0.002" points="')


def _num(a: Parameter, v) -> str:
    """v in a's mode: p/q if exact, 17 significant digits if float."""
    return f"{v.numerator}/{v.denominator}" if a.mode == "exact" else f"{v:.17g}"


def _table(head, row: str, parts, tail=()):
    """The head lines, the rows of the parts in the printf template row, the tail lines.

    A part is a list of equally long columns, the next rows.  Rows go _SLICE at a
    time within a part, yielded as one piece of newline-joined lines, so no text
    exists whole.  A slice whose fields are all %.17g on float64 arrays or %d on
    ranges or int64 arrays in [0, 2^53) is made as bytes by _ascii.rows, which the
    first such slice imports with numpy; any other fills its rows' templates in one
    % from a flat tuple of its values (numpy's via .tolist())."""
    yield from head
    pieces = row.split("%")

    def fits(p, c):  # whether _ascii.rows can make field p of the column c
        if p.startswith(".17g"):
            return getattr(c, "dtype", None) == "float64"
        if isinstance(c, range):
            return p[0] == "d" and 0 <= c[0] < 2**53 and 0 <= c[-1] < 2**53
        return (p[0] == "d" and getattr(c, "dtype", None) == "int64"
                and 0 <= c.min() and c.max() < 2**53)

    def piece(cols):  # the slice's text; its values go before it is written
        if all(map(fits, pieces[1:], cols)):
            from . import _ascii

            return _ascii.rows(pieces, cols)
        w, m = len(cols), len(cols[0])
        flat = [None] * (w * m)
        for j, c in enumerate(cols):
            flat[j::w] = c.tolist() if hasattr(c, "tolist") else c
        flat = tuple(flat)  # the list goes before the text is made
        return "\n".join([row] * m) % flat

    for cols in parts:
        for s in range(0, len(cols[0]), _SLICE):
            yield piece([c[s:s + _SLICE] for c in cols])
    yield from tail


def _parse_x(text: str, a: Parameter, digits: int) -> TernaryExpansion:
    """x as a decimal in [0,1] or an exact fraction p/q, in a's mode unless p/q."""
    from .function import parse_real
    from .ternary import to_ternary

    return to_ternary(parse_real(text, a.mode == "exact", "x"), digits)


def _header(a: Parameter, seed=None) -> str:
    return f"# a={a} mode={a.mode} seed={'none' if seed is None else seed} version={__version__}"


def _write(path: str | None, lines) -> None:
    """Stream each line and a newline to path, or stdout if None or '-', then flush."""
    with nullcontext(sys.stdout) if path in (None, "-") else open(path, "w") as fh:
        for line in lines:  # the line, then "\n": line + "\n" would copy a slice's text
            print(line, file=fh)
            del line  # freed before _table makes the next slice
        fh.flush()


def _svg(parts):
    """The parts' points (x, 1 - y) as one polyline in the unit square, one a line."""
    return _table(_SVG_HEAD, "%.8g,%.8g", parts, ('"/>', "</svg>"))


def _parse_levels(text: str) -> tuple[int, int]:
    """Inclusive 'lo..hi' range with 0 <= lo <= hi."""
    try:
        lo, hi = map(int, text.split(".."))
    except ValueError:
        raise DomainError(f"level range {text!r} must look like 'lo..hi'") from None
    if not 0 <= lo <= hi:
        raise DomainError(f"level range {text!r} needs 0 <= lo <= hi")
    return lo, hi


def cmd_eval(args, a) -> list[str]:
    from .function import eval_digit_series, series_digits

    x = _parse_x(args.x, a, series_digits(a, args.tol))
    res = eval_digit_series(a, x, args.tol)
    return [
        _header(a),
        f"x_digits = {''.join(map(str, x.digits[:res.digits_used or len(x.digits)]))}",
        f"value = {_num(a, res.value)}",
        f"error_bound = {_num(a, res.error_bound)}",
        f"digits_used = {res.digits_used}",
    ]


def cmd_iterate(args, a):
    import numpy as np

    from .function import _level_blocks

    den, blocks = _level_blocks(a, args.level)
    n = 3**args.level

    def columns(lo, v):  # x = k / n: the same bits as k / n in Python for n <= 2^53
        k = np.arange(lo, lo + len(v))
        if args.format == "svg":  # Y / q^i rounds once, as float(Fraction(Y, q^i)) does: Python
            return k / n, 1 - v / den  # ints divide so, and _level_blocks' int64 are exact floats
        if a.mode == "float":
            return k / n, v
        gx, gy = np.gcd(k, n), np.gcd(v, den)  # in lowest terms, as Fraction prints them
        return k // gx, n // gx, v // gy, den // gy

    def parts():  # a slice at a time; a later block starts at the last row made
        for lo, v in blocks:
            for s in range(1 if lo else 0, len(v), _SLICE):
                yield columns(lo + s, v[s:s + _SLICE])

    if args.format == "svg":
        return _svg(parts())
    row = "%.17g,%.17g" if a.mode == "float" else "%d/%d,%d/%d"
    return _table((_header(a), "x,y"), row, parts())


def cmd_dim(args, a):
    from .geometry import cover_profile, dimension_estimate

    lo, hi = _parse_levels(args.levels)
    est = dimension_estimate(a, lo, hi, method=args.method)
    prof = cover_profile(a, hi)
    cols = [c[lo:hi + 1] for c in (prof.levels, prof.delta, prof.area, prof.boxes)]
    cols += [math.log(1 / d) for d in cols[1]], [math.log(nb) for nb in cols[3]]
    return _table((_header(a), "level,delta,area,boxes,log_inv_delta,log_boxes"),
                  "%d,%.17g,%.17g,%.17g,%.17g,%.17g", [cols],
                  (f"# method={est.method} slope={est.slope:.17g} "
                   f"intercept={est.intercept:.17g} max_residual={est.max_residual:.3g} "
                   f"reference={est.reference:.17g}",))


def cmd_arclength(args, a):
    from .geometry import arc_length_profile

    lo, hi = _parse_levels(args.levels)
    prof = arc_length_profile(a, hi)
    cols = (prof.levels, prof.euclidean, prof.manhattan, prof.total_variation)
    return _table((_header(a), "level,euclidean_length,manhattan_length,total_variation"),
                  "%d,%.17g,%.17g,%.17g", [[c[lo:hi + 1] for c in cols]])


def cmd_derivative(args, a):
    from .differentiability import derivative_trace, lowest_terms

    x = _parse_x(args.x, a, args.n)
    tr = derivative_trace(a, x, args.n)
    row, cols = "%d,%d,%.17g", (tr.values,)
    if a.mode == "exact":  # a slice's text is made whole: log10(2) digits a bit, 32 for the rest
        row, cols = "%d,%d,%d/%d", lowest_terms(tr)  # D_m in lowest terms, p and q
        size = [(p.bit_length() + q.bit_length()) * 0.30103 + 32 for p, q in zip(*cols)]
        need = int(max(sum(size[s:s + _SLICE]) for s in range(0, args.n, _SLICE)))
        check_budget(need, f"the text of {min(args.n, _SLICE)} trace rows",
                     f"about {need >> 20} MiB, as D_m prints in full")
    return _table((_header(a), "m,digit,D_m"), row, [(range(1, args.n + 1), x.digits, *cols)],
                  (f"# ones_count={tr.stats.ones_count} ratio={tr.stats.ratio} "
                   f"gamma_estimate={tr.stats.gamma_estimate} "
                   f"max_abs={tr.max_abs:.17g} diverged={tr.diverged}",))


def cmd_classify(args, a) -> list[str]:
    from .differentiability import region_classify

    rc = region_classify(a)
    return [
        _header(a),
        f"label = {rc.label.value}",
        f"first_derivative = {rc.first_derivative}",
        f"second_derivative = {rc.second_derivative}",
        f"a0 = {rc.a0:.17g}",
    ]


def cmd_a0(args, a) -> list[str]:
    from .differentiability import find_a0

    a0 = find_a0(args.tol)
    residual = 54 * a0**3 - 27 * a0**2 - 1
    return [
        f"# version={__version__}",
        f"a0 = {a0:.17g}",
        f"residual = {residual:.3g}",
        f"tol = {args.tol:.3g}",
    ]


def cmd_chaos(args, a):
    from .geometry import chaos_game

    x, y = chaos_game(a, args.n, burn_in=args.burn_in, seed=args.seed).points.T
    if args.format == "svg":  # 1 - y a slice at a time
        return _svg((x[s:s + _SLICE], 1 - y[s:s + _SLICE]) for s in range(0, args.n, _SLICE))
    return _table((_header(a, seed=args.seed), "x,y,step"), "%.17g,%.17g,%d",
                  [(x, y, range(args.n))])


def cmd_experiment(args, a) -> list[str]:
    from .differentiability import digit_frequency_experiment

    summary = digit_frequency_experiment(args.samples, args.digits, args.seed)
    return [
        f"# seed={args.seed} version={__version__}",
        f"samples = {summary.samples}",
        f"digits = {summary.n}",
        f"mean_ratio = {summary.mean:.17g}",
        f"min_ratio = {summary.min:.17g}",
        f"max_ratio = {summary.max:.17g}",
        f"fraction_within_0.02 = {summary.fraction_within:.17g}",
    ]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="okamoto", description=__doc__)
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, a=True):
        if a:
            sp.add_argument("--a", required=True, help="parameter a: decimal or p/q")
            sp.add_argument("--exact", action="store_true", help="exact rational arithmetic")
        sp.add_argument("--out", default=None, help="output path (default stdout)")

    sp = sub.add_parser("eval", help="evaluate F_a(x) with a certified error bound")
    common(sp)
    sp.add_argument("--x", required=True, help="point: decimal in [0,1] or p/q")
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.set_defaults(fn=cmd_eval)

    sp = sub.add_parser("iterate", help="emit the level-i polyline (csv or svg)")
    common(sp)
    sp.add_argument("--level", type=int, required=True)
    sp.add_argument("--format", choices=("csv", "svg"), default="csv")
    sp.set_defaults(fn=cmd_iterate)

    sp = sub.add_parser("dim", help="box-counting dimension regression")
    common(sp)
    sp.add_argument("--levels", default="1..10", help="inclusive range lo..hi")
    sp.add_argument("--method", choices=("column", "square"), default="column")
    sp.set_defaults(fn=cmd_dim)

    sp = sub.add_parser("arclength", help="per-level polyline lengths")
    common(sp)
    sp.add_argument("--levels", default="0..10")
    sp.set_defaults(fn=cmd_arclength)

    sp = sub.add_parser("derivative", help="slope-product trace along x's digits")
    common(sp)
    sp.add_argument("--x", required=True)
    sp.add_argument("--n", type=int, default=50)
    sp.set_defaults(fn=cmd_derivative)

    sp = sub.add_parser("classify", help="differentiability region of a")
    common(sp)
    sp.set_defaults(fn=cmd_classify)

    sp = sub.add_parser("a0", help="critical parameter a0 by bisection")
    sp.add_argument("--tol", type=float, default=1e-14)
    common(sp, a=False)
    sp.set_defaults(fn=cmd_a0)

    sp = sub.add_parser("chaos", help="weighted chaos game on the graph")
    common(sp)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--n", type=int, default=10000)
    sp.add_argument("--burn-in", type=int, default=30, dest="burn_in")
    sp.add_argument("--format", choices=("csv", "svg"), default="csv")
    sp.set_defaults(fn=cmd_chaos)

    sp = sub.add_parser("experiment", help="digit-frequency experiment")
    sp.add_argument("--samples", type=int, default=200)
    sp.add_argument("--digits", type=int, default=3000)
    sp.add_argument("--seed", type=int, default=0)
    common(sp, a=False)
    sp.set_defaults(fn=cmd_experiment)

    return p


def main(argv=None) -> int:
    # exact values print in full, however many digits their integers have
    int_digits = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    if int_digits:
        sys.set_int_max_str_digits(0)
    try:
        args = build_parser().parse_args(argv)
        from .function import Parameter

        a = Parameter.parse(args.a, exact=args.exact) if "a" in args else None
        _write(args.out, args.fn(args, a))
        return 0
    except SystemExit as exc:
        # argparse exits 0 after --help or --version and 2 on a usage error, here 1
        return 1 if exc.code else 0
    except PrecisionError as exc:
        print(f"okamoto: precision failure: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"okamoto: numerical failure: {exc}", file=sys.stderr)
        return 2
    except (OkamotoError, ValueError) as exc:
        print(f"okamoto: error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # the reader closed stdout early: point its descriptor at devnull so that
        # the interpreter's final flush of the unsent lines raises nothing
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        print("okamoto: error: output closed before it was written in full", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"okamoto: error: cannot write output: {exc}", file=sys.stderr)
        return 1
    finally:
        if int_digits:
            sys.set_int_max_str_digits(int_digits)


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
