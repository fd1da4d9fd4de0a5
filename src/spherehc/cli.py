"""Command-line surface: paper-number reproduction recipes, scans, and reports.

Exit codes: 0 all expectations met, 2 unexpected verdict, 3 numerically
inconclusive, 64 usage error.  CSV output is byte-deterministic for a fixed
configuration (including seed) regardless of the worker count; JSON carries a
metadata header whose timestamp is excluded from determinism comparisons.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

import numpy as np

from . import __version__, hypercheck, norms
from .hypercheck import RHS_BECKNER, RHS_SQRT_EIGENVALUE
from .norms import SphereParams
from .quadrature import subordination_check
from .verdict import FAILS, HOLDS, INCONCLUSIVE, Verdict

USAGE_ERROR = 64
UNEXPECTED_VERDICT = 2
INCONCLUSIVE_EXIT = 3

_EQUALITY_ATOL = 1e-14

# the largest degree any option may ask for: root finders build a dense d x d
# Jacobi matrix (32 MB at the cap); at d = 2000, count1_check takes 1.4-1.8 s
# on S^13 but 8-11 s on S^3, where it comes back inconclusive (ROADMAP item 3)
MAX_DEGREE = 2000
# the largest --p or --q: at 1e16 the integrator's end weight is nan, at 1e200 eigvalsh fails
MAX_EXPONENT = 1e6
# the largest --k-max: lemma holds a row per k in memory (112 MB at the cap)
MAX_K = 100_000
# the largest sphere dimension: from n = 35001 the bump of |C_d|^p past the
# outermost root is missed at large p (d = 2, p = 96-256), and a zonal norm is
# O(1) off in log while claiming convergence; up to 2e4 every swept cell holds
MAX_N = 2 * 10**4
# the most (n, d) cells one scan may ask for: it builds the whole grid first
MAX_SCAN_CELLS = 100_000


class _Parser(argparse.ArgumentParser):
    """argparse reports usage problems with exit code 64, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x.strip()]


def _finite(text: str) -> float:
    x = float(text)
    if not math.isfinite(x):
        raise argparse.ArgumentTypeError(f"need a finite number, got {text.strip()!r}")
    return x


def _float_list(text: str) -> list[float]:
    return [_finite(x) for x in text.split(",") if x.strip()]


def _add_global_options(parser: argparse.ArgumentParser, suppress: bool) -> None:
    # suppressed defaults on subparsers let the flags appear on either side of
    # the subcommand without clobbering values parsed by the main parser
    d = (lambda v: argparse.SUPPRESS if suppress else v)
    parser.add_argument("--tol", type=float, default=d(1e-12), help="relative tolerance (default 1e-12)")
    parser.add_argument("--jobs", type=int, default=d(os.cpu_count() or 1), help="worker count for scan")
    parser.add_argument("--format", choices=("csv", "json", "table"), default=d("table"), dest="output_format")
    parser.add_argument("--out", dest="output_path", default=d(None), help="write the report to this path")
    parser.add_argument("--seed", type=int, default=d(0), help="seed for randomized suites")


def _build_parser() -> _Parser:
    parser = _Parser(prog="spherehc", description=__doc__)
    _add_global_options(parser, suppress=False)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("lemma", help="summation lemma and h(k) table")
    _add_global_options(p, suppress=True)
    p.add_argument("--n", type=_int_list, required=True, help="comma-separated dimensions")
    p.add_argument("--k-max", type=int, required=True)

    p = sub.add_parser("scan", help="count1 verdict grid over (n, d)")
    _add_global_options(p, suppress=True)
    p.add_argument("--p", type=_finite, required=True)
    p.add_argument("--q", type=_finite, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--d-max", type=int, required=True)
    p.add_argument("--n-min", type=int, default=2)
    p.add_argument("--d-min", type=int, default=1)

    p = sub.add_parser("ratio", help="norm ratio vs the critical-time bound")
    _add_global_options(p, suppress=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=_finite, required=True)
    p.add_argument("--q", type=_finite, required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int)
    group.add_argument("--gaussian", action="store_true")

    p = sub.add_parser("limit", help="sphere ratio approaching the Gaussian ratio")
    _add_global_options(p, suppress=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--p", type=_finite, required=True)
    p.add_argument("--q", type=_finite, required=True)
    p.add_argument("--n", type=_int_list, required=True, help="comma-separated dimensions")

    p = sub.add_parser("logsob", help="entropy vs log-Sobolev right-hand sides")
    _add_global_options(p, suppress=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--coeffs", type=_float_list, help="zonal coefficients a_0,a_1,...")
    p.add_argument("--rhs", choices=(RHS_BECKNER, RHS_SQRT_EIGENVALUE), default=RHS_BECKNER)
    p.add_argument("--random", type=int, default=0, metavar="TRIALS", help="check random nonnegative polynomials")
    p.add_argument("--degree", type=int, default=8, help="max degree for --random")

    p = sub.add_parser("subordination", help="numerical check of the subordination identity")
    _add_global_options(p, suppress=True)
    p.add_argument("--x", type=_float_list, required=True)

    p = sub.add_parser("necessity", help="perturbative necessity: measured vs Taylor-predicted norms")
    _add_global_options(p, suppress=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=_finite, required=True)
    p.add_argument("--q", type=_finite, required=True)
    p.add_argument("--t", type=_finite, default=None, help="semigroup time (default: critical time)")
    p.add_argument("--eps", type=_float_list, default=[1e-2, 1e-3, 1e-4])

    p = sub.add_parser("repro", help="run the full paper-reproduction suite")
    _add_global_options(p, suppress=True)
    return parser


def _fmt17(value: float) -> str:
    return f"{value:.17g}"


def _cell(value, float_fmt) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return float_fmt(value)
    return str(value)


def _json_safe(value):
    if isinstance(value, float) and not math.isfinite(value):
        return str(value)
    return value


def _emit(args, columns: list[str], rows: list[dict], metadata: dict, summary: list[str]) -> None:
    if args.output_format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([_cell(row.get(c), _fmt17) for c in columns])
        text = buf.getvalue()
        for line in summary:
            print(line, file=sys.stderr)
    elif args.output_format == "json":
        meta = {
            "tool": "spherehc",
            "version": __version__,
            "command": args.command,
            "tol": args.tol,
            "seed": args.seed,
            **{key: _json_safe(value) for key, value in metadata.items()},
            "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        }
        payload = {
            "metadata": meta,
            "rows": [{c: _json_safe(row.get(c)) for c in columns} for row in rows],
        }
        text = json.dumps(payload, indent=2) + "\n"
    else:
        float_fmt = lambda v: f"{v:.10g}"
        cells = [[_cell(row.get(c), float_fmt) for c in columns] for row in rows]
        widths = [max(len(c), *(len(r[i]) for r in cells)) if cells else len(c) for i, c in enumerate(columns)]
        lines = ["  ".join(c.ljust(w) for c, w in zip(columns, widths)).rstrip()]
        for r in cells:
            lines.append("  ".join(c.ljust(w) for c, w in zip(r, widths)).rstrip())
        lines.extend(summary)
        text = "\n".join(lines) + "\n"

    if args.output_path:
        with open(args.output_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _verdict_columns(v) -> dict:
    return {
        "lhs": v.lhs,
        "rhs": v.rhs,
        "margin": v.margin,
        "numeric_error": v.numeric_error,
        "status": v.status,
    }


def _exit_code(statuses) -> int:
    """The exit code of the worst verdict: 2 if any fails, else 3 if any is inconclusive, else 0."""
    statuses = set(statuses)
    if FAILS in statuses:
        return UNEXPECTED_VERDICT
    if INCONCLUSIVE in statuses:
        return INCONCLUSIVE_EXIT
    return 0


def _cmd_lemma(args) -> int:
    if not args.n:
        raise ValueError("need a nonempty --n list")
    columns = ["n", "k", "lhs", "rhs", "margin", "numeric_error", "status", "equality", "h_k"]
    rows = []
    unexpected = False
    for n in args.n:
        for k, v in enumerate(hypercheck.lemma_table(n, args.k_max), start=1):
            equal = abs(v.margin) <= _EQUALITY_ATOL * max(1.0, abs(v.rhs))
            rows.append({
                "n": n, "k": k, **_verdict_columns(v),
                "equality": equal,
                "h_k": hypercheck.h_function(n, k),
            })
            if n <= 3 and v.status != HOLDS:
                unexpected = True
    _emit(args, columns, rows, {}, [])
    return UNEXPECTED_VERDICT if unexpected else 0


def _cmd_scan(args) -> int:
    report = hypercheck.counterexample_scan(
        args.p, args.q,
        range(args.n_min, args.n_max + 1),
        range(args.d_min, args.d_max + 1),
        tol=args.tol, jobs=args.jobs,
    )
    columns = ["n", "d", "p", "q", "lhs_log", "rhs_log", "margin_log", "num_error_log", "status"]
    rows = [
        {
            "n": n, "d": d, "p": args.p, "q": args.q,
            "lhs_log": v.lhs, "rhs_log": v.rhs, "margin_log": v.margin,
            "num_error_log": v.numeric_error, "status": v.status,
        }
        for (n, d), v in report.grid.items()
    ]
    summary = [
        f"first_failure: {report.first_failure}",
        f"n0_estimate: {report.n0_estimate} ({report.note})",
    ]
    meta = {
        "first_failure": list(report.first_failure) if report.first_failure else None,
        "n0_estimate": report.n0_estimate,
        "note": report.note,
    }
    _emit(args, columns, rows, meta, summary)
    if rows and all(r["status"] == INCONCLUSIVE for r in rows):
        return INCONCLUSIVE_EXIT
    return 0


def _cmd_ratio(args) -> int:
    if not (args.q > args.p > 1.0):
        raise ValueError(f"need q > p > 1, got p={args.p}, q={args.q}")
    if args.gaussian:
        v = hypercheck.hermite_bound_check(args.d, args.p, args.q, args.tol)
        kind, n = "gaussian", None
    else:
        v = hypercheck.count1_check(args.n, args.d, args.p, args.q, args.tol)
        kind, n = "sphere", args.n
    columns = ["kind", "n", "d", "p", "q", "ratio", "lhs", "rhs", "margin", "numeric_error", "status"]
    rows = [{
        "kind": kind, "n": n, "d": args.d, "p": args.p, "q": args.q,
        "ratio": norms._exp(v.lhs), **_verdict_columns(v),
    }]
    _emit(args, columns, rows, {}, [])
    return INCONCLUSIVE_EXIT if v.status == INCONCLUSIVE else 0


def _cmd_limit(args) -> int:
    if not args.n:
        raise ValueError("need a nonempty --n list")
    if args.d < 1:
        raise ValueError(f"need d >= 1, got {args.d}")
    if not (args.q > args.p >= 1.0):
        raise ValueError(f"need q > p >= 1, got p={args.p}, q={args.q}")
    gaussian = norms.norm_ratio_gaussian(args.d, args.p, args.q, args.tol)
    columns = ["n", "d", "p", "q", "lhs", "rhs", "margin", "numeric_error", "status"]
    rows = []
    prev_gap = None
    monotone = True
    for n in sorted(set(args.n)):
        sphere = norms.norm_ratio_sphere(SphereParams(n), args.d, args.p, args.q, args.tol)
        # status records monotone progress toward the Gaussian limit, measured
        # between the logs: past d of a few hundred the ratios round to the
        # same float or overflow, and their logs stay finite and distinct
        gap = abs(gaussian.log_value - sphere.log_value)
        improving = prev_gap is None or gap < prev_gap
        monotone = monotone and improving
        rows.append({
            "n": n, "d": args.d, "p": args.p, "q": args.q,
            "lhs": sphere.value, "rhs": gaussian.value,
            "margin": gaussian.value - sphere.value,
            "numeric_error": (sphere.error_estimate + gaussian.error_estimate) * gaussian.value,
            "status": HOLDS if improving else FAILS,
        })
        prev_gap = gap
    _emit(args, columns, rows, {"gaussian_ratio": gaussian.value}, [])
    return 0 if monotone else UNEXPECTED_VERDICT


def _cmd_logsob(args) -> int:
    columns = ["trial", "n", "degree", "rhs_kind", "lhs", "rhs", "margin", "numeric_error", "status"]
    rows = []
    if args.random > 0:
        rng = np.random.default_rng(args.seed)
        polys = [hypercheck.random_zonal_polynomial(args.n, args.degree, rng) for _ in range(args.random)]
    else:
        if not args.coeffs:
            raise ValueError("need --coeffs (or --random TRIALS)")
        polys = [hypercheck.ZonalPolynomial(args.n, tuple(args.coeffs))]
    for i, g in enumerate(polys):
        v = hypercheck.logsob_check(g, args.rhs, tol=args.tol)
        rows.append({"trial": i, "n": g.n, "degree": g.degree, "rhs_kind": args.rhs, **_verdict_columns(v)})
    _emit(args, columns, rows, {}, [])
    return _exit_code(row["status"] for row in rows)


def _cmd_subordination(args) -> int:
    if not args.x:
        raise ValueError("need a nonempty --x list")
    columns = ["x", "lhs", "rhs", "margin", "numeric_error", "status"]
    rows = [{"x": x, **_verdict_columns(subordination_check(x, tol=args.tol))} for x in args.x]
    _emit(args, columns, rows, {}, [])
    return _exit_code(row["status"] for row in rows)


def _cmd_necessity(args) -> int:
    if not args.eps:
        raise ValueError("need a nonempty --eps list")
    pair = hypercheck.ExponentPair(args.p, args.q)
    t = pair.t_star(args.n) if args.t is None else args.t
    columns = [
        "n", "p", "q", "t", "eps",
        "predicted_lhs", "predicted_rhs",
        "lhs", "rhs", "margin", "numeric_error", "status",
    ]
    rows = []
    for eps in args.eps:
        r = hypercheck.perturbative_necessity(args.n, args.p, args.q, t, eps, args.tol)
        # lhs/rhs are the measured semigroup and plain norms; the verdict is the
        # hypercontractivity comparison itself, within the norms' own band (at
        # the critical time the margin shrinks like eps^4 and ends inside it)
        v = Verdict.compare(r.measured_lhs, r.measured_rhs, r.band, r.converged)
        rows.append({
            "n": args.n, "p": args.p, "q": args.q, "t": t, "eps": eps,
            "predicted_lhs": r.predicted_lhs, "predicted_rhs": r.predicted_rhs,
            **_verdict_columns(v),
        })
    _emit(args, columns, rows, {}, [])
    return 0


def _repro_checks(args):
    """Yield (name, expected, observed, ok) for every reproduced paper number, each verdict computed once."""
    for n in (2, 3):
        ok = hypercheck.lemma_all(n).status == HOLDS and abs(hypercheck.lemma_check(n, 1).margin) < 1e-14
        yield (f"lemma holds on S^{n} for all k >= 1, equality at k=1", "holds", "holds" if ok else "violated", ok)
    v = hypercheck.lemma_check(4, 3)
    yield ("lemma fails at (n=4, k=3)", FAILS, v.status, v.status == FAILS)
    h2 = hypercheck.h_function(2, 4)
    h3 = hypercheck.h_function(3, 4)
    ok = abs(h2 - (1 + 2 * math.log(2) - math.sqrt(10))) < 1e-12 and abs(
        h3 - (2 + 3 * math.log(3) - 4 * math.sqrt(2)) / 3
    ) < 1e-12 and h2 < 0 and h3 < 0
    yield ("h(4) matches closed forms and is negative (n=2,3)", "match", "match" if ok else "mismatch", ok)

    v = hypercheck.utol1_check(13, 7, args.tol)
    yield ("explicit counterexample inequality fails at (n=13, d=7)", FAILS, v.status, v.status == FAILS)
    # in process: on these 120 cells a process pool costs more than it saves;
    # the (13, 7) row and the shadow's cells with d <= 10 read its grid
    report = hypercheck.counterexample_scan(2, 4, range(2, 14), range(1, 11), tol=args.tol)
    v = report.grid[(13, 7)]
    yield ("norm-ratio bound fails at (n=13, d=7), p=2, q=4", FAILS, v.status, v.status == FAILS)

    ok = report.first_failure is not None and report.first_failure <= (13, 7)
    yield ("scan n<=13, d<=10 first failure at most (13,7)", "(13, 7)", str(report.first_failure), ok)

    ok = all(
        (report.grid[(n, d)] if d <= 10 else hypercheck.count1_check(n, d, 2, 4, args.tol)).status == HOLDS
        for n in (2, 3)
        for d in range(1, 31)
    )
    yield ("sufficiency shadow: no zonal failure on S^2, S^3 (d <= 30)", "holds", "holds" if ok else "violated", ok)

    ok = all(subordination_check(x, args.tol).status == HOLDS for x in (0.0, 1.0, 5.0))
    yield ("subordination identity at x = 0, 1, 5", "holds", "holds" if ok else "violated", ok)

    flip_ok = (
        hypercheck.hermite_bound_check(2, 2, 4, args.tol).status == HOLDS
        and hypercheck.hermite_bound_check(3, 2, 4, args.tol).status == FAILS
    )
    yield ("Gaussian bound flips from holds to fails at d=3 (p=2, q=4)", "flip at 3", "flip at 3" if flip_ok else "no flip", flip_ok)

    g20 = hypercheck.hermite_growth_rate(20, 2, 4, args.tol)
    g40 = hypercheck.hermite_growth_rate(40, 2, 4, args.tol)
    target = math.sqrt(3)
    ok = abs(g40 - target) / target < 0.05 and abs(g40 - target) < abs(g20 - target)
    yield ("growth rate: d=40 within 5% of sqrt(3) and closer than d=20", "converging", "converging" if ok else "violated", ok)

    ok = True
    for d in (1, 2, 3):
        gauss = norms.norm_ratio_gaussian(d, 2, 4, args.tol).value
        gaps = [abs(norms.norm_ratio_sphere(SphereParams(n), d, 2, 4, args.tol).value - gauss) for n in (10, 100, 1000)]
        ok = ok and gaps[0] > gaps[1] > gaps[2]
    yield ("sphere ratio approaches Gaussian ratio (d <= 3)", "monotone", "monotone" if ok else "violated", ok)

    pair = hypercheck.ExponentPair(2, 4)
    t = pair.t_star(2)
    ok = True
    for eps in (1e-2, 1e-3):
        r = hypercheck.perturbative_necessity(2, 2, 4, t, eps, args.tol)
        bound = 5.0 * eps**3
        ok = ok and abs(r.measured_lhs - r.predicted_lhs) <= bound and abs(r.measured_rhs - r.predicted_rhs) <= bound
    yield ("Taylor predictions accurate to O(eps^3) at the critical time", "within bound", "within bound" if ok else "violated", ok)

    v = hypercheck.poisson_condition_ii(4, 2, 4, pair.t_star(4))
    ok = v.status == HOLDS and abs(v.margin) < 1e-12
    yield ("condition (ii) boundary equality at the critical time (n=4)", "equality", "equality" if ok else "violated", ok)


def _cmd_repro(args) -> int:
    columns = ["check", "expected", "observed", "status"]
    rows = []
    all_ok = True
    for name, expected, observed, ok in _repro_checks(args):
        rows.append({"check": name, "expected": expected, "observed": observed, "status": "pass" if ok else "fail"})
        all_ok = all_ok and ok
    n_pass = sum(1 for r in rows if r["status"] == "pass")
    summary = [f"repro: {n_pass}/{len(rows)} checks pass"]
    _emit(args, columns, rows, {"passed": n_pass, "total": len(rows)}, summary)
    return 0 if all_ok else UNEXPECTED_VERDICT


_COMMANDS = {
    "lemma": _cmd_lemma,
    "scan": _cmd_scan,
    "ratio": _cmd_ratio,
    "limit": _cmd_limit,
    "logsob": _cmd_logsob,
    "subordination": _cmd_subordination,
    "necessity": _cmd_necessity,
    "repro": _cmd_repro,
}


def _dispatch(parser: _Parser, args) -> int:
    if not 0.0 < args.tol <= 1e-3:
        parser.error(f"--tol must be in (0, 1e-3], got {args.tol}")
    if args.jobs < 1:
        parser.error(f"--jobs must be >= 1, got {args.jobs}")
    coeffs = getattr(args, "coeffs", None) or ()
    degree = max(len(coeffs) - 1, *(getattr(args, name, 0) for name in ("d", "d_max", "degree")))
    if degree > MAX_DEGREE:
        parser.error(f"degree {degree} exceeds the cap of {MAX_DEGREE}")
    exponent = max(getattr(args, "p", 0.0), getattr(args, "q", 0.0))
    if exponent > MAX_EXPONENT:
        parser.error(f"exponent {exponent:g} exceeds the cap of {MAX_EXPONENT:g}")
    if getattr(args, "k_max", 0) > MAX_K:
        parser.error(f"--k-max {args.k_max} exceeds the cap of {MAX_K}")
    n = getattr(args, "n", None)
    dimension = max(*(n if isinstance(n, list) else [n or 0]), getattr(args, "n_min", 0), getattr(args, "n_max", 0))
    if dimension > MAX_N:
        parser.error(f"dimension {dimension} exceeds the cap of {MAX_N}")
    cells = max(0, args.n_max - args.n_min + 1) * max(0, args.d_max - args.d_min + 1) if args.command == "scan" else 0
    if cells > MAX_SCAN_CELLS:
        parser.error(f"scan of {cells} cells exceeds the cap of {MAX_SCAN_CELLS}")
    if args.command == "scan" and cells == 0:
        parser.error("empty scan grid: need --n-min <= --n-max and --d-min <= --d-max")
    try:
        return _COMMANDS[args.command](args)
    except ValueError as exc:
        parser.error(str(exc))
        return USAGE_ERROR  # unreachable; error() raises
    except ArithmeticError as exc:
        # a norm or integral that stayed non-finite: no verdict can be given
        print(f"{parser.prog}: inconclusive: {exc}", file=sys.stderr)
        return INCONCLUSIVE_EXIT


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _dispatch(parser, args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
