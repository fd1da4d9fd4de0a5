"""CLI exit codes, report schemas, and output determinism."""

from __future__ import annotations

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import pytest

import spherehc
from spherehc import cli, hypercheck, norms
from spherehc.cli import main

from oracles import hermite_fourth_moment, log_fraction

SCAN_HEADER = ["n", "d", "p", "q", "lhs_log", "rhs_log", "margin_log", "num_error_log", "status"]


def run(capsys, *argv) -> tuple[int, str, str]:
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- exit codes

def test_lemma_small_dimensions_exit_zero(capsys):
    code, out, _ = run(capsys, "lemma", "--n", "2,3", "--k-max", "1000")
    assert code == 0
    assert "holds" in out


def test_lemma_flags_equality_rows(capsys):
    code, out, _ = run(capsys, "lemma", "--n", "2", "--k-max", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["k"] == "1" and rows[0]["equality"] == "true"
    assert rows[1]["equality"] == "false"


def test_lemma_reports_n4_failure_row(capsys):
    code, out, _ = run(capsys, "lemma", "--n", "4", "--k-max", "3", "--format", "csv")
    assert code == 0  # no expectation is attached to n >= 4
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[-1]["status"] == "fails"


def test_lemma_usage_error(capsys):
    code, _, err = run(capsys, "lemma", "--n", "2", "--k-max", "0")
    assert code == 64
    assert "error" in err


def test_scan_usage_error_on_swapped_exponents(capsys):
    code, _, _ = run(capsys, "scan", "--p", "4", "--q", "2", "--n-max", "5", "--d-max", "5")
    assert code == 64


def test_bad_tol_is_usage_error(capsys):
    code, _, _ = run(capsys, "--tol", "0.5", "lemma", "--n", "2", "--k-max", "2")
    assert code == 64


def test_unknown_command_is_usage_error(capsys):
    code, _, _ = run(capsys, "frobnicate")
    assert code == 64


def test_bad_jobs_is_usage_error(capsys):
    code, _, _ = run(capsys, "--jobs", "0", "lemma", "--n", "2", "--k-max", "2")
    assert code == 64


_NECESSITY = ("necessity", "--n", "2", "--p", "2", "--q", "4")


@pytest.mark.parametrize("argv", [
    # degrees past cli.MAX_DEGREE, rejected before any Jacobi matrix is built
    ("ratio", "--n", "2", "--d", "100000", "--p", "2", "--q", "4"),
    ("ratio", "--gaussian", "--d", "2001", "--p", "2", "--q", "4"),
    ("limit", "--d", "5000", "--p", "2", "--q", "4", "--n", "10"),
    ("scan", "--p", "2", "--q", "4", "--n-max", "3", "--d-max", "3000"),
    ("logsob", "--n", "2", "--random", "1", "--degree", "2001"),
    ("logsob", "--n", "2", "--coeffs", ",".join(["1"] * 2002)),
    ("logsob", "--n", "2", "--random", "1", "--degree", "-1"),
    ("necessity", "--n", "0", "--p", "2", "--q", "4"),
    ("necessity", "--n", "-1", "--p", "2", "--q", "4"),
    # non-finite numbers
    ("ratio", "--n", "3", "--d", "5", "--p", "2", "--q", "inf"),
    ("scan", "--p", "2", "--q", "inf", "--n-max", "3", "--d-max", "3"),
    ("scan", "--p", "nan", "--q", "4", "--n-max", "3", "--d-max", "3"),
    (*_NECESSITY, "--t", "inf"),
    (*_NECESSITY, "--eps", "1e-2,nan"),
    ("subordination", "--x", "inf"),
    ("logsob", "--n", "2", "--coeffs", "nan,1"),
    # an empty list, and checks only the library makes
    (*_NECESSITY, "--eps", ","),
    ("lemma", "--n", "2,0", "--k-max", "3"),
    ("subordination", "--x", "1,-1"),
    (*_NECESSITY, "--t", "-1"),
    ("necessity", "--n", "2", "--p", "4", "--q", "2"),
    ("ratio", "--n", "3", "--d", "0", "--p", "2", "--q", "4"),
    # a k-max past cli.MAX_K, rejected before lemma_table allocates
    ("lemma", "--n", "2", "--k-max", "10000000000000"),
    ("lemma", "--n", "2", "--k-max", "100001"),
])
def test_hostile_argv_is_a_usage_error(capsys, argv):
    code, _, err = run(capsys, *argv)
    assert code == 64, err
    assert "error:" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ("ratio", "--n", "3", "--d", "7", "--p", "2", "--q", "1e6"),
    ("ratio", "--gaussian", "--d", "3", "--p", "2", "--q", "1e6"),
    ("limit", "--d", "2", "--p", "2", "--q", "1e6", "--n", "10,100"),
    ("scan", "--p", "2", "--q", "1e6", "--n-max", "4", "--d-max", "3", "--jobs", "1"),
    ("necessity", "--n", "2", "--p", "2", "--q", "1e6"),
])
@pytest.mark.filterwarnings("error")
def test_exponents_at_the_cap_give_verdicts(capsys, argv):
    assert cli.MAX_EXPONENT == 1e6
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert "nan" not in out


@pytest.mark.parametrize("q", ["1e16", "1e200"])
def test_exponents_past_the_cap_are_rejected_before_any_work(capsys, monkeypatch, q):
    # at 1e16 the end weight rounded to nan (exit 3), at 1e200 the eigen-solve failed
    monkeypatch.setattr(cli, "_COMMANDS", {})
    for argv in (("ratio", "--n", "3", "--d", "7", "--p", "2", "--q", q),
                 ("necessity", "--n", "2", "--p", q, "--q", q)):
        code, _, err = run(capsys, *argv)
        assert code == 64 and "exceeds the cap" in err


@pytest.mark.parametrize("argv,code", [(["lemma", "--n", "2", "--k-max", "3"], 0), (["lemma", "--frobnicate"], 64)])
def test_python_dash_m_runs_the_cli(argv, code):
    src = str(Path(spherehc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    done = subprocess.run([sys.executable, "-m", "spherehc", *argv], env=env, capture_output=True, text=True)
    assert done.returncode == code, done.stderr


@pytest.mark.parametrize("argv", [("--n", "2", "--coeffs", "3"), ("--n", "3", "--random", "2", "--degree", "0")])
def test_constant_polynomial_holds_on_the_boundary(capsys, argv):
    # a constant g sits exactly on the log-Sobolev boundary: both sides are
    # 0, which a quadrature lhs of about 1e-15 left inconclusive
    code, out, _ = run(capsys, "logsob", *argv, "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows and all(row["status"] == "holds" and float(row["margin"]) == 0.0 for row in rows)


# -------------------------------------------------------------------- schema

def test_scan_csv_schema_and_failure_report(capsys):
    code, out, err = run(
        capsys, "scan", "--p", "2", "--q", "4", "--n-max", "13", "--d-max", "8",
        "--n-min", "12", "--d-min", "6", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == SCAN_HEADER
    assert len(rows) == 1 + 2 * 3
    assert "first_failure: (13, 7)" in err
    assert "upper bound" in err
    failing = [r for r in rows[1:] if r[-1] == "fails"]
    assert [r[:2] for r in failing] == [["13", "7"], ["13", "8"]]


def test_scan_table_prints_summary(capsys):
    code, out, _ = run(capsys, "scan", "--p", "2", "--q", "4", "--n-max", "3", "--d-max", "4")
    assert code == 0
    assert "first_failure: None" in out


def test_subordination_rows(capsys):
    code, out, _ = run(capsys, "subordination", "--x", "0,1,5", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 3
    for row in rows:
        assert row["status"] == "holds"
        assert abs(float(row["margin"])) < 1e-10


def test_subordination_honours_tol(capsys):
    # the identity's atol and the integral's tolerance follow --tol; a fixed
    # 1e-10 gave a band of 1.4e-14 at x = 1 whatever --tol said
    code, out, _ = run(capsys, "subordination", "--x", "1", "--tol", "1e-3", "--format", "csv")
    assert code == 0
    (row,) = csv.DictReader(io.StringIO(out))
    assert row["status"] == "holds"
    assert float(row["numeric_error"]) > 1e-9


def test_ratio_reports_failing_cell(capsys):
    code, out, _ = run(capsys, "ratio", "--n", "13", "--d", "7", "--p", "2", "--q", "4", "--format", "csv")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["status"] == "fails"
    assert float(row["ratio"]) == pytest.approx(5.86, rel=1e-2)


def test_ratio_gaussian_kind(capsys):
    code, out, _ = run(capsys, "ratio", "--gaussian", "--d", "2", "--p", "2", "--q", "4", "--format", "csv")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["kind"] == "gaussian" and row["n"] == ""
    assert row["status"] == "holds"


def test_ratio_past_float_overflow_exits_zero(capsys):
    # |Y_100|^4 overflows a float on S^13; the log-space sum keeps the verdict finite
    code, out, _ = run(capsys, "ratio", "--n", "13", "--d", "100", "--p", "2", "--q", "4", "--format", "csv")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["status"] in ("holds", "fails")
    assert math.isfinite(float(row["lhs"])) and math.isfinite(float(row["ratio"]))


@pytest.mark.parametrize("d", [80, 180])
def test_gaussian_past_float_overflow_fails_quickly(capsys, d):
    # |h_d|^4 overflows a float from d = 80; the root-interval integrator
    # sums in log space, so the verdict is decided and the lhs matches the
    # exact log(E[h_d^4]^(1/4) / sqrt(d!))
    start = time.perf_counter()
    code, out, _ = run(capsys, "ratio", "--gaussian", "--d", str(d), "--p", "2", "--q", "4", "--format", "csv")
    elapsed = time.perf_counter() - start
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["status"] == "fails"
    exact = log_fraction(Fraction(hermite_fourth_moment(d), math.factorial(d) ** 2)) / 4
    assert abs(float(row["lhs"]) - exact) <= float(row["numeric_error"])
    assert elapsed < 2.0


def test_ratio_past_float_range_prints_inf(capsys):
    # log(||h_400||_200 / ||h_400||_2) is about 1057: the ratio column is inf,
    # the log-scale verdict stays finite and decided
    code, out, _ = run(capsys, "ratio", "--gaussian", "--d", "400", "--p", "2", "--q", "200", "--format", "csv")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["status"] == "fails" and row["ratio"] == "inf"
    assert float(row["lhs"]) > 709 and math.isfinite(float(row["lhs"]))


def test_non_finite_norm_exits_inconclusive(capsys, monkeypatch):
    # no accepted input reaches a non-finite norm any more; the mapping of
    # ArithmeticError to exit 3 with a one-line reason stays
    def overflowed(*args, **kwargs):
        raise ArithmeticError("norm integral is inf, not a finite positive number")

    monkeypatch.setattr(norms, "norm_ratio_gaussian", overflowed)
    code, out, err = run(capsys, "ratio", "--gaussian", "--d", "80", "--p", "2", "--q", "4")
    assert code == 3
    assert out == ""
    assert len(err.strip().splitlines()) == 1 and "inconclusive" in err


@pytest.mark.parametrize("n,d,q", [(30, 50, 8), (20, 40, 12)])
def test_ratio_on_the_adaptive_fallback_past_float_range(capsys, n, d, q):
    code, out, _ = run(capsys, "ratio", "--n", str(n), "--d", str(d), "--p", "2", "--q", str(q), "--format", "csv")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["status"] == "fails"
    assert math.isfinite(float(row["lhs"]))


def test_scan_across_the_adaptive_fallback_completes(capsys):
    code, out, _ = run(
        capsys, "scan", "--p", "2", "--q", "8", "--n-min", "30", "--n-max", "30",
        "--d-min", "48", "--d-max", "52", "--format", "csv",
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [row["d"] for row in rows] == ["48", "49", "50", "51", "52"]
    assert all(row["status"] == "fails" for row in rows)


def test_sphere_overflow_exit_prints_no_warnings(capsys):
    # from d = 171 G_d itself passes the float range on S^2; log|G_d| comes
    # from the recurrence's shift, so the verdict is finite, and at d = 400 one
    # ulp of the log integral exceeds tol without sending the rule to the fallback
    for d in ("171", "200", "400"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = run(capsys, "ratio", "--n", "2", "--d", d, "--p", "2", "--q", "4", "--format", "csv")
        assert code == 0, err
        row = next(csv.DictReader(io.StringIO(out)))
        assert row["status"] == "holds"
        assert math.isfinite(float(row["lhs"])) and math.isfinite(float(row["ratio"]))
        assert [str(w.message) for w in caught] == []


@pytest.mark.parametrize(
    "argv,statuses",
    [
        (("ratio", "--n", "5000", "--d", "6", "--p", "2", "--q", "4"), ["fails"]),
        (("ratio", "--n", "100000", "--d", "3", "--p", "1.5", "--q", "3"), ["holds"]),
        (("limit", "--n", "10,1000,100000", "--d", "3", "--p", "2", "--q", "4"), ["holds"] * 3),
    ],
)
def test_overflowing_jacobi_rules_print_no_warnings(capsys, argv, statuses):
    # the Jacobi rules here have alpha + beta past 1000, where the weights'
    # normalisation 2^(alpha + beta + 1) B(alpha + 1, beta + 1) can pass the
    # float range; they are built in log space and print no RuntimeWarning
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 0, err
    assert [row["status"] for row in csv.DictReader(io.StringIO(out))] == statuses
    assert "RuntimeWarning" not in err
    assert [str(w.message) for w in caught] == []


def test_limit_monotone_exit_zero(capsys):
    code, out, _ = run(capsys, "limit", "--d", "2", "--p", "2", "--q", "4", "--n", "10,100,1000", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    gaps = [abs(float(r["margin"])) for r in rows]
    assert gaps[0] > gaps[1] > gaps[2]


@pytest.mark.parametrize("d,q", [("300", "100"), ("400", "200")])
def test_limit_compares_logs_where_ratios_round_together(capsys, d, q):
    # at d = 300 both gaps |G - S| round to 3.39e298 and at d = 400 both are
    # inf, while the log ratios (about 19 -> 107 against 687, and 21 -> 121
    # against 1057) clearly move toward the Gaussian ratio
    argv = ("limit", "--d", d, "--p", "2", "--q", q, "--n", "10,100")
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 0, err
    assert [row["status"] for row in csv.DictReader(io.StringIO(out))] == ["holds", "holds"]


def test_json_metadata_holds_no_invalid_constants(capsys):
    # the Gaussian ratio overflows at d = 400; metadata writes it as "inf",
    # as the rows do, instead of the non-JSON literal Infinity
    def reject(name):
        raise ValueError(f"invalid JSON constant {name}")

    code, out, _ = run(capsys, "limit", "--d", "400", "--p", "2", "--q", "200", "--n", "10,100", "--format", "json")
    assert code == 0
    payload = json.loads(out, parse_constant=reject)
    assert payload["metadata"]["gaussian_ratio"] == "inf"
    assert [row["rhs"] for row in payload["rows"]] == ["inf", "inf"]


def test_logsob_explicit_coefficients(capsys):
    code, out, _ = run(capsys, "logsob", "--n", "2", "--coeffs", "1,0.1,0.05", "--rhs", "beckner", "--format", "csv")
    assert code == 0
    row = next(csv.DictReader(io.StringIO(out)))
    assert row["status"] == "holds"


def test_logsob_rejects_a_dip_between_grid_points(capsys):
    # (t - 2^-12)^2 - 5e-8 on S^2 dips below zero only between the points of
    # a 4,097-point grid; the entropy checks need g >= 0
    coeffs = "0.3333333429379781,-0.00048828125,0.6666666666666666"
    code, _, err = run(capsys, "logsob", "--n", "2", "--coeffs", coeffs)
    assert code == 64
    assert "g >= 0" in err


def test_necessity_rows(capsys):
    code, out, _ = run(
        capsys, "necessity", "--n", "2", "--p", "2", "--q", "4", "--eps", "1e-2,1e-3", "--format", "csv"
    )
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 2
    for row in rows:
        assert float(row["lhs"]) == pytest.approx(float(row["predicted_lhs"]), abs=1e-8)


def test_json_format_carries_metadata(capsys):
    code, out, _ = run(capsys, "--format", "json", "subordination", "--x", "1")
    assert code == 0
    payload = json.loads(out)
    meta = payload["metadata"]
    assert meta["tool"] == "spherehc"
    assert meta["command"] == "subordination"
    assert "timestamp" in meta and "version" in meta and "tol" in meta
    assert payload["rows"][0]["status"] == "holds"


def test_out_writes_file(tmp_path, capsys):
    target = tmp_path / "report.csv"
    code, out, _ = run(capsys, "lemma", "--n", "2", "--k-max", "5", "--format", "csv", "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text(encoding="utf-8").startswith("n,k,")


# --------------------------------------------------------------- determinism

def test_scan_csv_is_deterministic_across_jobs(tmp_path, capsys):
    paths = []
    for i, jobs in enumerate((1, 2)):
        path = tmp_path / f"scan{i}.csv"
        code, _, _ = run(
            capsys, "scan", "--p", "2", "--q", "4", "--n-max", "6", "--d-max", "5",
            "--jobs", str(jobs), "--format", "csv", "--out", str(path),
        )
        assert code == 0
        paths.append(path)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_json_deterministic_modulo_timestamp(tmp_path, capsys):
    payloads = []
    for i in range(2):
        path = tmp_path / f"r{i}.json"
        code, _, _ = run(
            capsys, "logsob", "--n", "2", "--random", "5", "--seed", "42",
            "--format", "json", "--out", str(path),
        )
        assert code == 0
        data = json.loads(path.read_text(encoding="utf-8"))
        data["metadata"].pop("timestamp")
        payloads.append(data)
    assert payloads[0] == payloads[1]


def test_seed_changes_random_suite(tmp_path, capsys):
    outs = []
    for seed in ("1", "2"):
        path = tmp_path / f"s{seed}.csv"
        run(capsys, "logsob", "--n", "2", "--random", "3", "--seed", seed,
            "--format", "csv", "--out", str(path))
        outs.append(path.read_text(encoding="utf-8"))
    assert outs[0] != outs[1]


# --------------------------------------------------------------------- repro

def test_repro_suite_passes(capsys):
    code, out, _ = run(capsys, "repro")
    assert code == 0
    assert "repro: 14/14 checks pass" in out


def test_repro_computes_each_verdict_once(capsys, monkeypatch):
    # 120 scan cells and the 40 shadow cells with d > 10; the lemma rows read
    # the all-k certificate, not a table
    calls = []
    check = hypercheck.count1_check

    def counted(*args):
        calls.append(args[:2])
        return check(*args)

    def no_table(*args):
        raise AssertionError("repro built a lemma table")

    monkeypatch.setattr(hypercheck, "count1_check", counted)
    monkeypatch.setattr(hypercheck, "lemma_table", no_table)
    code, out, _ = run(capsys, "repro")
    assert code == 0 and "repro: 14/14 checks pass" in out
    assert out.count("for all k >= 1") == 2
    assert len(calls) == 160 and len(set(calls)) == 160


def test_repro_subordination_row_follows_tol(capsys, monkeypatch):
    tols = []
    check = cli.subordination_check

    def recording(x, tol=1e-10):
        tols.append(tol)
        return check(x, tol)

    monkeypatch.setattr(cli, "subordination_check", recording)
    code, out, _ = run(capsys, "repro", "--tol", "1e-11")
    assert code == 0 and "repro: 14/14 checks pass" in out
    assert len(tols) == 3 and set(tols) == {1e-11}
