"""The four benchmark workloads: inputs from a seed, one batch, reference checks.

Each workload is a closed loop: the next call starts when the last one
returns.  ``calls(jobs)`` gives one batch as a list of argument-free calls
into the package, one per verdict where single verdicts can be called, else
one for the whole batch; only those calls are timed.  The package function
is looked up when a call runs, so the tracer's wrappers see it.  ``jobs`` is
the worker count of an untraced run; None passes no count, which keeps the
CLI default for repro.  ``pool`` marks the workloads whose scans start a
process pool.  ``check`` compares a batch's results with the reference,
outside the timed region, and returns (verdicts attempted, verdicts failed),
where a verdict fails when it raised, came back inconclusive or disagreed
with the reference.
"""

from __future__ import annotations

import json
import sys
import traceback
from pathlib import Path

import numpy as np

from spherehc import cli, hypercheck
from spherehc.hypercheck import RHS_BECKNER, RHS_SQRT_EIGENVALUE
from spherehc.verdict import FAILS, HOLDS, INCONCLUSIVE

EXACT_FILE = Path(__file__).with_name("exact_p2q4.json")

# scan_wide starts this many pool workers: the CPU count of the 2-CPU machine
# the benchmark was tuned on, fixed so that runs on larger machines compare
SCAN_JOBS = 2
SCAN_N = range(2, 14)
SCAN_D = range(1, 41)
SCAN_FIRST_FAILURE = (13, 7)
SUFFICIENCY_PAIRS = ((2.0, 4.0), (1.5, 3.0), (3.0, 6.0))
LOGSOB_POLYS = 250
LOGSOB_DEGREE = 8
REPRO_CHECKS = 14

# |lhs - exact| at the cells whose numeric_error is narrower than their true
# error at the commit that introduced the benchmark (rounded up to two
# digits).  count1_check's band misses the recurrence rounding there; the fix
# belongs in the package, and this table shrinks with it.
BAND_EXCEPTIONS = {
    (2, 36): 3.6e-14,
    (4, 32): 2.2e-14,
    (4, 33): 2.6e-14,
    (4, 36): 3.6e-14,
    (4, 39): 3.4e-14,
    (4, 40): 3.8e-14,
    (6, 34): 2.0e-14,
}


def warm_up() -> None:
    """Fill the Gauss-rule cache and finish lazy imports before timing starts."""
    hypercheck.count1_check(2, 2, 2.0, 4.0)


def _attempt(fn, *args, **kwargs):
    """Call into the package; an exception is a failed verdict, not a crash."""
    try:
        return fn(*args, **kwargs)
    except Exception:
        traceback.print_exc(file=sys.stderr)
        return None


class BandCheck:
    """Error-band honesty of p=2, q=4 verdicts: |lhs - exact| <= numeric_error.

    The exact lhs, log(||Y_d||_4 / ||Y_d||_2), comes from exact_p2q4.json.
    Cells in BAND_EXCEPTIONS already exceed their band at the commit that
    introduced the benchmark; they are held to the error they had there, so a
    less accurate quadrature still fails them, and every run reports them.
    """

    def __init__(self):
        raw = json.loads(EXACT_FILE.read_text(encoding="utf-8"))
        self.exact = {tuple(int(x) for x in key.split(",")): value for key, value in raw.items()}
        self.over: dict[tuple[int, int], tuple[float, float]] = {}

    def ok(self, cell: tuple[int, int], verdict) -> bool:
        err = abs(verdict.lhs - self.exact[cell])
        if err <= verdict.numeric_error:
            return True
        self.over[cell] = (err, verdict.numeric_error)
        return err <= BAND_EXCEPTIONS.get(cell, -1.0)

    def summary(self) -> str:
        over = ", ".join(f"{c} {e:.2e} > {b:.2e}" for c, (e, b) in sorted(self.over.items()))
        return f"# error band: {len(self.over)} p=2,q=4 cells exceed numeric_error" + (f": {over}" if over else "")


class Sufficiency:
    """count1_check on S^2 and S^3, d <= 30, three exponent pairs: 180 verdicts, all hold."""

    name = "sufficiency"
    jobs = None
    pool = False

    def __init__(self, seed: int, scratch: Path):
        cells = [(n, d, p, q) for p, q in SUFFICIENCY_PAIRS for n in (2, 3) for d in range(1, 31)]
        order = np.random.default_rng(seed).permutation(len(cells))
        self.cells = [cells[i] for i in order]
        self.band = BandCheck()

    def calls(self, jobs):
        return [lambda cell=cell: _attempt(hypercheck.count1_check, *cell) for cell in self.cells]

    def check(self, verdicts) -> tuple[int, int]:
        failed = 0
        for (n, d, p, q), v in zip(self.cells, verdicts):
            ok = v is not None and v.status == HOLDS
            if ok and (p, q) == (2.0, 4.0):
                ok = self.band.ok((n, d), v)
            failed += not ok
        return len(self.cells), failed


class ScanWide:
    """counterexample_scan(2, 4) over 2 <= n <= 13, 1 <= d <= 40 on a pool of SCAN_JOBS workers."""

    name = "scan_wide"
    jobs = SCAN_JOBS
    pool = True

    def __init__(self, seed: int, scratch: Path):
        # one fixed call: the scan sorts its cells, so the seed has nothing to permute
        self.band = BandCheck()
        self.reference = None

    def calls(self, jobs):
        return [lambda: _attempt(hypercheck.counterexample_scan, 2.0, 4.0, SCAN_N, SCAN_D, jobs=jobs)]

    def check(self, results) -> tuple[int, int]:
        (report,) = results
        cells = [(n, d) for n in SCAN_N for d in SCAN_D]
        if report is None:
            return len(cells), len(cells)
        if self.reference is None:
            # utol1_check has an independent Beta-function right-hand side
            self.reference = {}
            for cell in cells:
                v = _attempt(hypercheck.utol1_check, *cell)
                self.reference[cell] = None if v is None else v.status
        bad = {
            cell
            for cell in cells
            if report.grid[cell].status == INCONCLUSIVE
            or report.grid[cell].status != self.reference[cell]
            or not self.band.ok(cell, report.grid[cell])
        }
        if report.first_failure != SCAN_FIRST_FAILURE:
            bad.add(SCAN_FIRST_FAILURE)
        return len(cells), len(bad)


class Logsob:
    """logsob_check on seeded nonnegative degree-8 zonal polynomials, S^2/S^3, both rhs kinds."""

    name = "logsob"
    jobs = None
    pool = False

    def __init__(self, seed: int, scratch: Path):
        rng = np.random.default_rng(seed)
        polys = [
            hypercheck.random_zonal_polynomial(2 if i % 2 == 0 else 3, LOGSOB_DEGREE, rng)
            for i in range(LOGSOB_POLYS)
        ]
        self.tasks = [(g, kind) for g in polys for kind in (RHS_BECKNER, RHS_SQRT_EIGENVALUE)]

    def calls(self, jobs):
        return [lambda g=g, kind=kind: _attempt(hypercheck.logsob_check, g, kind) for g, kind in self.tasks]

    def check(self, verdicts) -> tuple[int, int]:
        failed = sum(v is None or v.status in (FAILS, INCONCLUSIVE) for v in verdicts)
        return len(self.tasks), failed


class Repro:
    """In-process ``spherehc repro --format json``: the command users run, 14 checks."""

    name = "repro"
    jobs = None  # the CLI default, the CPU count, as a user of `spherehc repro` gets
    pool = True

    def __init__(self, seed: int, scratch: Path):
        # the suite takes no input, so the seed has nothing to draw
        self.out = scratch / "repro.json"
        self.out.unlink(missing_ok=True)

    def calls(self, jobs):
        argv = ["repro", "--format", "json", "--out", str(self.out)]
        if jobs is not None:
            argv += ["--jobs", str(jobs)]
        return [lambda: _attempt(cli.main, argv)]

    def check(self, results) -> tuple[int, int]:
        (code,) = results
        if code is None or not self.out.is_file():
            return REPRO_CHECKS, REPRO_CHECKS
        meta = json.loads(self.out.read_text(encoding="utf-8"))["metadata"]
        self.out.unlink()
        if code == 0 and meta["passed"] == meta["total"] == REPRO_CHECKS:
            return REPRO_CHECKS, 0
        return REPRO_CHECKS, max(1, REPRO_CHECKS - meta["passed"])


WORKLOADS = {w.name: w for w in (Sufficiency, ScanWide, Logsob, Repro)}
