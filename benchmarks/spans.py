"""Per-layer spans recorded from outside the package.

The tracer replaces public functions of spherehc's modules with timing
wrappers at run time and puts the originals back afterwards; the package
source is never edited.  A function is replaced under its name in every
spherehc module that holds the same object, so calls through names imported
into another module, such as ``norms.integrate_piecewise``, are seen too.

Spans live in memory as (kind, start, end, parent) tuples.  A span's self
time is its duration minus the durations of its direct children, which are
disjoint because everything runs in one thread.  Spans recorded inside pool
workers stay in the workers, so traced passes must run scans in-process.
"""

from __future__ import annotations

import csv
import functools
import inspect
import time
from collections import Counter
from pathlib import Path

import numpy as np

import spherehc
from spherehc import cli, hypercheck, norms, quadrature, specfun
from spherehc.verdict import INCONCLUSIVE

EVAL = "specfun.eval"
ROOTS = "specfun.roots"
INTEGRATE = "quadrature.integrate"
NORM = "norms.norm"
VERDICT = "hypercheck.verdict"
SCAN = "hypercheck.scan"
CLI = "cli.main"

# kind -> (module, public functions).  quadrature.subordination_check and
# gaussian_integrate stay unwrapped: no workload calls gaussian_integrate, and
# subordination_check's integrals already show as quadrature.integrate spans.
LAYERS = {
    EVAL: (specfun, ("gegenbauer_eval", "gegenbauer_eval_scaled", "gegenbauer_series",
                     "hermite_eval", "hermite_log_abs")),
    ROOTS: (specfun, ("gegenbauer_roots", "hermite_roots")),
    INTEGRATE: (quadrature, ("integrate_piecewise",)),
    NORM: (norms, ("zonal_power_integral", "sphere_lp_norm", "sphere_l2_norm_closed",
                   "gaussian_lp_norm", "norm_ratio_sphere", "norm_ratio_gaussian",
                   "zonal_lp_norm")),
    VERDICT: (hypercheck, ("count1_check", "utol1_check", "logsob_check", "entropy_functional",
                           "lemma_check", "lemma_table", "heat_condition", "poisson_condition_ii",
                           "perturbative_necessity", "hermite_bound_check",
                           "hermite_growth_rate")),
    SCAN: (hypercheck, ("counterexample_scan",)),
    CLI: (cli, ("main",)),
}

_MODULES = (spherehc, specfun, quadrature, norms, hypercheck, cli)

# counters that must repeat exactly between two traced passes of one batch
DETERMINISTIC = (
    *(f"{kind}.calls" for kind in LAYERS),
    f"{EVAL}.points",
    f"{INTEGRATE}.panels",
    f"{INTEGRATE}.unconverged",
    f"{VERDICT}.retries",
)


class Tracer:
    """Wraps the functions of the given layer kinds while used as a context manager."""

    def __init__(self, kinds=tuple(LAYERS)):
        self.kinds = kinds
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._last_count1 = None

    def __enter__(self) -> "Tracer":
        for kind in self.kinds:
            module, names = LAYERS[kind]
            for name in names:
                original = getattr(module, name)
                wrapper = self._wrap(kind, original, self._hook(kind, name, original))
                for mod in _MODULES:
                    if getattr(mod, name, None) is original:
                        self._restore.append((mod, name, original))
                        setattr(mod, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for mod, name, original in reversed(self._restore):
            setattr(mod, name, original)
        self._restore.clear()

    def _wrap(self, kind, fn, hook):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (kind, start, end, parent)
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return wrapper

    def _hook(self, kind, name, fn):
        counts = self.counts
        if kind == EVAL:
            # every evaluator takes the abscissae as its last parameter
            params = list(inspect.signature(fn).parameters)
            last, pos = params[-1], len(params) - 1

            def points(args, kwargs, result):
                counts[f"{EVAL}.points"] += int(np.size(args[pos] if len(args) > pos else kwargs[last]))

            return points
        if kind == INTEGRATE:
            def panels(args, kwargs, result):
                counts[f"{INTEGRATE}.panels"] += result.subintervals_used
                counts[f"{INTEGRATE}.unconverged"] += not result.converged

            return panels
        if name == "count1_check":
            # the scan retries an inconclusive cell once at tol/100: the same
            # (n, d, p, q) right after an inconclusive verdict is that retry
            def retries(args, kwargs, result):
                if self._last_count1 == (args[:4], INCONCLUSIVE):
                    counts[f"{VERDICT}.retries"] += 1
                self._last_count1 = (args[:4], result.status)

            return retries
        if kind == SCAN:
            def jobs(args, kwargs, result):
                counts[f"{SCAN}.jobs"] = max(counts[f"{SCAN}.jobs"], kwargs.get("jobs", 1))

            return jobs
        return None

    def wall(self, kind: str) -> float:
        """Summed duration of the spans of one kind."""
        return sum(end - start for k, start, end, _ in self.spans if k == kind)

    def layer_counts(self) -> dict[str, int]:
        """Calls per kind plus the hook counters; every deterministic key is present."""
        out = dict.fromkeys(DETERMINISTIC, 0)
        for kind, *_ in self.spans:
            out[f"{kind}.calls"] += 1
        out.update((k, v) for k, v in self.counts.items() if k in out)
        return out

    def self_seconds(self) -> dict[str, float]:
        """Self time per kind: span duration minus the time of its direct children."""
        child = [0.0] * len(self.spans)
        for kind, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = dict.fromkeys(self.kinds, 0.0)
        for (kind, start, end, _), inner in zip(self.spans, child):
            out[kind] += end - start - inner
        return out

    def write(self, path: Path) -> None:
        """Write the spans as CSV; ``root`` is the top-level span each one belongs to."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = self.spans[0][1] if self.spans else 0.0
        roots: list[int] = []
        with path.open("w", newline="", encoding="utf-8") as fh:
            out = csv.writer(fh)
            out.writerow(["span", "kind", "start_us", "end_us", "parent", "root"])
            for i, (kind, start, end, parent) in enumerate(self.spans):
                roots.append(i if parent < 0 else roots[parent])
                out.writerow([i, kind, round((start - origin) * 1e6, 1),
                              round((end - origin) * 1e6, 1), parent, roots[i]])
