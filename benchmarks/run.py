"""spherehc benchmark: four closed-loop verdict workloads and a traced layer split.

Run from the repository root:

    python3 benchmarks/run.py --workload sufficiency --seed 1 --seconds 20 --trace 0
    python3 benchmarks/run.py --workload all --trace 1

``--trace 0`` measures the end-to-end metrics with nothing wrapped: whole
batches run back to back for about ``--seconds`` of timed work, and set-up is
a fresh interpreter importing spherehc, timed SETUP_REPEATS times.  Times are
scaled to a reference speed by probes of benchmark-owned work (see
REF_IMPORT_S and REF_PROBE_S); the wall-clock figures are printed beside them.
``--trace 1`` runs one untraced and two traced batches and prints the
per-layer split; the spans of the first traced batch are written to
.bench_out/.  Every batch is checked against its reference outside the timed
region.  Human-readable lines come first; the last line of standard output is
one JSON object with the keys correct, attempted, failed and metrics.  The
exit code is 0 only when every verdict matched its reference.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
WORKLOAD_NAMES = ("sufficiency", "scan_wide", "logsob", "repro")
SETUP_REPEATS = 5

# Interpreter start-up on the shared machine the benchmark was tuned on
# drifts by up to 2x over minutes with the host's load.  setup_s is therefore
# measured against a probe timed in alternation with it, a fresh interpreter
# importing only spherehc's dependencies, and reads as the set-up time on a
# machine where that probe takes REF_IMPORT_S.  Work added to spherehc's own
# import, or a new dependency, still shows in full.
REF_IMPORT_S = 0.45

# The same machine's CPU flips between a fast and a slow state, about 1.7x
# apart, every 5 to 20 seconds.  Verdict times are therefore scaled by a
# compute probe interleaved with the work (see end_to_end) and read as times
# on a machine where the probe takes REF_PROBE_S, about its slow state.
REF_PROBE_S = 0.020
PROBE_EVERY_S = 0.25

END_TO_END_UNITS = {
    "verdicts_per_s": "1/s",
    "verdict_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _children_cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _print_metric(workload: str, name: str, value: float, unit: str, note: str = "") -> None:
    print(f"{workload:<12} {name:<32} {value:>14.6g} {unit:<12} {note}".rstrip())


def _timed_run(cmd: list[str], env: dict) -> float:
    start = perf_counter()
    subprocess.run(cmd, env=env, cwd=ROOT, check=True)
    return perf_counter() - start


def measure_setup() -> tuple[float, float]:
    """Fresh interpreters importing spherehc, each paired with one importing only its dependencies.

    Returns the median wall time of the spherehc imports and the median ratio
    of each to its paired dependency import.
    """
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    setup_cmd = [sys.executable, "-c", "import spherehc"]
    probe_cmd = [sys.executable, "-c", "import numpy, scipy.linalg, scipy.special"]
    _timed_run(setup_cmd, env)  # fills the bytecode and file caches
    setup, ratio = [], []
    for _ in range(SETUP_REPEATS):
        probe = _timed_run(probe_cmd, env)
        setup.append(_timed_run(setup_cmd, env))
        ratio.append(setup[-1] / probe)
    return statistics.median(setup), statistics.median(ratio)


def compute_probe() -> float:
    """Wall time of a fixed mix of small NumPy operations and interpreter work.

    The mix resembles the package's hot loops, arrays of a few dozen points
    and many short calls, but runs only benchmark code, so no change to
    spherehc can move it.
    """
    x = np.linspace(-1.0, 1.0, 33)
    start = perf_counter()
    acc = 0.0
    for i in range(2000):
        acc += float((x * 1.0001 + i).sum())
    for i in range(100_000):
        acc += i * i % 7
    return perf_counter() - start


def end_to_end(w, seconds: float) -> tuple[dict, int, int]:
    """Run whole batches until the next one would overshoot ``seconds`` by more than half.

    A compute probe runs before the first call and after every PROBE_EVERY_S
    of timed work.  Each call's wall time is scaled by REF_PROBE_S over the
    mean of the probes on either side of it.
    """
    probes = [compute_probe()]
    walls: list[float] = []  # per call
    segment: list[int] = []  # per call: index of the probe before it
    batch_sizes: list[int] = []  # calls per batch
    attempted = failed = 0
    since_probe = 0.0
    while True:
        results = []
        calls = w.calls(w.jobs)
        for call in calls:
            start = perf_counter()
            results.append(call())
            walls.append(perf_counter() - start)
            segment.append(len(probes) - 1)
            since_probe += walls[-1]
            if since_probe >= PROBE_EVERY_S:
                probes.append(compute_probe())
                since_probe = 0.0
        batch_sizes.append(len(calls))
        n, bad = w.check(results)
        attempted += n
        failed += bad
        if sum(walls) * (1.0 + 0.5 / len(batch_sizes)) >= seconds:
            break
    probes.append(compute_probe())
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    setup, ratio = measure_setup()

    scale = [2.0 * REF_PROBE_S / (a + b) for a, b in zip(probes, probes[1:])]
    scaled = np.array([t * scale[i] for t, i in zip(walls, segment)])
    batches = np.split(scaled, np.cumsum(batch_sizes)[:-1])
    per_batch = attempted // len(batches)
    # a call that returns a whole batch charges each verdict its mean
    latencies = scaled if len(walls) == attempted else scaled / per_batch
    metrics = {
        # every batch holds the same verdicts; the median batch shrugs off a stall
        "verdicts_per_s": per_batch / statistics.median(b.sum() for b in batches),
        "verdict_p90_ms": float(np.percentile(latencies, 90)) * 1e3,
        "peak_rss_mb": max(self_rss, child_rss) / 1024.0,
        "setup_s": REF_IMPORT_S * ratio,
    }
    per_verdict = "per verdict" if len(walls) == attempted else "batch mean per verdict"
    notes = {
        "verdicts_per_s": f"median of {len(batches)} batches of {per_batch}; "
                          f"{attempted / sum(walls):.6g} 1/s by the wall clock",
        "verdict_p90_ms": f"{per_verdict}, {len(latencies)} samples",
        "peak_rss_mb": "max of this process and its largest pool worker",
        "setup_s": f"{REF_IMPORT_S} s x median ratio to the dependency import; {setup:.6g} s wall",
    }
    print(f"# {sum(walls):.3f} s timed, {len(probes)} compute probes of median "
          f"{statistics.median(probes) * 1e3:.2f} ms (reference {REF_PROBE_S * 1e3:g} ms)")
    for name, value in metrics.items():
        _print_metric(w.name, name, value, END_TO_END_UNITS[name], notes[name])
    _print_metric(w.name, "ops_failed_frac", failed / attempted, "fraction",
                  "inconclusive, raised or disagreed with the reference")
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}, attempted, failed


def per_layer(w, seed: int) -> tuple[dict, int, int]:
    """One untraced batch for the pool figures and the overhead base, then two traced batches."""
    from spans import CLI, DETERMINISTIC, EVAL, INTEGRATE, NORM, ROOTS, SCAN, VERDICT, Tracer

    attempted = failed = 0

    def batch(jobs, tracer=None):
        nonlocal attempted, failed
        start = perf_counter()
        with tracer or contextlib.nullcontext():
            results = [call() for call in w.calls(jobs)]
        took = perf_counter() - start
        n, bad = w.check(results)
        attempted += n
        failed += bad
        return took

    # pool figures come from an untraced batch at the workload's own jobs;
    # only the scan call is wrapped, to time it inside repro
    scan_only = Tracer(kinds=(SCAN,))
    cpu_before = _children_cpu()
    untraced = batch(w.jobs, scan_only)
    worker_cpu = _children_cpu() - cpu_before
    scan_wall = scan_only.wall(SCAN)
    scan_jobs = scan_only.counts[f"{SCAN}.jobs"]
    pool_efficiency = worker_cpu / (scan_jobs * scan_wall) if worker_cpu > 0 else 0.0

    # spans inside pool workers never reach this process, so traced batches
    # run their scans in-process
    traced_jobs = 1 if w.pool else w.jobs
    if traced_jobs != w.jobs:
        untraced = batch(traced_jobs)
    tracers = [Tracer(), Tracer()]
    traced = [batch(traced_jobs, t) for t in tracers]
    tracers[0].write(OUT_DIR / f"spans-{w.name}-seed{seed}.csv")

    counts = tracers[0].layer_counts()
    again = tracers[1].layer_counts()
    drift = [k for k in DETERMINISTIC if counts[k] != again[k]]
    self_s = tracers[0].self_seconds()
    points = counts[f"{EVAL}.points"]
    integrals = counts[f"{INTEGRATE}.calls"]
    metrics = {
        f"{EVAL}.calls": (counts[f"{EVAL}.calls"], "count"),
        f"{EVAL}.points": (points, "count"),
        f"{EVAL}.self_s": (self_s[EVAL], "s"),
        f"{EVAL}.ns_per_point": (self_s[EVAL] / points * 1e9 if points else 0.0, "ns"),
        f"{ROOTS}.calls": (counts[f"{ROOTS}.calls"], "count"),
        f"{ROOTS}.self_s": (self_s[ROOTS], "s"),
        f"{INTEGRATE}.calls": (integrals, "count"),
        f"{INTEGRATE}.panels": (counts[f"{INTEGRATE}.panels"], "count"),
        f"{INTEGRATE}.panels_per_call": (counts[f"{INTEGRATE}.panels"] / integrals if integrals else 0.0, "count"),
        f"{INTEGRATE}.self_s": (self_s[INTEGRATE], "s"),
        f"{INTEGRATE}.unconverged": (counts[f"{INTEGRATE}.unconverged"], "count"),
        f"{NORM}.calls": (counts[f"{NORM}.calls"], "count"),
        f"{NORM}.self_s": (self_s[NORM], "s"),
        f"{VERDICT}.calls": (counts[f"{VERDICT}.calls"], "count"),
        f"{VERDICT}.self_s": (self_s[VERDICT], "s"),
        f"{VERDICT}.retries": (counts[f"{VERDICT}.retries"], "count"),
        f"{SCAN}.worker_cpu_s": (worker_cpu, "s"),
        f"{SCAN}.pool_efficiency": (pool_efficiency, "ratio"),
        f"{CLI}.self_s": (self_s[CLI], "s"),
        "trace.overhead_frac": (statistics.mean(traced) / untraced - 1.0, "ratio"),
        "trace.count_drift": (len(drift), "count"),
    }
    notes = {
        f"{INTEGRATE}.self_s": "includes the integrand closures norms and hypercheck own",
        f"{SCAN}.worker_cpu_s": f"untraced batch, jobs={scan_jobs or 'none'}",
        f"{SCAN}.pool_efficiency": "worker CPU / (jobs x scan wall)",
        "trace.overhead_frac": "mean traced batch wall / untraced batch wall - 1",
    }
    jobs_label = "in-process" if traced_jobs is None else f"jobs={traced_jobs}"
    print(f"# traced batches ran {jobs_label}; hypercheck.scan.* come from the untraced batch")
    for name, (value, unit) in metrics.items():
        _print_metric(w.name, name, value, unit, notes.get(name, ""))
    if drift:
        print(f"# count drift between traced batches: {', '.join(drift)}", file=sys.stderr)
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, attempted, failed


def run_one(args) -> int:
    sys.path.insert(0, str(SRC))
    import spherehc

    if not Path(spherehc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"spherehc was imported from {spherehc.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import workloads

    OUT_DIR.mkdir(exist_ok=True)
    w = workloads.WORKLOADS[args.workload](args.seed, OUT_DIR)
    workloads.warm_up()
    print(f"# workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    if args.trace:
        metrics, attempted, failed = per_layer(w, args.seed)
    else:
        metrics, attempted, failed = end_to_end(w, args.seconds)
    if hasattr(w, "band"):
        print(w.band.summary())
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own interpreter; the last line merges their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        code = code or proc.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            merged["correct"] = False
            continue
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=(*WORKLOAD_NAMES, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0, help="draws the logsob inputs and the sufficiency order")
    parser.add_argument("--seconds", type=float, default=20.0, help="timed work per --trace 0 run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "spherehc" / "__init__.py").is_file():
        print(f"no spherehc source under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
