"""qtransistor benchmark: one workload, timed end to end or traced per layer.

    python3 bench/run.py --workload presets-cli --seed 1 --seconds 35 --trace 0

Run from the root of a checkout; the package is imported from ./src.
Workloads: presets-cli, point-queries, hard-regime (see bench/README.md).
The run builds its inputs from --seed, checks every output in an untimed
first pass, repeats timed passes for --seconds and takes each call at its
fastest, then checks accuracy.  With --trace 0 it reports the end-to-end
metrics; with --trace 1 it alternates plain and traced passes and reports
the per-layer metrics.  A summary goes to stdout, then, as the last line,
one JSON object {correct, attempted, failed, metrics}.  Without the
package source it exits 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

# one thread: the benchmark measures the single-caller path, and BLAS or
# OpenMP pools would spread it over the machine's other tenants
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

SETUP_PROBES = 5
TAIL = 0.95
MIN_BEYOND = 10

# traced layers that also report calls per point, and failed calls per pass
CALL_COUNTED = (
    "model.analytic_eigensystem", "channels.channels_analytic", "dynamics.rate_matrix",
    "dynamics.steady_state", "observables.heat_currents", "observables.amplification_factor",
)
FAILURE_COUNTED = ("dynamics.steady_state", "observables.amplification_factor")


def percentile(samples: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def samples_beyond(n: int, q: float) -> int:
    """Samples strictly above the nearest-rank q-percentile of n."""
    return n - math.ceil(q * n)


def keep_fastest(best: dict, calls: list[tuple]) -> None:
    """Fold one pass into `best`: each timed part at its fastest so far.

    Entries are ((call, part), seconds, points).  The host's speed drifts
    by up to 2x over tens of seconds with its other tenants' load.  As with
    `timeit`, the least time a part took is the stable estimate of its own
    cost; each part needs one undisturbed moment among the passes, not a
    whole undisturbed pass.  Folding pass by pass keeps the run's memory
    flat, so peak_rss_mb does not grow with the number of passes a run fits.
    """
    for key, dt, n in calls:
        if key not in best or dt < best[key][0]:
            best[key] = (dt, n)


def best_calls(best: dict) -> list[tuple[float, int]]:
    """(seconds, points) of each call: the sum of its parts, each at its fastest."""
    total: dict = {}
    for (call, _), (dt, n) in best.items():
        total[call] = (total.get(call, (0.0, n))[0] + dt, n)
    return list(total.values())


def latency_samples(calls: list[tuple[float, int]]) -> list[float]:
    """Seconds per point, one sample per point: a call of n points contributes
    its time / n, n times (points inside one CLI command are not timed apart)."""
    return [dt / n for dt, n in calls for _ in range(n)]


def pass_seconds(calls: list[tuple]) -> float:
    return sum(dt for _, dt, _ in calls)


def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "mpmath": mpmath.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "threads": {v: os.environ[v] for v in
                    ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def setup_probe(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports the package and builds inputs.

    No timeout here: with one, the wait polls and rounds the time up to
    50 ms steps; probe.py bounds its own run time instead.
    """
    t0 = time.perf_counter()
    subprocess.run([sys.executable, os.path.join(HERE, "probe.py"), workload, str(seed)],
                   check=True, stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def end_to_end(wl, tally, args, notes: list[str]) -> dict:
    """Timed passes for --seconds, with the set-up probes spread between them
    so that one slow stretch of the host does not hold them all."""
    fastest, pass_times, setup = {}, [], []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds:
        calls = wl.timed_pass()
        keep_fastest(fastest, calls)
        pass_times.append(pass_seconds(calls))
        if len(setup) < SETUP_PROBES:
            setup.append(setup_probe(args.workload, args.seed))
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(args.workload, args.seed))
    wl.verify_repeat(tally)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    wl.check_accuracy(tally)
    best = best_calls(fastest)
    wall = sum(dt for dt, _ in best)
    samples = latency_samples(best)
    if samples_beyond(len(samples), TAIL) < MIN_BEYOND:
        raise RuntimeError(f"{len(samples)} latency samples leave fewer than "
                           f"{MIN_BEYOND} beyond p{round(100 * TAIL)}")
    notes.append(f"{len(pass_times)} timed passes of {wl.points_per_pass} points, "
                 f"{statistics.median(pass_times):.4g} s median pass; "
                 f"each of {len(best)} calls, in {len(fastest)} timed parts, "
                 f"at its fastest: {wall:.4g} s, "
                 f"{len(samples)} point samples, {samples_beyond(len(samples), TAIL)} beyond p95; "
                 f"set-up over {len(setup)} fresh interpreters")
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (wall, "s"),
        "points_per_s": (len(samples) / wall, "1/s"),
        "point_ms_p50": (1e3 * percentile(samples, 0.5), "ms"),
        "point_ms_p95": (1e3 * percentile(samples, TAIL), "ms"),
        "ok_ratio": ((tally.attempted - tally.failed) / tally.attempted, "ratio"),
        "pop_accurate_ratio": (tally.pop_accurate / max(tally.pop_checked, 1), "ratio"),
        "peak_rss_mb": (peak_mb, "MB"),
    }


def per_layer(wl, tally, seconds: float, notes: list[str]) -> dict:
    import gate

    health = {"conservation": 0.0, "alpha_sum": 0.0, "residual": 0.0}

    def on_currents(q):
        health["conservation"] = max(health["conservation"],
                                     gate.conservation_defect([q.Q_L, q.Q_M, q.Q_R]))
        health["residual"] = max(health["residual"], q.steady_residual)

    def on_alpha(a):
        health["alpha_sum"] = max(health["alpha_sum"], gate.alpha_sum_defect(a.alpha_L, a.alpha_R))

    tracer = tracing.Tracer({"observables.heat_currents": on_currents,
                             "observables.amplification_factor": on_alpha})
    plain, traced = [], []
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(traced) < 2:
        plain.append(pass_seconds(wl.timed_pass()))
        tracer.install()
        try:
            traced.append(pass_seconds(wl.timed_pass(tracer)))
        finally:
            tracer.uninstall()
    wl.verify_repeat(tally)
    points = wl.points_per_pass * len(traced)
    traced_s = sum(traced)
    notes.append(f"{len(plain)} plain and {len(traced)} traced passes of "
                 f"{wl.points_per_pass} points; {len(tracer.spans)} spans")
    metrics = {}
    for name, entry in tracing.summarize(tracer.spans).items():
        if name in CALL_COUNTED:
            metrics[f"{name}.calls_per_point"] = (entry["calls"] / points, "calls/point")
        metrics[f"{name}.self_pct"] = (100.0 * entry["self_s"] / traced_s, "%")
        if name in FAILURE_COUNTED:
            metrics[f"{name}.failed"] = (entry["failed"] / len(traced), "count")
    metrics["observables.conservation_defect_max"] = (health["conservation"], "ratio")
    metrics["observables.alpha_sum_defect_max"] = (health["alpha_sum"], "ratio")
    metrics["dynamics.steady_residual_max"] = (health["residual"], "omega0")
    metrics["trace.pass_s"] = (min(traced), "s")
    metrics["trace.overhead_s"] = (min(traced) - min(plain), "s")
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("presets-cli", "point-queries", "hard-regime"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "qtransistor", "__init__.py")):
        print(f"error: no qtransistor package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import gate
    import workloads

    notes = [f"environment {json.dumps(environment())}"]
    os.makedirs(WORK, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix="run-", dir=WORK)
    try:
        wl = workloads.make(args.workload, args.seed, out_dir, os.path.join(HERE, "expected"))
        tally = gate.Tally()
        wl.check(tally)
        if args.trace:
            metrics = per_layer(wl, tally, args.seconds, notes)
        else:
            metrics = end_to_end(wl, tally, args, notes)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            os.rmdir(WORK)
        except OSError:  # another run still uses it
            pass

    notes.append(f"{tally.failed} of {tally.attempted} points failed: "
                 + (", ".join(f"{k} x{v}" for k, v in sorted(tally.reasons.items())) or "none"))
    notes += [f"PROBLEM {p}" for p in tally.problems[:20]]
    for name, (value, unit) in metrics.items():
        notes.append(f"{name} = {value:.6g} {unit}")
    print("\n".join(notes))
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
