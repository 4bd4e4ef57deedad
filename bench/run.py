"""beamwkb benchmark: one workload per call, end-to-end or traced.

    python3 bench/run.py --workload {expand,validate}
        --seed N --seconds S --trace {0,1}
    python3 bench/run.py --record-digest

Run from a checkout: the program is imported from ``src/`` next to this
directory.  The seed selects the deformation angle delta; the workload
generates its configs from it.  After set-up (repeated five times, median
reported) and one warm-up pass, passes repeat until ``--seconds`` is used.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` passes alternate untraced and traced and it carries the
per-layer metrics.  Every pass is checked against ``digest.json``; the run
exits 1 when a check fails and 2 when the program is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SETUP_REPEATS = 5
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS thread: with a pool as large as nproc on a shared host the same
# oracle row took from 35 to 130 ms from pass to pass; with one it is steady
BLAS_THREADS = 1
IMPORT_PROBE = ("import time; t = time.perf_counter(); import beamwkb.cli; "
                "print(time.perf_counter() - t)")
# a span's self time and a pass's unattributed time may each read below 0
# by at most this many seconds (clock rounding); more means a broken span
ATTRIBUTION_TOL_S = 1e-6
# a run whose cpu probes before and after its timed passes differ by more
# than this share of the faster one is reported as unsteady
PROBE_DRIFT_MAX = 0.25
PROBE_REPEATS = 5


def _loadavg():
    try:
        return Path("/proc/loadavg").read_text().split()[:3]
    except OSError:
        return None


def cpu_probe():
    """Seconds for a fixed pure-Python loop, median of PROBE_REPEATS.

    The load average only sees this machine; a slow reading also marks a
    run whose CPUs were shared with work outside it.
    """
    def once():
        t0 = time.perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i
        return time.perf_counter() - t0
    return statistics.median(once() for _ in range(PROBE_REPEATS))


def cap_blas_threads():
    """Pin BLAS/OpenMP pools to BLAS_THREADS; return the CPUs this process
    may use."""
    for name in BLAS_ENV:
        os.environ[name] = str(BLAS_THREADS)
    return len(os.sched_getaffinity(0))


def environment(nproc):
    import numpy
    import scipy
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": {k: os.environ[k] for k in BLAS_ENV},
            "machine": platform.machine(), "loadavg_start": _loadavg(),
            "cpu_probe_s_start": cpu_probe()}


def time_import():
    """Seconds to import the package in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT,
                         env=env, capture_output=True, text=True, timeout=120,
                         check=True)
    return float(out.stdout.split()[-1])


def quantile_90(values):
    return statistics.quantiles(values, n=10)[-1]


def measure(workload, state, seconds, traced):
    """Warm-up pass, then timed passes; odd passes traced when ``traced``.

    Returns the warm-up, the timed passes and the cpu probe readings taken
    just before and just after the timed passes.
    """
    from spans import Tracer
    from workloads import RowClock, run_pass

    clock = RowClock()
    restore_clock = clock.install()
    try:
        warm = run_pass(workload, state, clock)
        probe_before = cpu_probe()
        passes = []
        t_start = time.perf_counter()
        while True:
            tracer = Tracer() if traced and len(passes) % 2 == 1 else None
            gc.collect()
            res = run_pass(workload, state, clock, tracer)
            passes.append(res)
            elapsed = time.perf_counter() - t_start
            if len(passes) >= (2 if traced else 1) and \
                    elapsed + res.wall > seconds:
                break
        probe_after = cpu_probe()
    finally:
        restore_clock()
    return warm, passes, (probe_before, probe_after)


def layer_metrics(passes):
    """Per-layer metrics from the traced passes, plus the attribution check:
    the most negative span self time or unattributed time of any pass, as a
    positive number of seconds (0 when none is negative).

    The layer self times and ``unattributed.s`` add up to the pass wall time
    by construction, so only their signs can be checked."""
    from spans import COUNTER_NAMES, SELF_TIME_KEYS

    traced = [p for p in passes if p.tracer is not None]
    plain = [p for p in passes if p.tracer is None]
    per_pass = []
    worst_negative = 0.0
    for p in traced:
        selfs = p.tracer.self_times()
        unattributed = p.wall - p.tracer.root_time()
        worst_negative = max(worst_negative, -unattributed,
                             -min(p.tracer.span_self_times(), default=0.0))
        row = {(k + ".s" if k != "cli" else "cli.self.s"): selfs[k]
               for k in SELF_TIME_KEYS}
        row["unattributed.s"] = unattributed
        for name in COUNTER_NAMES:
            row[name] = p.tracer.counts.get(name, 0)
        per_pass.append(row)
    metrics = {}
    for name in per_pass[0]:
        unit = "s" if name.endswith(".s") else "count"
        metrics[name] = (statistics.median(r[name] for r in per_pass), unit)
    counts_repeat = all(r[n] == per_pass[0][n] for r in per_pass
                        for n in COUNTER_NAMES)
    wall_traced = statistics.median(p.wall for p in traced)
    wall_plain = statistics.median(p.wall for p in plain)
    metrics["trace.wall_s"] = (wall_traced, "s")
    metrics["trace.untraced_wall_s"] = (wall_plain, "s")
    metrics["trace.overhead_s"] = (wall_traced - wall_plain, "s")
    return metrics, worst_negative, counts_repeat


def spans_record(passes):
    out = []
    for p in passes:
        if p.tracer is None:
            continue
        t0 = p.tracer.spans[0][3] if p.tracer.spans else 0.0
        out.append({"wall": p.wall, "counts": dict(p.tracer.counts),
                    "spans": [[k, n, parent, a - t0, b - t0]
                              for k, n, parent, a, b in p.tracer.spans]})
    return out


def record_digest():
    import digest
    from workloads import DELTAS, WORKLOADS, RowClock, run_pass

    table = {}
    for name, cls in WORKLOADS.items():
        for delta in DELTAS:
            with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
                workload = cls(delta)
                clock = RowClock()
                restore = clock.install()
                try:
                    res = run_pass(workload, workload.prepare(Path(tmp)),
                                   clock)
                finally:
                    restore()
            if res.failed or res.errors:
                raise SystemExit(f"{name} delta={delta}: {res.failed} failed, "
                                 f"errors {res.errors}")
            table.setdefault(name, {})[digest.delta_key(delta)] = res.outputs
            print(f"recorded {name} delta={delta}", flush=True)
    payload = {"tolerances": {"value_rtol": digest.VALUE_RTOL,
                              "slope_rtol": digest.SLOPE_RTOL},
               "workloads": table}
    digest.DIGEST_PATH.write_text(json.dumps(payload, indent=1) + "\n")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=50.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record-digest", action="store_true",
                    help="write digest.json from this checkout's program")
    args = ap.parse_args(argv)

    if not (SRC / "beamwkb" / "__init__.py").is_file():
        print(f"error: no beamwkb package under {SRC}", file=sys.stderr)
        return 2
    nproc = cap_blas_threads()
    sys.path.insert(0, str(SRC))
    import beamwkb
    if Path(beamwkb.__file__).resolve().parent != SRC / "beamwkb":
        print(f"error: imported beamwkb from {beamwkb.__file__}", file=sys.stderr)
        return 2
    env = environment(nproc)
    OUT_DIR.mkdir(exist_ok=True)
    if args.record_digest:
        record_digest()
        return 0

    import digest
    from workloads import WORKLOADS, delta_for_seed
    if args.workload not in WORKLOADS:
        ap.error(f"--workload must be one of {sorted(WORKLOADS)}")
    delta = delta_for_seed(args.seed)
    workload = WORKLOADS[args.workload](delta)
    reference = digest.load()["workloads"][args.workload][digest.delta_key(delta)]
    print(f"workload {args.workload}, seed {args.seed}, delta {delta!r}, "
          f"trace {args.trace}", flush=True)

    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        setups = []
        for _ in range(SETUP_REPEATS):
            t_import = time_import()
            t0 = time.perf_counter()
            state = workload.prepare(Path(tmp))
            setups.append(t_import + time.perf_counter() - t0)
        warm, passes, probes = measure(workload, state, args.seconds,
                                       bool(args.trace))
    env["loadavg_end"] = _loadavg()
    env["cpu_probe_s_end"] = probes[1]
    probe_drift = max(probes) / min(probes) - 1.0
    steady = probe_drift <= PROBE_DRIFT_MAX

    errors = [e for p in [warm, *passes] for e in p.errors]
    gate = [digest.check(reference, p.outputs) for p in [warm, *passes]]
    gate_ok = all(g[0] for g in gate)
    value_dev = max(g[1] for g in gate)
    slope_dev = max(g[2] for g in gate)
    worst_at = next((g[3] for g in gate if not g[0]), gate[-1][3])
    self_test_ok = not digest.check(reference, digest.perturbed(reference))[0]
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    plain = [p for p in passes if p.tracer is None]
    items = [t for p in plain for t in p.items]

    summary = {
        "workload": args.workload, "seed": args.seed, "delta": delta,
        "trace": args.trace, "environment": env,
        "passes": len(passes), "pass_walls_s": [p.wall for p in passes],
        "items": len(items), "failed_frac": failed / max(attempted, 1),
        "digest": {"passed": gate_ok, "max_value_dev": value_dev,
                   "max_slope_dev": slope_dev, "worst_at": worst_at,
                   "value_rtol": digest.VALUE_RTOL,
                   "slope_rtol": digest.SLOPE_RTOL,
                   "gate_self_test_rejects_perturbed": self_test_ok},
        "errors": errors,
        "probe_around_passes_s": list(probes), "probe_drift": probe_drift,
        "steady": steady,
    }
    correct = gate_ok and self_test_ok and not errors
    if args.trace:
        metrics, negative, counts_repeat = layer_metrics(passes)
        summary["attribution_negative_s"] = negative
        summary["counters_repeat_within_run"] = counts_repeat
        correct = correct and negative <= ATTRIBUTION_TOL_S
    else:
        # means over passes, not medians: the host runs in fast and slow
        # phases of some seconds each, and a median jumps between the two
        # while a mean moves with the share of time spent in each
        metrics = {
            "wall_s": (statistics.fmean(p.wall for p in plain), "s"),
            "item_p50_ms": (1e3 * statistics.fmean(
                statistics.median(p.items) for p in plain if p.items),
                "ms"),
            "item_p90_ms": (1e3 * quantile_90(items), "ms"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        summary["setup_s_samples"] = setups
    summary["metrics"] = {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())[
        "per_layer" if args.trace else "end_to_end"]
    if [(m["name"], m["unit"]) for m in declared] != \
            [(k, u) for k, (_, u) in metrics.items()]:
        errors.append("metrics differ from those BENCHMARK.json declares")
        correct = False

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n")
    if args.trace:
        (OUT_DIR / f"{stem}.spans.json").write_text(
            json.dumps(spans_record(passes)) + "\n")

    for e in errors:
        print(f"error: {e}", file=sys.stderr)
    print(f"environment {json.dumps(env)}")
    print(f"passes {len(passes)}, items {len(items)}, attempted {attempted}, "
          f"failed {failed} (failed_frac {summary['failed_frac']:.3g})")
    print(f"digest gate {'passed' if gate_ok else 'FAILED'}: largest value "
          f"deviation {value_dev:.3g} (tol {digest.VALUE_RTOL:g}), slope "
          f"{slope_dev:.3g} (tol {digest.SLOPE_RTOL:g}); gate rejects a "
          f"perturbed eigenvalue: {self_test_ok}")
    if args.trace:
        print(f"self and unattributed times fall below 0 by at most "
              f"{summary['attribution_negative_s']:.3g} s; counters repeat "
              f"across passes: {counts_repeat}")
    print(f"cpu probe before/after the timed passes {probes[0]:.4f}/"
          f"{probes[1]:.4f} s, drift {probe_drift:.3f}: "
          f"{'steady' if steady else 'UNSTEADY'} (limit {PROBE_DRIFT_MAX})")
    for name, (value, unit) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit}")
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed,
                      "metrics": summary["metrics"]}), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
