"""Run the benchmark over several seeds and report each metric's spread.

    python3 bench/spread.py --workloads expand,validate --seeds 1-10
        [--seconds 50] [--trace 0] [--repeat 1] [--out bench/out/spread.json]

Runs one benchmark process at a time.  For every metric it prints the
median over the runs, the quartiles (``statistics.quantiles(n=4)``) and
the spread (q3 - q1) / median that BENCHMARK.json's bounds are judged
against.  With ``--repeat`` above 1 each seed runs that many times, and
the report says whether every count metric read the same in every run of
the same seed.  It also lists the runs that reported themselves unsteady
(cpu probe drift across the timed passes above run.py's limit).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
RUN = BENCH_DIR / "run.py"


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n"
                         f"{proc.stdout[-2000:]}{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    env = next(json.loads(line.split(" ", 1)[1]) for line in lines
               if line.startswith("environment "))
    result["cpu_probe_s"] = env["cpu_probe_s_start"]
    summary = json.loads((BENCH_DIR / "out" /
                          f"{workload}-seed{seed}-trace{trace}.json").read_text())
    result["steady"] = summary["steady"]
    result["probe_drift"] = summary["probe_drift"]
    return result


def summarize(results):
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {"unit": results[0]["metrics"][name]["unit"],
                     "median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else None,
                     "values": values}
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", default="expand,validate")
    ap.add_argument("--seeds", default="1-10", type=parse_seeds)
    ap.add_argument("--seconds", type=int, default=50)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--repeat", type=int, default=1)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    report = {"seeds": args.seeds, "seconds": args.seconds,
              "trace": args.trace, "repeat": args.repeat, "workloads": {}}
    for workload in args.workloads.split(","):
        results, counts_repeat = [], True
        for seed in args.seeds:
            runs = [run_once(workload, seed, args.seconds, args.trace)
                    for _ in range(args.repeat)]
            counts_repeat &= all(
                r["metrics"][k] == runs[0]["metrics"][k] for r in runs
                for k, m in runs[0]["metrics"].items() if m["unit"] == "count")
            results += runs
            print(f"{workload} seed {seed} done", file=sys.stderr, flush=True)
        entry = {"correct": all(r["correct"] for r in results),
                 "counts_repeat": counts_repeat,
                 "attempted": sum(r["attempted"] for r in results),
                 "failed": sum(r["failed"] for r in results),
                 "cpu_probe_s": [r["cpu_probe_s"] for r in results],
                 "probe_drift": [r["probe_drift"] for r in results],
                 "unsteady_runs": sum(not r["steady"] for r in results),
                 "metrics": summarize(results)}
        report["workloads"][workload] = entry
        print(f"{workload}: correct {entry['correct']}, failed "
              f"{entry['failed']}/{entry['attempted']}, counts repeat "
              f"{counts_repeat}, cpu probe {min(entry['cpu_probe_s']):.4f}.."
              f"{max(entry['cpu_probe_s']):.4f} s, unsteady runs "
              f"{entry['unsteady_runs']}/{len(results)}")
        for name, m in entry["metrics"].items():
            spread = "n/a" if m["spread"] is None else f"{m['spread']:.4f}"
            print(f"  {name:28s} median {m['median']:12.6g} {m['unit']:5s} "
                  f"spread {spread}")
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
