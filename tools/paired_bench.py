"""Compare two checkouts on one benchmark workload in alternating pairs.

    python3 tools/paired_bench.py --parent path/to/old --change path/to/new \
        --workload validate --seeds 0-9 --seconds 50

Each checkout runs its own ``bench/run.py`` (trace 0), one process at a
time.  Pair i runs both sides at seed i; the side that goes first
alternates from pair to pair, so a slow phase of the host does not always
fall on the same side.  Every metric ``bench/run.py`` reports is taken as
lower-is-better (times and memory).

Per metric the report gives each side's median and quartiles, the spread
of the parent (q3 - q1) / median, the number of pairs in which the change
reads lower, the change of the median in percent, and a verdict:

* ``gain``: the change wins at least 9 of 10 pairs and its median is
  lower than the parent's by more than the parent's q3 - q1;
* ``worse``: the change's median exceeds the parent's by more than the
  metric's bound;
* ``unresolved``: the parent's spread exceeds the bound, unless every run
  of the change reads lower than every run of the parent;
* ``within bound`` otherwise, and ``-`` for a metric without a bound.

It also gives the runs each side reported as correct and the operations
each side failed.  The last line is the same summary as JSON.  Standard
library only.  Besides ``bench/`` of either checkout, only the change's
root ``BENCHMARK.json`` is read, for the end-to-end metrics' bounds.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def parse_seeds(text):
    """'0-9' or '0,3,7' (or a mix, '0-4,9') -> list of ints."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_side(tree, workload, seed, seconds):
    """One ``bench/run.py`` run in ``tree``; its final JSON record."""
    proc = subprocess.run(
        [sys.executable, str(Path(tree) / "bench" / "run.py"),
         "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=20 * seconds + 600)
    try:
        return json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"{tree} seed {seed} exited {proc.returncode} with "
                         f"no record:\n{proc.stdout[-2000:]}{proc.stderr[-2000:]}")


def load_bounds(tree):
    """{metric: bound} over the end-to-end metrics of tree's BENCHMARK.json;
    a bound is the largest tolerated relative worsening of the median."""
    data = json.loads((Path(tree) / "BENCHMARK.json").read_text())
    return {m["name"]: m["bound"] for m in data["end_to_end"]}


def verdict(parent, change, bound):
    """gain / worse / unresolved / within bound (or '-' without a bound)
    for one metric's per-pair values, lower being better."""
    p_med, c_med = statistics.median(parent), statistics.median(change)
    q1, q3 = _quartiles(parent)
    wins = sum(c < p for p, c in zip(parent, change))
    if 10 * wins >= 9 * len(parent) and p_med - c_med > q3 - q1:
        return "gain"
    if bound is None:
        return "-"
    if c_med > p_med * (1.0 + bound):
        return "worse"
    if q3 - q1 > bound * p_med and max(change) >= min(parent):
        return "unresolved"
    return "within bound"


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def summarize(pairs, bounds):
    """Per-metric medians, quartiles, parent spread, wins, median change
    and verdict.

    ``pairs`` is a list of {"parent": record, "change": record}, each record
    as ``bench/run.py`` prints it last: {"correct", "attempted", "failed",
    "metrics": {name: {"value", "unit"}}}.  ``bounds`` maps a metric name to
    its bound (``load_bounds``); a metric missing from it gets no bound.
    """
    out = {"pairs": len(pairs), "metrics": {}}
    for side in SIDES:
        out[side] = {
            "correct": sum(bool(p[side]["correct"]) for p in pairs),
            "failed": sum(p[side]["failed"] for p in pairs),
            "attempted": sum(p[side]["attempted"] for p in pairs),
        }
    for name, meta in pairs[0]["parent"]["metrics"].items():
        entry = {"unit": meta["unit"]}
        values = {side: [p[side]["metrics"][name]["value"] for p in pairs]
                  for side in SIDES}
        for side in SIDES:
            q1, q3 = _quartiles(values[side])
            entry[side] = {"median": statistics.median(values[side]),
                           "q1": q1, "q3": q3}
        par = entry["parent"]
        entry["parent_spread"] = ((par["q3"] - par["q1"]) / par["median"]
                                  if par["median"] else None)
        entry["change_wins"] = sum(c < p for p, c in zip(values["parent"],
                                                         values["change"]))
        entry["median_change_pct"] = (
            100.0 * (entry["change"]["median"] / par["median"] - 1.0)
            if par["median"] else None)
        entry["bound"] = bounds.get(name)
        entry["verdict"] = verdict(values["parent"], values["change"],
                                   entry["bound"])
        out["metrics"][name] = entry
    return out


def format_summary(summary):
    n = summary["pairs"]
    lines = [f"{'metric':14s} {'parent median [q1, q3]':>34s} "
             f"{'change median [q1, q3]':>34s} {'IQR/med':>8s} {'wins':>6s} "
             f"{'change':>8s} {'bound':>6s}  verdict"]
    for name, e in summary["metrics"].items():
        cells = [f"{e[s]['median']:10.4g} [{e[s]['q1']:.4g}, {e[s]['q3']:.4g}]"
                 for s in SIDES]
        spread, pct, bound = (e["parent_spread"], e["median_change_pct"],
                              e["bound"])
        lines.append(f"{name:14s} {cells[0]:>34s} {cells[1]:>34s} "
                     f"{'-' if spread is None else f'{spread:.3f}':>8s} "
                     f"{e['change_wins']:>2d}/{n:<3d} "
                     f"{'-' if pct is None else f'{pct:+.1f}%':>8s} "
                     f"{'-' if bound is None else f'{bound:g}':>6s}  "
                     f"{e['verdict']}")
    for side in SIDES:
        s = summary[side]
        lines.append(f"{side}: correct {s['correct']}/{n} runs, failed "
                     f"{s['failed']} of {s['attempted']} operations")
    return "\n".join(lines)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="0-9", type=parse_seeds)
    ap.add_argument("--seconds", type=float, default=50.0)
    args = ap.parse_args(argv)
    trees = {"parent": args.parent, "change": args.change}
    for side, tree in trees.items():
        if not (tree / "bench" / "run.py").is_file():
            ap.error(f"--{side}: no bench/run.py under {tree}")
    if not (args.change / "BENCHMARK.json").is_file():
        ap.error(f"--change: no BENCHMARK.json under {args.change}")
    bounds = load_bounds(args.change)

    pairs = []
    for i, seed in enumerate(args.seeds):
        order = SIDES if i % 2 == 0 else SIDES[::-1]
        pair = {}
        for side in order:
            pair[side] = run_side(trees[side], args.workload, seed,
                                  args.seconds)
        pairs.append(pair)
        walls = ", ".join(f"{side} {pair[side]['metrics']['wall_s']['value']:.4g}"
                          for side in order)
        print(f"pair {i + 1}/{len(args.seeds)} seed {seed}: {walls}",
              flush=True)
    summary = summarize(pairs, bounds)
    summary.update(workload=args.workload, seeds=args.seeds,
                   seconds=args.seconds)
    print(format_summary(summary))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
