"""The two benchmark workloads and the outputs the digest gate checks.

Every workload generates its configurations from the seed-selected
deformation angle and hands the program only those configurations (and,
for the sweep, the artifact built from it).  Each workload has

* ``prepare(tmp)``: set-up before timing (configs, artifact build);
* ``run(state)``: the timed part of one pass;
* ``collect(state, raw, clock)``: the untimed checks, giving a PassResult.

Import this module only after the BLAS thread count is set: it imports numpy
through beamwkb.
"""

from __future__ import annotations

import contextlib
import functools
import io
import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from beamwkb import cli, harness, oracle
from beamwkb.model import load_config

# Admissible deformation angles: inside [0, pi/2 - guard) so no seed meets
# the guard band, and spanning little enough that the mesh sizes (which
# grow with delta + 2 pi l) differ by under 1 % between seeds.
DELTAS = (0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9, 1.05)

_UNIFORM = {"a": -1.0, "b": 1.0, "k0": [1.0], "p": [1.0], "q": [1.0]}
_ASYM = {"a": -1.0, "b": 0.8, "k0": [1.0], "p": [1.0], "q": [1.0]}
_VARIABLE = {"a": -1.0, "b": 0.75, "k0": [1.0, 0.25], "k1": [0.3],
             "k2": [0.2], "p": [1.0, 0.0, 0.125], "q": [1.0, 0.0, 0.2]}

# name -> (coefficients, run parameters); the first three are the test
# suite's fixtures, the last is the variable beam at the default outer grid
FIXTURES = {
    "uniform": (_UNIFORM, {"n_max": 2, "l_range": [6, 18], "outer_grid": 256}),
    "asym": (_ASYM, {"n_max": 3, "l_range": [8, 40], "outer_grid": 256}),
    "variable": (_VARIABLE, {"n_max": 4, "l_range": [8, 44],
                             "outer_grid": 256}),
    "variable-grid512": (_VARIABLE, {"n_max": 6, "l_range": [8, 44],
                                     "outer_grid": 512}),
}

VALIDATE_L = (8, 40)


def delta_for_seed(seed: int) -> float:
    return DELTAS[seed % len(DELTAS)]


def fixture_config(name: str, delta: float) -> dict:
    coeffs, run = FIXTURES[name]
    return {**coeffs, **run, "delta": delta, "inner_grid": 128}


def write_config(tmp: Path, name: str, delta: float) -> Path:
    path = tmp / f"{name}.config.json"
    path.write_text(json.dumps(fixture_config(name, delta)) + "\n")
    return path


@dataclass
class PassResult:
    wall: float = 0.0
    items: list = field(default_factory=list)   # per-item latency, seconds
    attempted: int = 0
    failed: int = 0
    outputs: dict = field(default_factory=dict)
    errors: list = field(default_factory=list)
    tracer: object = None                        # spans.Tracer of a traced pass


class RowClock:
    """Marks each oracle row's start and the sweep's end.

    One timestamp per row, taken with tracing on or off, so both kinds of
    pass carry the same cost.  Row k runs from mark k to mark k + 1.
    """

    def __init__(self):
        self.marks = []

    def install(self):
        assemble, sweep = oracle.assemble, harness.run_convergence

        @functools.wraps(assemble)
        def marked_assemble(*args, **kwargs):
            self.marks.append(time.perf_counter())
            return assemble(*args, **kwargs)

        @functools.wraps(sweep)
        def marked_sweep(*args, **kwargs):
            try:
                return sweep(*args, **kwargs)
            finally:
                self.marks.append(time.perf_counter())

        oracle.assemble, harness.run_convergence = marked_assemble, marked_sweep

        def restore():
            oracle.assemble, harness.run_convergence = assemble, sweep
        return restore

    def take_rows(self):
        marks, self.marks = self.marks, []
        return [b - a for a, b in zip(marks, marks[1:])]


def _report_outputs(lambdas, rows, fits):
    return {
        "lambdas": [float(v) for v in lambdas],
        "rows": {str(r["l"]): [r["lambda_oracle"], r["abs_err"]]
                 for r in rows if r["valid"]},
        "slopes": {k: fits[k]["slope"] for k in sorted(fits)},
    }


def _sweep_accounting(res: PassResult, rows, clock: RowClock):
    res.items = clock.take_rows()
    res.attempted = len(rows)
    res.failed = sum(1 for r in rows if not r["valid"])
    if len(res.items) != len(rows):
        res.errors.append(f"row clock saw {len(res.items)} rows, "
                          f"report has {len(rows)}")


class Expand:
    """Construction chain on four configs, each with a JSON round trip."""

    name = "expand"

    def __init__(self, delta):
        self.delta = delta

    def prepare(self, tmp: Path):
        return {"tmp": tmp, "configs": {
            name: load_config(write_config(tmp, name, self.delta))
            for name in FIXTURES}}

    def run(self, state):
        builds = {}
        for name, (coeffs, run) in state["configs"].items():
            path = state["tmp"] / f"{name}.artifact.json"
            t0 = time.perf_counter()
            try:
                art = harness.build_expansion(coeffs, run)
            except Exception:                  # a failed build is counted
                builds[name] = traceback.format_exc()
                continue
            took = time.perf_counter() - t0
            harness.save_artifact(art, path)
            builds[name] = (took, art, harness.load_artifact(path), path)
        return builds

    def collect(self, state, builds, clock):
        res = PassResult(attempted=len(builds))
        for name, build in builds.items():
            if isinstance(build, str):
                res.failed += 1
                res.errors.append(build)
                continue
            took, art, loaded, path = build
            res.items.append(took)
            text = json.dumps(json.loads(path.read_text()), sort_keys=True)
            again = json.dumps(harness.artifact_to_dict(loaded), sort_keys=True)
            if text != again:
                res.errors.append(f"{name}: artifact changed in a JSON round trip")
            res.outputs[name] = {"lambdas": [float(v) for v in art.lambdas]}
        return res


class Validate:
    """``beamwkb validate`` in-process on the asymmetric beam's artifact."""

    name = "validate"
    n = 2

    def __init__(self, delta):
        self.delta = delta

    def prepare(self, tmp: Path):
        coeffs, run = load_config(write_config(tmp, "asym", self.delta))
        art = harness.build_expansion(coeffs, run)
        path = tmp / "asym.artifact.json"
        harness.save_artifact(art, path)
        return {"lambdas": list(art.lambdas), "argv": [
            "validate", "--artifact", str(path), "--n", str(self.n),
            "--l", f"{VALIDATE_L[0]}:{VALIDATE_L[1]}",
            "--csv", str(tmp / "report.csv"),
            "--json", str(tmp / "report.json")],
            "csv": tmp / "report.csv", "json": tmp / "report.json"}

    def run(self, state):
        for key in ("csv", "json"):
            state[key].unlink(missing_ok=True)
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(state["argv"])

    def collect(self, state, code, clock):
        res = PassResult()
        if code != 0:
            clock.take_rows()
            res.attempted = res.failed = VALIDATE_L[1] - VALIDATE_L[0] + 1
            res.errors.append(f"beamwkb validate exited with {code}")
            return res
        report = json.loads(state["json"].read_text())
        _sweep_accounting(res, report["rows"], clock)
        csv_lines = state["csv"].read_text().splitlines()
        if csv_lines[0] != harness.CSV_HEADER or \
                len(csv_lines) != 1 + res.attempted - res.failed:
            res.errors.append("CSV report does not match the JSON report")
        res.outputs = _report_outputs(state["lambdas"], report["rows"],
                                      report["fits"])
        return res


def run_pass(workload, state, clock, tracer=None):
    """One pass: the timed ``run`` (traced when a tracer is given), then the
    untimed ``collect`` of its outputs."""
    restore = tracer.install() if tracer else None
    t0 = time.perf_counter()
    try:
        raw = workload.run(state)
    finally:
        wall = time.perf_counter() - t0
        if restore:
            restore()
    res = workload.collect(state, raw, clock)
    res.wall, res.tracer = wall, tracer
    return res


WORKLOADS = {w.name: w for w in (Expand, Validate)}
