"""Correctness gate: outputs against the digest recorded from unchanged code.

The digest holds, per workload and per admissible delta, every lambda_i of
each artifact, lambda_oracle and abs_err of every oracle row, and the
slope of every rate fit, all at repr precision.
"""

from __future__ import annotations

import copy
import json
import math
from pathlib import Path

DIGEST_PATH = Path(__file__).resolve().parent / "digest.json"

# lambda_i and lambda_oracle: relative (absolute below magnitude 1);
# abs_err: relative to the row's lambda_oracle, whose error it is
VALUE_RTOL = 1e-9
# fitted log-log slopes: relative
SLOPE_RTOL = 1e-6


def _dev(ref, got, scale):
    if got is None or not math.isfinite(got):
        return math.inf
    return abs(got - ref) / scale


def deviations(ref: dict, got: dict, where: str = ""):
    """Yield (where, deviation, tolerance) for every number in the digest."""
    if ref.keys() != got.keys():
        yield f"{where} keys", math.inf, VALUE_RTOL
        return
    for key, r in ref.items():
        g, at = got[key], f"{where}/{key}"
        if key == "lambdas":
            if len(r) != len(g):
                yield f"{at} length", math.inf, VALUE_RTOL
                continue
            for i, (a, b) in enumerate(zip(r, g)):
                yield f"{at}/{i}", _dev(a, b, max(abs(a), 1.0)), VALUE_RTOL
        elif key == "rows":
            if r.keys() != g.keys():
                yield f"{at} keys", math.inf, VALUE_RTOL
                continue
            for l, (lam, err) in r.items():
                glam, gerr = g[l]
                yield f"{at}/{l}/lambda_oracle", _dev(lam, glam, abs(lam)), \
                    VALUE_RTOL
                yield f"{at}/{l}/abs_err", _dev(err, gerr, abs(lam)), VALUE_RTOL
        elif key == "slopes":
            if r.keys() != g.keys():
                yield f"{at} keys", math.inf, SLOPE_RTOL
                continue
            for k, s in r.items():
                yield f"{at}/{k}", _dev(s, g[k], abs(s)), SLOPE_RTOL
        else:
            yield from deviations(r, g, at)


def check(ref: dict, got: dict):
    """(passed, largest value deviation, largest slope deviation, worst place)."""
    worst = {VALUE_RTOL: 0.0, SLOPE_RTOL: 0.0}
    worst_where, worst_ratio = "", 0.0
    for where, dev, tol in deviations(ref, got):
        worst[tol] = max(worst[tol], dev)
        if dev / tol > worst_ratio:
            worst_where, worst_ratio = where, dev / tol
    return worst_ratio <= 1.0, worst[VALUE_RTOL], worst[SLOPE_RTOL], worst_where


def perturbed(outputs: dict) -> dict:
    """Copy of the outputs with one oracle eigenvalue (else one lambda_i) moved
    by a hundred times the value tolerance: the gate must reject it."""
    out = copy.deepcopy(outputs)
    node = out
    while "rows" not in node and "lambdas" not in node:
        node = node[next(iter(node))]
    if node.get("rows"):
        row = node["rows"][next(iter(node["rows"]))]
        row[0] *= 1.0 + 100.0 * VALUE_RTOL
    else:
        node["lambdas"][0] *= 1.0 + 100.0 * VALUE_RTOL
    return out


def load():
    return json.loads(DIGEST_PATH.read_text())


def delta_key(delta: float) -> str:
    return repr(float(delta))
