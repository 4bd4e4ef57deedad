"""Construction chain, oracle sweeps, rate fits and report emission.

``build_expansion`` runs the chain lambda0 -> v0 -> quantization -> f0,
then one step per order i >= 1: interface data -> lambda_i -> v_i ->
f_{i-1}, recording any term that a degenerate configuration makes
unavailable instead of aborting the whole build.  The outer terms live in
one ``outer.OuterChain``, which ends with the build.
``run_convergence`` compares truncations against the direct solver along
the quantized sequence and fits decay rates.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import hermite, inner, oracle, outer
from .hermite import HermiteFunction
from .model import (CoefficientSet, ConfigError, RunSpec, config_from_dict,
                    config_to_dict)

SCHEMA_VERSION = 3
WINDOW_FRACTION = 0.2         # fit window of run_convergence
GAP_RESIDUAL_FACTOR = 10.0
CSV_COLUMNS = ("l", "epsilon", "lambda_asym", "lambda_oracle", "abs_err",
               "gap", "kappa", "l2_outer_left", "l2_outer_right", "l2_inner")
CSV_HEADER = ",".join(CSV_COLUMNS)


class ExpansionError(RuntimeError):
    """A chain stage failed for a reason other than recorded degeneracy."""


@dataclass
class ExpansionArtifact:
    """Per order lambda_i, the outer terms v_i on (a, 0) and (0, b) and the
    (beta, h) of the inner f_i: all the validation stage reads, as JSON.

    ``phase`` and ``series`` are caches that ``ensure_phase`` fills: the
    phase data and the chopped Chebyshev series of S, alpha and each
    beta_i + h_i (``inner.inner_series``), which every inner evaluation
    reads.  A series that reaches no plateau on the grid (in a file
    written without the build's check) raises ExpansionError there."""

    coeffs: CoefficientSet
    run: RunSpec
    lambdas: list
    outer_left: list                 # HermiteFunction per order
    outer_right: list                # HermiteFunction or None per order
    f_beta: list                     # (4,) arrays per inner order
    f_h: list                        # (4, N) arrays per inner order
    l0: int
    S1: float
    alpha1: float
    diagnostics: dict = field(default_factory=dict)
    phase: object = None             # PhaseData cache, filled by ensure_phase
    series: object = None            # (2 + 4 (N + 1), m) array, likewise

    # ------------------------------------------------------------------
    @property
    def n_max(self):
        return len(self.lambdas) - 1

    def ensure_phase(self):
        if self.phase is None:
            self.phase = inner.compute_phase(
                self.coeffs, self.lambdas[0],
                self.lambdas[1] if len(self.lambdas) > 1 else
                self.diagnostics["lambda1"], self.run.inner_grid)
        if self.series is None:
            series, unresolved = inner.inner_series(
                inner.phase_series(self.phase), zip(self.f_beta, self.f_h))
            _require_resolved(unresolved, self.run)
            self.series = series
        return self.phase

    def epsilon(self, l: int):
        return inner.epsilon_l(self.S1, self.alpha1, self.run.delta, l)

    def lambda_trunc(self, eps: float, n: int):
        if n > self.n_max:
            raise inner.MissingDataError(f"lambda_{n} not in artifact")
        return float(sum(self.lambdas[i] * eps ** i for i in range(n + 1)))

    def outer_value(self, x, eps: float, n: int):
        """Truncated outer expansion at points x (vectorized).

        The terms of one side share its mesh, so the sum is one Hermite
        function per side, with nodal data sum_i eps^i v_i.
        """
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        left = x < 0.0
        for mask, terms, side in ((left, self.outer_left, "(a, 0)"),
                                  (~left, self.outer_right, "(0, b)")):
            if not np.any(mask):
                continue
            terms = [terms[i] for i in range(n + 1)]
            for i, v in enumerate(terms):
                if v is None:
                    raise inner.MissingDataError(
                        f"order-{i} outer term unavailable on {side}")
            out[mask] = HermiteFunction(
                terms[0].nodes,
                sum(eps ** i * v.values for i, v in enumerate(terms)),
                sum(eps ** i * v.slopes for i, v in enumerate(terms)),
            )(x[mask])
        return out

    def inner_value(self, xi, eps: float, n: int):
        """Truncated inner expansion at stretched points xi."""
        if n >= len(self.f_beta):
            raise inner.MissingDataError(f"inner term f_{n} not in artifact")
        phase = self.ensure_phase()
        return inner.evaluate_inner(phase, self.series[:2 + 4 * (n + 1)],
                                    eps, xi)


def _require_resolved(unresolved, run: RunSpec):
    """Raise ExpansionError naming the inner series that reach no plateau."""
    if unresolved:
        raise ExpansionError(
            f"inner series {', '.join(unresolved)} not resolved on "
            f"inner_grid = {run.inner_grid} Chebyshev nodes: their "
            "coefficients reach no plateau; raise inner_grid")


def build_expansion(coeffs: CoefficientSet, run: RunSpec) -> ExpansionArtifact:
    """Run the construction chain to order run.n_max.

    Each order i = 1..n_max is one step: boundary_data, solve_correction,
    then f_{i-1} by transport (f0 comes from solve_f0).  The outer half
    (``outer.OuterChain``: the terms (lambda_i, v_i), their endpoint
    tables and what the orders share) lives only in this call.  A
    lambda0 that is not positive raises ExpansionError before the phase
    is built.  Terms that a multiple limit eigenvalue makes unsolvable
    (right-interval resonance with nonzero data) are recorded as missing;
    the eigenvalue chain continues as long as its left-interface data
    exist.  Every inner grid function (S, alpha, each h_i) must be
    resolved on ``run.inner_grid`` nodes: one whose Chebyshev series
    reaches no plateau raises ExpansionError, for S and alpha as soon as
    the phase is built.
    """
    chain = outer.solve_three_point_eigen(
        outer.OuterChain(coeffs, run.outer_grid, run.n_max), run.mode_index)
    if chain.lambdas[0] <= 0.0:
        raise ExpansionError(
            f"selected limit eigenvalue {chain.lambdas[0]!r} is not positive")
    lam1 = outer.compute_lambda1(chain)
    phase = inner.compute_phase(coeffs, chain.lambdas[0], lam1, run.inner_grid)
    head = inner.phase_series(phase)
    _require_resolved(inner.inner_series(head, [])[1], run)
    l0, det_G_delta = inner.quantize(phase, run.delta, run.l_range)

    f_terms = [inner.solve_f0(phase, run.delta, chain.vpp_minus0)]
    for i in range(1, run.n_max + 1):
        try:
            bd = inner.boundary_data(i, chain.tables, phase, f_terms, run.delta)
            outer.solve_correction(chain, i, bd["V_minus"], bd["V_plus"],
                                   bd["W_minus"], bd["W_plus"])
        except (outer.SolvabilityError, inner.MissingDataError) as exc:
            raise ExpansionError(f"construction stage {i}: {exc}") from exc
        if i == 1:
            continue                  # f0 is the leading inner coefficient
        # next inner coefficient f_{i-1}
        try:
            sigma = inner.transport_sigma(phase, i - 1, f_terms, chain.tables,
                                          run.delta)
            w_stack = inner.make_w_stack(phase, i, list(f_terms),
                                         list(chain.lambdas))
            f_terms.append(inner.transport_solve(
                phase, run.delta, sigma, w_stack=w_stack))
        except inner.MissingDataError as exc:
            raise ExpansionError(
                f"inner coefficient f_{i - 1} at stage {i}: {exc}") from exc
    series, unresolved = inner.inner_series(
        head, [(f.beta, f.h) for f in f_terms])
    _require_resolved(unresolved, run)

    diagnostics = {
        "lambda1": lam1,
        "gap_left": chain.gap_left,
        "gap_right": chain.gap_right,
        "degenerate_right": chain.degenerate_right,
        "det_G_delta": det_G_delta,
        "eikonal_residual": phase.eikonal_residual(),
        "solvability_residuals": chain.residuals,
        "notes": chain.notes,
    }
    return ExpansionArtifact(
        coeffs=coeffs, run=run, lambdas=chain.lambdas,
        outer_left=chain.terms[-1], outer_right=chain.terms[+1],
        f_beta=[f.beta for f in f_terms],
        f_h=[f.h for f in f_terms],
        l0=l0, S1=phase.S1, alpha1=phase.alpha1,
        diagnostics=diagnostics, phase=phase, series=series,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fn_to_dict(fn):
    if fn is None:
        return None
    return {"values": fn.values.tolist(), "slopes": fn.slopes.tolist()}


def _fn_from_dict(d, nodes, where):
    if d is None:
        return None
    values, slopes = np.array(d["values"]), np.array(d["slopes"])
    if values.shape != nodes.shape or slopes.shape != nodes.shape:
        raise ValueError(f"{where} holds {values.size} values and "
                         f"{slopes.size} slopes on a mesh of {nodes.size} nodes")
    return HermiteFunction(nodes, values, slopes)


def artifact_to_dict(art: ExpansionArtifact) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config_to_dict(art.coeffs, art.run),
        "lambdas": list(map(float, art.lambdas)),
        "outer_left": [_fn_to_dict(f) for f in art.outer_left],
        "outer_right": [_fn_to_dict(f) for f in art.outer_right],
        "f_beta": [b.tolist() for b in art.f_beta],
        "f_h": [h.tolist() for h in art.f_h],
        "l0": art.l0,
        "S1": art.S1, "alpha1": art.alpha1,
        "diagnostics": art.diagnostics,
    }


def artifact_from_dict(data: dict) -> ExpansionArtifact:
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {data.get('schema_version')}")
    coeffs, run = config_from_dict(data["config"])
    # each side's terms on the one mesh the config gives that side
    outer_left, outer_right = (
        [_fn_from_dict(d, nodes, f"{key}[{i}]") for i, d in enumerate(data[key])]
        for key, nodes in zip(("outer_left", "outer_right"),
                              outer.interval_nodes(coeffs, run.outer_grid)))
    return ExpansionArtifact(
        coeffs=coeffs, run=run, lambdas=list(data["lambdas"]),
        outer_left=outer_left, outer_right=outer_right,
        f_beta=[np.array(b) for b in data["f_beta"]],
        f_h=[np.array(h) for h in data["f_h"]],
        l0=int(data["l0"]),
        S1=float(data["S1"]), alpha1=float(data["alpha1"]),
        diagnostics=dict(data.get("diagnostics", {})),
    )


def save_artifact(art: ExpansionArtifact, path):
    with open(path, "w") as fh:
        fh.write(json.dumps(artifact_to_dict(art)) + "\n")


def load_artifact(path) -> ExpansionArtifact:
    with open(path) as fh:
        return artifact_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def _log_points(eps_values, err_values):
    """(log eps, log err) over the rows with a positive finite error;
    raises ValueError below the 4 rows a rate fit needs."""
    eps_values = np.asarray(eps_values, float)
    err_values = np.asarray(err_values, float)
    mask = (err_values > 0) & np.isfinite(err_values)
    if mask.sum() < 4:
        raise ValueError(f"rate fit needs >= 4 valid rows, got {int(mask.sum())}")
    return np.log(eps_values[mask]), np.log(err_values[mask])


def fit_rate(eps_values, err_values):
    """Least-squares slope of log(err) against log(eps).

    Returns (slope, intercept, rms_residual); requires at least 4 points.
    """
    x, y = _log_points(eps_values, err_values)
    A = np.vstack([x, np.ones_like(x)]).T
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    res = y - A @ sol
    return float(sol[0]), float(sol[1]), float(np.sqrt(np.mean(res ** 2)))


def drop_one_spread(eps_values, err_values):
    """Max change of the fitted slope when any single row is removed.

    Closed form from centered sums: removing point i moves the slope b by
    -dx_i r_i / (Sxx (1 - h_i)), with dx_i its centered abscissa, r_i its
    residual and h_i = 1/n + dx_i^2 / Sxx its leverage.  A removal that
    would leave fewer than 4 points is skipped, as is a row without a
    positive finite error (removing it changes nothing).
    """
    x, y = _log_points(eps_values, err_values)
    n = x.size
    if n < 5:
        return 0.0
    dx = x - x.mean()
    dy = y - y.mean()
    sxx = dx @ dx
    r = dy - (dx @ dy / sxx) * dx
    return float(np.max(np.abs(dx * r) / ((n - 1) / n * sxx - dx ** 2)))


# ---------------------------------------------------------------------------
# oracle comparison sweep
# ---------------------------------------------------------------------------

@dataclass
class ValidationReport:
    n: int
    rows: list
    fits: dict
    window: dict
    config: dict

    def valid_rows(self):
        return [r for r in self.rows if r["valid"]]


def compare_eigenfunction(art: ExpansionArtifact, prob, result, eps, n):
    """kappa estimate and L2 errors of the order-n truncations vs the oracle.

    kappa projects the oracle eigenvector onto the composite approximation
    (outer orders <= n; inner orders <= n + 2 where available, matching the
    composite truncation) in the weighted inner product.  The three L2
    columns compare the order-n sums region by region; a column whose
    terms a degenerate configuration ruled out comes back as NaN.
    """
    asm = prob.asm
    xf = asm.x.ravel()
    wf = asm.w.ravel()
    rho_w = asm.rho_w.ravel()
    u = result.gauss_values.ravel()
    left = xf < -eps
    right = xf > eps
    mid = ~(left | right)

    n_avail = len(art.f_beta)
    n_inner_pad = min(n + 2, n_avail - 1)

    # regionwise truncation values; None marks unavailable data
    def safe(fn, *a):
        try:
            return fn(*a)
        except inner.MissingDataError:
            return None

    V_left = safe(art.outer_value, xf[left], eps, n)
    V_right = safe(art.outer_value, xf[right], eps, n)
    V_mid_pad = safe(art.inner_value, xf[mid] / eps, eps, n_inner_pad)
    V_mid_n = V_mid_pad if n_inner_pad == n else \
        safe(art.inner_value, xf[mid] / eps, eps, n) if n < n_avail else None

    num = 0.0
    den = 0.0
    for mask, V in ((left, V_left), (right, V_right), (mid, V_mid_pad)):
        if V is None:
            continue
        num += float(np.sum(rho_w[mask] * u[mask] * V))
        den += float(np.sum(rho_w[mask] * V * V))
    kappa = num / den if den > 0 else np.nan

    def l2(mask, V, stretch=1.0):
        if V is None or not math.isfinite(kappa):
            return np.nan
        return math.sqrt(float(np.sum(wf[mask] * (u[mask] - kappa * V) ** 2))
                         / stretch)

    return (kappa, l2(left, V_left), l2(right, V_right),
            l2(mid, V_mid_n, stretch=eps))


def check_order(n: int, n_max: int):
    """Reject a truncation order outside the built orders 0..n_max."""
    if not 0 <= n <= n_max:
        raise ConfigError(f"truncation order n={n} outside 0..{n_max}")


def run_convergence(art: ExpansionArtifact, n: int, l_values=None,
                    refine=1.0) -> ValidationReport:
    """Oracle sweep along the quantized sequence with rate fits at order n.

    Each row solves the direct problem at eps_l targeting the highest
    available truncation, then reports |lambda_oracle - lambda_trunc(n)|,
    the flanking gap, kappa and the L2 comparison columns.  Fits use the
    asymptotic window only: eps_l <= WINDOW_FRACTION * min(-a, b) and
    oracle gap exceeding GAP_RESIDUAL_FACTOR times the residual scale.

    Rows are mutually independent (safe to parallelize over l); the report
    itself is a deterministic reduction ordered by l.
    """
    run = art.run
    check_order(n, art.n_max)
    if l_values is None:
        l_values = range(max(run.l_range[0], art.l0), run.l_range[1] + 1)
    art.ensure_phase()
    target_n = art.n_max
    eps_max = WINDOW_FRACTION * min(-art.coeffs.a, art.coeffs.b)
    v0 = art.outer_left[0]

    rows = []
    for l in l_values:
        row = {"l": int(l), "valid": False, "in_window": False,
               "exclude_reason": ""}
        rows.append(row)
        try:
            eps = art.epsilon(l)
        except ValueError as exc:
            row["exclude_reason"] = str(exc)
            continue
        row["epsilon"] = eps
        row["lambda_asym"] = art.lambda_trunc(eps, n)
        target = art.lambda_trunc(eps, target_n)
        try:
            prob = oracle.assemble(art.coeffs, eps, art.S1, refine=refine)
            res = oracle.solve_near(prob, target)
            res = oracle.normalize_weighted(res, prob, v0)
        except (oracle.ModeCaptureError, oracle.MeshResolutionError,
                oracle.OracleInputError, hermite.EigenConvergenceError) as exc:
            row["exclude_reason"] = f"{type(exc).__name__}: {exc}"
            continue
        row["lambda_oracle"] = res.eigenvalue
        row["abs_err"] = abs(res.eigenvalue - row["lambda_asym"])
        row["gap"] = res.gap
        row["residual"] = res.residual
        row["sign_correlation"] = res.sign_correlation
        try:
            kappa, l2l, l2r, l2i = compare_eigenfunction(art, prob, res, eps, n)
        except inner.MissingDataError as exc:
            kappa, l2l, l2r, l2i = np.nan, np.nan, np.nan, np.nan
            row["exclude_reason"] = f"composite unavailable: {exc}"
        row["kappa"] = kappa
        row["l2_outer_left"] = l2l
        row["l2_outer_right"] = l2r
        row["l2_inner"] = l2i
        row["valid"] = True
        row["in_window"] = (eps <= eps_max and
                            res.gap > GAP_RESIDUAL_FACTOR * res.residual *
                            abs(res.eigenvalue))

    fits = {}
    wrows = [r for r in rows if r["valid"] and r["in_window"]]
    if len(wrows) >= 4:
        es = np.array([r["epsilon"] for r in wrows])
        for key in ("abs_err", "gap", "l2_outer_left", "l2_outer_right",
                    "l2_inner"):
            vals = np.array([r.get(key, np.nan) for r in wrows], dtype=float)
            ok = np.isfinite(vals) & (vals > 0)
            if ok.sum() >= 4:
                slope, intercept, resid = fit_rate(es[ok], vals[ok])
                fits[key] = {
                    "slope": slope, "intercept": intercept,
                    "rms_log_residual": resid, "n_rows": int(ok.sum()),
                    "drop_one_spread": drop_one_spread(es[ok], vals[ok]),
                }
    window = {"eps_max": eps_max, "gap_residual_factor": GAP_RESIDUAL_FACTOR,
              "n_window_rows": len(wrows)}
    return ValidationReport(n=n, rows=rows, fits=fits, window=window,
                            config=config_to_dict(art.coeffs, art.run))


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------

def _csv_cell(value):
    if value is None or (isinstance(value, float) and not math.isfinite(value)):
        return "nan"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def emit_report(report: ValidationReport, fmt: str, path):
    """Write the report as CSV (one row per valid l) or JSON (full)."""
    if fmt == "csv":
        lines = [CSV_HEADER]
        for r in report.valid_rows():
            lines.append(",".join(_csv_cell(r.get(key)) for key in CSV_COLUMNS))
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    elif fmt == "json":
        payload = {
            "schema_version": SCHEMA_VERSION,
            "config": report.config,
            "n": report.n,
            "rows": _jsonable(report.rows),
            "fits": _jsonable(report.fits),
            "window": _jsonable(report.window),
        }
        with open(path, "w") as fh:
            fh.write(json.dumps(payload) + "\n")
    else:
        raise ValueError(f"unknown report format {fmt!r}")


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if math.isfinite(v) else None
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return _jsonable(obj.tolist())
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj
