"""Construction chain, oracle sweeps, rate fits and report emission.

``build_expansion`` runs the chain
lambda0 -> v0 -> lambda1 -> v1 -> quantization -> f0 -> ... ->
lambda_i -> v_i -> f_{i-1}, recording any term that a degenerate
configuration makes unavailable instead of aborting the whole build.
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
from .model import CoefficientSet, RunSpec, config_from_dict, config_to_dict

SCHEMA_VERSION = 1
WINDOW_FRACTION = 0.2         # fit window of run_convergence
GAP_RESIDUAL_FACTOR = 10.0
CSV_HEADER = ("l,epsilon,lambda_asym,lambda_oracle,abs_err,gap,kappa,"
              "l2_outer_left,l2_outer_right,l2_inner")


class ExpansionError(RuntimeError):
    """A chain stage failed for a reason other than recorded degeneracy."""


@dataclass
class ExpansionArtifact:
    """Everything the validation stage needs, JSON-serializable."""

    coeffs: CoefficientSet
    run: RunSpec
    lambdas: list
    outer_left: list                 # HermiteFunction per order
    outer_right: list                # HermiteFunction or None per order
    tables_minus: list               # derivative tables (np arrays) per order
    tables_plus: list                # arrays or None
    f_beta: list                     # (4,) arrays per inner order
    f_h: list                        # (4, N) arrays per inner order
    delta: float
    l0: int
    S1: float
    alpha1: float
    inner_nodes: np.ndarray
    diagnostics: dict = field(default_factory=dict)
    # live objects, present when built in-process (not serialized)
    mode: object = None
    corrections: list = None
    phase: object = None
    quant: object = None
    f_terms: list = None

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
        if self.f_terms is None:
            self.f_terms = [
                inner.InnerCoefficient(i, self.phase, b, h=h)
                for i, (b, h) in enumerate(zip(self.f_beta, self.f_h))]
        return self.phase

    def epsilon(self, l: int):
        den = self.delta + 2.0 * math.pi * l - self.alpha1
        if den <= 0.0:
            raise ValueError(f"epsilon denominator not positive at l={l}")
        return self.S1 / den

    def lambda_trunc(self, eps: float, n: int):
        if n > self.n_max:
            raise inner.MissingDataError(f"lambda_{n} not in artifact")
        return float(sum(self.lambdas[i] * eps ** i for i in range(n + 1)))

    def outer_value(self, x, eps: float, n: int):
        """Truncated outer expansion at points x (vectorized)."""
        x = np.asarray(x, dtype=float)
        out = np.zeros_like(x)
        left = x < 0.0
        for i in range(n + 1):
            if np.any(left):
                out[left] += eps ** i * self.outer_left[i](x[left])
            if np.any(~left):
                vr = self.outer_right[i]
                if vr is None:
                    raise inner.MissingDataError(
                        f"order-{i} outer term unavailable on (0, b)")
                out[~left] += eps ** i * vr(x[~left])
        return out

    def inner_value(self, xi, eps: float, n: int):
        """Truncated inner expansion at stretched points xi."""
        self.ensure_phase()
        n_terms = n + 1
        if n_terms > len(self.f_terms):
            raise inner.MissingDataError(
                f"inner term f_{n_terms - 1} not in artifact")
        return inner.evaluate_inner(self.phase, self.f_terms, eps, xi,
                                    n_terms=n_terms)


def build_expansion(coeffs: CoefficientSet, run: RunSpec) -> ExpansionArtifact:
    """Run the construction chain to order run.n_max.

    Terms that a multiple limit eigenvalue makes unsolvable (right-interval
    resonance with nonzero data) are recorded as missing; the eigenvalue
    chain continues as long as its left-interface data exist.
    """
    tol = run.tolerances
    mode = outer.solve_three_point_eigen(
        coeffs, run.mode_index, outer_grid=run.outer_grid,
        gap_min_rel=tol["gap_min_rel"], table_depth=run.n_max + 5)
    lam1 = outer.compute_lambda1(mode)
    phase = inner.compute_phase(coeffs, mode.lambda0, lam1, run.inner_grid)
    quant = inner.quantize(phase, run.delta, run.l_range, guard=tol["guard"])

    if mode.lambda0 <= 0.0:
        raise ExpansionError(
            f"selected limit eigenvalue {mode.lambda0!r} is not positive")
    lambdas = [mode.lambda0]
    corrections = []
    f_terms = [inner.solve_f0(phase, run.delta, mode.vpp_minus0)]
    notes = {}
    if run.n_max >= 1:
        lambdas.append(lam1)
        corrections.append(outer.solve_v1(mode, table_depth=run.n_max + 5))
    if run.n_max <= 1:
        mode.factors.clear()          # no outer order left: free the LUs
    for i in range(2, run.n_max + 1):
        try:
            bd = outer.boundary_data(i, mode, corrections, phase, f_terms,
                                     run.delta)
            term = outer.solve_correction(
                mode, i, lambdas, corrections,
                bd["V_minus"], bd["V_plus"], bd["W_minus"], bd["W_plus"],
                table_depth=run.n_max + 5)
        except (outer.SolvabilityError, inner.MissingDataError) as exc:
            raise ExpansionError(f"construction stage {i}: {exc}") from exc
        if i == run.n_max:
            mode.factors.clear()      # no outer order left: free the LUs
        lambdas.append(term.lambda_i)
        corrections.append(term)
        if term.right_skip_reason:
            notes[f"right_order_{i}"] = term.right_skip_reason
        # next inner coefficient f_{i-1}
        tables = {
            -1: [mode.endpoint_minus] + [t.endpoint_minus for t in corrections],
            +1: [mode.endpoint_plus] + [t.endpoint_plus for t in corrections],
        }
        try:
            sigma = inner.transport_sigma(phase, i - 1, f_terms, tables,
                                          run.delta)
            w_stack = inner.make_w_stack(phase, i, list(f_terms), list(lambdas))
            f_terms.append(inner.transport_solve(
                phase, run.delta, i - 1, sigma, w_stack=w_stack))
        except inner.MissingDataError as exc:
            raise ExpansionError(
                f"inner coefficient f_{i - 1} at stage {i}: {exc}") from exc

    tables_minus = [mode.endpoint_minus.derivs] + \
        [t.endpoint_minus.derivs for t in corrections]
    tables_plus = [mode.endpoint_plus.derivs] + \
        [None if t.endpoint_plus is None else t.endpoint_plus.derivs
         for t in corrections]
    diagnostics = {
        "lambda1": lam1,
        "gap_left": mode.gap_left,
        "gap_right": mode.gap_right,
        "degenerate_right": mode.degenerate_right,
        "det_G_delta": quant.det_G_delta,
        "eikonal_residual": phase.eikonal_residual(),
        "solvability_residuals": [t.solvability_residual for t in corrections],
        "notes": notes,
    }
    return ExpansionArtifact(
        coeffs=coeffs, run=run, lambdas=lambdas,
        outer_left=[mode.v_left] + [t.v_left for t in corrections],
        outer_right=[mode.v_right] + [t.v_right for t in corrections],
        tables_minus=tables_minus, tables_plus=tables_plus,
        f_beta=[f.beta for f in f_terms],
        f_h=[f.h for f in f_terms],
        delta=run.delta, l0=quant.l0, S1=phase.S1, alpha1=phase.alpha1,
        inner_nodes=phase.nodes, diagnostics=diagnostics,
        mode=mode, corrections=corrections, phase=phase, quant=quant,
        f_terms=f_terms,
    )


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fn_to_dict(fn):
    if fn is None:
        return None
    return {"nodes": fn.nodes.tolist(), "values": fn.values.tolist(),
            "slopes": fn.slopes.tolist()}


def _fn_from_dict(d):
    if d is None:
        return None
    return HermiteFunction(np.array(d["nodes"]), np.array(d["values"]),
                           np.array(d["slopes"]))


def artifact_to_dict(art: ExpansionArtifact) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "config": config_to_dict(art.coeffs, art.run),
        "lambdas": list(map(float, art.lambdas)),
        "outer_left": [_fn_to_dict(f) for f in art.outer_left],
        "outer_right": [_fn_to_dict(f) for f in art.outer_right],
        "tables_minus": [np.asarray(t, float).tolist() for t in art.tables_minus],
        "tables_plus": [None if t is None else np.asarray(t, float).tolist()
                        for t in art.tables_plus],
        "f_beta": [b.tolist() for b in art.f_beta],
        "f_h": [h.tolist() for h in art.f_h],
        "delta": art.delta, "l0": art.l0,
        "S1": art.S1, "alpha1": art.alpha1,
        "inner_nodes": art.inner_nodes.tolist(),
        "diagnostics": art.diagnostics,
    }


def artifact_from_dict(data: dict) -> ExpansionArtifact:
    if data.get("schema_version") != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {data.get('schema_version')}")
    coeffs, run = config_from_dict(data["config"])
    return ExpansionArtifact(
        coeffs=coeffs, run=run, lambdas=list(data["lambdas"]),
        outer_left=[_fn_from_dict(d) for d in data["outer_left"]],
        outer_right=[_fn_from_dict(d) for d in data["outer_right"]],
        tables_minus=[np.array(t) for t in data["tables_minus"]],
        tables_plus=[None if t is None else np.array(t)
                     for t in data["tables_plus"]],
        f_beta=[np.array(b) for b in data["f_beta"]],
        f_h=[np.array(h) for h in data["f_h"]],
        delta=float(data["delta"]), l0=int(data["l0"]),
        S1=float(data["S1"]), alpha1=float(data["alpha1"]),
        inner_nodes=np.array(data["inner_nodes"]),
        diagnostics=dict(data.get("diagnostics", {})),
    )


def save_artifact(art: ExpansionArtifact, path):
    with open(path, "w") as fh:
        json.dump(artifact_to_dict(art), fh)
        fh.write("\n")


def load_artifact(path) -> ExpansionArtifact:
    with open(path) as fh:
        return artifact_from_dict(json.load(fh))


# ---------------------------------------------------------------------------
# rate fitting
# ---------------------------------------------------------------------------

def fit_rate(eps_values, err_values):
    """Least-squares slope of log(err) against log(eps).

    Returns (slope, intercept, rms_residual); requires at least 4 points.
    """
    eps_values = np.asarray(eps_values, float)
    err_values = np.asarray(err_values, float)
    mask = (err_values > 0) & np.isfinite(err_values)
    if mask.sum() < 4:
        raise ValueError(f"rate fit needs >= 4 valid rows, got {int(mask.sum())}")
    x = np.log(eps_values[mask])
    y = np.log(err_values[mask])
    A = np.vstack([x, np.ones_like(x)]).T
    sol, *_ = np.linalg.lstsq(A, y, rcond=None)
    res = y - A @ sol
    return float(sol[0]), float(sol[1]), float(np.sqrt(np.mean(res ** 2)))


def drop_one_spread(eps_values, err_values):
    """Max change of the fitted slope when any single row is removed."""
    eps_values = np.asarray(eps_values, float)
    err_values = np.asarray(err_values, float)
    base, _, _ = fit_rate(eps_values, err_values)
    spread = 0.0
    for i in range(eps_values.size):
        sub = np.ones(eps_values.size, bool)
        sub[i] = False
        try:
            s, _, _ = fit_rate(eps_values[sub], err_values[sub])
        except ValueError:
            continue
        spread = max(spread, abs(s - base))
    return spread


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

    def window_rows(self):
        return [r for r in self.rows if r["valid"] and r["in_window"]]


def compare_eigenfunction(art: ExpansionArtifact, prob, result, eps, n):
    """kappa estimate and L2 errors of the order-n truncations vs the oracle.

    kappa projects the oracle eigenvector onto the composite approximation
    (outer orders <= n; inner orders <= n + 2 where available, matching the
    composite truncation) in the weighted inner product.  The three L2
    columns compare the order-n sums region by region; a column whose
    terms a degenerate configuration ruled out comes back as NaN.
    """
    art.ensure_phase()
    xg, wg = hermite.gauss_points(prob.nodes)
    xf = xg.ravel()
    wf = wg.ravel()
    u = result.eigenfunction(xf)
    left = xf < -eps
    right = xf > eps
    mid = ~(left | right)

    n_avail = len(art.f_terms)
    n_inner_pad = min(n + 2, n_avail - 1)

    # regionwise truncation values; None marks unavailable data
    def safe(fn, *a):
        try:
            return fn(*a)
        except inner.MissingDataError:
            return None

    V_left = safe(lambda xs: art.outer_value(xs, eps, n), xf[left])
    V_right = safe(lambda xs: art.outer_value(xs, eps, n), xf[right])
    V_mid_pad = safe(lambda xs: art.inner_value(xs / eps, eps, n_inner_pad),
                     xf[mid])
    V_mid_n = V_mid_pad if n_inner_pad == n else \
        safe(lambda xs: art.inner_value(xs / eps, eps, n), xf[mid]) \
        if n < n_avail else None

    scale = eps ** (-float(art.coeffs.m))
    rho = np.where(np.abs(xf) < eps, scale * art.coeffs.q_at(xf / eps),
                   art.coeffs.p_at(xf))
    num = 0.0
    den = 0.0
    for mask, V in ((left, V_left), (right, V_right), (mid, V_mid_pad)):
        if V is None:
            continue
        num += float(np.sum(wf[mask] * rho[mask] * u[mask] * V))
        den += float(np.sum(wf[mask] * rho[mask] * V * V))
    kappa = num / den if den > 0 else np.nan

    def l2(mask, V, stretch=1.0):
        if V is None or not math.isfinite(kappa):
            return np.nan
        return math.sqrt(float(np.sum(wf[mask] * (u[mask] - kappa * V) ** 2))
                         / stretch)

    return (kappa, l2(left, V_left), l2(right, V_right),
            l2(mid, V_mid_n, stretch=eps))


def run_convergence(art: ExpansionArtifact, n: int, l_values=None,
                    nodes_per_wavelength=None, outer_h=None, refine=1.0,
                    k: int = 6,
                    compare_functions: bool = True) -> ValidationReport:
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
    npw = nodes_per_wavelength or run.oracle_nodes_per_wavelength
    oh = outer_h or run.oracle_outer_h
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
            prob = oracle.assemble(art.coeffs, eps, art.S1,
                                   nodes_per_wavelength=npw, outer_h=oh,
                                   refine=refine)
            res = oracle.solve_near(prob, target, k=k)
            res = oracle.normalize_weighted(res, prob, lambda x: v0(x))
        except (oracle.ModeCaptureError, oracle.MeshResolutionError,
                oracle.OracleInputError, hermite.EigenConvergenceError) as exc:
            row["exclude_reason"] = f"{type(exc).__name__}: {exc}"
            continue
        row["lambda_oracle"] = res.eigenvalue
        row["abs_err"] = abs(res.eigenvalue - row["lambda_asym"])
        row["gap"] = res.gap
        row["residual"] = res.residual
        row["sign_correlation"] = res.sign_correlation
        if compare_functions:
            try:
                kappa, l2l, l2r, l2i = compare_eigenfunction(
                    art, prob, res, eps, n)
            except inner.MissingDataError as exc:
                kappa, l2l, l2r, l2i = np.nan, np.nan, np.nan, np.nan
                row["exclude_reason"] = f"composite unavailable: {exc}"
            row["kappa"] = kappa
            row["l2_outer_left"] = l2l
            row["l2_outer_right"] = l2r
            row["l2_inner"] = l2i
        else:
            row["kappa"] = np.nan
            row["l2_outer_left"] = np.nan
            row["l2_outer_right"] = np.nan
            row["l2_inner"] = np.nan
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
            lines.append(",".join(_csv_cell(r.get(key)) for key in (
                "l", "epsilon", "lambda_asym", "lambda_oracle", "abs_err",
                "gap", "kappa", "l2_outer_left", "l2_outer_right",
                "l2_inner")))
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
            json.dump(payload, fh)
            fh.write("\n")
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
