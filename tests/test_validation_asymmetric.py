"""Rate validation on configurations with a simple limit eigenvalue.

The acceptance configuration is mirror-symmetric and its limit eigenvalue
is double, which caps the eigenvalue rate at order two and mixes the
oracle eigenfunctions across the interface.  These tests rerun the same
quantities on asymmetric intervals (simple limit eigenvalue), where the
full n + 1 decay and the eigenfunction estimates hold as claimed.
"""

import numpy as np
import pytest

from beamwkb import fit_rate, oracle, run_convergence
from dense_forms import (drop_one_spread_loop, inner_product,
                         window_fe_errors, window_rows)


@pytest.fixture(scope="module")
def asym_reports(asym_artifact):
    ls = range(20, 57, 4)
    return {n: run_convergence(asym_artifact, n, l_values=ls)
            for n in (0, 1, 2)}


def test_eigenvalue_rates_to_order_two(asym_reports):
    slopes = {n: asym_reports[n].fits["abs_err"]["slope"] for n in (0, 1, 2)}
    print("\nasymmetric eigenvalue slopes:",
          {n: round(s, 3) for n, s in slopes.items()})
    assert slopes[0] >= 0.7
    assert slopes[1] >= 1.7
    assert slopes[2] >= 2.5


@pytest.mark.parametrize("n", [0, 1, 2])
def test_window_errors_exceed_fe_error_tenfold(asym_artifact, asym_reports,
                                               n):
    # the refine-1 oracle measures the order-n truncation error only where
    # its own eigenvalue error, taken against the exact matching root, is
    # at least ten times smaller (measured: at least 7.6e3 times for n = 0
    # and 1, 234 times for n = 2)
    rows = window_fe_errors(asym_artifact.coeffs, asym_reports[n])
    assert len(rows) >= 4
    for r, fe_err in rows:
        print(f"\nl={r['l']}: n={n} abs_err {r['abs_err']:.3e}, "
              f"FE error {fe_err:.3e}")
        assert r["abs_err"] >= 10.0 * fe_err


def test_rate_fits_are_robust(asym_reports):
    for n in (0, 1, 2):
        assert asym_reports[n].fits["abs_err"]["drop_one_spread"] < 0.15


def _assert_spreads_match_refit_loop(report):
    es = np.array([r["epsilon"] for r in window_rows(report)])
    for key, fit in report.fits.items():
        vals = np.array([r[key] for r in window_rows(report)], dtype=float)
        ok = np.isfinite(vals) & (vals > 0)
        ref = drop_one_spread_loop(es[ok], vals[ok])
        assert abs(fit["drop_one_spread"] - ref) <= 1e-12


def test_drop_one_spread_matches_refit_loop_on_report_windows(
        asym_reports, variable_artifact):
    for rep in asym_reports.values():
        _assert_spreads_match_refit_loop(rep)
    rep = run_convergence(variable_artifact, 3, l_values=range(12, 45, 4))
    assert set(rep.fits) == {"abs_err", "gap", "l2_outer_left",
                             "l2_outer_right", "l2_inner"}
    _assert_spreads_match_refit_loop(rep)


def _left_norm(fn):
    return np.sqrt(inner_product(fn.nodes, fn, fn,
                                 weight_fn=lambda x: np.ones_like(x)))


def test_eigenfunction_rates(asym_artifact, asym_reports):
    # right and inner columns decay at their sharp orders; the left column
    # obeys the order-(n+1) upper bound with a constant read off the first
    # omitted term (its fitted slope approaches n+1 from below through the
    # transition zone where successive terms grow about fourfold)
    f0 = asym_reports[0].fits
    f1 = asym_reports[1].fits
    print("\nasymmetric L2 slopes n=0:",
          {k: round(v["slope"], 2) for k, v in f0.items() if k.startswith("l2")})
    print("asymmetric L2 slopes n=1:",
          {k: round(v["slope"], 2) for k, v in f1.items() if k.startswith("l2")})
    for key in ("l2_outer_right", "l2_inner"):
        assert f0[key]["slope"] >= 0.7
        assert f1[key]["slope"] >= 1.7
    assert f0["l2_outer_left"]["slope"] >= 0.7
    assert f1["l2_outer_left"]["slope"] >= 1.5
    for n in (0, 1):
        C = 2.0 * _left_norm(asym_artifact.outer_left[n + 1])
        worst = max(r["l2_outer_left"] / (C * r["epsilon"] ** (n + 1))
                    for r in window_rows(asym_reports[n]))
        assert worst <= 1.0


def test_kappa_tends_to_one(asym_reports):
    rows = window_rows(asym_reports[1])
    devs = [abs(r["kappa"] - 1.0) for r in rows]
    print("\nasymmetric |kappa - 1| by l:",
          [(r["l"], round(d, 4)) for r, d in zip(rows, devs)])
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 0.05


def test_gap_scaling_is_linear_not_quartic(asym_reports):
    # the isolation radius d eps^4 is a lower bound; the actual nearest
    # neighbor follows the local spacing, which shrinks linearly in eps
    fit = asym_reports[1].fits["gap"]
    rows = window_rows(asym_reports[1])
    margin = min(r["gap"] / r["epsilon"] ** 4 for r in rows)
    print(f"\nasymmetric gap exponent {fit['slope']:.3f}, "
          f"min gap/eps^4 = {margin:.1e}")
    assert margin > 1e2
    assert 0.5 <= fit["slope"] <= 2.0


def test_right_interval_mass_is_second_order(asym_artifact, asym_coeffs):
    # the mode's mass on (eps, b) comes from the order-2 outer term; its
    # norm must match eps^2 ||v_2|| on the right interval
    art = asym_artifact
    v2r = art.outer_right[2]
    v2_norm = _left_norm(v2r)
    for l in (20, 28):
        eps = art.epsilon(l)
        prob = oracle.assemble(asym_coeffs, eps, art.S1)
        res = oracle.solve_near(prob, art.lambda_trunc(eps, 3))
        res = oracle.normalize_weighted(res, prob,
                                        lambda x: art.outer_left[0](x))
        rmass = np.sqrt(inner_product(
            prob.nodes, res.eigenfunction, res.eigenfunction,
            lo=prob.eps, hi=None))
        assert rmass == pytest.approx(eps ** 2 * v2_norm, rel=0.2)


def test_variable_coefficient_rates_to_order_three(variable_artifact):
    # fully variable coefficients at delta = 0.3 exercise every Taylor
    # index of the graded operator algebra; the remainder drops by one
    # order per truncation step up to n = 3
    slopes = {}
    for n in (0, 1, 2, 3):
        rep = run_convergence(variable_artifact, n, l_values=range(12, 45, 4))
        slopes[n] = rep.fits["abs_err"]["slope"]
    print("\nvariable-coefficient slopes:",
          {n: round(s, 3) for n, s in slopes.items()})
    for n in (0, 1, 2, 3):
        assert slopes[n] >= n + 0.7


def test_variable_coefficient_lambda_chain(variable_artifact):
    # sanity on the chain output: five coefficients, no degeneracy notes
    art = variable_artifact
    assert len(art.lambdas) == 5
    assert art.lambdas[0] > 0 and art.lambdas[1] > 0
    assert art.diagnostics["notes"] == {}
    assert len(art.f_beta) == 4
