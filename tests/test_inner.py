import collections
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from numpy.polynomial import polynomial as P

from beamwkb import build_expansion, inner
from beamwkb.inner import T_MAT, T_POWERS
from beamwkb.model import CoefficientSet
from dense_forms import (A_entries, A_matrices, N_of_S, barycentric_eval,
                         cheb_antideriv_values_loop, cheb_diff_matrix,
                         det_g_closed_form, g_matrix, gamma_values,
                         interface_quantities, interface_tables,
                         phi_apply_at, phi_matrices, standard_chop_loop,
                         talg_apply_per_call, transport_solve_full, w_values)


@pytest.fixture(scope="module")
def uphase(uniform_artifact):
    return uniform_artifact.phase


@pytest.fixture(scope="module")
def vphase(variable_artifact):
    return variable_artifact.phase


class PolyVec:
    """Stand-in coefficient with exact polynomial components (tests only)."""

    def __init__(self, phase, polys):
        self.phase = phase
        self.polys = [np.atleast_1d(np.asarray(p, float)) for p in polys]

    def f_values(self, r=0):
        out = []
        for p in self.polys:
            d = P.polyder(p, r) if r > 0 and p.size > r else \
                (p if r == 0 else np.zeros(1))
            out.append(P.polyval(self.phase.nodes, d))
        return np.stack(out)


# ---------------------------------------------------------------------------
# structure matrices and fundamental matrix
# ---------------------------------------------------------------------------

def test_t_matrix_identities():
    assert np.array_equal(T_MAT.T, T_POWERS[3])
    assert np.array_equal(T_POWERS[3] @ T_MAT, np.eye(4))
    assert np.array_equal(T_MAT @ T_MAT @ T_MAT @ T_MAT, np.eye(4))


def test_eikonal_residual(uphase, vphase):
    assert uphase.eikonal_residual() < 1e-12
    assert vphase.eikonal_residual() < 1e-12


def test_phase_closed_forms(uniform_artifact, beam_root):
    ph = uniform_artifact.phase
    lam0, lam1 = ph.lam0, ph.lam1
    assert ph.S1 == pytest.approx(2.0 * lam0 ** 0.25, rel=1e-12)
    assert ph.S1 == pytest.approx(2.0 * beam_root, rel=1e-8)
    assert ph.alpha1 == pytest.approx(lam1 / (2.0 * lam0 ** 0.75), rel=1e-12)
    eta, theta = A_entries(ph, ph.nodes)
    assert np.max(np.abs(eta)) == 0.0
    assert np.allclose(theta, lam1 / (4.0 * lam0 ** 0.75), rtol=1e-13)


def test_fundamental_matrix_ode(vphase):
    n = vphase.nodes.size
    D = cheb_diff_matrix(n)
    Phi = phi_matrices(vphase)
    dPhi = np.einsum("ij,jkl->ikl", D, Phi)
    A = A_matrices(vphase, vphase.nodes)
    res = dPhi - np.einsum("nij,njk->nik", A, Phi)
    assert np.max(np.abs(res)) < 1e-10


def test_det_phi_closed_form(vphase):
    det = np.linalg.det(phi_matrices(vphase))
    qv = vphase.coeffs.q_at(vphase.nodes)
    expect = qv ** -1.5 * np.exp(-vphase.alpha1)
    np.testing.assert_allclose(det, expect, rtol=1e-12)


def test_phi_transpose_trace_identity(vphase):
    # Phi^t(xi) N(xi, S/eps) = q^-3/8 N(xi, gamma_eps) at every node
    Phi = phi_matrices(vphase)
    qv = vphase.coeffs.q_at(vphase.nodes)
    for eps in (0.2, 0.07):
        N = N_of_S(vphase, eps)
        lhs = np.einsum("nij,jn->in", np.transpose(Phi, (0, 2, 1)), N)
        gam = gamma_values(vphase, eps)
        g1 = vphase.gamma1(eps)
        rhs = qv ** -0.375 * np.stack([np.cos(gam), np.sin(gam),
                                       np.exp(-gam), np.exp(gam - g1)])
        assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_t_phi_commutes(vphase):
    Phi = phi_matrices(vphase)
    lhs = np.einsum("ij,njk->nik", T_MAT, np.transpose(Phi, (0, 2, 1)))
    rhs = np.einsum("nij,jk->nik", np.transpose(Phi, (0, 2, 1)), T_MAT)
    assert np.max(np.abs(lhs - rhs)) < 1e-14


# ---------------------------------------------------------------------------
# boundary system and quantization
# ---------------------------------------------------------------------------

def test_det_g_closed_form_random():
    rng = np.random.default_rng(0)
    gs = rng.uniform(1.0, 50.0, 100)
    dets = np.array([np.linalg.det(g_matrix(g)) for g in gs])
    expect = det_g_closed_form(gs)
    assert np.max(np.abs(dets - expect) / np.abs(expect)) < 1e-12


@pytest.mark.parametrize("delta", [0.0, 0.3, 1.0])
def test_det_g_delta(delta):
    det = np.linalg.det(inner.g_delta_matrix(delta))
    assert abs(det + 2.0 * math.cos(delta)) < 1e-14


def test_g_delta_degenerates_at_guard_poles():
    assert abs(np.linalg.det(inner.g_delta_matrix(math.pi / 2))) < 1e-14


def test_quantization_identity(uniform_artifact):
    ph = uniform_artifact.phase
    l0, _ = inner.quantize(ph, 0.3, (1, 60))
    ls = range(l0, 61)
    eps = np.array([inner.epsilon_l(ph.S1, ph.alpha1, 0.3, l) for l in ls])
    assert np.all(np.diff(eps) < 0.0)
    for l, e in zip(ls[:31], eps):
        gam = ph.gamma1(e)
        assert abs(gam - (0.3 + 2.0 * math.pi * l)) < 1e-12


def test_quantize_l0_rule(uniform_artifact):
    ph = uniform_artifact.phase
    l0, _ = inner.quantize(ph, 0.0, (1, 10))
    assert 0.0 + 2 * math.pi * l0 - ph.alpha1 > 0.0
    assert 0.0 + 2 * math.pi * (l0 - 1) - ph.alpha1 <= 0.0


def test_quantize_guard_and_empty_range(uniform_artifact):
    ph = uniform_artifact.phase
    with pytest.raises(inner.GuardBandError):
        inner.quantize(ph, math.pi / 2 + 0.05, (1, 10))
    with pytest.raises(ValueError, match="empty quantized range"):
        inner.quantize(ph, 0.0, (1, 1))     # l0 = 2 for the uniform beam


def test_epsilon_l_denominator(uniform_artifact):
    ph = uniform_artifact.phase
    eps = inner.epsilon_l(ph.S1, ph.alpha1, 0.3, 12)
    assert eps == ph.S1 / (0.3 + 2.0 * math.pi * 12 - ph.alpha1)
    assert uniform_artifact.epsilon(12) == inner.epsilon_l(
        ph.S1, ph.alpha1, uniform_artifact.run.delta, 12)
    with pytest.raises(ValueError, match="not positive at l=1"):
        inner.epsilon_l(1.0, 2.0 * math.pi + 0.5, 0.5, 1)     # den = 0


# ---------------------------------------------------------------------------
# leading coefficient and transport solves
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("delta", [0.0, 0.3, 1.0, 2.0])
def test_beta0_closed_form(uniform_chain, delta):
    ph = uniform_chain.art.phase
    s = uniform_chain.mode.vpp_minus0
    f0 = inner.solve_f0(ph, delta, s)
    np.testing.assert_allclose(f0.beta, inner.beta0_closed_form(ph, delta, s),
                               atol=1e-12 * abs(s))


def test_beta0_delta_zero_pattern(uniform_chain):
    ph = uniform_chain.art.phase
    s = uniform_chain.mode.vpp_minus0
    f0 = inner.solve_f0(ph, 0.0, s)
    c = 0.5 * ph.at(ph.q_38, -1) * ph.at(ph.Sp, -1) ** -2 * s
    np.testing.assert_allclose(f0.beta, c * np.array([-1.0, -1.0, 1.0, -1.0]),
                               rtol=1e-12)


def test_f0_zero_for_zero_kink(uniform_artifact):
    f0 = inner.solve_f0(uniform_artifact.phase, 0.3, 0.0)
    assert np.max(np.abs(f0.f_values(0))) == 0.0


def test_f0_boundary_system_residual(uniform_chain):
    ph = uniform_chain.art.phase
    s = uniform_chain.mode.vpp_minus0
    f0 = inner.solve_f0(ph, 0.3, s)
    g = np.array([ph.at(ph.q_38, -1) * ph.at(ph.Sp, -1) ** -2 * s, 0.0, 0.0, 0.0])
    res = inner.g_delta_matrix(0.3) @ f0.beta - g
    assert np.max(np.abs(res)) < 1e-12 * abs(s)


def test_transport_residuals_all_orders(variable_chain):
    ph = variable_chain.art.phase
    D = cheb_diff_matrix(ph.nodes.size)
    A = A_matrices(ph, ph.nodes)
    for f in variable_chain.f_terms:
        fv = f.f_values(0)
        res = (D @ fv.T).T - np.einsum("nij,jn->in", A, fv) - w_values(f, 0)
        scale = max(np.max(np.abs(fv)), 1.0)
        assert np.max(np.abs(res)) < 1e-9 * scale
        assert np.max(np.abs(f.h[:, 0])) == 0.0      # h(-1) = 0


def test_derivative_stacks_match_spectral(variable_chain):
    ph = variable_chain.art.phase
    D = cheb_diff_matrix(ph.nodes.size)
    for f in variable_chain.f_terms[:3]:
        fv = f.f_values(0)
        np.testing.assert_allclose(f.f_values(1), (D @ fv.T).T,
                                   atol=1e-8 * max(1.0, np.max(np.abs(fv))))


def test_transport_general_path_reproduces_f0(uniform_chain):
    ph = uniform_chain.art.phase
    s = uniform_chain.mode.vpp_minus0
    f0 = inner.solve_f0(ph, 0.0, s)
    sigma = np.array([ph.at(ph.Sp, -1) ** -2 * s, 0.0, 0.0, 0.0])
    y = inner.transport_solve(ph, 0.0, sigma, w_stack=None)
    np.testing.assert_allclose(y.beta, f0.beta, rtol=1e-13)
    np.testing.assert_allclose(y.f_values(0), f0.f_values(0), atol=1e-13)


def test_transport_zero_data_zero_solution(uniform_artifact):
    y = inner.transport_solve(uniform_artifact.phase, 0.7, np.zeros(4))
    assert np.max(np.abs(y.f_values(0))) == 0.0


def test_principal_solution_exponential_estimate(uniform_artifact):
    # synthetic smooth right-hand side and trace data: the full solves
    # approach the principal solution exponentially in 1/eps
    ph = uniform_artifact.phase
    xs = ph.nodes
    wvals = np.stack([1.0 + xs ** 2 / 3.0, np.cos(xs),
                      0.5 * np.sin(2.0 * xs) + 0.1, 0.5 * xs - 0.2])
    w_stack = lambda r: wvals if r == 0 else None
    sigma = np.array([0.7, -0.3, 0.4, 1.1])
    delta = 0.3
    ystar = inner.transport_solve(ph, delta, sigma, w_stack=w_stack)
    ys = ystar.f_values(0)
    A = A_matrices(ph, xs)
    gaps, gammas = [], []
    for l in range(1, 8):
        yl = transport_solve_full(ph, delta, l, sigma, w_stack=w_stack)
        yv = yl.f_values(0)
        dd = np.einsum("nij,jn->in", A, yv - ys)     # (y_l - y*)' = A (y_l - y*)
        gaps.append(np.max(np.abs(yv - ys)) + np.max(np.abs(dd)))
        gammas.append(delta + 2.0 * math.pi * l)
    gaps = np.array(gaps)
    keep = gaps > 1e-13 * gaps.max()
    assert keep.sum() >= 4
    corr = np.corrcoef(np.array(gammas)[keep], np.log(gaps[keep]))[0, 1]
    assert corr < -0.99
    assert gaps[3] < 1e-6 * gaps[0]


# ---------------------------------------------------------------------------
# graded operator expansion and chi assembly
# ---------------------------------------------------------------------------

def test_order_operator_matches_explicit_formulas(vphase):
    # multiplication piece: k0^(j)(0)/j! S'^4 xi^j; first-order piece:
    # k0(0) (4 S'^3 d/dxi + 6 S'^2 S'') T
    ph = vphase
    xs = ph.nodes
    k00 = ph.coeffs.k0_at(0.0)
    k0p = ph.coeffs.k0_at(0.0, 1)
    sp = ph.Sp(xs)
    spp = ph.Sp.deriv()(xs)
    terms1 = {(k, t): coef(xs) for (_p, coef, k, t) in
              inner.order_operator(ph, 1)}
    np.testing.assert_allclose(terms1[(0, 0)], k0p * sp ** 4 * xs, rtol=1e-12)
    np.testing.assert_allclose(terms1[(1, 1)], 4.0 * k00 * sp ** 3, rtol=1e-12)
    np.testing.assert_allclose(terms1[(0, 1)], 6.0 * k00 * sp ** 2 * spp,
                               rtol=1e-12)


def test_eikonal_cancellation_generic(vphase):
    # O_0 f - lam0 q f vanishes identically for any smooth f
    stub = PolyVec(vphase, [[0.3, 1.0, -0.5], [1.0], [0.0, 0.0, 2.0], [0.7, -1.0]])
    out = inner.apply_order_operator(vphase, 0, stub)
    qv = vphase.coeffs.q_at(vphase.nodes)
    out = out - vphase.lam0 * qv[None, :] * stub.f_values(0)
    assert np.max(np.abs(out)) < 1e-9


def test_transport_operator_annihilates_f0(uniform_chain):
    # (O_1 - lam1 q) f_0 = chi_1 = 0
    art = uniform_chain.art
    ph = art.phase
    f0 = uniform_chain.f_terms[0]
    out = inner.apply_order_operator(ph, 1, f0)
    qv = ph.coeffs.q_at(ph.nodes)
    out = out - art.lambdas[1] * qv[None, :] * f0.f_values(0)
    assert np.max(np.abs(out)) < 1e-9 * np.max(np.abs(f0.f_values(0))) * art.lambdas[1]


def test_chi_zero_below_two(uniform_chain):
    art = uniform_chain.art
    for s in (0, 1):
        chi = inner.assemble_chi(art.phase, s, uniform_chain.f_terms,
                                 art.lambdas)
        assert np.max(np.abs(chi)) == 0.0


def test_chi_constant_coefficient_hand_expansion(uniform_chain):
    # constant data: O_2 = 6 mu^2 T^2 d^2, O_3 = 4 mu^3 T d, O_4 = d^4,
    # with mu = S' = lam0^(1/4); checked at five spot nodes
    art = uniform_chain.art
    ph = art.phase
    n = ph.nodes.size
    D = cheb_diff_matrix(n)
    f0, f1 = uniform_chain.f_terms[0], uniform_chain.f_terms[1]
    lam = art.lambdas + [4621.0]          # synthetic lambda_3 for the check
    mu = art.lambdas[0] ** 0.25
    chi3 = inner.assemble_chi(ph, 3, uniform_chain.f_terms, lam)
    d1_f0 = (D @ f0.f_values(0).T).T
    d2_f1 = (D @ (D @ f1.f_values(0).T)).T
    hand = -(6.0 * mu ** 2 * (T_POWERS[2] @ d2_f1) - lam[2] * f1.f_values(0)
             + 4.0 * mu ** 3 * (T_POWERS[1] @ d1_f0) - lam[3] * f0.f_values(0))
    idx = [7, 31, 63, 95, 119]
    np.testing.assert_allclose(chi3[:, idx], hand[:, idx],
                               atol=2e-6 * np.max(np.abs(hand)))


def test_chi_assembled_once_per_order_and_derivative(variable_coeffs,
                                                     variable_artifact,
                                                     monkeypatch):
    # each w_stack memoizes chi_s^(r): a build assembles every (s, r) once
    assemble_chi = inner.assemble_chi
    calls = []

    def counting_chi(phase, s, f_terms, lambdas, r=0):
        calls.append((s, r))
        return assemble_chi(phase, s, f_terms, lambdas, r)

    monkeypatch.setattr(inner, "assemble_chi", counting_chi)
    build_expansion(variable_coeffs, variable_artifact.run)
    assert sorted(calls) == [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (4, 0)]


def test_talg_coefficients_evaluated_once_per_build(variable_coeffs,
                                                   variable_artifact,
                                                   monkeypatch):
    # TAlg.apply reads C_s / B_s coefficient values from the phase's grid
    # cache, and every derived QFunc inherits q' instead of re-deriving it
    call = inner.QFunc.__call__
    calls = []

    def counting_call(self, xs):
        calls.append((self, xs))
        return call(self, xs)

    polyder = P.polyder
    n_polyder = [0]

    def counting_polyder(*args, **kwargs):
        n_polyder[0] += 1
        return polyder(*args, **kwargs)

    monkeypatch.setattr(inner.QFunc, "__call__", counting_call)
    monkeypatch.setattr(P, "polyder", counting_polyder)
    art = build_expansion(variable_coeffs, variable_artifact.run)
    ph = art.phase
    # ``calls`` keeps every evaluated QFunc alive, so no id is reused
    held = {id(cf) for m in ph._C_mats + ph._B_mats for cf in m.c}
    grid_evals = collections.Counter(
        id(qf) for qf, xs in calls if id(qf) in held and xs is ph.nodes)
    assert len(held) == 28
    assert set(grid_evals) == held
    assert max(grid_evals.values()) == 1
    # 89 = 88 for the chain and the phase, plus k0'(0) in compute_lambda1;
    # this beam's v0 flips sign, which negates its endpoint table instead of
    # recomputing it.  The build's one Taylor table of k0, k1, k2 and p at
    # x = 0 costs 3 (k0', p', p''); rebuilt for each of its 9 endpoint
    # tables, it cost 27, and the count was 113
    assert n_polyder[0] == 89


def test_talg_apply_matches_per_call_evaluation(vphase):
    vec = np.random.default_rng(5).standard_normal((4, vphase.nodes.size))
    for s in range(4):
        for mat in (vphase.C_mat(s), vphase.B_mat(s)):
            assert np.array_equal(mat.apply(vphase, vec),
                                  talg_apply_per_call(mat, vphase.nodes, vec))


def test_cheb_antideriv_values_matches_loop(uphase, vphase, variable_chain):
    # the phase integrands, the grid functions and the transport integrands
    cases = [(vals, ph.nodes) for ph in (uphase, vphase)
             for vals in (ph.Sp(ph.nodes), ph.theta(ph.nodes), ph.S, ph.alpha)]
    for term in variable_chain.f_terms[1:]:
        cases += [(vals, vphase.nodes)
                  for vals in vphase.phi_inv_apply(w_values(term, 0))]
    for vals, nodes in cases:
        assert np.array_equal(inner.cheb_antideriv_values(vals, nodes),
                              cheb_antideriv_values_loop(vals, nodes))
    # transport_solve takes the four rows of Phi^-1 w in one call on the
    # (4, n) stack: each row is the loop form's, bit for bit
    for term in variable_chain.f_terms[1:]:
        stack = vphase.phi_inv_apply(w_values(term, 0))
        loop = np.stack([cheb_antideriv_values_loop(row, vphase.nodes)
                         for row in stack])
        assert np.array_equal(inner.cheb_antideriv_values(stack, vphase.nodes),
                              loop)
        assert np.array_equal(term.h, loop)


def test_cheb_nodes_end_exactly_at_plus_minus_one():
    # cheb_antideriv_values and PhaseData.at read xi = -1 and +1 off the
    # first and last node
    for n in range(16, 1025):
        x = inner.cheb_nodes(n)
        assert x[0] == -1.0 and x[-1] == 1.0


def test_phase_at_matches_point_evaluation(uniform_artifact, asym_artifact,
                                           variable_artifact):
    # grid-end values equal a fresh evaluation at the point, bit for bit
    for art in (uniform_artifact, asym_artifact, variable_artifact):
        ph = art.phase
        for side in (-1, +1):
            x = np.array([float(side)])
            sp = ph.Sp
            for u in range(3):
                got = np.float64(ph.at(ph.Sp, side, u))
                assert got.tobytes() == sp(x)[0].tobytes()
                sp = sp.deriv()
            for qf in (ph.q_m38, ph.q_38):
                assert np.float64(ph.at(qf, side)).tobytes() == qf(x)[0].tobytes()


def test_w_stack_matches_direct_chi_sum(variable_chain):
    # w^(r) = sum_u C(r, u) (S'^-3)^(u) T^3 chi_s^(r-u) / (4 k0(0)), summed
    # here from fresh chi assemblies and fresh coefficient derivatives
    ph = variable_chain.art.phase
    s = 3
    f_terms = variable_chain.f_terms[:s - 1]
    lambdas = variable_chain.art.lambdas[:s + 1]
    w_stack = inner.make_w_stack(ph, s, f_terms, lambdas)
    for r in range(3):
        acc = np.zeros((4, ph.nodes.size))
        for u in range(r + 1):
            cf = ph.sp_m3
            for _ in range(u):
                cf = cf.deriv()
            chi = inner.assemble_chi(ph, s, f_terms, lambdas, r - u)
            acc = acc + math.comb(r, u) * cf(ph.nodes)[None, :] * \
                (T_POWERS[3] @ chi)
        assert np.array_equal(w_stack(r), acc / (4.0 * ph.coeffs.k0_at(0.0)))


def test_order_operator_vanishes_beyond_taylor_depth(vphase):
    # polynomial coefficients carry complete Taylor data: high orders are
    # exactly zero rather than an error
    deg = max(len(vphase.coeffs.k0), len(vphase.coeffs.k1) + 2,
              len(vphase.coeffs.k2) + 4)
    assert inner.order_operator(vphase, deg + 4) == []


def test_chi_needs_lower_terms(variable_chain):
    # lambda_0..lambda_4 are all there: only the absent f_2 can stop chi_4
    art = variable_chain.art
    with pytest.raises(inner.MissingDataError, match="needs f_"):
        inner.assemble_chi(art.phase, 4, variable_chain.f_terms[:1],
                           art.lambdas)


# ---------------------------------------------------------------------------
# interface quantities
# ---------------------------------------------------------------------------

def test_interface_quantities_low_orders(uniform_chain):
    chain = uniform_chain
    ph = chain.art.phase
    iq0 = interface_quantities(ph, 0, chain.f_terms, interface_tables(chain))
    for key, val in iq0.items():
        assert np.max(np.abs(np.atleast_1d(val))) == 0.0
    iq1 = interface_quantities(ph, 1, chain.f_terms, interface_tables(chain))
    assert iq1["F_minus"] == 0.0 and iq1["F_plus"] == 0.0
    # D_1 = 2 S' T^3 f0' + S'' T^3 f0 at both traces
    f0 = chain.f_terms[0]
    for side, key in ((-1, "D_minus"), (+1, "D_plus")):
        idx = 0 if side == -1 else -1
        sp = ph.at(ph.Sp, side)
        spp = float(ph.Sp.deriv()(np.array([float(side)]))[0])
        hand = 2.0 * sp * (T_POWERS[3] @ f0.f_values(1)[:, idx]) + \
            spp * (T_POWERS[3] @ f0.f_values(0)[:, idx])
        np.testing.assert_allclose(iq1[key], hand, atol=1e-10)


def test_f2_interface_is_third_derivative(uniform_chain):
    chain = uniform_chain
    iq2 = interface_quantities(chain.art.phase, 2, chain.f_terms,
                               interface_tables(chain))
    assert iq2["F_minus"] == pytest.approx(chain.mode.vppp_minus0, rel=1e-12)


def test_phi_coords_of_f0_is_beta(variable_chain):
    # h = 0 for the homogeneous leading problem, so the fundamental-matrix
    # coordinates at -1 are beta itself; feeds the order-4 interface sums
    art = variable_chain.art
    f0 = variable_chain.f_terms[0]
    np.testing.assert_allclose(f0.phi_coords(0, -1), f0.beta, rtol=1e-14)
    qm = art.phase.at(art.phase.q_m38, -1)
    inner_V4 = qm * float(np.dot(f0.beta, inner.N_MINUS))
    tables = interface_tables(variable_chain)
    bd = inner.boundary_data(4, tables, art.phase, variable_chain.f_terms,
                             art.run.delta)
    # the inner trace enters V_4(-0) on top of the outer Taylor shift
    tabs = tables[-1]
    taylor = sum((-1.0) ** j / math.factorial(j) * tabs[4 - j][j]
                 for j in range(1, 5))
    assert bd["V_minus"] == pytest.approx(inner_V4 - taylor, rel=1e-10)


def test_boundary_data_range_check(variable_chain):
    phase, f_terms = variable_chain.art.phase, variable_chain.f_terms
    delta = variable_chain.art.run.delta
    tables = interface_tables(variable_chain)
    cut = {side: tabs[:3] for side, tabs in tables.items()}
    with pytest.raises(inner.MissingDataError,
                       match="side -1 outer table of order 3"):
        inner.boundary_data(4, cut, phase, f_terms, delta)
    # an absent inner term raises too instead of counting as zero
    with pytest.raises(inner.MissingDataError, match="need f_2"):
        inner.boundary_data(4, tables, phase, f_terms[:2], delta)


# ---------------------------------------------------------------------------
# inner evaluation
# ---------------------------------------------------------------------------

def test_trace_vectors_at_quantized_eps(uniform_artifact):
    art = uniform_artifact
    ph = art.phase
    eps = inner.epsilon_l(ph.S1, ph.alpha1, art.run.delta, 12)
    N = N_of_S(ph, eps, np.array([-1.0, 1.0]))
    np.testing.assert_allclose(N[:, 0], [1.0, 0.0, 1.0, 0.0], atol=1e-10)
    g1 = ph.gamma1(eps)
    expect = [math.cos(art.run.delta), math.sin(art.run.delta), 0.0, 1.0]
    # N carries S/eps, not gamma: rotate by alpha(1) via the identity instead
    gam = g1
    np.testing.assert_allclose(
        [math.cos(gam), math.sin(gam), 0.0, 1.0], expect, atol=1e-9)


def test_evaluate_inner_scaling_and_safety(uniform_artifact):
    art = uniform_artifact
    ph = art.phase
    xi = np.linspace(-1.0, 1.0, 301)
    for eps in (0.15, 0.08):
        vals = inner.evaluate_inner(ph, art.series[:6], eps, xi)
        scale = np.max(np.abs(vals)) / eps ** 4
        assert 0.05 < scale < 50.0
        N = N_of_S(ph, eps, xi)
        assert np.max(N[2:]) <= 1.0 + 1e-12      # shifted exponents stay <= 0


def _pairs(art):
    """The (beta_i, h_i) pairs of the artifact's inner terms."""
    return list(zip(art.f_beta, art.f_h))


def _direct_inner(ph, pairs, eps, xi):
    """The literal sum eps^4 sum eps^i <Phi c_i, N(xi, S/eps)>, barycentric,
    over the (beta_i, h_i) pairs."""
    direct = np.zeros_like(xi)
    N = N_of_S(ph, eps, xi)
    for i, (beta, h) in enumerate(pairs):
        c = beta[:, None] + barycentric_eval(ph.nodes, h, xi)
        fv = phi_apply_at(ph, c, xi)
        direct += eps ** (4 + i) * np.einsum("in,in->n", fv, N)
    return direct


def test_evaluate_inner_matches_direct_form(uniform_artifact):
    # production path (coordinates + gamma) against the literal
    # sum eps^4 sum eps^i <Phi c_i, N(xi, S/eps)>
    art = uniform_artifact
    ph = art.phase
    xi = np.linspace(-0.99, 0.99, 57)
    eps = 0.09
    direct = _direct_inner(ph, _pairs(art), eps, xi)
    vals = inner.evaluate_inner(ph, art.series, eps, xi)
    np.testing.assert_allclose(vals, direct, rtol=0, atol=1e-13 * eps ** 4)


def _grid_rows(art):
    """[S, alpha, h_0..h_n] stacked: the grid values whose series
    ``inner.inner_series`` cuts."""
    rows = np.vstack([art.phase.S, art.phase.alpha] + art.f_h)
    assert np.max(np.abs(art.f_h[-1])) > 0.0
    return rows, np.max(np.abs(rows), axis=1, keepdims=True)


def _series(rows):
    """The full (unchopped) Chebyshev series of grid-value rows."""
    return inner.cheb_coeffs(rows.T).T


def test_cheb_eval_returns_grid_values_at_nodes(variable_artifact):
    # every Lobatto node, +-1 included, gives back its grid value
    ph = variable_artifact.phase
    rows, scale = _grid_rows(variable_artifact)
    got = inner.cheb_eval(_series(rows), ph.nodes)
    assert np.all(np.abs(got - rows) <= 1e-14 * scale)


def test_cheb_eval_matches_barycentric_off_grid(variable_artifact):
    # the artifact's rows, then smooth rows on grids whose degree count
    # straddles the CHEB_BLOCK-degree recurrence blocks
    block = inner.CHEB_BLOCK
    grids = [(variable_artifact.phase.nodes, _grid_rows(variable_artifact)[0])]
    for n_nodes in (2, 3, block + 1, block + 2, 2 * block + 3, 128):
        x = inner.cheb_nodes(n_nodes)
        grids.append((x, np.vstack([np.cos(3.0 * x + 1.0), np.exp(x),
                                    1.0 / (2.0 + x), np.sin(20.0 * x)])))
    for nodes, rows in grids:
        scale = np.max(np.abs(rows), axis=1, keepdims=True)
        for n_points in (1, 301, 512, 513, 1061):
            xi = np.random.default_rng(3).uniform(-1.0, 1.0, n_points)
            got = inner.cheb_eval(_series(rows), xi)
            ref = barycentric_eval(nodes, rows, xi)
            assert got.shape == ref.shape
            assert np.all(np.abs(got - ref) <= 1e-13 * scale)


def test_cheb_eval_memory_is_of_the_order_of_its_output(variable_artifact):
    # 18 full series at 20,000 points: the output alone is 18 doubles per
    # point; one T row per degree (128 here) would exceed the bound by itself
    coeffs = _series(_grid_rows(variable_artifact)[0])
    assert coeffs.shape == (18, 128)
    xi = np.random.default_rng(4).uniform(-1.0, 1.0, 20_000)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        inner.cheb_eval(coeffs, xi)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 64 * 8 * xi.size


def _chop_cases():
    """Series for ``chop``: smooth functions on three grids, geometric
    decays over noise floors, exact and short tails, and zero rows."""
    rng = np.random.default_rng(11)
    cases = []
    for n_nodes in (33, 65, 129):
        x = inner.cheb_nodes(n_nodes)
        for f in (np.exp, lambda t: np.cos(20.0 * t), lambda t: 1.0 / (2.0 + t),
                  lambda t: t ** 3, lambda t: np.abs(t) ** 3):
            cases.append(inner.cheb_coeffs(f(x)))
    for rate in (0.3, 0.5, 0.7, 0.9):
        for floor in (0.0, 1e-17, 1e-16, 1e-14):
            k = np.arange(100)
            cases.append(rate ** k + floor * rng.standard_normal(k.size))
    cases += [np.zeros(40), np.ones(16), np.ones(17), np.r_[1.0, np.zeros(30)],
              rng.standard_normal(64)]
    # noisy decays reaching the plateau search's boundaries (among them j2
    # = round(1.25 j + 5) at a half, which rounds up)
    for _ in range(500):
        k = np.arange(rng.integers(17, 80))
        cases.append(rng.uniform(0.2, 0.9) ** k *
                     (1.0 + 0.5 * rng.standard_normal(k.size)) +
                     10.0 ** rng.uniform(-20, -13) * rng.standard_normal(k.size))
    return cases


def test_chop_matches_the_loop_transcription():
    for coeffs in _chop_cases():
        assert inner.chop(coeffs) == standard_chop_loop(coeffs)


def test_chop_cuts_a_resolved_series_at_its_plateau():
    # exp on three grids: the same 15 coefficients, whatever the grid; the
    # dropped tail lies at the round-off level of the largest coefficient
    for n_nodes in (33, 65, 129):
        a = inner.cheb_coeffs(np.exp(inner.cheb_nodes(n_nodes)))
        cut, resolved = inner.chop(a)
        assert (cut, resolved) == (15, True)
        assert np.max(np.abs(a[cut:])) <= 1e-15 * np.max(np.abs(a))
    # a tail still falling at the end, and too short a series, are not
    # resolved and keep every coefficient
    assert inner.chop(0.7 ** np.arange(40)) == (40, False)
    assert inner.chop(np.ones(16)) == (16, False)
    assert inner.chop(np.zeros(40)) == (1, True)


@pytest.mark.parametrize("name, width", [("asym", 3), ("variable", 32)])
@pytest.mark.parametrize("grid", [64, 128])
def test_inner_series_chop_to_a_few_coefficients(name, width, grid, request):
    art = request.getfixturevalue(f"{name}_artifact")
    if grid != art.run.inner_grid:
        art = build_expansion(art.coeffs, dataclasses.replace(
            art.run, inner_grid=grid))
    assert art.series.shape[0] == 2 + 4 * len(art.f_h)
    assert art.series.shape[1] <= width


@pytest.mark.parametrize("name", ["uniform", "asym", "variable"])
def test_chopped_series_match_the_full_series(name, request):
    # the rows of S, alpha and c_i = beta_i + h_i, cut and in full
    art = request.getfixturevalue(f"{name}_artifact")
    rows = np.vstack([art.phase.S, art.phase.alpha] +
                     [b[:, None] + h for b, h in _pairs(art)])
    scale = np.max(np.abs(rows), axis=1, keepdims=True)
    xi = np.random.default_rng(5).uniform(-1.0, 1.0, 2000)
    got = inner.cheb_eval(art.series, xi)
    ref = inner.cheb_eval(_series(rows), xi)
    assert np.all(np.abs(got - ref) <= 1e-14 * scale)


def test_evaluate_inner_at_grid_nodes_matches_direct_form(variable_artifact):
    art = variable_artifact
    ph = art.phase
    xi = np.concatenate([ph.nodes[[0, 1, 31, 63, 64, 96, 126, 127]],
                         [-0.5, 0.2, 0.7]])
    eps = 0.09
    direct = _direct_inner(ph, _pairs(art), eps, xi)
    vals = inner.evaluate_inner(ph, art.series, eps, xi)
    np.testing.assert_allclose(vals, direct, rtol=0.0, atol=1e-13 * eps ** 4)
