import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg
from numpy.polynomial import polynomial as P
from scipy.sparse.linalg import SuperLU

from beamwkb import build_expansion, hermite, inner, outer
from beamwkb.model import CoefficientSet


def test_lambda0_matches_characteristic_root(uniform_mode, beam_root):
    assert uniform_mode.lambda0 == pytest.approx(beam_root ** 4, rel=5e-9)


def test_lambda0_mesh_refinement(uniform_coeffs, uniform_mode):
    fine = outer.solve_three_point_eigen(uniform_coeffs, 1, outer_grid=512)
    assert abs(fine.lambda0 - uniform_mode.lambda0) < 1e-9 * uniform_mode.lambda0


def test_lambda0_convergence_order(uniform_coeffs, beam_root):
    exact = beam_root ** 4
    grids = [32, 64, 128]
    errs = [abs(outer.solve_three_point_eigen(uniform_coeffs, 1,
                                              outer_grid=g).lambda0 - exact)
            for g in grids]
    rate = np.polyfit(np.log(grids), np.log(errs), 1)[0]
    assert -4.6 < rate < -3.5


def test_v0_boundary_and_normalization(uniform_mode):
    v = uniform_mode.v_left
    assert abs(v.values[0]) < 1e-12 and abs(v.slopes[0]) < 1e-12
    assert abs(v.values[-1]) < 1e-12 and abs(v.slopes[-1]) < 1e-12
    nrm = hermite.inner_product(v.nodes, v, v,
                                weight_fn=lambda x: np.ones_like(x))
    assert nrm == pytest.approx(1.0, abs=1e-12)
    assert uniform_mode.vpp_minus0 > 0
    assert np.all(uniform_mode.v_right.values == 0.0)


def test_flux_extraction_against_closed_form(uniform_mode, closed_form_mode):
    assert uniform_mode.vpp_minus0 == pytest.approx(closed_form_mode["vpp"],
                                                    rel=1e-7)
    assert uniform_mode.vppp_minus0 == pytest.approx(closed_form_mode["vppp"],
                                                     rel=1e-6)


def test_reaction_pairing_identity(uniform_mode):
    # v0-tested form of L z - lam0 p z for a synthetic z reproduces the
    # interface pairing k0 v0'' z'(0) - (k0 v0'')' z(0)
    left = uniform_mode.left_asm
    nodes = left.nodes
    z = hermite.HermiteFunction(
        nodes, (nodes + 1.0) ** 2 * (1.0 + nodes),
        2.0 * (nodes + 1.0) * (1.0 + nodes) + (nodes + 1.0) ** 2)
    lhs = float(np.longdouble(0))
    pen = left.pencil_apply(uniform_mode.v_left.dofs(), uniform_mode.lambda0)
    lhs = float(np.asarray(pen, float) @ z.dofs())
    k00 = uniform_mode.coeffs.k0_at(0.0)
    rhs = k00 * uniform_mode.vpp_minus0 * z(0.0, 1) - \
        k00 * uniform_mode.vppp_minus0 * z(0.0)
    assert lhs == pytest.approx(rhs, rel=2e-7)


def test_gap_and_degeneracy_flags(uniform_mode, asym_coeffs):
    # mirror-symmetric data duplicate the spectrum across the interface
    assert uniform_mode.degenerate_right
    assert uniform_mode.gap_right < 1e-6
    assert uniform_mode.gap_left > 1e3
    asym = outer.solve_three_point_eigen(asym_coeffs, 1, outer_grid=128)
    assert not asym.degenerate_right
    assert asym.gap_right > 500


def test_strict_multiplicity_error(uniform_coeffs):
    with pytest.raises(outer.ThreePointMultiplicityError, match="multiple"):
        outer.solve_three_point_eigen(uniform_coeffs, 1, outer_grid=64,
                                      strict=True)


def test_compute_lambda1_examples(uniform_mode, closed_form_mode):
    fake = dataclasses.replace(uniform_mode, vpp_minus0=2.0)
    assert outer.compute_lambda1(fake) == pytest.approx(4.0)
    k3 = CoefficientSet(a=-1.0, b=1.0, k0=(3.0,))
    assert outer.compute_lambda1(
        dataclasses.replace(uniform_mode, vpp_minus0=0.0), k3) == 0.0
    lam1 = outer.compute_lambda1(uniform_mode)
    assert lam1 == pytest.approx(closed_form_mode["vpp"] ** 2, rel=2e-7)


def test_solve_v1_contract(uniform_coeffs):
    # grid 128: the discrete residual floor scales with the stiffness norm,
    # and at this resolution it sits well below the contract tolerance
    mode = outer.solve_three_point_eigen(uniform_coeffs, 1, outer_grid=128)
    t1 = outer.solve_v1(mode)
    assert t1.v_left(0.0, 1) - mode.vpp_minus0 == pytest.approx(0.0, abs=1e-10)
    assert abs(t1.v_left(0.0)) < 1e-12
    orth = hermite.inner_product(mode.left_asm.nodes, t1.v_left, mode.v_left,
                                 weight_fn=lambda x: np.ones_like(x))
    assert abs(orth) < 1e-12
    res = outer.correction_residual(mode, [], t1, [mode.lambda0, t1.lambda_i])
    assert res < 1e-8
    assert np.all(t1.v_right.values == 0.0)


def test_correction_chain_factors_each_pencil_once(asym_coeffs,
                                                   asym_artifact,
                                                   uniform_coeffs,
                                                   uniform_artifact,
                                                   monkeypatch):
    # per build: two polish LUs on each interval for the three-point pair,
    # then one bordered LU on (a, 0) and one LU on (0, b) shared by every
    # order; the resonant uniform beam never solves on (0, b).  ARPACK's
    # own factorization does not pass here.  The build drops the LUs.
    splu = scipy.sparse.linalg.splu
    calls = []

    def counting_splu(A, *args, **kwargs):
        calls.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    for coeffs, run, n_max, want in (
            (asym_coeffs, asym_artifact.run, 1, 6),
            (asym_coeffs, asym_artifact.run, 2, 6),
            (asym_coeffs, asym_artifact.run, 3, 6),
            (uniform_coeffs, uniform_artifact.run, 2, 5)):
        calls.clear()
        art = build_expansion(coeffs, dataclasses.replace(run, n_max=n_max))
        assert len(calls) == want, (n_max, calls)
        assert art.mode.factors == {}
        assert not any(isinstance(v, SuperLU) for v in vars(art.mode).values())


def test_solve_v1_rejects_wrong_lambda1(uniform_mode):
    with pytest.raises(outer.SolvabilityError, match="inconsistent"):
        outer.solve_v1(uniform_mode, lam1=outer.compute_lambda1(uniform_mode) * 1.01)


def test_endpoint_recurrence_manufactured():
    # manufactured polynomial solution: the recurrence must reproduce its
    # Taylor data exactly from four seeds and the forcing derivatives
    cset = CoefficientSet(a=-1.0, b=0.8, k0=(1.0, 1 / 3), k1=(0.2,),
                          k2=(0.1,), p=(1.0,), q=(1.0,))
    vpoly = [0.0, 0.0, 1.0, 0.5, 0.25, -0.125]
    lam0 = 2.7
    k0v2 = P.polymul(cset.k0, P.polyder(vpoly, 2))
    Lv = P.polyadd(P.polysub(P.polyder(k0v2, 2),
                             P.polyder(P.polymul(cset.k1, P.polyder(vpoly, 1)), 1)),
                   P.polymul(cset.k2, vpoly))
    gpoly = P.polysub(Lv, lam0 * np.array(vpoly))
    seeds = [P.polyval(0.0, P.polyder(vpoly, j)) if j else vpoly[0]
             for j in range(4)]
    gder = [P.polyval(0.0, P.polyder(gpoly, m)) if m else P.polyval(0.0, gpoly)
            for m in range(10)]
    tab = outer.endpoint_derivatives(cset, lam0, seeds, gder, 8)
    exact = [P.polyval(0.0, P.polyder(vpoly, j)) if j else vpoly[0]
             for j in range(9)]
    np.testing.assert_allclose(tab, exact, atol=1e-12)


def test_boundary_data_low_orders(uniform_artifact):
    art = uniform_artifact
    mode, corr, phase = art.mode, art.corrections, art.phase
    bd0 = outer.boundary_data(0, mode, [], phase, [], art.delta)
    assert bd0 == {"V_minus": 0.0, "W_minus": 0.0, "V_plus": 0.0, "W_plus": 0.0}
    bd1 = outer.boundary_data(1, mode, [], phase, [], art.delta)
    assert bd1["V_minus"] == pytest.approx(0.0, abs=1e-12)
    assert bd1["W_minus"] == pytest.approx(mode.vpp_minus0, rel=1e-12)
    assert bd1["V_plus"] == 0.0 and bd1["W_plus"] == 0.0


def test_boundary_data_pure_outer_sums(uniform_artifact):
    # zeroed inner data: V2, W2 reduce to the Taylor shift of v0, v1
    art = uniform_artifact
    mode, corr = art.mode, art.corrections
    bd = outer.boundary_data(2, mode, corr[:1], art.phase, [], art.delta)
    t0, t1 = mode.endpoint_minus, corr[0].endpoint_minus
    assert bd["V_minus"] == pytest.approx(t1.deriv(1) - 0.5 * t0.deriv(2),
                                          rel=1e-12)
    assert bd["W_minus"] == pytest.approx(t1.deriv(2) - 0.5 * t0.deriv(3),
                                          rel=1e-12)


def test_solve_correction_homogeneous_is_zero(uniform_mode):
    zero_l = hermite.HermiteFunction.zero(uniform_mode.left_asm.nodes)
    zero_r = hermite.HermiteFunction.zero(uniform_mode.right_asm.nodes)
    tab = outer.EndpointData(0.0, 0.0, 0.0, 0.0, np.zeros(10))
    fake_v1 = outer.CorrectionTerm(
        order=1, lambda_i=0.0, v_left=zero_l, v_right=zero_r,
        V_minus=0.0, V_plus=0.0, W_minus=0.0, W_plus=0.0,
        endpoint_minus=tab, endpoint_plus=tab,
        solvability_residual=0.0, right_resonant=False)
    term = outer.solve_correction(uniform_mode, 2, [uniform_mode.lambda0, 0.0],
                                  [fake_v1], 0.0, 0.0, 0.0, 0.0)
    assert term.lambda_i == 0.0
    assert np.max(np.abs(term.v_left.values)) < 1e-10
    assert np.max(np.abs(term.v_left.slopes)) < 1e-9


def test_correction_interface_values_imposed(asym_artifact):
    for term in asym_artifact.corrections:
        assert term.v_left(0.0) == pytest.approx(term.V_minus, abs=1e-10)
        assert term.v_left(0.0, 1) == pytest.approx(term.W_minus, abs=1e-10)
        if term.v_right is not None:
            assert term.v_right(0.0) == pytest.approx(term.V_plus, abs=1e-10)
            assert term.v_right(0.0, 1) == pytest.approx(term.W_plus, abs=1e-10)
            b = asym_artifact.coeffs.b
            assert abs(term.v_right(b)) < 1e-10
            assert abs(term.v_right(b, 1)) < 1e-10


def test_correction_orthogonality_and_residual(asym_artifact):
    art = asym_artifact
    mode = art.mode
    one = lambda x: np.ones_like(x)
    for i, term in enumerate(art.corrections):
        orth = hermite.inner_product(mode.left_asm.nodes, term.v_left,
                                     mode.v_left, weight_fn=one)
        assert abs(orth) < 1e-10
        res = outer.correction_residual(mode, art.corrections[:i], term,
                                        art.lambdas)
        assert res < 2e-7
        assert abs(term.solvability_residual) < 1e-4


def test_uniform_right_resonance_skip(uniform_artifact):
    # order 2 carries nonzero slope data into the resonant right interval
    t2 = uniform_artifact.corrections[1]
    assert t2.right_resonant
    assert t2.v_right is None
    assert "resonant" in t2.right_skip_reason
    # while order 1 has zero data and the zero solution
    t1 = uniform_artifact.corrections[0]
    assert t1.v_right is not None
    assert np.all(t1.v_right.values == 0.0)


def test_lambda2_closed_form_uniform(uniform_artifact):
    # hand-reduced order-2 solvability data for constant coefficients:
    # V2(-0) = s/2, W2(-0) = -s/mu (1 + tan delta) + v1''(-0) - t/2
    art = uniform_artifact
    s = art.mode.vpp_minus0
    t = art.mode.vppp_minus0
    w = art.corrections[0].endpoint_minus.vpp
    mu = art.lambdas[0] ** 0.25
    lam2_hand = s * (-(s / mu) + w - 0.5 * t) - t * (s / 2.0)
    assert art.lambdas[2] == pytest.approx(lam2_hand, rel=1e-12)


def test_symmetry_and_nonnegative_spectrum(uniform_coeffs):
    cset = CoefficientSet(a=-1.0, b=1.0, k0=(1.0, 0.2), k1=(0.1,),
                          k2=(0.3,), p=(1.0,), q=(1.0,))
    asm = outer._interval_assembly(cset, cset.a, 0.0, 64)
    K = asm.K.toarray()
    assert np.max(np.abs(K - K.T)) / np.max(np.abs(K)) < 1e-14
    vals, _ = hermite.eigs_near(asm, sigma=0.0, k=6)
    assert np.all(vals > 0.0)
    assert np.all(np.imag(vals) == 0.0)
