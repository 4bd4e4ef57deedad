import collections
import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg
from numpy.polynomial import polynomial as P
from scipy.optimize import brentq
from scipy.sparse.linalg import SuperLU

from beamwkb import hermite, inner, outer
from beamwkb.model import CoefficientSet
from dense_forms import (correction_residual, csr_forms, forcing_density,
                         hermite_call_all_stacks, inner_product,
                         load_vector_add_at)


def test_lambda0_matches_characteristic_root(uniform_mode, beam_root):
    assert uniform_mode.lambda0 == pytest.approx(beam_root ** 4, rel=5e-9)


@pytest.mark.parametrize("k", [1, 2, 3, 4])
def test_limit_pair_matches_closed_form(asym_coeffs, k):
    # k0 = p = 1 on (a, 0): lambda0 = (beta_k / |a|)^4 with beta_k the k-th
    # positive root of cos(beta) cosh(beta) = 1, and lambda1 = k0(0)
    # v0''(0-)^2 = 4 lambda0 / |a|.  Measured at outer_grid 256, k = 1..4,
    # relative: lambda0 1.6e-10, 1.2e-9, 4.7e-9, 1.3e-8; lambda1 6.2e-10,
    # 1.8e-9, 9.4e-9, 2.6e-8
    beta = brentq(lambda b: np.cos(b) - 1.0 / np.cosh(b),
                  (k + 0.5) * np.pi - 0.5, (k + 0.5) * np.pi + 0.5,
                  xtol=1e-14, rtol=1e-15)
    assert beta == pytest.approx((4.7300407448627, 7.8532046240958,
                                  10.995607838002, 14.137165491257)[k - 1],
                                 rel=1e-12)
    length = -asym_coeffs.a
    mode = outer.solve_three_point_eigen(asym_coeffs, k, outer_grid=256)
    lam0 = (beta / length) ** 4
    assert mode.lambda0 == pytest.approx(lam0, rel=1e-7, abs=0)
    assert outer.compute_lambda1(mode) == pytest.approx(4.0 * lam0 / length,
                                                        rel=1e-7, abs=0)


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
    nrm = inner_product(v.nodes, v, v, weight_fn=lambda x: np.ones_like(x))
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
    rhs = k00 * uniform_mode.vpp_minus0 * hermite_call_all_stacks(z, 0.0, 1) - \
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


def test_compute_lambda1_examples(uniform_mode, closed_form_mode):
    def with_kink(vpp, **changes):
        tab = np.array([0.0, 0.0, vpp, 0.0])
        return dataclasses.replace(uniform_mode, endpoint_minus=tab, **changes)

    assert outer.compute_lambda1(with_kink(2.0)) == pytest.approx(4.0)
    k3 = CoefficientSet(a=-1.0, b=1.0, k0=(3.0,))
    assert outer.compute_lambda1(with_kink(2.0, coeffs=k3)) == pytest.approx(12.0)
    assert outer.compute_lambda1(with_kink(0.0, coeffs=k3)) == 0.0
    lam1 = outer.compute_lambda1(uniform_mode)
    assert lam1 == pytest.approx(closed_form_mode["vpp"] ** 2, rel=2e-7)


def test_first_order_term_contract(uniform_coeffs, uniform_artifact,
                                   recorded_build):
    # the chain's order-1 term: zero value and kink-matched slope at the
    # interface, p-orthogonal to v0, zero on the resonant right interval.
    # Grid 128: the discrete residual floor scales with the stiffness
    # norm, and at this resolution it sits well below the contract tolerance
    chain = recorded_build(uniform_coeffs, dataclasses.replace(
        uniform_artifact.run, n_max=1, outer_grid=128))
    mode, t1 = chain.mode, chain.corrections[0]
    assert t1.order == 1
    assert hermite_call_all_stacks(t1.v_left, 0.0, 1) - mode.vpp_minus0 == \
        pytest.approx(0.0, abs=1e-10)
    assert abs(t1.v_left(0.0)) < 1e-12
    orth = inner_product(mode.left_asm.nodes, t1.v_left, mode.v_left,
                         weight_fn=lambda x: np.ones_like(x))
    assert abs(orth) < 1e-12
    res = correction_residual(mode, [], t1, [mode.lambda0, t1.lambda_i])
    assert res < 1e-8
    assert np.all(t1.v_right.values == 0.0)


def test_lambda1_has_one_value(uniform_artifact, recorded_build):
    # k0(0) = 1.5: the solvability value of the order-1 data and
    # compute_lambda1 are one formula, so they agree bit for bit
    run = dataclasses.replace(uniform_artifact.run, n_max=1)
    chain = recorded_build(CoefficientSet(a=-1.0, b=0.8, k0=(1.5,)), run)
    art = chain.art
    lam1 = outer.compute_lambda1(chain.mode)
    assert art.lambdas[1] == chain.corrections[0].lambda_i == lam1
    assert art.diagnostics["lambda1"] == lam1


# what a build makes for its own stages: LUs, the OuterWork and its Gauss
# and extended-precision Taylor tables
BUILD_SCOPED = (SuperLU, outer.OuterWork, outer.GaussSide, hermite.GaussRule,
                np.longdouble)


def _holds_build_store(obj, seen):
    """Whether a SuperLU (or its solve), an OuterWork or one of its tables
    is reachable from obj through containers and instance attributes."""
    if id(obj) in seen:
        return False
    seen.add(id(obj))
    if isinstance(obj, BUILD_SCOPED) or \
            isinstance(getattr(obj, "__self__", None), SuperLU):
        return True
    if isinstance(obj, dict):
        items = obj.values()
    elif isinstance(obj, (list, tuple)):
        items = obj
    elif hasattr(obj, "__dict__") and not isinstance(obj, type):
        items = vars(obj).values()
    else:
        return False
    return any(_holds_build_store(v, seen) for v in items)


def test_correction_chain_factors_each_pencil_once(asym_coeffs,
                                                   asym_artifact,
                                                   uniform_coeffs,
                                                   uniform_artifact,
                                                   recorded_build,
                                                   monkeypatch):
    # per build: on each interval one LU for ARPACK's shift-invert and two
    # polish LUs for the three-point pair, then one bordered LU on (a, 0);
    # every order solves on (0, b) with the right eigensolve's LU at
    # lambda0 (the resonant uniform beam never does).  The LUs and the
    # Gauss and Taylor tables live only in the build: the artifact, the
    # three-point mode and the outer terms hold none.
    splu = scipy.sparse.linalg.splu
    calls = []

    def counting_splu(A, *args, **kwargs):
        calls.append(A.shape)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    for coeffs, run, n_max, want in (
            (asym_coeffs, asym_artifact.run, 1, 7),
            (asym_coeffs, asym_artifact.run, 2, 7),
            (asym_coeffs, asym_artifact.run, 3, 7),
            (uniform_coeffs, uniform_artifact.run, 2, 7)):
        calls.clear()
        chain = recorded_build(coeffs, dataclasses.replace(run, n_max=n_max))
        assert len(calls) == want, (n_max, calls)
        assert not _holds_build_store(vars(chain.art), set())
        assert not _holds_build_store(vars(chain.mode), set())
        for term in chain.corrections:
            assert not _holds_build_store(vars(term), set())


@pytest.mark.parametrize("name", ["uniform", "asym", "variable"])
def test_load_vectors_match_the_per_order_density(name, request,
                                                  recorded_build,
                                                  monkeypatch):
    # every order's load vector, read off the Gauss tables, is the one the
    # density closure gives when it evaluates each lower term afresh
    coeffs = request.getfixturevalue(f"{name}_coeffs")
    run = request.getfixturevalue(f"{name}_artifact").run
    load = outer.GaussSide.load
    loads = []

    def recording(side, pairs):
        F = load(side, pairs)
        loads.append((side.rule.nodes, list(pairs), F))
        return F

    monkeypatch.setattr(outer.GaussSide, "load", recording)
    chain = recorded_build(coeffs, run)
    terms = [chain.mode] + chain.corrections
    p_fn = hermite.poly_fn(coeffs.p)
    assert len(loads) >= run.n_max
    for nodes, pairs, F in loads:
        side = "v_left" if nodes[0] < 0.0 else "v_right"
        assert all(fn is getattr(terms[k], side) for _, k, fn in pairs)
        density = forcing_density(p_fn, [(lam, fn) for lam, _, fn in pairs])
        assert np.array_equal(F, load_vector_add_at(nodes, density))


def test_outer_terms_evaluated_once_per_build(variable_coeffs,
                                              variable_artifact,
                                              recorded_build, monkeypatch):
    # each outer term is evaluated at its side's Gauss points once per
    # build, where it first forces an order: 2 n_max evaluations at n_max
    # 6, where re-evaluating every lower term at every order made 42
    call = hermite.HermiteFunction.__call__
    calls = []

    def counting_call(fn, x):
        calls.append(fn)              # keeps every fn alive: no id reuse
        return call(fn, x)

    monkeypatch.setattr(hermite.HermiteFunction, "__call__", counting_call)
    run = dataclasses.replace(variable_artifact.run, n_max=6)
    chain = recorded_build(variable_coeffs, run)
    terms = [chain.mode] + chain.corrections
    forcing = [fn for t in terms[:-1] for fn in (t.v_left, t.v_right)]
    counts = collections.Counter(id(fn) for fn in calls)
    assert len(calls) == 2 * run.n_max
    assert sorted(counts) == sorted(id(fn) for fn in forcing)
    assert max(counts.values()) == 1


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
    tab = outer.endpoint_derivatives(outer.coefficient_taylor(cset, 8), lam0,
                                     seeds, gder)
    exact = [P.polyval(0.0, P.polyder(vpoly, j)) if j else vpoly[0]
             for j in range(9)]
    np.testing.assert_allclose(tab, exact, atol=1e-12)


def test_boundary_data_low_orders(uniform_chain):
    mode, phase = uniform_chain.mode, uniform_chain.art.phase
    delta = uniform_chain.art.run.delta
    tables = {-1: [mode.endpoint_minus], +1: [mode.endpoint_plus]}
    bd0 = inner.boundary_data(0, tables, phase, [], delta)
    assert bd0 == {"V_minus": 0.0, "W_minus": 0.0, "V_plus": 0.0, "W_plus": 0.0}
    # the chain's order-1 step relies on these being exact
    bd1 = inner.boundary_data(1, tables, phase, [], delta)
    assert bd1 == {"V_minus": 0.0, "W_minus": mode.vpp_minus0,
                   "V_plus": 0.0, "W_plus": 0.0}


def test_boundary_data_pure_outer_sums(uniform_chain):
    # the outer part of V2, W2 at x = 0-: the Taylor shift of v0, v1
    chain = uniform_chain
    t0, t1 = chain.mode.endpoint_minus, chain.corrections[0].endpoint_minus
    tables = [t0, t1]
    assert inner.taylor_shift(tables, -1, 2, 1, 0) == pytest.approx(
        -t1[1] + 0.5 * t0[2], rel=1e-12)
    assert inner.taylor_shift(tables, -1, 2, 1, 1) == pytest.approx(
        -t1[2] + 0.5 * t0[3], rel=1e-12)


def test_solve_correction_homogeneous_is_zero(uniform_mode):
    zero_l = hermite.HermiteFunction.zero(uniform_mode.left_asm.nodes)
    zero_r = hermite.HermiteFunction.zero(uniform_mode.right_asm.nodes)
    tab = np.zeros(10)
    fake_v1 = outer.CorrectionTerm(
        order=1, lambda_i=0.0, v_left=zero_l, v_right=zero_r,
        endpoint_minus=tab, endpoint_plus=tab, solvability_residual=0.0)
    term = outer.solve_correction(uniform_mode,
                                  outer.factor_pencils(uniform_mode), 2,
                                  [uniform_mode.lambda0, 0.0],
                                  [fake_v1], 0.0, 0.0, 0.0, 0.0)
    assert term.lambda_i == 0.0
    assert np.max(np.abs(term.v_left.values)) < 1e-10
    assert np.max(np.abs(term.v_left.slopes)) < 1e-9


def test_correction_interface_values_imposed(asym_chain):
    for term in asym_chain.corrections:
        tab = term.endpoint_minus
        assert term.v_left(0.0) == pytest.approx(tab[0], abs=1e-10)
        assert hermite_call_all_stacks(term.v_left, 0.0, 1) == \
            pytest.approx(tab[1], abs=1e-10)
        if term.v_right is not None:
            tab = term.endpoint_plus
            assert term.v_right(0.0) == pytest.approx(tab[0], abs=1e-10)
            assert hermite_call_all_stacks(term.v_right, 0.0, 1) == \
                pytest.approx(tab[1], abs=1e-10)
            b = asym_chain.art.coeffs.b
            assert abs(term.v_right(b)) < 1e-10
            assert abs(hermite_call_all_stacks(term.v_right, b, 1)) < 1e-10


def test_correction_orthogonality_and_residual(asym_chain):
    mode, corrections = asym_chain.mode, asym_chain.corrections
    one = lambda x: np.ones_like(x)
    for i, term in enumerate(corrections):
        orth = inner_product(mode.left_asm.nodes, term.v_left,
                             mode.v_left, weight_fn=one)
        assert abs(orth) < 1e-10
        res = correction_residual(mode, corrections[:i], term,
                                  asym_chain.art.lambdas)
        assert res < 2e-7
        assert abs(term.solvability_residual) < 1e-4


def test_uniform_right_resonance_skip(uniform_chain):
    # order 2 carries nonzero slope data into the resonant right interval
    t2 = uniform_chain.corrections[1]
    assert uniform_chain.mode.degenerate_right
    assert t2.v_right is None
    assert "resonant" in t2.right_skip_reason
    # while order 1 has zero data and the zero solution
    t1 = uniform_chain.corrections[0]
    assert t1.v_right is not None
    assert np.all(t1.v_right.values == 0.0)


def test_lambda2_closed_form_uniform(uniform_chain):
    # hand-reduced order-2 solvability data for constant coefficients:
    # V2(-0) = s/2, W2(-0) = -s/mu (1 + tan delta) + v1''(-0) - t/2
    art = uniform_chain.art
    s = uniform_chain.mode.vpp_minus0
    t = uniform_chain.mode.vppp_minus0
    w = float(uniform_chain.corrections[0].endpoint_minus[2])
    mu = art.lambdas[0] ** 0.25
    lam2_hand = s * (-(s / mu) + w - 0.5 * t) - t * (s / 2.0)
    assert art.lambdas[2] == pytest.approx(lam2_hand, rel=1e-12)


def test_symmetry_and_nonnegative_spectrum(uniform_coeffs):
    cset = CoefficientSet(a=-1.0, b=1.0, k0=(1.0, 0.2), k1=(0.1,),
                          k2=(0.3,), p=(1.0,), q=(1.0,))
    asm = outer._interval_assembly(cset, np.linspace(cset.a, 0.0, 65))
    K = csr_forms(asm)[0].toarray()
    assert np.max(np.abs(K - K.T)) / np.max(np.abs(K)) < 1e-14
    vals, _ = hermite.eigs_near(asm, 0.0, k=6)
    assert np.all(vals > 0.0)
    assert np.all(np.imag(vals) == 0.0)
