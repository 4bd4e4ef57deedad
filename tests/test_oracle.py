import dataclasses
import math
from functools import partial

import numpy as np
import pytest
import scipy.linalg.lapack
import scipy.sparse.linalg

from beamwkb import hermite, oracle, outer
from beamwkb.model import CoefficientSet
from dense_forms import csr_forms, element_blocks, exact_eigenvalue


@pytest.fixture(scope="module")
def uprob(uniform_coeffs, uniform_artifact):
    return oracle.assemble(uniform_coeffs, 0.12, uniform_artifact.S1)


def test_mesh_aligned_at_interface(uprob):
    nodes = uprob.asm.nodes
    assert 0.12 in nodes and -0.12 in nodes
    assert np.all(np.diff(nodes) > 0)


def test_mesh_resolution_invariant(uniform_coeffs, uniform_artifact):
    S1 = uniform_artifact.S1
    prob = oracle.assemble(uniform_coeffs, 0.05, S1)
    wavecount = S1 / (2 * np.pi * 0.05)
    assert wavecount == pytest.approx(30.1, abs=0.2)
    assert prob.n_inner >= 20 * wavecount - 1
    with pytest.raises(oracle.MeshResolutionError):
        oracle.assemble(uniform_coeffs, 0.05, S1, refine=0.3)


def test_eps_out_of_range(uniform_coeffs, uniform_artifact):
    with pytest.raises(ValueError, match="out of range"):
        oracle.assemble(uniform_coeffs, 1.5, uniform_artifact.S1)


def test_assembled_symmetry(uprob):
    K = csr_forms(uprob.asm)[0]
    diff = (K - K.T).toarray()
    assert np.max(np.abs(diff)) / np.max(np.abs(K.toarray())) < 1e-14


def test_inner_mass_scaling(uniform_coeffs, uniform_artifact):
    # at m = 8 and eps = 0.1 the inner density is exactly 1e8 q(x/eps)
    eps = 0.1
    prob = oracle.assemble(uniform_coeffs, eps, uniform_artifact.S1)
    nodes = prob.asm.nodes
    h = np.diff(nodes)
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    inner_el = np.abs(mids) < eps
    Me = element_blocks(prob.asm)[1]
    # consistent-mass diagonal entry of a uniform element: 156/420 rho h
    rho_in = Me[inner_el, 0, 0] / (156.0 / 420.0 * h[inner_el])
    rho_out = Me[~inner_el, 0, 0] / (156.0 / 420.0 * h[~inner_el])
    assert np.allclose(rho_in, 1e8, rtol=1e-10)
    assert np.allclose(rho_out, 1.0, rtol=1e-10)


def test_no_mass_reproduces_clamped_spectrum(uniform_coeffs, beam_root,
                                             beam_root_2):
    # with the concentrated density removed the solver must recover the
    # classical clamped eigenvalues of the full interval (length 2)
    for n_el in (192, 384):
        nodes = np.linspace(-1.0, 1.0, n_el + 1)
        one = lambda x: np.ones_like(x)
        asm = hermite.assemble(nodes, one, None, None, one)
        vals, vecs = hermite.eigs_near(asm, 10.0, k=4)
        vals = [hermite.polish(asm, vals[i], vecs[:, i],
                               partial(outer._factor, asm))[0]
                for i in (0, 1)]
        expect = [(beam_root / 2.0) ** 4, (beam_root_2 / 2.0) ** 4]
        assert vals[0] == pytest.approx(expect[0], rel=1e-8)
        assert vals[1] == pytest.approx(expect[1], rel=1e-7)


def test_solve_near_contract(uniform_coeffs, uniform_artifact):
    art = uniform_artifact
    eps = art.epsilon(14)
    prob = oracle.assemble(uniform_coeffs, eps, art.S1)
    target = art.lambda_trunc(eps, 1)
    res = oracle.solve_near(prob, target)
    assert res.residual < 1e-7
    assert res.gap > 0
    lo, hi = res.flanking()
    assert lo is not None and hi is not None and lo < res.eigenvalue < hi
    # the eigenvalue locks onto the expansion to second order
    assert abs(res.eigenvalue - target) < 6000.0 * eps ** 2
    quotient, mass = prob.asm.rayleigh(res.eigenfunction.dofs())
    assert quotient == pytest.approx(res.eigenvalue, rel=1e-12)
    assert mass == pytest.approx(1.0, rel=1e-12)


def _counting(calls, name, fn):
    """fn, counting its calls in calls[name]."""
    def wrapped(*args, **kwargs):
        calls[name] += 1
        return fn(*args, **kwargs)
    return wrapped


def test_solve_near_polishes_only_the_reported_pair(uniform_coeffs,
                                                    uniform_artifact,
                                                    monkeypatch):
    # one band LU for ARPACK's shift-invert operator and one per polish
    # step of the reported pair, and no SuperLU at all; the residual
    # norm's mass factor is a banded Cholesky
    art = uniform_artifact
    eps = art.epsilon(14)
    prob = oracle.assemble(uniform_coeffs, eps, art.S1)
    splu = scipy.sparse.linalg.splu
    dgbtrf = scipy.linalg.lapack.dgbtrf
    calls = {"splu": 0, "dgbtrf": 0}
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        _counting(calls, "splu", splu))
    monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf",
                        _counting(calls, "dgbtrf", dgbtrf))
    oracle.solve_near(prob, art.lambda_trunc(eps, 1))
    assert calls == {"splu": 0, "dgbtrf": hermite.POLISH_STEPS + 1}


def test_eigs_near_makes_no_mass_product(uniform_coeffs, uniform_artifact,
                                        monkeypatch):
    # the standard-form operator: one band LU and no Assembly.product
    art = uniform_artifact
    eps = art.epsilon(14)
    prob = oracle.assemble(uniform_coeffs, eps, art.S1)
    product = hermite.Assembly.product
    dgbtrf = scipy.linalg.lapack.dgbtrf
    calls = {"product": 0, "dgbtrf": 0}
    monkeypatch.setattr(hermite.Assembly, "product",
                        staticmethod(_counting(calls, "product", product)))
    monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf",
                        _counting(calls, "dgbtrf", dgbtrf))
    hermite.eigs_near(prob.asm, art.lambda_trunc(eps, 1), k=4)
    assert calls == {"product": 0, "dgbtrf": 1}


def test_oracle_row_builds_no_sparse_matrix(variable_artifact, monkeypatch):
    # assembly, solve, residual norm and normalization of a row read the
    # band store only; the variable beam brings k1, k2, p and q in
    init = scipy.sparse._base._spbase.__init__
    made = []

    def counting(self, *args, **kwargs):
        made.append(type(self).__name__)
        return init(self, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse._base._spbase, "__init__", counting)
    scipy.sparse.dia_array((2, 2))
    assert made == ["dia_array"]          # the probe sees a construction
    made.clear()
    art = variable_artifact
    eps = art.epsilon(20)
    prob = oracle.assemble(art.coeffs, eps, art.S1)
    res = oracle.solve_near(prob, art.lambda_trunc(eps, art.n_max))
    oracle.normalize_weighted(res, prob, art.outer_left[0])
    assert made == []


def test_solve_near_determinism(uniform_coeffs, uniform_artifact):
    eps = 0.11
    t = uniform_artifact.lambda_trunc(eps, 1)
    r1 = oracle.solve_near(oracle.assemble(uniform_coeffs, eps,
                                           uniform_artifact.S1), t)
    r2 = oracle.solve_near(oracle.assemble(uniform_coeffs, eps,
                                           uniform_artifact.S1), t)
    assert r1.eigenvalue == r2.eigenvalue
    assert np.array_equal(r1.eigenfunction.dofs(), r2.eigenfunction.dofs())


def test_mesh_doubling_moves_below_asymptotic_error(asym_coeffs,
                                                    asym_artifact):
    # discretization error must sit below the order-(n_max+1) remainder
    art = asym_artifact
    eps = art.epsilon(14)
    target = art.lambda_trunc(eps, 2)
    sols = []
    for refine in (2.0, 4.0):
        prob = oracle.assemble(asym_coeffs, eps, art.S1, refine=refine)
        sols.append(oracle.solve_near(prob, target).eigenvalue)
    move = abs(sols[0] - sols[1])
    assert move < 1e-3 * eps ** 3 * art.lambdas[0]


def test_normalization_and_sign(uniform_coeffs, uniform_artifact, uprob):
    art = uniform_artifact
    res = oracle.solve_near(uprob, art.lambda_trunc(0.12, 2))
    v0 = art.outer_left[0]
    nres = oracle.normalize_weighted(res, uprob, v0)
    assert uprob.asm.rayleigh(nres.eigenfunction.dofs())[1] == \
        pytest.approx(1.0, rel=1e-12)
    assert nres.sign_correlation > 0.0
    # idempotent
    again = oracle.normalize_weighted(nres, uprob, v0)
    assert np.array_equal(again.eigenfunction.dofs(), nres.eigenfunction.dofs())


def test_normalize_weighted_only_signs_the_pair(uniform_artifact, uprob):
    # against a negated reference the eigenfunction and its Gauss values
    # come back negated bit for bit, with the same correlation, and every
    # other field is the solve's own
    art = uniform_artifact
    res = oracle.solve_near(uprob, art.lambda_trunc(0.12, 2))
    v0 = art.outer_left[0]
    pos = oracle.normalize_weighted(res, uprob, v0)
    neg = oracle.normalize_weighted(res, uprob, lambda x: -v0(x))
    assert np.array_equal(neg.eigenfunction.values, -pos.eigenfunction.values)
    assert np.array_equal(neg.eigenfunction.slopes, -pos.eigenfunction.slopes)
    assert np.array_equal(neg.eigenfunction.nodes, pos.eigenfunction.nodes)
    assert np.array_equal(neg.gauss_values, -pos.gauss_values)
    assert np.array_equal(neg.gauss_values, neg.eigenfunction.gauss_values())
    assert neg.sign_correlation == pos.sign_correlation > 0.0
    for f in dataclasses.fields(oracle.SpectralResult):
        if f.name not in ("eigenfunction", "gauss_values",
                          "sign_correlation"):
            assert getattr(neg, f.name) is getattr(res, f.name)
            assert getattr(pos, f.name) is getattr(res, f.name)


def test_local_mode_capture_detected(uniform_coeffs, uniform_artifact):
    # targeting the low local branch (order eps^4 eigenvalues) returns a
    # mode with negligible outer correlation, which must be reported
    art = uniform_artifact
    eps = 0.15
    prob = oracle.assemble(uniform_coeffs, eps, art.S1)
    vals, _ = hermite.eigs_near(prob.asm, 1e-6, k=3)
    assert vals[0] < 1e-2 * art.lambdas[0] * eps ** 4 * 100
    res = oracle.solve_near(prob, max(vals[0], 1e-9))
    with pytest.raises(oracle.ModeCaptureError, match="correlation"):
        oracle.normalize_weighted(res, prob,
                                  lambda x: art.outer_left[0](x))


def test_large_eps_solver_contract(uniform_coeffs, uniform_artifact):
    # far outside the asymptotic regime the solver still converges cleanly
    prob = oracle.assemble(uniform_coeffs, 0.5, uniform_artifact.S1)
    res = oracle.solve_near(prob, 300.0)
    assert res.residual < 1e-6
    assert res.eigenvalue > 0


def test_eigenvalue_ordering_stable_under_refinement(uniform_coeffs,
                                                     uniform_artifact):
    eps = 0.15
    vals = []
    for refine in (1.0, 1.5):
        prob = oracle.assemble(uniform_coeffs, eps, uniform_artifact.S1,
                               refine=refine)
        v, _ = hermite.eigs_near(prob.asm, 1e-6, k=20)
        vals.append(np.sort(v))
    rel = np.abs(vals[0] - vals[1]) / np.abs(vals[0])
    assert np.max(rel) < 1e-3


def _direct_flanks(prob, lam, target):
    # twelve Ritz pairs at ARPACK's machine-precision default, bracketing
    # lam, on the standard-form shift-invert operator that solve_near uses
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(hermite, "RITZ_TOL", 0)
        vals = hermite.eigs_near(prob.asm, target, k=12)[0]
    j = int(np.argmin(np.abs(vals - lam)))
    assert 0 < j < vals.size - 1
    return vals[j - 1], vals[j + 1]


FIXTURE_LS = [("uniform", (6, 12, 18)), ("asym", (8, 20, 40)),
              ("variable", (8, 24, 44))]
# measured on these nine rows: at most 2.8e-10 (uniform), 4.5e-11 on
# asym and 2.9e-11 on variable
FLANK_POLISH_RTOL = 1e-9


@pytest.mark.parametrize("name, ls", FIXTURE_LS)
def test_flanks_match_machine_precision_solve(name, ls, request):
    # four Ritz pairs at RITZ_TOL still give both flanks, each the true
    # neighbouring eigenvalue of the pencil; the uniform beam is
    # mirror-symmetric, the hardest case for a flank below
    art = request.getfixturevalue(f"{name}_artifact")
    for l in ls:
        eps = art.epsilon(l)
        target = art.lambda_trunc(eps, art.n_max)
        prob = oracle.assemble(art.coeffs, eps, art.S1)
        res = oracle.solve_near(prob, target)
        lo, hi = res.flanking()
        assert lo is not None and hi is not None
        lo_ref, hi_ref = _direct_flanks(prob, res.eigenvalue, target)
        assert lo == pytest.approx(lo_ref, rel=1e-12, abs=0)
        assert hi == pytest.approx(hi_ref, rel=1e-12, abs=0)
        assert res.gap == min(res.eigenvalue - lo, hi - res.eigenvalue)


@pytest.mark.parametrize("name, ls", FIXTURE_LS)
def test_flanks_match_their_polished_eigenvalues(name, ls, request):
    # each Ritz flank against its own pair polished on the band LU: a
    # check independent of ARPACK's tolerance and of the tol=0 reference
    art = request.getfixturevalue(f"{name}_artifact")
    for l in ls:
        eps = art.epsilon(l)
        target = art.lambda_trunc(eps, art.n_max)
        prob = oracle.assemble(art.coeffs, eps, art.S1)
        res = oracle.solve_near(prob, target)
        vals, vecs = hermite.eigs_near(prob.asm, target, k=4)
        for flank in res.flanking():
            j = int(np.argmin(np.abs(vals - flank)))
            assert vals[j] == flank
            lam = hermite.polish(prob.asm, vals[j], vecs[:, j],
                                 prob.asm.band_factor)[0]
            assert flank == pytest.approx(lam, rel=FLANK_POLISH_RTOL, abs=0)


def test_solve_near_shift_invert_work(asym_artifact, monkeypatch):
    # counts applications of the shift-invert operator that solve_near
    # hands to eigsh (one band solve each); tol=0 with six pairs makes
    # about 41
    art = asym_artifact
    eigsh = scipy.sparse.linalg.eigsh
    applied = []

    def counting_eigsh(A, *args, **kwargs):
        def matvec(x):
            applied.append(1)
            return A.matvec(x)

        op = scipy.sparse.linalg.LinearOperator(A.shape, matvec=matvec,
                                                dtype=float)
        return eigsh(op, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counting_eigsh)
    eps = art.epsilon(20)
    prob = oracle.assemble(art.coeffs, eps, art.S1)
    res = oracle.solve_near(prob, art.lambda_trunc(eps, art.n_max))
    assert res.flanking()[0] is not None and res.flanking()[1] is not None
    assert 0 < len(applied) <= 25


# the piecewise-constant fixtures and the l of their exact-root checks
EXACT_LS = [("uniform", (8, 12, 20)), ("asym", (8, 20, 40))]
REFINES = (1.0, 2.0, 4.0)


@pytest.fixture(scope="module")
def exact_rows(uniform_artifact, asym_artifact):
    """name -> [(l, exact eigenvalue, FE eigenvalue per REFINES)].

    eps comes from the artifact under test, so every exact root is computed
    at the eps the FE oracle sees.  The bracket is a quarter of the refine-1
    gap either side of the refine-1 eigenvalue.
    """
    rows = {}
    for name, ls in EXACT_LS:
        art = {"uniform": uniform_artifact, "asym": asym_artifact}[name]
        rows[name] = []
        for l in ls:
            eps = art.epsilon(l)
            target = art.lambda_trunc(eps, art.n_max)
            fe = [oracle.solve_near(oracle.assemble(art.coeffs, eps, art.S1,
                                                    refine=r), target)
                  for r in REFINES]
            exact = exact_eigenvalue(art.coeffs, eps, fe[0].eigenvalue,
                                     0.25 * fe[0].gap)
            rows[name].append((l, exact, [r.eigenvalue for r in fe]))
    return rows


@pytest.mark.parametrize("name", [name for name, _ in EXACT_LS])
def test_fe_oracle_converges_at_order_four_to_exact_root(name, exact_rows):
    # Hermite cubics: eigenvalue error O(h^4), so each mesh doubling divides
    # it by 16 (measured orders 3.993-3.999)
    for l, exact, fe in exact_rows[name]:
        errs = [abs(v - exact) for v in fe]
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        print(f"\n{name} l={l}: FE rel. errors "
              f"{[f'{e / exact:.2e}' for e in errs]}, orders "
              f"{[round(o, 3) for o in orders]}")
        for order in orders:
            assert abs(order - 4.0) <= 0.2


def test_exact_roots_match_the_asym_table(exact_rows):
    # the asym fixture (delta 0, outer_grid 256, n_max 3) at l = 8, 20, 40
    table = {8: 1262.3252591201, 20: 696.7198561325, 40: 586.2017205411}
    for l, exact, _ in exact_rows["asym"]:
        assert exact == pytest.approx(table[l], rel=1e-9, abs=0)
