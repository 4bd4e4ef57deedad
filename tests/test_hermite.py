import dataclasses
from functools import partial

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse.linalg

from beamwkb import hermite, oracle, outer
from dense_forms import (band_of, csr_forms, free_blocks,
                         hermite_call_all_stacks, load_vector_add_at,
                         pencil_apply_add_at)


@pytest.fixture(scope="module")
def asm():
    nodes = np.linspace(-1.0, 0.0, 25)
    return hermite.assemble(nodes, lambda x: 1.0 + 0.3 * x, None,
                            lambda x: 0.2 + 0.0 * x, lambda x: 1.0 + x ** 2)


def test_mass_inverse_norm_matches_dense(asm):
    rng = np.random.default_rng(1)
    r = rng.standard_normal(asm.ndof)
    Mff = free_blocks(asm)[1].toarray()
    rf = r[2:-2]
    expect = np.sqrt(rf @ np.linalg.solve(Mff, rf))
    assert asm.mass_inverse_norm(r) == pytest.approx(expect, rel=1e-12)


@pytest.mark.parametrize("name, l", [("asym_artifact", 40),
                                     ("uniform_artifact", 18),
                                     ("variable_artifact", 44)])
def test_mass_inverse_norm_matches_dense_on_oracle_pencils(name, l, request,
                                                           monkeypatch):
    # the inner mass carries eps^-8 q(x/eps): at asym l = 40 its entries
    # outweigh the outer ones by about eps^-8; the banded Cholesky must
    # hold 1e-12 there and factor without SuperLU
    art = request.getfixturevalue(name)
    eps = art.epsilon(l)
    asm = oracle.assemble(art.coeffs, eps, art.S1).asm
    calls = []
    monkeypatch.setattr(scipy.sparse.linalg, "splu",
                        lambda *args, **kwargs: calls.append(args))
    rng = np.random.default_rng(6)
    M = csr_forms(asm)[1]
    Mff = M.toarray()[2:-2, 2:-2]
    for r in (rng.standard_normal(asm.ndof),
              M @ rng.standard_normal(asm.ndof)):
        rf = r[2:-2]
        expect = np.sqrt(rf @ np.linalg.solve(Mff, rf))
        assert asm.mass_inverse_norm(r) == pytest.approx(expect, rel=1e-12)
    assert calls == []


def _shifted_solve_residual(asm, factor):
    shift = 37.5
    Kff, Mff = free_blocks(asm)
    A = (Kff - shift * Mff).toarray()
    b = np.random.default_rng(2).standard_normal(A.shape[0])
    x = factor(shift)(b)
    return np.linalg.norm(A @ x - b) / np.linalg.norm(b)


def test_factor_solves_free_block(asm):
    assert _shifted_solve_residual(asm, partial(outer._factor, asm)) <= 1e-10


def test_band_factor_solves_free_block(asm):
    assert _shifted_solve_residual(asm, asm.band_factor) <= 1e-10


def test_band_factor_nudges_an_exactly_singular_shift(asm):
    # K = M makes K - 1 M exactly zero; the nudged shift 1 + 1e-11 leaves
    # about -1e-11 M, which the factorization must solve
    same = dataclasses.replace(asm, bands=asm.bands[[1, 1]])
    Mff = free_blocks(asm)[1]
    A = (Mff - (1.0 + 1e-11) * Mff).toarray()
    b = np.random.default_rng(5).standard_normal(A.shape[0])
    x = same.band_factor(1.0)(b)
    np.testing.assert_allclose(x, np.linalg.solve(A, b), rtol=1e-10, atol=0)


def test_band_factor_raises_on_illegal_lapack_argument(asm, monkeypatch):
    dgbtrf = scipy.linalg.lapack.dgbtrf

    def illegal(*args, **kwargs):
        lu, piv, _ = dgbtrf(*args, **kwargs)
        return lu, piv, -3

    monkeypatch.setattr(scipy.linalg.lapack, "dgbtrf", illegal)
    with pytest.raises(np.linalg.LinAlgError, match="info=-3"):
        asm.band_factor(37.5)


def test_eigs_near_vectors_vanish_on_clamped_dofs(asm):
    vals, vecs = hermite.eigs_near(asm, 0.0, k=4)
    assert vecs.shape == (asm.ndof, vals.size)
    assert np.all(vecs[asm.clamped] == 0.0)
    assert np.all(np.abs(vecs[asm.free]).max(axis=0) > 0.0)


def test_eigs_near_matches_dense_pencil(asm):
    # the standard-form operator U (K_ff - sigma M_ff)^-1 U^T against a
    # dense solve of the pencil: values nearest sigma and M-orthonormal
    # vectors spanning the same eigenvectors
    Kff, Mff = (B.toarray() for B in free_blocks(asm))
    ref, ref_vecs = scipy.linalg.eigh(Kff, Mff)
    sigma = 0.5 * (ref[3] + ref[4])
    near = np.sort(np.argsort(np.abs(ref - sigma))[:4])
    vals, vecs = hermite.eigs_near(asm, sigma, k=4)
    np.testing.assert_allclose(vals, ref[near], rtol=1e-10, atol=0)
    xf = vecs[asm.free]
    np.testing.assert_allclose(xf.T @ Mff @ xf, np.eye(4), rtol=0, atol=1e-10)
    overlap = np.abs(ref_vecs[:, near].T @ Mff @ xf)
    np.testing.assert_allclose(overlap, np.eye(4), rtol=0, atol=1e-8)


def _quadratic_forms(monkeypatch):
    """The element matrices of every extended-precision quadratic form
    v^T A w evaluated from here on, in call order."""
    einsum = np.einsum
    forms = []

    def counting(subscripts, *operands, **kwargs):
        if subscripts == "ei,eij,ej->":
            forms.append(operands[1])
        return einsum(subscripts, *operands, **kwargs)

    monkeypatch.setattr(np, "einsum", counting)
    return forms


def test_solve_near_forms_the_mass_norm_only_in_the_polish(asym_artifact,
                                                          monkeypatch):
    # each polish step forms v^T K v and v^T M v once, for its Rayleigh
    # quotient; the last mass form scales the reported vector, and the
    # row forms no other
    art = asym_artifact
    eps = art.epsilon(20)
    prob = oracle.assemble(art.coeffs, eps, art.S1)
    forms = _quadratic_forms(monkeypatch)
    oracle.solve_near(prob, art.lambda_trunc(eps, art.n_max))
    assert sum(A is prob.asm.Me for A in forms) == hermite.POLISH_STEPS
    assert len(forms) == 2 * hermite.POLISH_STEPS


def test_three_point_solve_forms_the_mass_norm_only_in_the_polish(
        asym_coeffs, monkeypatch):
    # the polished left pair (v0) and right pair (gap_right), and no
    # second mass form to normalize v0
    forms = _quadratic_forms(monkeypatch)
    mode = outer.solve_three_point_eigen(asym_coeffs, 1, outer_grid=128)
    for asm in (mode.left_asm, mode.right_asm):
        assert sum(A is asm.Me for A in forms) == hermite.POLISH_STEPS
    assert len(forms) == 4 * hermite.POLISH_STEPS


def test_polish_returns_a_unit_vector_when_its_first_step_breaks(asm):
    # a solve that comes back zero stops the iteration: the pair as given,
    # its vector scaled to unit mass norm
    vals, vecs = hermite.eigs_near(asm, 0.0, k=4)
    v = 3.0 * vecs[:, 0]
    lam, out = hermite.polish(asm, vals[0], v, lambda shift: np.zeros_like)
    assert lam == float(vals[0]) and type(lam) is float
    mass = float(asm._quad_form(asm.Me, v, v))
    assert np.array_equal(out, v / np.sqrt(mass))


def test_rayleigh_is_the_ratio_of_the_two_quadratic_forms(asm):
    # the quotient and the mass form it divides by, bit for bit
    v = np.random.default_rng(8).standard_normal(asm.ndof)
    mass = asm._quad_form(asm.Me, v, v)
    assert asm.rayleigh(v) == (float(asm._quad_form(asm.Ke, v, v) / mass),
                               float(mass))


@pytest.mark.parametrize("name", ["asym_artifact", "variable_artifact"])
def test_gauss_values_match_evaluation_at_gauss_points(name, request):
    # the tabulation on the function's own mesh against __call__ at
    # gauss_points, on the outer meshes and on an oracle mesh
    art = request.getfixturevalue(name)
    eps = art.epsilon(20)
    res = oracle.solve_near(oracle.assemble(art.coeffs, eps, art.S1),
                            art.lambda_trunc(eps, art.n_max))
    for fn in (art.outer_left[1], art.outer_right[1], res.eigenfunction):
        got = fn.gauss_values()
        ref = fn(hermite.gauss_points(fn.nodes)[0])
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def _chain(request, name):
    """The recorded build behind the artifact fixture ``name``."""
    return request.getfixturevalue(name.replace("_artifact", "_chain"))


@pytest.mark.parametrize("name", ["asym_artifact", "variable_artifact"])
def test_pencil_apply_and_load_vector_match_add_at_scatter(name, request):
    mode = _chain(request, name).mode
    rng = np.random.default_rng(3)
    for asm, fn in ((mode.left_asm, mode.v_left), (mode.right_asm, mode.v_right)):
        v = fn.dofs()
        load = rng.standard_normal(asm.ndof)
        for kwargs in ({}, {"load": load}):
            got = asm.pencil_apply(v, mode.lambda0, **kwargs)
            ref = pencil_apply_add_at(asm, v, mode.lambda0, **kwargs)
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)
        rhs = lambda x: (1.0 + x ** 2) * fn(x)
        rule = hermite.GaussRule(asm.nodes)
        assert np.array_equal(rule.load_vector(rhs(rule.x)),
                              load_vector_add_at(asm.nodes, rhs))


def test_hermite_function_matches_all_stack_basis(variable_artifact):
    fn = variable_artifact.outer_left[0]
    xs = np.concatenate([fn.nodes, np.random.default_rng(4).uniform(
        fn.nodes[0], fn.nodes[-1], 257)])
    assert np.array_equal(fn(xs), hermite_call_all_stacks(fn, xs))
    x0 = float(xs[-1])
    assert fn(x0) == hermite_call_all_stacks(fn, x0)


def test_ritz_values_at_ritz_tol_match_machine_precision(asym_chain,
                                                         monkeypatch):
    # stopped at RITZ_TOL, ARPACK's Ritz values (not only the polished
    # pairs) still agree with its machine-precision default (tol=0) on
    # the same shift-invert operator: the oracle's standard form on the
    # band LU and the mass Cholesky, the outer chain's generalized form
    # on SuperLU
    art = asym_chain.art
    eps = art.epsilon(20)
    prob = oracle.assemble(art.coeffs, eps, art.S1)
    sigma = art.lambda_trunc(eps, art.n_max)
    vals, _ = hermite.eigs_near(prob.asm, sigma, k=6)
    with monkeypatch.context() as mp:
        mp.setattr(hermite, "RITZ_TOL", 0)
        ref = hermite.eigs_near(prob.asm, sigma, k=6)[0]
    np.testing.assert_allclose(vals, ref, rtol=1e-12, atol=0)
    left, right = asym_chain.mode.left_asm, asym_chain.mode.right_asm
    for asm, sigma in ((left, 0.0), (right, art.lambdas[0])):
        vals, _ = outer._eigs_near(asm, sigma, 6, outer._factor(asm, sigma))
        Kff, Mff = free_blocks(asm)
        n = Kff.shape[0]
        opinv = scipy.sparse.linalg.LinearOperator(
            (n, n), matvec=outer._factor(asm, sigma), dtype=float)
        ref = np.sort(scipy.sparse.linalg.eigsh(
            Kff.tocsc(), k=6, M=Mff.tocsc(), sigma=sigma, which="LM",
            v0=np.ones(n) / np.sqrt(n), tol=0, OPinv=opinv)[0])
        np.testing.assert_allclose(vals, ref, rtol=1e-12, atol=0)


def _assemblies(chain):
    # the outer interval assemblies and the oracle's at l = 8 and 40
    art = chain.art
    yield chain.mode.left_asm
    yield chain.mode.right_asm
    for l in (8, 40):
        yield oracle.assemble(art.coeffs, art.epsilon(l), art.S1).asm


@pytest.mark.parametrize("name", ["uniform_artifact", "asym_artifact",
                                  "variable_artifact"])
def test_band_store_matches_csr_assembly(name, request):
    # the band store holds the COO -> CSR assembly entry for entry, and
    # its row-ordered product equals the CSR and CSC products bit for bit,
    # over all dofs and over the free block (whose corner cells hold the
    # clamped couplings)
    rng = np.random.default_rng(7)
    for asm in _assemblies(_chain(request, name)):
        free = asm.free
        for band, A in zip(asm.bands, csr_forms(asm)):
            assert np.array_equal(band, band_of(A))
            for part, B in ((band, A), (band[:, free], A[free, free])):
                x = rng.standard_normal(B.shape[0])
                got = asm.product(part, x)
                assert np.array_equal(got, B @ x)
                assert np.array_equal(got, B.tocsc() @ x)


@pytest.mark.parametrize("name", ["uniform_artifact", "asym_artifact",
                                  "variable_artifact"])
def test_pencil_csc_matches_csr_pencil(name, request):
    # the SuperLU input: structure and values of K_ff - shift M_ff as the
    # CSR difference builds it, entries that cancel to zero dropped
    chain = _chain(request, name)
    for asm in _assemblies(chain):
        Kff, Mff = free_blocks(asm)
        for shift in (0.0, chain.art.lambdas[0]):
            got = outer._pencil_csc(asm, shift)
            ref = (Kff - shift * Mff).tocsc()
            ref.eliminate_zeros()
            assert got.has_sorted_indices and ref.has_sorted_indices
            for attr in ("indptr", "indices", "data"):
                assert np.array_equal(getattr(got, attr), getattr(ref, attr))
