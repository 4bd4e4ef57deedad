import dataclasses

import numpy as np
import pytest
import scipy.sparse.linalg

from beamwkb import hermite, oracle
from dense_forms import (hermite_call_all_stacks, load_vector_add_at,
                         pencil_apply_add_at)


@pytest.fixture(scope="module")
def asm():
    nodes = np.linspace(-1.0, 0.0, 25)
    return hermite.assemble(nodes, lambda x: 1.0 + 0.3 * x, None,
                            lambda x: 0.2 + 0.0 * x, lambda x: 1.0 + x ** 2)


def test_mass_inverse_norm_matches_dense(asm):
    rng = np.random.default_rng(1)
    r = rng.standard_normal(asm.ndof)
    Mff = asm.M.toarray()[2:-2, 2:-2]
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
    Mff = asm.M.toarray()[2:-2, 2:-2]
    for r in (rng.standard_normal(asm.ndof),
              asm.M @ rng.standard_normal(asm.ndof)):
        rf = r[2:-2]
        expect = np.sqrt(rf @ np.linalg.solve(Mff, rf))
        assert asm.mass_inverse_norm(r) == pytest.approx(expect, rel=1e-12)
    assert calls == []


def test_mass_inverse_norm_rejects_entry_outside_band(asm):
    far = 2 + hermite.MASS_BANDWIDTH + 1
    M = asm.M.tolil()
    M[2, far] = M[far, 2] = 1e-3
    bad = dataclasses.replace(asm, M=M.tocsr())
    with pytest.raises(ValueError, match="half-bandwidth"):
        bad.mass_inverse_norm(np.ones(asm.ndof))


def test_factor_solves_free_block(asm):
    shift = 37.5
    A = (asm.K - shift * asm.M).toarray()[2:-2, 2:-2]
    b = np.random.default_rng(2).standard_normal(A.shape[0])
    x = asm.factor(shift).solve(b)
    assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)


def test_eigs_near_vectors_vanish_on_clamped_dofs(asm):
    vals, vecs = hermite.eigs_near(asm, sigma=0.0, k=4)
    assert vecs.shape == (asm.ndof, vals.size)
    assert np.all(vecs[asm.clamped] == 0.0)
    assert np.all(np.abs(vecs[asm.free]).max(axis=0) > 0.0)


@pytest.mark.parametrize("name", ["asym_artifact", "variable_artifact"])
def test_pencil_apply_and_load_vector_match_add_at_scatter(name, request):
    mode = request.getfixturevalue(name).mode
    rng = np.random.default_rng(3)
    for asm, fn in ((mode.left_asm, mode.v_left), (mode.right_asm, mode.v_right)):
        v = fn.dofs()
        mass_vec = rng.standard_normal(asm.ndof)
        load = rng.standard_normal(asm.ndof)
        for kwargs in ({}, {"mass_vec": mass_vec, "load": load}):
            got = asm.pencil_apply(v, mode.lambda0, **kwargs)
            ref = pencil_apply_add_at(asm, v, mode.lambda0, **kwargs)
            assert got.dtype == ref.dtype
            assert np.array_equal(got, ref)
        rhs = lambda x: (1.0 + x ** 2) * fn(x)
        assert np.array_equal(hermite.load_vector(asm.nodes, rhs),
                              load_vector_add_at(asm.nodes, rhs))


def test_hermite_function_matches_all_stack_basis(variable_artifact):
    fn = variable_artifact.mode.v_left
    xs = np.concatenate([fn.nodes, np.random.default_rng(4).uniform(
        fn.nodes[0], fn.nodes[-1], 257)])
    for deriv in range(4):
        assert np.array_equal(fn(xs, deriv),
                              hermite_call_all_stacks(fn, xs, deriv))
        x0 = float(xs[-1])
        assert fn(x0, deriv) == hermite_call_all_stacks(fn, x0, deriv)


def test_ritz_values_at_ritz_tol_match_machine_precision(asym_artifact):
    # stopped at RITZ_TOL, ARPACK's Ritz values (not only the polished
    # pairs) still agree with its machine-precision default (tol=0)
    art = asym_artifact
    eps = art.epsilon(20)
    prob = oracle.assemble(art.coeffs, eps, art.S1)
    for asm, sigma in ((prob.asm, art.lambda_trunc(eps, art.n_max)),
                       (art.mode.left_asm, 0.0),
                       (art.mode.right_asm, art.lambdas[0])):
        vals, _ = hermite.eigs_near(asm, sigma=sigma, k=6)
        Kff, Mff = asm.free_blocks
        n = Kff.shape[0]
        ref = np.sort(scipy.sparse.linalg.eigsh(
            Kff.tocsc(), k=6, M=Mff.tocsc(), sigma=sigma, which="LM",
            v0=np.ones(n) / np.sqrt(n), tol=0)[0])
        np.testing.assert_allclose(vals, ref, rtol=1e-12, atol=0)
