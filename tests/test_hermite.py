import numpy as np
import pytest

from beamwkb import hermite


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
