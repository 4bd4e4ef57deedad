"""Property tests on random inputs.

The fast kernels (slice scatters, the vectorized antiderivative, the
single-derivative Hermite basis) must match their straightforward forms
in ``dense_forms`` bit for bit, signed zeros included, and every QFunc
derived from a positive q must carry q' exactly.
"""

from fractions import Fraction

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from beamwkb import hermite, inner
from dense_forms import (cheb_antideriv_values_loop, hermite_call_all_stacks,
                         load_vector_add_at, pencil_apply_add_at,
                         reference_basis_all, scatter_add_at)

PROPERTY = settings(derandomize=True, max_examples=20, deadline=None,
                    database=None)

# finite doubles, with both signed zeros drawn often
FLOATS = st.one_of(st.sampled_from([0.0, -0.0]),
                   st.floats(-1e3, 1e3, allow_nan=False))
ELEMENT_SIZES = st.lists(st.floats(1e-3, 1.0), min_size=1, max_size=12)


def vectors(n_min, n_max, mult=1):
    return st.integers(n_min, n_max).flatmap(
        lambda n: st.lists(FLOATS, min_size=mult * n, max_size=mult * n))


def assert_bits_equal(got, ref):
    assert got.dtype == ref.dtype and got.shape == ref.shape
    assert np.array_equal(got, ref)
    assert np.array_equal(np.signbit(got), np.signbit(ref))


def mesh(sizes):
    return np.concatenate([[-1.0], -1.0 + np.cumsum(sizes)])


@PROPERTY
@given(vectors(1, 12, mult=4), st.booleans())
def test_scatter_matches_add_at(vals, extended):
    ev = np.array(vals).reshape(-1, 4)
    if extended:
        ev = ev.astype(np.longdouble)
    ndof = 2 * ev.shape[0] + 2
    assert_bits_equal(hermite._scatter(ev, ndof), scatter_add_at(ev, ndof))


@PROPERTY
@given(ELEMENT_SIZES, st.lists(FLOATS, min_size=1, max_size=4),
       st.integers(0, 2 ** 32 - 1))
def test_assembly_scatters_match_add_at(sizes, rhs_coeffs, seed):
    nodes = mesh(sizes)
    rhs = lambda x: P.polyval(x, rhs_coeffs)
    assert_bits_equal(hermite.load_vector(nodes, rhs),
                      load_vector_add_at(nodes, rhs))
    asm = hermite.assemble(nodes, lambda x: 1.0 + 0.25 * x, None, None,
                           lambda x: 1.0 + x ** 2)
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(asm.ndof)
    v[rng.random(asm.ndof) < 0.2] = -0.0
    assert_bits_equal(asm.pencil_apply(v, 3.5), pencil_apply_add_at(asm, v, 3.5))


@PROPERTY
@given(vectors(3, 40))
def test_cheb_antideriv_values_matches_loop(vals):
    v = np.array(vals)
    nodes = inner.cheb_nodes(v.size)
    assert_bits_equal(inner.cheb_antideriv_values(v, nodes),
                      cheb_antideriv_values_loop(v, nodes))


@PROPERTY
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                          st.floats(0.0, 1.0)), min_size=1, max_size=40),
       st.integers(0, 3))
def test_reference_basis_matches_all_stacks(s, deriv):
    s = np.array(s)
    assert_bits_equal(hermite._reference_basis(s, deriv),
                      reference_basis_all(s)[deriv])


@PROPERTY
@given(ELEMENT_SIZES, st.integers(0, 3), st.integers(0, 2 ** 32 - 1))
def test_hermite_function_matches_all_stacks(sizes, deriv, seed):
    nodes = mesh(sizes)
    rng = np.random.default_rng(seed)
    fn = hermite.HermiteFunction(nodes, *rng.standard_normal((2, nodes.size)))
    xs = np.concatenate([nodes, rng.uniform(nodes[0], nodes[-1], 33)])
    assert_bits_equal(fn(xs, deriv), hermite_call_all_stacks(fn, xs, deriv))


# q(xi) = c0 + sum t_k xi^k with c0 = 1 + sum |t_k| stays >= 1 on [-1, 1]
POSITIVE_Q = st.lists(st.floats(-0.3, 0.3), max_size=3).map(
    lambda tail: [1.0 + sum(abs(t) for t in tail)] + tail)
POWERS = st.sampled_from([Fraction(k, 8) for k in range(-8, 9)])


@PROPERTY
@given(POSITIVE_Q, POWERS, POWERS, st.lists(FLOATS, min_size=1, max_size=3))
def test_derived_qfuncs_carry_exact_dq(q, p1, p2, poly):
    expect = P.polyder(np.asarray(q, float)) if len(q) > 1 else np.zeros(1)
    f = inner.QFunc.qpow(q, p1, 1.5) + inner.QFunc.poly(q, poly)
    g = f * inner.QFunc.qpow(q, p2)
    t = inner.TAlg.scalar(f).mul(inner.TAlg((g, f, g.deriv(), f.zero())))
    derived = [f, g, f * 2.5, g.deriv(), g.deriv().deriv(), f.zero(),
               *t.c, *t.deriv().c]
    for qf in derived:
        assert np.array_equal(qf.dq, expect)
