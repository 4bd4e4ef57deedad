"""Property tests on random inputs.

The fast kernels (slice scatters, the vectorized antiderivative, one row
or a stack, the single-derivative Hermite basis, QFunc arithmetic on
integer eighths) must match their straightforward forms in
``dense_forms`` bit for bit, signed zeros included, and every QFunc
derived from a positive q must carry q' exactly.  The suite's own pytest
configuration must report a failing property test as a failure.
"""

import subprocess
import sys
import textwrap
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import polynomial as P

from beamwkb import hermite, inner
from dense_forms import (FractionQFunc, cheb_antideriv_values_loop,
                         hermite_call_all_stacks, load_vector_add_at,
                         pencil_apply_add_at, reference_basis_all,
                         scatter_add_at)

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
    rule = hermite.GaussRule(nodes)
    assert_bits_equal(rule.load_vector(rhs(rule.x)),
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
@given(st.integers(1, 5).flatmap(
    lambda k: vectors(3, 40, mult=k).map(lambda v: (k, v))))
def test_cheb_antideriv_stack_matches_loop_per_row(stack):
    k, vals = stack
    v = np.array(vals).reshape(k, -1)
    nodes = inner.cheb_nodes(v.shape[1])
    assert_bits_equal(inner.cheb_antideriv_values(v, nodes),
                      np.stack([cheb_antideriv_values_loop(row, nodes)
                                for row in v]))


@PROPERTY
@given(st.lists(st.one_of(st.sampled_from([0.0, -0.0, 1.0]),
                          st.floats(0.0, 1.0)), min_size=1, max_size=40),
       st.integers(0, 2))
def test_reference_basis_matches_all_stacks(s, deriv):
    s = np.array(s)
    assert_bits_equal(hermite._reference_basis(s, deriv),
                      reference_basis_all(s)[deriv])


@PROPERTY
@given(ELEMENT_SIZES, st.integers(0, 2 ** 32 - 1))
def test_hermite_function_matches_all_stacks(sizes, seed):
    nodes = mesh(sizes)
    rng = np.random.default_rng(seed)
    fn = hermite.HermiteFunction(nodes, *rng.standard_normal((2, nodes.size)))
    xs = np.concatenate([nodes, rng.uniform(nodes[0], nodes[-1], 33)])
    assert_bits_equal(fn(xs), hermite_call_all_stacks(fn, xs))


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


def _qfunc_terms(qf):
    """A QFunc's terms keyed by their exponents as Fractions."""
    return {Fraction(k, 8): poly for k, poly in qf.terms.items()}


@PROPERTY
@given(POSITIVE_Q, POWERS, POWERS, st.lists(FLOATS, min_size=1, max_size=3),
       st.floats(-2.0, 2.0))
def test_eighths_qfunc_matches_fraction_reference(q, p1, p2, poly, scale):
    # the same expressions in both: every term (in order) and every value
    # on a grid agree bit for bit
    xs = np.linspace(-1.0, 1.0, 33)
    built = []
    for Q in (inner.QFunc, FractionQFunc):
        f = Q.qpow(q, p1, 1.5) + Q.poly(q, poly)
        g = f * Q.qpow(q, p2, scale)
        h = (g + f * 2.5).deriv()
        built.append([f, g, h, h.deriv(), g * h])
    for qf, ref in zip(*built):
        got = _qfunc_terms(qf)
        assert list(got) == list(ref.terms)
        for p, arr in ref.terms.items():
            assert_bits_equal(got[p], arr)
        assert_bits_equal(qf(xs), ref(xs))


@pytest.mark.parametrize("p", [Fraction(1, 3), 1.0 / 3.0, Fraction(1, 16),
                               0.1])
def test_qfunc_rejects_exponents_off_the_eighths(p):
    with pytest.raises(ValueError, match="multiple of 1/8"):
        inner.QFunc.qpow([1.0, 0.5], p)


_PROBE = textwrap.dedent("""
    from hypothesis import given, settings, strategies as st

    PROPERTY = settings(derandomize=True, database=None)


    @PROPERTY
    @given(st.integers())
    def test_fails(n):
        assert n != n


    @PROPERTY
    @given(st.integers())
    def test_passes(n):
        assert n == n
""")


def test_failing_property_test_is_reported(tmp_path):
    # reporting a failing @given test makes hypothesis import libcst, whose
    # import warns; under the suite's filterwarnings that warning must not
    # turn the report into an INTERNALERROR (exit 3) that stops the run
    (tmp_path / "test_probe.py").write_text(_PROBE)
    ini = Path(__file__).resolve().parent.parent / "pyproject.toml"
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ini), "--rootdir",
         str(tmp_path), "-p", "no:cacheprovider", "-q", "test_probe.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "INTERNALERROR" not in out
    assert "1 failed, 1 passed" in proc.stdout, out
