"""Reference forms and test-only helpers, for checks only.

The package never builds these.  It works through the T-algebra and the
fundamental-matrix coordinates, and reads grid functions off the grid
through their Chebyshev coefficients.  The tests use these literal
matrices and the barycentric interpolant to check those fast paths.
For the piecewise-constant fixtures the epsilon-problem itself has
closed-form pieces, so its eigenvalues come from an 8x8 matching
determinant: the exact reference for the finite-element oracle.

The second half keeps the straightforward forms of the package's fast
kernels (np.add.at scatters, the COO -> CSR assembly of the Hermite
forms, the loop antiderivative, the Fraction-keyed QFunc, the
all-derivatives Hermite basis, per-call coefficient evaluation, the
per-order load density, streaming JSON writes), which the fast
kernels must match bit for bit, and the refit-per-row drop-one spread
that the closed form must match to round-off.
"""

import json
import math
from fractions import Fraction

import numpy as np
import scipy.sparse as sp
from numpy.polynomial import polynomial as P
from scipy.optimize import brentq

from beamwkb import harness, hermite, inner
from beamwkb.inner import T_POWERS
from beamwkb.model import config_to_dict


def cheb_diff_matrix(n):
    """Dense differentiation matrix on ascending Lobatto nodes."""
    x = inner.cheb_nodes(n)
    c = np.ones(n)
    c[0] = c[-1] = 2.0
    c = c * (-1.0) ** np.arange(n)
    X = np.tile(x, (n, 1)).T
    dX = X - X.T + np.eye(n)
    D = np.outer(c, 1.0 / c) / dX
    D -= np.diag(D.sum(axis=1))
    return D


def A_entries(phase, xs):
    """(eta, theta) values at xs."""
    return phase.eta(xs), phase.theta(xs)


def A_matrices(phase, xs):
    """Dense A(xi) as a (n, 4, 4) array."""
    e, t = A_entries(phase, xs)
    return e[:, None, None] * np.eye(4)[None] + t[:, None, None] * T_POWERS[3][None]


def gamma_values(phase, eps):
    """gamma_eps = S / eps + alpha on the grid."""
    return phase.S / eps + phase.alpha


def w_values(term, r=0):
    """The r-th derivative of a coefficient's right-hand side w on the grid."""
    if term._w_stack is None:
        return np.zeros((4, term.phase.nodes.size))
    return term._w_stack(r)


def g_matrix(gamma1):
    """Boundary-system matrix with the exponential terms retained."""
    c, s, e = math.cos(gamma1), math.sin(gamma1), math.exp(-gamma1)
    return np.array([
        [-1.0, 0.0, 1.0, e],
        [0.0, -1.0, -1.0, e],
        [-c, -s, e, 1.0],
        [s, -c, -e, 1.0],
    ])


def det_g_closed_form(gamma1):
    """-2 cos g + 2 e^-g (2 - e^-g cos g)."""
    g = np.asarray(gamma1, dtype=float)
    return -2.0 * np.cos(g) + 2.0 * np.exp(-g) * (2.0 - np.exp(-g) * np.cos(g))


def transport_solve_full(phase, delta, l, sigma, w_stack=None):
    """Transport solve with the exponential terms retained at eps = eps_l.

    The boundary rows use the exact matrix G(gamma_l(1)) and the exact
    traces N(+-1, gamma_l), so the solution depends on l and converges
    exponentially to the principal solution.
    """
    gamma1 = delta + 2.0 * math.pi * l
    N1 = np.array([math.cos(delta), math.sin(delta), math.exp(-gamma1), 1.0])
    xs = phase.nodes
    h = np.zeros((4, xs.size))
    if w_stack is not None:
        integrand = phase.phi_inv_apply(w_stack(0))
        h = np.stack([inner.cheb_antideriv_values(row, xs) for row in integrand])
    h1 = h[:, -1]
    m_minus = float(phase.q_38(np.array([-1.0]))[0])
    m_plus = float(phase.q_38(np.array([1.0]))[0])
    g = np.array([
        m_minus * sigma[0],
        m_minus * sigma[1],
        m_plus * sigma[2] - float(np.dot(h1, T_POWERS[2] @ N1)),
        m_plus * sigma[3] - float(np.dot(h1, T_POWERS[3] @ N1)),
    ])
    beta = np.linalg.solve(g_matrix(gamma1), g)
    return inner.InnerCoefficient(phase, beta, h=h, w_stack=w_stack)


def barycentric_eval(nodes, values, x):
    """Barycentric interpolation from Lobatto nodes (values 1d or (k, n)).

    The independent reference for the package's Chebyshev-coefficient
    evaluation; a point that hits a node returns that node's value.
    """
    n = nodes.size
    w = (-1.0) ** np.arange(n)
    w[0] *= 0.5
    w[-1] *= 0.5
    x = np.atleast_1d(np.asarray(x, dtype=float))
    vals = np.atleast_2d(values)
    diff = x[None, :] - nodes[:, None]
    exact = np.isclose(diff, 0.0, atol=1e-15)
    diff_safe = np.where(exact, 1.0, diff)
    ratio = w[:, None] / diff_safe
    denom = ratio.sum(axis=0)
    out = (vals @ ratio) / denom[None, :]
    hit_col, hit_row = np.nonzero(exact.T)
    for col, row in zip(hit_col, hit_row):
        out[:, col] = vals[:, row]
    if np.ndim(values) == 1:
        return out[0]
    return out


def phi_matrices(phase):
    """Dense Phi(xi) on the grid as (n, 4, 4)."""
    pref, ca, sa, e1, e2 = phase.phi_blocks()
    out = np.zeros((phase.nodes.size, 4, 4))
    out[:, 0, 0] = ca
    out[:, 0, 1] = sa
    out[:, 1, 0] = -sa
    out[:, 1, 1] = ca
    out[:, 2, 2] = e1
    out[:, 3, 3] = e2
    return pref[:, None, None] * out


def phi_apply_at(phase, vec, xs):
    """Phi(xi) acting on (4, n) coordinate values at arbitrary xs."""
    xs = np.asarray(xs, dtype=float)
    alpha = barycentric_eval(phase.nodes, phase.alpha, xs)
    ca, sa = np.cos(alpha), np.sin(alpha)
    out = np.stack([ca * vec[0] + sa * vec[1], -sa * vec[0] + ca * vec[1],
                    np.exp(-alpha) * vec[2],
                    np.exp(alpha - phase.alpha1) * vec[3]])
    return phase.q_m38(xs)[None, :] * out


def N_of_S(phase, eps, xs=None):
    """N(xi, S/eps) with overflow-safe shifted exponentials, (4, n)."""
    if xs is None:
        xs = phase.nodes
        Sv = phase.S
    else:
        Sv = barycentric_eval(phase.nodes, phase.S, xs)
    tau = Sv / eps
    if np.any(tau < -1e-12) or np.any(tau - phase.S1 / eps > 1e-9):
        raise FloatingPointError("inner phase left the safe range")
    return np.stack([np.cos(tau), np.sin(tau),
                     np.exp(-tau), np.exp(tau - phase.S1 / eps)])


def interface_tables(chain):
    """Endpoint tables of a recorded build's outer terms, by side."""
    mode, corr = chain.mode, chain.corrections
    return {-1: [mode.endpoint_minus] + [t.endpoint_minus for t in corr],
            +1: [mode.endpoint_plus] + [t.endpoint_plus for t in corr]}


def interface_quantities(phase, i, f_terms, tables):
    """Raw (D_i, E_i) at xi = +-1 and F_i at x = +-0.

    ``tables`` maps side (-1 or +1) to a list of endpoint derivative tables
    (arrays of v^(j)(0-+)) for the outer terms, index = order.
    """
    out = {}
    for side in (-1, +1):
        at = np.array([float(side)])
        cD = inner.phi_inv_D(phase, i, f_terms, side)
        cE = inner.phi_inv_E(phase, i, f_terms, side)
        key = "minus" if side == -1 else "plus"
        out[f"D_{key}"] = phi_apply_at(phase, cD[:, None], at)[:, 0]
        out[f"E_{key}"] = phi_apply_at(phase, cE[:, None], at)[:, 0]
        out[f"F_{key}"] = inner.taylor_shift(tables[side], side, i - 2, 0, 3)
    return out


def log_linear_correlation(x, logy):
    """|Pearson correlation| of x against log-values (exponential-decay fits)."""
    x = np.asarray(x, float)
    y = np.asarray(logy, float)
    return float(abs(np.corrcoef(x, y)[0, 1]))


# ---------------------------------------------------------------------------
# exact eigenvalues of the piecewise-constant fixtures
# ---------------------------------------------------------------------------

def matching_matrix(coeffs, eps, lam):
    """8x8 C^3-matching matrix of v'''' = lam rho v, clamped at a and b.

    For k0 = p = q = 1 and no k1, k2 the density rho is 1 outside (-eps, eps)
    and eps^-8 inside, and every piece has a closed-form basis:

    * outer, with t the distance from the clamped end and kappa = lam^1/4:
      cosh kappa t - cos kappa t and sinh kappa t - sin kappa t;
    * inner, with mu = kappa / eps^2: cos mu x, sin mu x, e^(-mu (x + eps))
      and e^(mu (x - eps)), each at most 1 in modulus on [-eps, eps].

    Columns: the two left outer, the four inner and the two right outer
    coefficients.  Rows: v, v', v'', v''' continuous at -eps (rows 0-3) and
    at +eps (rows 4-7), row k scaled by mu^-k so that every entry stays O(1).
    The matrix is singular exactly at the eigenvalues.
    """
    if (coeffs.k0, coeffs.k1, coeffs.k2, coeffs.p, coeffs.q) != \
            ((1.0,), (), (), (1.0,), (1.0,)):
        raise ValueError("closed forms need k0 = p = q = 1 and no k1, k2")
    kappa = lam ** 0.25
    mu = kappa / eps ** 2
    M = np.zeros((8, 8))
    # (first row, interface x, distance t from the clamped end, first outer
    # column, dt/dx)
    for row, x, t, col, sign in ((0, -eps, -eps - coeffs.a, 0, 1.0),
                                 (4, eps, coeffs.b - eps, 6, -1.0)):
        ch, sh = math.cosh(kappa * t), math.sinh(kappa * t)
        c, s = math.cos(kappa * t), math.sin(kappa * t)
        cos_k, sin_k = (c, -s, -c, s), (s, c, -s, -c)    # k-th derivatives
        for k in range(4):
            scale = (sign * kappa / mu) ** k
            M[row + k, col] = scale * ((ch, sh)[k % 2] - cos_k[k])
            M[row + k, col + 1] = scale * ((sh, ch)[k % 2] - sin_k[k])
            M[row + k, 2:6] = (
                -math.cos(mu * x + k * math.pi / 2),
                -math.sin(mu * x + k * math.pi / 2),
                -(-1.0) ** k * math.exp(-mu * (x + eps)),
                -math.exp(mu * (x - eps)))
    return M


def exact_eigenvalue(coeffs, eps, near, half_width):
    """The eigenvalue in [near - half_width, near + half_width]: the root
    of det(matching_matrix), which must change sign over that bracket."""
    return brentq(lambda lam: np.linalg.det(matching_matrix(coeffs, eps, lam)),
                  near - half_width, near + half_width,
                  xtol=1e-14, rtol=4.0 * np.finfo(float).eps)


def window_fe_errors(coeffs, report):
    """(row, |lambda_oracle - exact|) for each fit-window row of a report,
    the exact eigenvalue bracketed by a quarter of the row's gap."""
    return [(r, abs(r["lambda_oracle"] - exact_eigenvalue(
        coeffs, r["epsilon"], r["lambda_oracle"], 0.25 * r["gap"])))
        for r in window_rows(report)]


# ---------------------------------------------------------------------------
# test-only helpers
# ---------------------------------------------------------------------------

def save_config(coeffs, run, path):
    """Write a configuration file that ``model.load_config`` reads back."""
    with open(path, "w") as fh:
        json.dump(config_to_dict(coeffs, run), fh, indent=2)
        fh.write("\n")


def window_rows(report):
    """The valid rows of a ValidationReport that fall in its fit window."""
    return [r for r in report.rows if r["valid"] and r["in_window"]]


def inner_product(nodes, f, g, weight_fn=None, lo=None, hi=None):
    """Integral of f * g (optionally weighted) over [lo, hi] via element Gauss rules."""
    nodes = np.asarray(nodes, float)
    xg, wg = hermite.gauss_points(nodes)
    if lo is not None or hi is not None:
        mids = 0.5 * (nodes[:-1] + nodes[1:])
        mask = np.ones(mids.size, dtype=bool)
        if lo is not None:
            mask &= mids > lo
        if hi is not None:
            mask &= mids < hi
        xg, wg = xg[mask], wg[mask]
    vals = f(xg) * g(xg)
    if weight_fn is not None:
        vals = vals * weight_fn(xg)
    return float(np.sum(vals * wg))


def correction_residual(mode, prev_terms, term, lambdas):
    """Relative discrete-L2 residual of the order-i equation on (a, 0).

    Evaluates (K - lambda0 M) v_i - sum_{j>=1} lambda_j M v_{i-j} over the
    free dofs in extended precision and measures it in the mass-inverse
    norm, relative to the forcing magnitude.
    """
    i = term.order
    left = mode.left_asm
    funcs = [mode.v_left] + [t.v_left for t in prev_terms] + [term.v_left]
    forcing_dofs = np.zeros(left.ndof)
    for j in range(1, i + 1):
        forcing_dofs += lambdas[j] * funcs[i - j].dofs()
    r = pencil_apply_add_at(left, term.v_left.dofs(), mode.lambda0,
                            mass_vec=forcing_dofs)
    scale = math.sqrt(max(float(left._quad_form(left.Me, forcing_dofs,
                                                forcing_dofs)), 1e-300))
    return left.mass_inverse_norm(r) / scale


# ---------------------------------------------------------------------------
# straightforward forms of the fast kernels
# ---------------------------------------------------------------------------

def pencil_apply_add_at(asm, v, lam, mass_vec=None, load=None):
    """``Assembly.pencil_apply`` with its element scatter done by np.add.at."""
    vl = np.asarray(v, dtype=np.longdouble)
    ed = asm.edof()
    re = np.einsum("eij,ej->ei", asm.Ke, vl[ed]) - \
        np.longdouble(lam) * np.einsum("eij,ej->ei", asm.Me, vl[ed])
    if mass_vec is not None:
        ml = np.asarray(mass_vec, dtype=np.longdouble)
        re = re - np.einsum("eij,ej->ei", asm.Me, ml[ed])
    out = np.zeros(asm.ndof, dtype=np.longdouble)
    np.add.at(out, ed.ravel(), re.ravel())
    if load is not None:
        out = out - np.asarray(load, dtype=np.longdouble)
    return out


def csr_forms(asm):
    """(K, M) over all dofs as CSR, assembled from the element blocks.

    Each block is rounded to double and the COO -> CSR conversion sums
    the entries two neighbouring elements share.
    """
    edof = asm.edof()
    rows = np.repeat(edof, 4, axis=1).ravel()
    cols = np.tile(edof, (1, 4)).ravel()
    return tuple(sp.coo_matrix((E.astype(float).ravel(), (rows, cols)),
                               shape=(asm.ndof, asm.ndof)).tocsr()
                 for E in (asm.Ke, asm.Me))


def free_blocks(asm):
    """(K_ff, M_ff): the COO -> CSR forms restricted to the free dofs."""
    return tuple(A[asm.free, asm.free] for A in csr_forms(asm))


def band_of(A):
    """A sparse matrix in dgbtrf band storage, kl = ku = MASS_BANDWIDTH.

    Entry (i, j) goes to row 2 MASS_BANDWIDTH + i - j of column j; every
    other cell is zero.  Raises AssertionError on an entry outside the band.
    """
    bw = hermite.MASS_BANDWIDTH
    A = A.tocoo()
    A.sum_duplicates()
    assert np.all(np.abs(A.row - A.col) <= bw)
    band = np.zeros((3 * bw + 1, A.shape[1]))
    band[2 * bw + A.row - A.col, A.col] = A.data
    return band


def load_vector_add_at(nodes, rhs_fn):
    """Consistent load vector of the density ``rhs_fn`` on the mesh: the
    Gauss rule, shape values and weights made afresh, and the element
    scatter done by np.add.at."""
    nodes = np.asarray(nodes, float)
    h = np.diff(nodes)
    xg, wg = hermite.gauss_points(nodes)
    B0 = hermite._basis_block(h, 0)
    fe = np.einsum("eg,eig->ei", rhs_fn(xg) * wg, B0)
    F = np.zeros(2 * nodes.size)
    edof = 2 * np.arange(h.size)[:, None] + np.arange(4)[None, :]
    np.add.at(F, edof.ravel(), fe.ravel())
    return F


def forcing_density(p_fn, pairs):
    """The density p g, g = sum of lambda_j v_j(x) over the (lambda_j, v_j)
    of ``pairs``, that evaluates p and every term at each call."""
    def density(x):
        g = np.zeros_like(np.asarray(x, dtype=float))
        for lam_j, vf in pairs:
            g = g + lam_j * vf(x)
        return p_fn(x) * g

    return density


def scatter_add_at(elem_vecs, ndof):
    """Sum (n_elem, 4) element vectors over dofs 2e..2e+3 by np.add.at."""
    n_elem = elem_vecs.shape[0]
    edof = 2 * np.arange(n_elem)[:, None] + np.arange(4)[None, :]
    out = np.zeros(ndof, dtype=elem_vecs.dtype)
    np.add.at(out, edof.ravel(), elem_vecs.ravel())
    return out


def cheb_antideriv_values_loop(values, nodes):
    """``inner.cheb_antideriv_values`` with its coefficient loop written out."""
    a = inner.cheb_coeffs(values)
    n = a.shape[0]
    c = a.copy()
    c[0] = 2.0 * c[0]
    b = np.zeros(n + 1)
    for k in range(1, n + 1):
        am = c[k - 1] if k - 1 < n else 0.0
        ap = c[k + 1] if k + 1 < n else 0.0
        b[k] = (am - ap) / (2.0 * k)
    vals = np.polynomial.chebyshev.chebval(nodes, b)
    return vals - np.polynomial.chebyshev.chebval(-1.0, b)


class FractionQFunc:
    """``inner.QFunc`` with its exponents kept as ``Fraction`` keys: sums of
    q^p * polynomial terms, differentiated exactly."""

    def __init__(self, q, terms=None, dq=None):
        self.q = np.asarray(q, dtype=float)
        if dq is None:
            dq = P.polyder(self.q) if self.q.size > 1 else np.zeros(1)
        self.dq = dq
        self.terms = {}
        for p, poly in (terms or {}).items():
            self._add_term(p, poly)

    def _add_term(self, p, poly):
        poly = np.atleast_1d(np.asarray(poly, dtype=float))
        if np.all(poly == 0.0):
            return
        p = Fraction(p)
        if p in self.terms:
            self.terms[p] = P.polyadd(self.terms[p], poly)
            if np.all(self.terms[p] == 0.0):
                del self.terms[p]
        else:
            self.terms[p] = poly

    @classmethod
    def poly(cls, q, coeffs):
        return cls(q, {Fraction(0): np.asarray(coeffs, dtype=float)})

    @classmethod
    def qpow(cls, q, p, scale=1.0):
        return cls(q, {Fraction(p): np.array([float(scale)])})

    def zero(self):
        return FractionQFunc(self.q, dq=self.dq)

    def __add__(self, other):
        out = self.zero()
        for p, poly in list(self.terms.items()) + list(other.terms.items()):
            out._add_term(p, poly)
        return out

    def __mul__(self, other):
        out = self.zero()
        if isinstance(other, FractionQFunc):
            for p1, a in self.terms.items():
                for p2, b in other.terms.items():
                    out._add_term(p1 + p2, P.polymul(a, b))
        else:
            for p, a in self.terms.items():
                out._add_term(p, np.asarray(a) * float(other))
        return out

    def deriv(self):
        out = self.zero()
        for p, poly in self.terms.items():
            if p == 0:
                out._add_term(0, P.polyder(poly) if poly.size > 1 else [0.0])
                continue
            contrib = float(p) * P.polymul(self.dq, poly)
            if poly.size > 1:
                contrib = P.polyadd(contrib, P.polymul(self.q, P.polyder(poly)))
            out._add_term(p - 1, contrib)
        return out

    def __call__(self, xs):
        xs = np.asarray(xs, dtype=float)
        out = np.zeros_like(xs)
        if not self.terms:
            return out
        qv = P.polyval(xs, self.q)
        for p, poly in self.terms.items():
            val = P.polyval(xs, poly)
            if p != 0:
                val = val * qv ** float(p)
            out = out + val
        return out


def standard_chop_loop(coeffs):
    """``inner.chop`` as Aurentz & Trefethen print ``standardChop``: one
    loop per step, 1-based indices, MATLAB's round (half away from zero)."""
    tol = inner.CHOP_TOL
    b = np.abs(np.asarray(coeffs, dtype=float))
    n = b.size
    if n < 17:
        return n, False
    m = b.copy()
    for j in range(n - 2, -1, -1):
        m[j] = max(b[j], m[j + 1])
    if m[0] == 0.0:
        return 1, True
    envelope = m / m[0]
    plateau_point = j2 = None
    for j in range(2, n + 1):
        j2 = int(math.floor(1.25 * j + 5.0 + 0.5))
        if j2 > n:
            return n, False
        e1, e2 = envelope[j - 1], envelope[j2 - 1]
        r = 3.0 * (1.0 - math.log(e1) / math.log(tol)) if e1 > 0.0 else 0.0
        if e1 == 0.0 or e2 / e1 > r:
            plateau_point = j - 1
            break
    if envelope[plateau_point - 1] == 0.0:
        return plateau_point, True
    j3 = sum(1 for e in envelope if e >= tol ** (7.0 / 6.0))
    envelope = envelope.copy()
    if j3 < j2:
        j2 = j3 + 1
        envelope[j2 - 1] = tol ** (7.0 / 6.0)
    best, d = math.inf, 0
    for k in range(1, j2 + 1):
        cc = math.log10(envelope[k - 1]) + \
            (k - 1) / (j2 - 1) * (-math.log10(tol) / 3.0)
        if cc < best:
            best, d = cc, k
    return max(d - 1, 1), True


def reference_basis_all(s):
    """All four derivative stacks of the Hermite shape functions."""
    s = np.asarray(s)
    phi = np.stack([
        1.0 - 3.0 * s**2 + 2.0 * s**3,
        s - 2.0 * s**2 + s**3,
        3.0 * s**2 - 2.0 * s**3,
        -(s**2) + s**3,
    ])
    dphi = np.stack([
        -6.0 * s + 6.0 * s**2,
        1.0 - 4.0 * s + 3.0 * s**2,
        6.0 * s - 6.0 * s**2,
        -2.0 * s + 3.0 * s**2,
    ])
    ddphi = np.stack([
        -6.0 + 12.0 * s,
        -4.0 + 6.0 * s,
        6.0 - 12.0 * s,
        -2.0 + 6.0 * s,
    ])
    dddphi = np.stack([
        12.0 * np.ones_like(s),
        6.0 * np.ones_like(s),
        -12.0 * np.ones_like(s),
        6.0 * np.ones_like(s),
    ])
    return phi, dphi, ddphi, dddphi


def hermite_call_all_stacks(fn, x, deriv=0):
    """``HermiteFunction.__call__`` that builds all four basis stacks."""
    idx, h, s = fn._locate(x)
    phi = reference_basis_all(s)[deriv]
    fac = np.stack([np.ones_like(h), h, np.ones_like(h), h])
    pow_h = h ** float(-deriv)
    coef = np.stack([fn.values[idx], fn.slopes[idx],
                     fn.values[idx + 1], fn.slopes[idx + 1]]) * fac
    out = np.sum(coef * phi, axis=0) * pow_h
    return out[()] if np.ndim(x) == 0 else out


def talg_apply_per_call(talg, xs, vec):
    """``TAlg.apply`` that evaluates every coefficient QFunc at xs."""
    out = np.zeros_like(vec)
    for u in range(4):
        cv = talg.c[u](xs)
        if np.any(cv != 0.0):
            out = out + cv[None, :] * (T_POWERS[u] @ vec)
    return out


def save_artifact_streaming(art, path):
    """``harness.save_artifact`` through the streaming ``json.dump``."""
    with open(path, "w") as fh:
        json.dump(harness.artifact_to_dict(art), fh)
        fh.write("\n")


def outer_value_per_order(art, x, eps, n):
    """``ExpansionArtifact.outer_value`` as a sum of n + 1 evaluations per side."""
    x = np.asarray(x, dtype=float)
    out = np.zeros_like(x)
    left = x < 0.0
    for i in range(n + 1):
        if np.any(left):
            out[left] += eps ** i * art.outer_left[i](x[left])
        if np.any(~left):
            vr = art.outer_right[i]
            if vr is None:
                raise inner.MissingDataError(
                    f"order-{i} outer term unavailable on (0, b)")
            out[~left] += eps ** i * vr(x[~left])
    return out


def drop_one_spread_loop(eps_values, err_values):
    """Max change of the fitted slope when any single row is removed,
    by one ``fit_rate`` refit per row."""
    eps_values = np.asarray(eps_values, float)
    err_values = np.asarray(err_values, float)
    base, _, _ = harness.fit_rate(eps_values, err_values)
    spread = 0.0
    for i in range(eps_values.size):
        sub = np.ones(eps_values.size, bool)
        sub[i] = False
        try:
            s, _, _ = harness.fit_rate(eps_values[sub], err_values[sub])
        except ValueError:
            continue
        spread = max(spread, abs(s - base))
    return spread
