"""Inner WKB machinery on [-1, 1].

Builds the phase S, the tilt alpha, the transport system f' = A f + w with
A = eta I + theta T^3, its fundamental matrix Phi, the quantized parameter
sequence, and the coefficient vectors f_i by variation of parameters.

Representation choices that keep the numerics exact where possible:

* every scalar coefficient function (eta, theta, powers of S') is stored
  symbolically as a sum of q(xi)^p * polynomial terms, so derivatives of
  any order are exact;
* the 4x4 matrices A, Phi and their derivative combinations live in the
  commutative algebra spanned by powers of the structure matrix T, so all
  matrix recursions reduce to four scalar coefficient functions;
* each coefficient f_i is stored in fundamental-matrix coordinates
  c = beta + h (with f_i = Phi c), which drops the exponentially small
  content exactly where the construction drops it.

Only two quadratures appear (the antiderivatives for S, alpha and h);
everything else is algebra on the Chebyshev grid.  Off the grid, the grid
functions S, alpha and h are read only through their Chebyshev
coefficients (``cheb_coeffs``), the same ones the antiderivatives use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np
import scipy.fft
from numpy.polynomial import chebyshev as C
from numpy.polynomial import polynomial as P

from .model import GUARD_BAND, CoefficientSet, guard_band_message, taylor_at_zero

# structure matrix: rotation block and exponential block, T^t = T^3, T^4 = I
T1 = np.array([[0.0, -1.0], [1.0, 0.0]])
T2 = np.array([[-1.0, 0.0], [0.0, 1.0]])
T_MAT = np.block([[T1, np.zeros((2, 2))], [np.zeros((2, 2)), T2]])
T_POWERS = [np.eye(4), T_MAT, T_MAT @ T_MAT, T_MAT @ T_MAT @ T_MAT]
N_MINUS = np.array([1.0, 0.0, 1.0, 0.0])
CHEB_BLOCK = 512       # cheb_eval points per block of the T_j(x) matrix


class MissingDataError(RuntimeError):
    """A lower-order term required by the recursion is unavailable."""


class GuardBandError(ValueError):
    """The deformation parameter sits in a guard band around pi/2 or 3*pi/2."""


def n_plus(delta: float):
    """Limit trace vector at xi = +1 along the quantized sequence."""
    return np.array([math.cos(delta), math.sin(delta), 0.0, 1.0])


# ---------------------------------------------------------------------------
# exact scalar functions: sums of q^p * polynomial
# ---------------------------------------------------------------------------

class QFunc:
    """Sum of q(xi)^p * poly(xi) terms with exact differentiation."""

    __slots__ = ("q", "dq", "terms")

    def __init__(self, q, terms=None):
        self.q = np.asarray(q, dtype=float)
        self.dq = P.polyder(self.q) if self.q.size > 1 else np.zeros(1)
        self.terms = {}
        if terms:
            for p, poly in terms.items():
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
    def const(cls, q, value):
        return cls(q, {Fraction(0): np.array([float(value)])})

    @classmethod
    def poly(cls, q, coeffs):
        return cls(q, {Fraction(0): np.asarray(coeffs, dtype=float)})

    @classmethod
    def qpow(cls, q, p, scale=1.0):
        return cls(q, {Fraction(p): np.array([float(scale)])})

    def __add__(self, other):
        out = QFunc(self.q)
        for p, poly in self.terms.items():
            out._add_term(p, poly)
        for p, poly in other.terms.items():
            out._add_term(p, poly)
        return out

    def __mul__(self, other):
        out = QFunc(self.q)
        if isinstance(other, QFunc):
            for p1, a in self.terms.items():
                for p2, b in other.terms.items():
                    out._add_term(p1 + p2, P.polymul(a, b))
        else:
            for p, a in self.terms.items():
                out._add_term(p, np.asarray(a) * float(other))
        return out

    __rmul__ = __mul__

    def deriv(self):
        """d/dxi, exact: q^p P -> q^(p-1) (p q' P + q P')."""
        out = QFunc(self.q)
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


# ---------------------------------------------------------------------------
# Chebyshev grid helpers
# ---------------------------------------------------------------------------

def cheb_nodes(n):
    """Chebyshev-Lobatto nodes, ascending on [-1, 1]."""
    j = np.arange(n)
    return -np.cos(np.pi * j / (n - 1))


def cheb_coeffs(values):
    """Chebyshev coefficients of the interpolant (values on ascending nodes)."""
    v = np.asarray(values, dtype=float)[::-1]          # descending for DCT-I
    n = v.shape[0]
    t = scipy.fft.dct(v, type=1, axis=0)
    a = t / (n - 1)
    a[0] *= 0.5
    a[-1] *= 0.5
    return a


def cheb_antideriv_values(values, nodes):
    """Antiderivative on the same grid, vanishing at xi = -1 (spectral)."""
    a = cheb_coeffs(values)
    n = a.shape[0]
    c = a.copy()
    c[0] = 2.0 * c[0]
    b = np.zeros(n + 1)
    for k in range(1, n + 1):
        am = c[k - 1] if k - 1 < n else 0.0
        ap = c[k + 1] if k + 1 < n else 0.0
        b[k] = (am - ap) / (2.0 * k)
    vals = C.chebval(nodes, b)
    return vals - C.chebval(-1.0, b)


def cheb_eval(values, x):
    """Chebyshev interpolant of grid values (1d, or (k, n) rows) at 1d x.

    T_j(x) comes from the three-term recurrence, CHEB_BLOCK points at a
    time, and each block is one product with the coefficient matrix.
    """
    a = cheb_coeffs(np.asarray(values).T).T
    x = np.asarray(x, dtype=float)
    out = np.empty(a.shape[:-1] + x.shape)
    T = np.empty((a.shape[-1], min(x.size, CHEB_BLOCK)))
    for lo in range(0, x.size, CHEB_BLOCK):
        xb = x[lo:lo + CHEB_BLOCK]
        x2 = 2.0 * xb
        Tb = T[:, :xb.size]
        Tb[0] = 1.0
        Tb[1] = xb
        for j in range(2, Tb.shape[0]):
            np.multiply(x2, Tb[j - 1], out=Tb[j])
            Tb[j] -= Tb[j - 2]
        out[..., lo:lo + xb.size] = a @ Tb
    return out


# ---------------------------------------------------------------------------
# T-algebra elements: a0 I + a1 T + a2 T^2 + a3 T^3 with QFunc coefficients
# ---------------------------------------------------------------------------

class TAlg:
    """Element of the commutative matrix algebra generated by T."""

    __slots__ = ("c",)

    def __init__(self, c):
        self.c = tuple(c)

    @classmethod
    def scalar(cls, qf):
        zero = QFunc(qf.q)
        return cls((qf, zero, zero, zero))

    def deriv(self):
        return TAlg(tuple(ci.deriv() for ci in self.c))

    def mul(self, other):
        zero = QFunc(self.c[0].q)
        out = [zero, zero, zero, zero]
        for u in range(4):
            for v in range(4):
                out[(u + v) % 4] = out[(u + v) % 4] + self.c[u] * other.c[v]
        return TAlg(out)

    def add(self, other):
        return TAlg(tuple(a + b for a, b in zip(self.c, other.c)))

    def apply(self, xs, vec):
        """Apply to a (4, n) array of vector values at positions xs."""
        out = np.zeros_like(vec)
        for u in range(4):
            cv = self.c[u](xs)
            if np.any(cv != 0.0):
                out = out + cv[None, :] * (T_POWERS[u] @ vec)
        return out


# ---------------------------------------------------------------------------
# phase data
# ---------------------------------------------------------------------------

@dataclass
class PhaseData:
    """Phase, tilt and fundamental-matrix data on the inner grid."""

    coeffs: CoefficientSet
    lam0: float
    lam1: float
    nodes: np.ndarray
    S: np.ndarray
    S1: float
    alpha: np.ndarray
    alpha1: float
    Sp: QFunc = field(repr=False)
    eta: QFunc = field(repr=False)
    theta: QFunc = field(repr=False)
    q_m38: QFunc = field(repr=False)
    q_38: QFunc = field(repr=False)
    _sp_pow: dict = field(default_factory=dict, repr=False)
    _A: TAlg = None
    _C_mats: list = field(default_factory=list, repr=False)
    _B_mats: list = field(default_factory=list, repr=False)
    _graded_ops: dict = field(default_factory=dict, repr=False)
    _order_ops: dict = field(default_factory=dict, repr=False)
    _grid: dict = field(default_factory=dict, repr=False)

    # -- scalar helpers ----------------------------------------------------
    def sprime_pow(self, k):
        """S'^k as an exact QFunc (k integer, possibly negative)."""
        if k not in self._sp_pow:
            lam0, k00 = self.lam0, self.coeffs.k0_at(0.0)
            scale = (lam0 / k00) ** (k / 4.0)
            self._sp_pow[k] = QFunc.qpow(self.coeffs.q, Fraction(k, 4), scale)
        return self._sp_pow[k]

    @cached_property
    def q_fn(self):
        """q as an exact QFunc."""
        return QFunc.poly(self.coeffs.q, self.coeffs.q)

    def grid_values(self, qf, u=0):
        """Grid values of the u-th derivative of qf, computed once per phase.

        Keyed on the QFunc object, so only functions the phase keeps alive
        (its memoized operators and powers of S') belong here.
        """
        funcs, vals = self._grid.setdefault(qf, ([qf], []))
        while len(vals) <= u:
            if len(funcs) == len(vals):
                funcs.append(funcs[-1].deriv())
            vals.append(funcs[len(vals)](self.nodes))
        return vals[u]

    def sprime_at(self, side):
        return float(self.Sp(np.array([float(side)]))[0])

    def q_m38_at(self, side):
        return float(self.q_m38(np.array([float(side)]))[0])

    def q_38_at(self, side):
        return float(self.q_38(np.array([float(side)]))[0])

    def gamma1(self, eps):
        return self.S1 / eps + self.alpha1

    # -- matrix structures ---------------------------------------------------
    @property
    def A(self):
        if self._A is None:
            zero = QFunc(self.coeffs.q)
            self._A = TAlg((self.eta, zero, zero, self.theta))
        return self._A

    def C_mat(self, s):
        """C_s with Phi^(s) = Phi C_s; C_0 = 1, C_{s+1} = C_s' + A C_s."""
        while len(self._C_mats) <= s:
            if not self._C_mats:
                self._C_mats.append(TAlg.scalar(QFunc.const(self.coeffs.q, 1.0)))
            else:
                prev = self._C_mats[-1]
                self._C_mats.append(prev.deriv().add(self.A.mul(prev)))
        return self._C_mats[s]

    def B_mat(self, s):
        """B_s with (Phi^-1)^(s) = B_s Phi^-1; B_0 = 1, B_{s+1} = B_s' - B_s A."""
        while len(self._B_mats) <= s:
            if not self._B_mats:
                self._B_mats.append(TAlg.scalar(QFunc.const(self.coeffs.q, 1.0)))
            else:
                prev = self._B_mats[-1]
                minus_a = self.A.mul(TAlg.scalar(QFunc.const(self.coeffs.q, -1.0)))
                self._B_mats.append(prev.deriv().add(prev.mul(minus_a)))
        return self._B_mats[s]

    # -- fundamental matrix --------------------------------------------------
    def phi_blocks(self):
        alpha = self.alpha
        ca, sa = np.cos(alpha), np.sin(alpha)
        e1 = np.exp(-alpha)                      # exp(alpha(-1) - alpha)
        e2 = np.exp(alpha - self.alpha1)
        return self.q_m38(self.nodes), ca, sa, e1, e2

    def phi_apply(self, vec):
        """Phi(xi) acting on (4, n) coordinate values on the grid."""
        pref, ca, sa, e1, e2 = self.phi_blocks()
        out = np.empty_like(vec)
        out[0] = ca * vec[0] + sa * vec[1]
        out[1] = -sa * vec[0] + ca * vec[1]
        out[2] = e1 * vec[2]
        out[3] = e2 * vec[3]
        return pref[None, :] * out

    def phi_inv_apply(self, vec):
        pref, ca, sa, e1, e2 = self.phi_blocks()
        out = np.empty_like(vec)
        out[0] = ca * vec[0] - sa * vec[1]
        out[1] = sa * vec[0] + ca * vec[1]
        out[2] = vec[2] / e1
        out[3] = vec[3] / e2
        return out / pref[None, :]

    # -- eikonal diagnostics ---------------------------------------------------
    def eikonal_residual(self):
        qv = self.coeffs.q_at(self.nodes)
        lhs = self.coeffs.k0_at(0.0) * self.Sp(self.nodes) ** 4
        return np.max(np.abs(lhs - self.lam0 * qv) / (self.lam0 * qv))


def compute_phase(coeffs: CoefficientSet, lam0: float, lam1: float,
                  n_nodes: int = 128) -> PhaseData:
    """Phase S, tilt alpha and the exact coefficient functions of A.

    S' solves the eikonal equation k0(0) S'^4 = lam0 q with S(-1) = 0;
    alpha' = theta with alpha(-1) = 0.  Both antiderivatives are spectral
    and are the only quadratures in the inner construction.
    """
    if lam0 <= 0:
        raise ValueError("lam0 must be positive")
    q = coeffs.q
    nodes = cheb_nodes(n_nodes)
    k00 = coeffs.k0_at(0.0)
    k0p0 = coeffs.k0_at(0.0, 1)

    Sp = QFunc.qpow(q, Fraction(1, 4), (lam0 / k00) ** 0.25)
    eta = QFunc(q, {Fraction(-1): -0.375 * np.atleast_1d(P.polyder(np.asarray(q, float)))
                    if len(q) > 1 else np.array([0.0])})
    scale = 0.25 * (lam0 ** -3 * k00 ** -5) ** 0.25
    theta = QFunc(q, {Fraction(1, 4): scale * np.array([lam1 * k00, -lam0 * k0p0])})

    S_vals = cheb_antideriv_values(Sp(nodes), nodes)
    alpha_vals = cheb_antideriv_values(theta(nodes), nodes)
    phase = PhaseData(
        coeffs=coeffs, lam0=lam0, lam1=lam1, nodes=nodes,
        S=S_vals, S1=float(S_vals[-1]), alpha=alpha_vals,
        alpha1=float(alpha_vals[-1]),
        Sp=Sp, eta=eta, theta=theta,
        q_m38=QFunc.qpow(q, Fraction(-3, 8)),
        q_38=QFunc.qpow(q, Fraction(3, 8)),
    )
    if not np.all(np.diff(S_vals) > 0):
        raise ValueError("phase S must be strictly increasing (q must be positive)")
    return phase


# ---------------------------------------------------------------------------
# boundary systems and quantization
# ---------------------------------------------------------------------------

def g_delta_matrix(delta: float):
    """Limit boundary-system matrix along the quantized sequence."""
    c, s = math.cos(delta), math.sin(delta)
    return np.array([
        [-1.0, 0.0, 1.0, 0.0],
        [0.0, -1.0, -1.0, 0.0],
        [-c, -s, 0.0, 1.0],
        [s, -c, 0.0, 1.0],
    ])


@dataclass
class QuantizedSequence:
    """Small-parameter family eps_l = S(1) / (delta + 2 pi l - alpha(1))."""

    delta: float
    l0: int
    epsilons: dict
    det_G_delta: float
    S1: float
    alpha1: float

    def eps(self, l):
        if l not in self.epsilons:
            den = self.delta + 2.0 * math.pi * l - self.alpha1
            if den <= 0.0 or l < self.l0:
                raise ValueError(f"denominator not positive at l={l}")
            self.epsilons[l] = self.S1 / den
        return self.epsilons[l]


def quantize(phase: PhaseData, delta: float, l_range, guard: float = GUARD_BAND):
    message = guard_band_message(delta, guard)
    if message:
        raise GuardBandError(message)
    lo, hi = int(l_range[0]), int(l_range[1])
    l0 = max(1, math.floor((phase.alpha1 - delta) / (2.0 * math.pi)) + 1)
    while delta + 2.0 * math.pi * l0 - phase.alpha1 <= 0.0:
        l0 += 1
    eps = {}
    for l in range(max(lo, l0), hi + 1):
        eps[l] = phase.S1 / (delta + 2.0 * math.pi * l - phase.alpha1)
    if not eps:
        raise ValueError(
            f"empty quantized range: requested l in [{lo}, {hi}] but l0 = {l0}")
    return QuantizedSequence(
        delta=delta, l0=l0, epsilons=eps,
        det_G_delta=float(np.linalg.det(g_delta_matrix(delta))),
        S1=phase.S1, alpha1=phase.alpha1)


# ---------------------------------------------------------------------------
# inner coefficients
# ---------------------------------------------------------------------------

class InnerCoefficient:
    """One coefficient f_i = Phi (beta + h) with exact derivative stacks."""

    def __init__(self, order, phase: PhaseData, beta, h, w_stack=None):
        self.order = order
        self.phase = phase
        self.beta = np.asarray(beta, dtype=float)
        self.h = np.asarray(h, dtype=float)
        self._w_stack = w_stack        # callable r -> (4, n) values of w^(r)
        self._pw = {}                  # r -> (Phi^-1 w)^(r)
        self._G = {}                   # r -> Phi^-1 f^(r)
        self._f = {}                   # r -> f^(r)

    # -- coordinates c = beta + h and their derivatives ---------------------
    def c_values(self):
        return self.beta[:, None] + self.h

    def _pw_values(self, r):
        if self._w_stack is None:
            return np.zeros((4, self.phase.nodes.size))
        if r not in self._pw:
            xs = self.phase.nodes
            acc = np.zeros((4, xs.size))
            for s in range(r + 1):
                ws = self._w_stack(r - s)
                term = self.phase.phi_inv_apply(ws)
                acc = acc + math.comb(r, s) * self.phase.B_mat(s).apply(xs, term)
            self._pw[r] = acc
        return self._pw[r]

    def c_deriv(self, u):
        if u == 0:
            return self.c_values()
        return self._pw_values(u - 1)

    def G_values(self, r):
        """Phi^-1 f^(r) on the grid."""
        if r not in self._G:
            xs = self.phase.nodes
            acc = np.zeros((4, xs.size))
            for s in range(r + 1):
                acc = acc + math.comb(r, s) * self.phase.C_mat(s).apply(
                    xs, self.c_deriv(r - s))
            self._G[r] = acc
        return self._G[r]

    def f_values(self, r=0):
        """f^(r) on the grid."""
        if r not in self._f:
            self._f[r] = self.phase.phi_apply(self.G_values(r))
        return self._f[r]

    def phi_coords(self, r, side):
        """Phi^-1 f^(r) at xi = side (+1 or -1)."""
        idx = 0 if side == -1 else -1
        return self.G_values(r)[:, idx]


def solve_f0(phase: PhaseData, delta: float, vpp_minus0: float):
    """Leading inner coefficient: homogeneous transport, f0 = Phi beta0.

    The boundary data are sigma = (S'(-1)^-2 v0''(-0), 0, 0, 0).  The
    constant vector has a closed form, which the boundary-system solve is
    checked against entry by entry.
    """
    sigma = np.array([phase.sprime_at(-1) ** -2 * vpp_minus0, 0.0, 0.0, 0.0])
    f0 = transport_solve(phase, delta, 0, sigma)
    closed = beta0_closed_form(phase, delta, vpp_minus0)
    scale = max(np.max(np.abs(closed)), 1e-300)
    if np.max(np.abs(f0.beta - closed)) > 1e-10 * scale:
        raise AssertionError(
            "boundary-system solve disagrees with the closed-form "
            "constant vector: assembly inconsistency")
    return f0


def beta0_closed_form(phase: PhaseData, delta: float, vpp_minus0: float):
    """Closed-form beta0 for data supported on the left side only."""
    c = 0.5 * phase.q_38_at(-1) * phase.sprime_at(-1) ** -2 * vpp_minus0
    t = math.tan(delta)
    return c * np.array([t - 1.0, -t - 1.0, t + 1.0, -1.0 / math.cos(delta)])


# ---------------------------------------------------------------------------
# epsilon-graded operator expansion and chi assembly
# ---------------------------------------------------------------------------

def _compose_m(terms, phase):
    """Left-compose with M = eps^-1 S' T^3 + d/dxi.

    Terms are tuples (p, QFunc coef, k, tpow) meaning
    eps^-p coef(xi) T^tpow (d/dxi)^k.
    """
    out = []
    for (p, coef, k, t) in terms:
        out.append((p + 1, phase.Sp * coef, k, (t + 3) % 4))
        d = coef.deriv()
        if d.terms:
            out.append((p, d, k, t))
        out.append((p, coef, k + 1, t))
    return out


def _compose_x(terms, phase, j):
    if j == 0:
        return list(terms)
    xj = QFunc.poly(phase.coeffs.q, [0.0] * j + [1.0])
    return [(p, xj * coef, k, t) for (p, coef, k, t) in terms]


def _merge(terms, phase):
    acc = {}
    for (p, coef, k, t) in terms:
        key = (p, k, t)
        acc[key] = acc[key] + coef if key in acc else coef
    return [(p, coef, k, t) for (p, k, t), coef in acc.items() if coef.terms]


def graded_taylor_op(phase: PhaseData, m: int):
    """Graded expansion of the order-m rescaled operator acting on <f, N>.

    Returns terms (p, coef, k, tpow): the operator contributes
    eps^-p coef(xi) T^tpow d^k/dxi^k summed over terms.  Memoized on the
    phase.
    """
    if m in phase._graded_ops:
        return phase._graded_ops[m]
    coeffs = phase.coeffs
    one = QFunc.const(coeffs.q, 1.0)
    ident = [(0, one, 0, 0)]
    out = []
    c0 = taylor_at_zero(coeffs.k0, m)[m]
    if c0 != 0.0:
        t = _compose_m(_compose_m(_compose_x(
            _compose_m(_compose_m(ident, phase), phase), phase, m), phase), phase)
        out.extend((p, coef * c0, k, tp) for (p, coef, k, tp) in t)
    if m >= 2:
        c1 = taylor_at_zero(coeffs.k1, m - 2)[m - 2]
        if c1 != 0.0:
            t = _compose_m(_compose_x(_compose_m(ident, phase), phase, m - 2), phase)
            out.extend((p, coef * (-c1), k, tp) for (p, coef, k, tp) in t)
    if m >= 4:
        c2 = taylor_at_zero(coeffs.k2, m - 4)[m - 4]
        if c2 != 0.0:
            out.extend(_compose_x([(0, one * c2, 0, 0)], phase, m - 4))
    phase._graded_ops[m] = _merge(out, phase)
    return phase._graded_ops[m]


def order_operator(phase: PhaseData, j: int):
    """Total order-j operator O_j: collect graded terms with p = 4 + m - j.

    O_0 - lam0 q vanishes by the eikonal equation; O_1 - lam1 q is the
    transport operator; O_j for j >= 2 feeds chi.
    """
    if j in phase._order_ops:
        return phase._order_ops[j]
    out = []
    for m in range(max(0, j - 4), j + 1):
        p_want = 4 + m - j
        for (p, coef, k, t) in graded_taylor_op(phase, m):
            if p == p_want:
                out.append((p, coef, k, t))
    merged = _merge(out, phase)
    phase._order_ops[j] = merged
    return merged


def apply_order_operator(phase: PhaseData, j: int, f_term: InnerCoefficient,
                         r: int = 0):
    """d^r/dxi^r of (O_j f) on the grid, via exact coefficient derivatives."""
    out = np.zeros((4, phase.nodes.size))
    for (_p, coef, k, t) in order_operator(phase, j):
        for u in range(r + 1):
            vals = phase.grid_values(coef, u)
            if not np.any(vals != 0.0):
                continue
            fv = f_term.f_values(k + r - u)
            out = out + math.comb(r, u) * vals[None, :] * (T_POWERS[t] @ fv)
    return out


def assemble_chi(phase: PhaseData, s: int, f_terms, lambdas, r: int = 0):
    """chi_s^(r) = -(d/dxi)^r sum_{j=2..s} (O_j - lam_j q) f_{s-j}.

    ``f_terms`` holds InnerCoefficient objects for orders 0..; negative
    orders are zero by convention, so only j <= s with s - j < len(f_terms)
    contribute.  chi_s vanishes identically for s < 2.
    """
    out = np.zeros((4, phase.nodes.size))
    if s < 2:
        return out
    for j in range(2, s + 1):
        io = s - j
        if io < 0 or io >= len(f_terms) or f_terms[io] is None:
            if io >= 0 and io < len(f_terms):
                raise MissingDataError(f"chi_{s} needs f_{io}")
            continue
        if j >= len(lambdas):
            raise MissingDataError(f"chi_{s} needs lambda_{j}")
        f = f_terms[io]
        out = out - apply_order_operator(phase, j, f, r)
        lam_j = lambdas[j]
        if lam_j != 0.0:
            for u in range(r + 1):
                vals = phase.grid_values(phase.q_fn, u)
                if np.any(vals != 0.0):
                    out = out + math.comb(r, u) * lam_j * vals[None, :] * \
                        f.f_values(r - u)
    return out


def make_w_stack(phase: PhaseData, s: int, f_terms, lambdas):
    """Lazy w^(r) for the order-(s-1) transport solve, w = T^3 chi_s / (4 k0(0) S'^3).

    w^(r) and chi_s^(r) are each assembled once per r.
    """
    k00 = phase.coeffs.k0_at(0.0)
    sp_m3 = phase.sprime_pow(-3)
    cache = {}
    t3_chi = {}                        # r -> T^3 chi_s^(r)

    def t3_chi_r(r):
        if r not in t3_chi:
            t3_chi[r] = T_POWERS[3] @ assemble_chi(phase, s, f_terms, lambdas, r)
        return t3_chi[r]

    def w(r):
        if r not in cache:
            acc = np.zeros((4, phase.nodes.size))
            for u in range(r + 1):
                acc = acc + math.comb(r, u) * \
                    phase.grid_values(sp_m3, u)[None, :] * t3_chi_r(r - u)
            cache[r] = acc / (4.0 * k00)
        return cache[r]

    return w


# ---------------------------------------------------------------------------
# interface quantities and transport boundary data
# ---------------------------------------------------------------------------

def _coords_or_zero(f_terms, order, r, side, n4=4):
    if order < 0:
        return np.zeros(n4)
    if order >= len(f_terms) or f_terms[order] is None:
        raise MissingDataError(f"need f_{order}")
    return f_terms[order].phi_coords(r, side)


def phi_inv_D(phase: PhaseData, i: int, f_terms, side):
    """Phi^-1 D_i at xi = side, D_i = 2 S' T^3 f'_{i-1} + S'' T^3 f_{i-1} + f''_{i-2}."""
    sp = phase.Sp
    spp = sp.deriv()
    x = np.array([float(side)])
    out = 2.0 * float(sp(x)[0]) * (T_POWERS[3] @ _coords_or_zero(f_terms, i - 1, 1, side))
    out = out + float(spp(x)[0]) * (T_POWERS[3] @ _coords_or_zero(f_terms, i - 1, 0, side))
    out = out + _coords_or_zero(f_terms, i - 2, 2, side)
    return out


def phi_inv_E(phase: PhaseData, i: int, f_terms, side):
    """Phi^-1 E_i at xi = side (first/second derivative interface blocks)."""
    sp = phase.Sp
    spp = sp.deriv()
    sppp = spp.deriv()
    x = np.array([float(side)])
    spv, sppv, spppv = float(sp(x)[0]), float(spp(x)[0]), float(sppp(x)[0])
    sp2 = spv * spv
    blk1 = 3.0 * sp2 * _coords_or_zero(f_terms, i - 1, 1, side) + \
        3.0 * spv * sppv * _coords_or_zero(f_terms, i - 1, 0, side)
    blk2 = 3.0 * spv * _coords_or_zero(f_terms, i - 2, 2, side) + \
        3.0 * sppv * _coords_or_zero(f_terms, i - 2, 1, side) + \
        spppv * _coords_or_zero(f_terms, i - 2, 0, side)
    out = (T_POWERS[2] @ blk1) + (T_POWERS[3] @ blk2) + \
        _coords_or_zero(f_terms, i - 3, 3, side)
    return out


def taylor_shift(tables, side, top, first, shift, missing):
    """sum_{j=first..top} (+-1)^j / j! u_{top-j}^(j+shift)(+-0).

    Taylor shift of the outer terms u_k to the interface, read from their
    endpoint derivative tables (``tables[k].deriv(r)``); the sign
    alternates on the left side (side = -1).  ``missing(k)`` builds the
    exception raised when the order-k table is absent.
    """
    total = 0.0
    for j in range(first, top + 1):
        order = top - j
        tab = tables[order] if order < len(tables) else None
        if tab is None:
            raise missing(order)
        sgn = (-1.0) ** j if side == -1 else 1.0
        total += sgn / math.factorial(j) * tab.deriv(j + shift)
    return total


def transport_sigma(phase: PhaseData, i: int, f_terms, tables, delta: float):
    """Boundary values (sigma_1..sigma_4) of the order-i transport problem."""
    sig = np.zeros(4)
    for side, (iT2, iT) in ((-1, (0, 1)), (+1, (2, 3))):
        Nv = N_MINUS if side == -1 else n_plus(delta)
        qm38 = phase.q_m38_at(side)
        spv = phase.sprime_at(side)
        cD = phi_inv_D(phase, i, f_terms, side)
        cE = phi_inv_E(phase, i, f_terms, side)

        def missing(order):
            return MissingDataError(
                f"transport order {i} needs side {side:+d} outer table of "
                f"order {order}")

        outer_sum = taylor_shift(tables[side], side, i, 0, 2, missing)
        F = taylor_shift(tables[side], side, i - 2, 0, 3, missing)
        sig[iT2] = spv ** -2 * (outer_sum - qm38 * float(np.dot(cD, Nv)))
        sig[iT] = spv ** -3 * (F - qm38 * float(np.dot(cE, Nv)))
    return sig


def _transport_solve(phase: PhaseData, order, sigma, w_stack, G, N1):
    """Variation of parameters against boundary matrix G and trace N(+1)."""
    xs = phase.nodes
    if w_stack is None:
        h = np.zeros((4, xs.size))
    else:
        integrand = phase.phi_inv_apply(w_stack(0))
        h = np.stack([cheb_antideriv_values(integrand[k], xs) for k in range(4)])
    h1 = h[:, -1]
    m_minus = phase.q_38_at(-1)
    m_plus = phase.q_38_at(+1)
    g = np.array([
        m_minus * sigma[0],
        m_minus * sigma[1],
        m_plus * sigma[2] - float(np.dot(h1, T_POWERS[2] @ N1)),
        m_plus * sigma[3] - float(np.dot(h1, T_POWERS[3] @ N1)),
    ])
    beta = np.linalg.solve(G, g)
    return InnerCoefficient(order, phase, beta, h=h, w_stack=w_stack)


def transport_solve(phase: PhaseData, delta: float, order: int, sigma,
                    w_stack=None):
    """Principal solution of the transport problem at the given order.

    h(xi) is the spectral antiderivative of Phi^-1 w; the constant vector
    solves the limit system G_delta beta = g with the h(1) corrections on
    the xi = +1 rows.  Exponentially small terms are dropped exactly.
    delta must lie outside the guard band, which ``quantize`` enforces.
    """
    return _transport_solve(phase, order, sigma, w_stack,
                            g_delta_matrix(delta), n_plus(delta))


# ---------------------------------------------------------------------------
# evaluation of the inner expansion
# ---------------------------------------------------------------------------

def evaluate_inner(phase: PhaseData, f_terms, eps: float, xi, n_terms=None):
    """eps^4 sum_i eps^i <f_i(xi), N(xi, S/eps)> at arbitrary xi.

    Uses the fundamental-matrix identity to evaluate through the
    coordinates c_i = beta_i + h_i, which keeps every exponential in the
    safe range: the result is q^-3/8 <c_i, N(xi, gamma_eps)>.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    if n_terms is None:
        n_terms = len(f_terms)
    terms = [f_terms[i] for i in range(n_terms)]
    if None in terms:
        raise MissingDataError(f"inner evaluation needs f_{terms.index(None)}")
    rows = cheb_eval(np.vstack([phase.S, phase.alpha] + [t.h for t in terms]), xi)
    gam = rows[0] / eps + rows[1]
    gam1 = phase.gamma1(eps)
    qv = phase.coeffs.q_at(xi) ** (-0.375)
    N = (np.cos(gam), np.sin(gam), np.exp(-gam), np.exp(gam - gam1))
    out = np.zeros(xi.size)
    for i, term in enumerate(terms):
        cv = term.beta[:, None] + rows[2 + 4 * i:6 + 4 * i]
        bracket = cv[0] * N[0] + cv[1] * N[1] + cv[2] * N[2] + cv[3] * N[3]
        out = out + eps ** (4 + i) * qv * bracket
    return out
