"""Inner WKB machinery on [-1, 1].

Builds the phase S, the tilt alpha, the transport system f' = A f + w with
A = eta I + theta T^3, its fundamental matrix Phi, the quantized parameter
sequence, the coefficient vectors f_i by variation of parameters, and the
matching at x = 0: outer data (V_i, W_i) and transport data sigma.

Representation choices that keep the numerics exact where possible:

* every scalar coefficient function (eta, theta, powers of S') is stored
  symbolically as a sum of q(xi)^p * polynomial terms, so derivatives of
  any order are exact;
* the 4x4 matrices A, Phi and their derivative combinations live in the
  commutative algebra spanned by powers of the structure matrix T, so all
  matrix recursions reduce to four scalar coefficient functions, and the
  derivative factors C_s of Phi and B_s of Phi^-1 share one recurrence
  (with A and -A);
* each coefficient f_i is stored in fundamental-matrix coordinates
  c = beta + h (with f_i = Phi c), which drops the exponentially small
  content exactly where the construction drops it.

``compute_phase`` builds every per-phase function once, as a ``PhaseData``
field (S', S'^-3, eta, theta, q, q^-3/8, q^3/8, A and -A).  An
``InnerCoefficient`` (f_i with its derivative stacks) exists only as
``transport_solve`` builds it, with its forcing w; ``evaluate_inner``
needs only the series of c_i = beta_i + h_i, which ``inner_series`` makes
from the (beta_i, h_i) pairs that an artifact stores.

Only two quadratures appear (the antiderivatives for S, alpha and h);
everything else is algebra on the Chebyshev grid.  Off the grid, the grid
functions S, alpha and h are read only through their Chebyshev
coefficients (``cheb_coeffs``, the same ones the antiderivatives use),
each cut where it reaches its round-off plateau (``chop``, Aurentz and
Trefethen's standardChop).  ``inner_series`` stacks the cut series, once
per artifact, and ``cheb_eval`` sums them; a series with no plateau on the
grid is under-resolved, and the build rejects it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.fft
from numpy.polynomial import chebyshev as C
from numpy.polynomial import polynomial as P

from .model import CoefficientSet, guard_band_message, taylor_at_zero

# structure matrix: rotation block and exponential block, T^t = T^3, T^4 = I
T1 = np.array([[0.0, -1.0], [1.0, 0.0]])
T2 = np.array([[-1.0, 0.0], [0.0, 1.0]])
T_MAT = np.block([[T1, np.zeros((2, 2))], [np.zeros((2, 2)), T2]])
T_POWERS = [np.eye(4), T_MAT, T_MAT @ T_MAT, T_MAT @ T_MAT @ T_MAT]
N_MINUS = np.array([1.0, 0.0, 1.0, 0.0])
# cheb_eval: Chebyshev degrees per block of the T_j(x) recurrence, so its
# buffer holds CHEB_BLOCK + 2 rows of points, never one row per degree
CHEB_BLOCK = 16
# chop: the relative level of a resolved series' plateau, float64 epsilon
CHOP_TOL = 2.0 ** -52


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

def _eighths(p):
    """The exponent p (int, Fraction or float) as a whole number of
    eighths; raises ValueError unless p is a multiple of 1/8."""
    k = Fraction(p) * 8
    if k.denominator != 1:
        raise ValueError(f"exponent {p} of q is not a multiple of 1/8")
    return int(k)


class QFunc:
    """Sum of q(xi)^p * poly(xi) terms with exact differentiation.

    Every exponent in the inner chain is a multiple of 1/8, so ``terms``
    keys each p by the integer 8 p; k / 8 is exact in binary.
    """

    __slots__ = ("q", "dq", "terms")

    def __init__(self, q, terms=None, dq=None):
        self.q = np.asarray(q, dtype=float)
        if dq is None:
            dq = P.polyder(self.q) if self.q.size > 1 else np.zeros(1)
        self.dq = dq
        self.terms = {}                  # 8 p -> polynomial of the q^p term
        if terms:
            for p, poly in terms.items():
                self._add_term(_eighths(p), poly)

    def _add_term(self, k, poly):
        poly = np.atleast_1d(np.asarray(poly, dtype=float))
        if np.all(poly == 0.0):
            return
        if k in self.terms:
            self.terms[k] = P.polyadd(self.terms[k], poly)
            if np.all(self.terms[k] == 0.0):
                del self.terms[k]
        else:
            self.terms[k] = poly

    @classmethod
    def const(cls, q, value):
        return cls(q, {0: np.array([float(value)])})

    @classmethod
    def poly(cls, q, coeffs):
        return cls(q, {0: np.asarray(coeffs, dtype=float)})

    @classmethod
    def qpow(cls, q, p, scale=1.0):
        return cls(q, {p: np.array([float(scale)])})

    def zero(self):
        """The zero function on the same q, sharing q and q'."""
        return QFunc(self.q, dq=self.dq)

    def __add__(self, other):
        out = self.zero()
        for k, poly in self.terms.items():
            out._add_term(k, poly)
        for k, poly in other.terms.items():
            out._add_term(k, poly)
        return out

    def __mul__(self, other):
        out = self.zero()
        if isinstance(other, QFunc):
            for k1, a in self.terms.items():
                for k2, b in other.terms.items():
                    out._add_term(k1 + k2, P.polymul(a, b))
        else:
            for k, a in self.terms.items():
                out._add_term(k, np.asarray(a) * float(other))
        return out

    __rmul__ = __mul__

    def deriv(self):
        """d/dxi, exact: q^p P -> q^(p-1) (p q' P + q P')."""
        out = self.zero()
        for k, poly in self.terms.items():
            if k == 0:
                out._add_term(0, P.polyder(poly) if poly.size > 1 else [0.0])
                continue
            contrib = (k / 8) * P.polymul(self.dq, poly)
            if poly.size > 1:
                contrib = P.polyadd(contrib, P.polymul(self.q, P.polyder(poly)))
            out._add_term(k - 8, contrib)
        return out

    def __call__(self, xs):
        xs = np.asarray(xs, dtype=float)
        out = np.zeros_like(xs)
        if not self.terms:
            return out
        qv = P.polyval(xs, self.q)
        for k, poly in self.terms.items():
            val = P.polyval(xs, poly)
            if k != 0:
                val = val * qv ** (k / 8)
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
    """Antiderivative on the same grid, vanishing at xi = -1 (spectral).

    ``values`` is one grid function (n,) or a stack of them (k, n), one
    per row, all taken in one pass.  ``nodes`` is the ascending Lobatto
    grid, so nodes[0] is exactly -1.
    """
    a = cheb_coeffs(np.asarray(values, dtype=float).T)
    n = a.shape[0]
    c = np.zeros((n + 2,) + a.shape[1:])     # c_n = c_{n+1} = 0
    c[:n] = a
    c[0] = 2.0 * c[0]
    b = np.zeros((n + 1,) + a.shape[1:])
    k = np.arange(1, n + 1).reshape((n,) + (1,) * (a.ndim - 1))
    b[1:] = (c[:n] - c[2:]) / (2.0 * k)
    vals = C.chebval(nodes, b)
    return vals - vals[..., :1]


def chop(coeffs):
    """Aurentz & Trefethen's ``standardChop`` of one Chebyshev series.

    Returns ``(cutoff, resolved)``: the series to keep is
    ``coeffs[:cutoff]``.  ``resolved`` says the coefficients reach a
    plateau at the relative level CHOP_TOL; without one (a series of fewer
    than 17 coefficients, or a tail still falling at the end) the cutoff
    is the full length.  (Aurentz & Trefethen, "Chopping a Chebyshev
    series", ACM TOMS 43, 2017.)
    """
    b = np.abs(np.asarray(coeffs, dtype=float))
    n = b.size
    if n < 17:
        return n, False
    env = np.maximum.accumulate(b[::-1])[::-1]     # max of |a_k|, k >= j
    if env[0] == 0.0:
        return 1, True
    env = env / env[0]
    # plateau: the first j (1-based, 2..n) whose envelope keeps more than
    # a share r out to j2 = round(1.25 j + 5) <= n, where r falls from 3
    # at the level 1 to 0 at the level CHOP_TOL
    j = np.arange(2, n + 1)
    j2 = np.floor(1.25 * j + 5.5).astype(int)
    j, j2 = j[j2 <= n], j2[j2 <= n]
    e1, e2 = env[j - 1], env[j2 - 1]
    with np.errstate(divide="ignore", invalid="ignore"):
        r = 3.0 * (1.0 - np.log(e1) / np.log(CHOP_TOL))
        hits = np.flatnonzero((e1 == 0.0) | (e2 / e1 > r))
    if hits.size == 0:
        return n, False
    point, j2 = int(j[hits[0]]) - 1, int(j2[hits[0]])
    if env[point - 1] == 0.0:
        return point, True
    # cutoff: the lowest point of the envelope under a line tilted by
    # CHOP_TOL^(1/3) over [1, j2], the envelope floored at CHOP_TOL^(7/6)
    floor = CHOP_TOL ** (7.0 / 6.0)
    j3 = int(np.count_nonzero(env >= floor))
    cc = env[:min(j2, j3 + 1)].copy()
    if j3 < j2:
        cc[-1] = floor
    cc = np.log10(cc) + np.linspace(0.0, -np.log10(CHOP_TOL) / 3.0, cc.size)
    return max(int(np.argmin(cc)), 1), True


def inner_series(phase: PhaseData, terms):
    """The rows ``evaluate_inner`` reads, for the (beta_i, h_i) pairs terms.

    Rows 0 and 1 are the Chebyshev series of S and alpha, rows 2 + 4i ..
    5 + 4i those of the coordinates c_i = beta_i + h_i.  Each series of
    S, alpha and h_i is cut by ``chop`` and zeroed past its cutoff; beta_i
    then joins the constant term.  The stack keeps as many columns as its
    longest series, so one ``cheb_eval`` recurrence serves every row.
    Returns the stack and the names of the grid functions whose series
    reach no plateau on the grid (those keep their full series).
    """
    terms = list(terms)
    a = cheb_coeffs(np.vstack([phase.S, phase.alpha] +
                              [h for _, h in terms]).T).T
    cuts = [chop(row) for row in a]
    out = a[:, :max(cut for cut, _ in cuts)].copy()
    for row, (cut, _) in zip(out, cuts):
        row[cut:] = 0.0
    for i, (beta, _) in enumerate(terms):
        out[2 + 4 * i:6 + 4 * i, 0] += beta
    names = ["S", "alpha"] + [f"h_{i}" for i in range(len(terms))
                              for _ in range(4)]
    return out, list(dict.fromkeys(
        name for name, (_, resolved) in zip(names, cuts) if not resolved))


def cheb_eval(coeffs, x):
    """Chebyshev series (1d, or (k, m) rows of coefficients) at 1d x.

    T_j(x) comes from the three-term recurrence over all points at once,
    CHEB_BLOCK degrees at a time; each block is one product with the
    matching coefficient columns, accumulated into the output, and
    T_{j-2}, T_{j-1} carry over to the next block.  Memory stays of the
    order of the output: (CHEB_BLOCK + 2) rows of T plus one product
    buffer, however many coefficients a row has.
    """
    a = np.asarray(coeffs, dtype=float)
    x = np.asarray(x, dtype=float)
    n = a.shape[-1]
    out = np.empty(a.shape[:-1] + x.shape)
    prod = np.empty_like(out)
    x2 = 2.0 * x
    # rows 0, 1: T_{lo-2}, T_{lo-1}; rows 2 + r: T_{lo+r}
    T = np.empty((CHEB_BLOCK + 2, x.size))
    T[2] = 1.0
    T[3] = x
    for lo in range(0, n, CHEB_BLOCK):
        m = min(CHEB_BLOCK, n - lo)
        for r in range(0 if lo else 2, m):
            np.multiply(x2, T[r + 1], out=T[r + 2])
            T[r + 2] -= T[r]
        np.matmul(a[..., lo:lo + m], T[2:2 + m], out=prod if lo else out)
        if lo:
            out += prod
        T[:2] = T[-2:]
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
        zero = qf.zero()
        return cls((qf, zero, zero, zero))

    def deriv(self):
        return TAlg(tuple(ci.deriv() for ci in self.c))

    def mul(self, other):
        zero = self.c[0].zero()
        out = [zero, zero, zero, zero]
        for u in range(4):
            for v in range(4):
                out[(u + v) % 4] = out[(u + v) % 4] + self.c[u] * other.c[v]
        return TAlg(out)

    def add(self, other):
        return TAlg(tuple(a + b for a, b in zip(self.c, other.c)))

    def apply(self, phase, vec):
        """Apply to a (4, n) array of vector values on the phase grid.

        The coefficient values come from ``phase.grid_values``, so only
        elements the phase keeps alive (its C_s and B_s) belong here.
        """
        out = np.zeros_like(vec)
        for u in range(4):
            cv = phase.grid_values(self.c[u])
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
    sp_m3: QFunc = field(repr=False)        # S'^-3
    eta: QFunc = field(repr=False)
    theta: QFunc = field(repr=False)
    q_fn: QFunc = field(repr=False)         # q
    q_m38: QFunc = field(repr=False)
    q_38: QFunc = field(repr=False)
    A: TAlg = field(repr=False)             # eta I + theta T^3
    minus_A: TAlg = field(repr=False)
    _C_mats: list = field(default_factory=list, repr=False)
    _B_mats: list = field(default_factory=list, repr=False)
    _graded_ops: dict = field(default_factory=dict, repr=False)
    _grid: dict = field(default_factory=dict, repr=False)

    # -- scalar helpers ----------------------------------------------------
    def grid_values(self, qf, u=0):
        """Grid values of the u-th derivative of qf, computed once per phase.

        Keyed on the QFunc object, so only functions the phase keeps alive
        (its fields, its memoized operators, C_s and B_s) belong here.
        """
        funcs, vals = self._grid.setdefault(qf, ([qf], []))
        while len(vals) <= u:
            if len(funcs) == len(vals):
                funcs.append(funcs[-1].deriv())
            vals.append(funcs[len(vals)](self.nodes))
        return vals[u]

    def at(self, qf, side, u=0):
        """u-th derivative of qf at xi = side (+1 or -1), an end of the grid."""
        return float(self.grid_values(qf, u)[0 if side == -1 else -1])

    def gamma1(self, eps):
        return self.S1 / eps + self.alpha1

    # -- matrix structures ---------------------------------------------------
    def _chain(self, mats, gen, s):
        """X_s of X_0 = 1, X_{s+1} = X_s' + gen X_s, memoized in ``mats``."""
        while len(mats) <= s:
            if not mats:
                mats.append(TAlg.scalar(QFunc.const(self.coeffs.q, 1.0)))
            else:
                mats.append(mats[-1].deriv().add(gen.mul(mats[-1])))
        return mats[s]

    def C_mat(self, s):
        """C_s with Phi^(s) = Phi C_s; C_{s+1} = C_s' + A C_s."""
        return self._chain(self._C_mats, self.A, s)

    def B_mat(self, s):
        """B_s with (Phi^-1)^(s) = B_s Phi^-1; B_{s+1} = B_s' - A B_s."""
        return self._chain(self._B_mats, self.minus_A, s)

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
                  n_nodes: int) -> PhaseData:
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
    A = TAlg((eta, eta.zero(), eta.zero(), theta))

    S_vals = cheb_antideriv_values(Sp(nodes), nodes)
    alpha_vals = cheb_antideriv_values(theta(nodes), nodes)
    phase = PhaseData(
        coeffs=coeffs, lam0=lam0, lam1=lam1, nodes=nodes,
        S=S_vals, S1=float(S_vals[-1]), alpha=alpha_vals,
        alpha1=float(alpha_vals[-1]),
        Sp=Sp, sp_m3=QFunc.qpow(q, Fraction(-3, 4), (lam0 / k00) ** -0.75),
        eta=eta, theta=theta, q_fn=QFunc.poly(q, q),
        q_m38=QFunc.qpow(q, Fraction(-3, 8)),
        q_38=QFunc.qpow(q, Fraction(3, 8)),
        A=A, minus_A=TAlg(tuple(-1.0 * c for c in A.c)),
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


def epsilon_l(S1: float, alpha1: float, delta: float, l: int):
    """eps_l = S(1) / (delta + 2 pi l - alpha(1)) of the quantized sequence."""
    den = delta + 2.0 * math.pi * l - alpha1
    if den <= 0.0:
        raise ValueError(f"epsilon denominator not positive at l={l}")
    return S1 / den


def quantize(phase: PhaseData, delta: float, l_range):
    """(l0, det G_delta), l0 the first admissible index of the eps_l family."""
    message = guard_band_message(delta)
    if message:
        raise GuardBandError(message)
    lo, hi = int(l_range[0]), int(l_range[1])
    l0 = max(1, math.floor((phase.alpha1 - delta) / (2.0 * math.pi)) + 1)
    while delta + 2.0 * math.pi * l0 - phase.alpha1 <= 0.0:
        l0 += 1
    if max(lo, l0) > hi:
        raise ValueError(
            f"empty quantized range: requested l in [{lo}, {hi}] but l0 = {l0}")
    return l0, float(np.linalg.det(g_delta_matrix(delta)))


# ---------------------------------------------------------------------------
# inner coefficients
# ---------------------------------------------------------------------------

class InnerCoefficient:
    """One coefficient f_i = Phi (beta + h) with exact derivative stacks."""

    def __init__(self, phase: PhaseData, beta, h, w_stack=None):
        self.phase = phase
        self.beta = np.asarray(beta, dtype=float)
        self.h = np.asarray(h, dtype=float)
        self._w_stack = w_stack        # callable r -> (4, n) values of w^(r)
        self._pw = {}                  # r -> (Phi^-1 w)^(r)
        self._G = {}                   # r -> Phi^-1 f^(r)
        self._f = {}                   # r -> f^(r)

    # -- coordinates c = beta + h and their derivatives ---------------------
    def _leibniz(self, mat, vec, r):
        """sum_s C(r, s) mat(s) vec(r - s) on the grid: the r-th derivative
        of a product whose first factor satisfies X^(s) = X mat(s)."""
        acc = np.zeros((4, self.phase.nodes.size))
        for s in range(r + 1):
            acc = acc + math.comb(r, s) * mat(s).apply(self.phase, vec(r - s))
        return acc

    def _pw_values(self, r):
        if self._w_stack is None:
            return np.zeros((4, self.phase.nodes.size))
        if r not in self._pw:
            self._pw[r] = self._leibniz(
                self.phase.B_mat,
                lambda u: self.phase.phi_inv_apply(self._w_stack(u)), r)
        return self._pw[r]

    def c_deriv(self, u):
        if u == 0:
            return self.beta[:, None] + self.h
        return self._pw_values(u - 1)

    def G_values(self, r):
        """Phi^-1 f^(r) on the grid."""
        if r not in self._G:
            self._G[r] = self._leibniz(self.phase.C_mat, self.c_deriv, r)
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
    sigma = np.array([phase.at(phase.Sp, -1) ** -2 * vpp_minus0, 0.0, 0.0, 0.0])
    f0 = transport_solve(phase, delta, sigma)
    closed = beta0_closed_form(phase, delta, vpp_minus0)
    scale = max(np.max(np.abs(closed)), 1e-300)
    if np.max(np.abs(f0.beta - closed)) > 1e-10 * scale:
        raise AssertionError(
            "boundary-system solve disagrees with the closed-form "
            "constant vector: assembly inconsistency")
    return f0


def beta0_closed_form(phase: PhaseData, delta: float, vpp_minus0: float):
    """Closed-form beta0 for data supported on the left side only."""
    c = 0.5 * phase.at(phase.q_38, -1) * phase.at(phase.Sp, -1) ** -2 * vpp_minus0
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


def _merge(terms):
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
    phase._graded_ops[m] = _merge(out)
    return phase._graded_ops[m]


def order_operator(phase: PhaseData, j: int):
    """Total order-j operator O_j: collect graded terms with p = 4 + m - j.

    O_0 - lam0 q vanishes by the eikonal equation; O_1 - lam1 q is the
    transport operator; O_j for j >= 2 feeds chi.  Each Taylor order m
    contributes its own p, so no two terms share a (p, k, tpow) key.
    """
    return [term for m in range(max(0, j - 4), j + 1)
            for term in graded_taylor_op(phase, m) if term[0] == 4 + m - j]


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

    ``f_terms`` holds the InnerCoefficient objects of orders 0..s-2; a
    shorter list raises MissingDataError.  chi_s vanishes identically for
    s < 2.
    """
    out = np.zeros((4, phase.nodes.size))
    for j in range(2, s + 1):
        if s - j >= len(f_terms):
            raise MissingDataError(f"chi_{s} needs f_{s - j}")
        if j >= len(lambdas):
            raise MissingDataError(f"chi_{s} needs lambda_{j}")
        f = f_terms[s - j]
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
                    phase.grid_values(phase.sp_m3, u)[None, :] * t3_chi_r(r - u)
            cache[r] = acc / (4.0 * k00)
        return cache[r]

    return w


# ---------------------------------------------------------------------------
# interface quantities and transport boundary data
# ---------------------------------------------------------------------------

def _coords_or_zero(f_terms, order, r, side):
    """Phi^-1 f_order^(r) at xi = side; zero below order 0."""
    if order < 0:
        return np.zeros(4)
    if order >= len(f_terms):
        raise MissingDataError(f"need f_{order}")
    return f_terms[order].phi_coords(r, side)


def phi_inv_D(phase: PhaseData, i: int, f_terms, side):
    """Phi^-1 D_i at xi = side, D_i = 2 S' T^3 f'_{i-1} + S'' T^3 f_{i-1} + f''_{i-2}."""
    spv, sppv = (phase.at(phase.Sp, side, u) for u in (0, 1))
    out = 2.0 * spv * (T_POWERS[3] @ _coords_or_zero(f_terms, i - 1, 1, side))
    out = out + sppv * (T_POWERS[3] @ _coords_or_zero(f_terms, i - 1, 0, side))
    out = out + _coords_or_zero(f_terms, i - 2, 2, side)
    return out


def phi_inv_E(phase: PhaseData, i: int, f_terms, side):
    """Phi^-1 E_i at xi = side (first/second derivative interface blocks)."""
    spv, sppv, spppv = (phase.at(phase.Sp, side, u) for u in (0, 1, 2))
    sp2 = spv * spv
    blk1 = 3.0 * sp2 * _coords_or_zero(f_terms, i - 1, 1, side) + \
        3.0 * spv * sppv * _coords_or_zero(f_terms, i - 1, 0, side)
    blk2 = 3.0 * spv * _coords_or_zero(f_terms, i - 2, 2, side) + \
        3.0 * sppv * _coords_or_zero(f_terms, i - 2, 1, side) + \
        spppv * _coords_or_zero(f_terms, i - 2, 0, side)
    out = (T_POWERS[2] @ blk1) + (T_POWERS[3] @ blk2) + \
        _coords_or_zero(f_terms, i - 3, 3, side)
    return out


def taylor_shift(tables, side, top, first, shift):
    """sum_{j=first..top} (+-1)^j / j! u_{top-j}^(j+shift)(+-0).

    Taylor shift of the outer terms u_k to the interface, read from their
    endpoint derivative tables (``tables[k][r]`` = u_k^(r)); the sign
    alternates on the left side (side = -1).  Raises MissingDataError
    when the order-k table is absent (not computed, or None) or too short.
    """
    total = 0.0
    for j in range(first, top + 1):
        order = top - j
        tab = tables[order] if order < len(tables) else None
        if tab is None or j + shift >= len(tab):
            raise MissingDataError(
                f"no side {side:+d} outer table of order {order} up to "
                f"derivative {j + shift}")
        sgn = (-1.0) ** j if side == -1 else 1.0
        total += sgn / math.factorial(j) * float(tab[j + shift])
    return total


def boundary_data(i: int, tables, phase: PhaseData, f_terms, delta: float):
    """Dirichlet data (V_i, W_i) of the order-i outer terms at x = 0-+.

    ``tables[side]`` lists the endpoint tables of the outer terms of orders
    0..i-1 at x = 0- (side -1) and x = 0+ (side +1).  Combines the traces
    of f_{i-4}, f_{i-3}, f_{i-2} in fundamental-matrix coordinates (so the
    exponentially small content is dropped exactly) with the Taylor shift
    of those terms.
    """
    out = {}
    for side, key in ((-1, "minus"), (+1, "plus")):
        Nv = N_MINUS if side == -1 else n_plus(delta)
        qm38 = phase.at(phase.q_m38, side)
        cV = _coords_or_zero(f_terms, i - 4, 0, side)
        cW = phase.at(phase.Sp, side) * (
            T_POWERS[3] @ _coords_or_zero(f_terms, i - 2, 0, side)) + \
            _coords_or_zero(f_terms, i - 3, 1, side)
        out[f"V_{key}"] = qm38 * float(np.dot(cV, Nv)) - \
            taylor_shift(tables[side], side, i, 1, 0)
        out[f"W_{key}"] = qm38 * float(np.dot(cW, Nv)) - \
            taylor_shift(tables[side], side, i, 1, 1)
    return out


def transport_sigma(phase: PhaseData, i: int, f_terms, tables, delta: float):
    """Boundary values (sigma_1..sigma_4) of the order-i transport problem."""
    sig = np.zeros(4)
    for side, (iT2, iT) in ((-1, (0, 1)), (+1, (2, 3))):
        Nv = N_MINUS if side == -1 else n_plus(delta)
        qm38 = phase.at(phase.q_m38, side)
        spv = phase.at(phase.Sp, side)
        cD = phi_inv_D(phase, i, f_terms, side)
        cE = phi_inv_E(phase, i, f_terms, side)
        outer_sum = taylor_shift(tables[side], side, i, 0, 2)
        F = taylor_shift(tables[side], side, i - 2, 0, 3)
        sig[iT2] = spv ** -2 * (outer_sum - qm38 * float(np.dot(cD, Nv)))
        sig[iT] = spv ** -3 * (F - qm38 * float(np.dot(cE, Nv)))
    return sig


def transport_solve(phase: PhaseData, delta: float, sigma, w_stack=None):
    """Principal solution of the transport problem with boundary data sigma.

    h(xi) is the spectral antiderivative of Phi^-1 w; the constant vector
    solves the limit system G_delta beta = g with the h(1) corrections on
    the xi = +1 rows.  Exponentially small terms are dropped exactly.
    delta must lie outside the guard band, which ``quantize`` enforces.
    """
    xs = phase.nodes
    if w_stack is None:
        h = np.zeros((4, xs.size))
    else:
        h = cheb_antideriv_values(phase.phi_inv_apply(w_stack(0)), xs)
    h1 = h[:, -1]
    N1 = n_plus(delta)
    m_minus = phase.at(phase.q_38, -1)
    m_plus = phase.at(phase.q_38, +1)
    g = np.array([
        m_minus * sigma[0],
        m_minus * sigma[1],
        m_plus * sigma[2] - float(np.dot(h1, T_POWERS[2] @ N1)),
        m_plus * sigma[3] - float(np.dot(h1, T_POWERS[3] @ N1)),
    ])
    beta = np.linalg.solve(g_delta_matrix(delta), g)
    return InnerCoefficient(phase, beta, h=h, w_stack=w_stack)


# ---------------------------------------------------------------------------
# evaluation of the inner expansion
# ---------------------------------------------------------------------------

def evaluate_inner(phase: PhaseData, series, eps: float, xi):
    """eps^4 sum_i eps^i <f_i(xi), N(xi, S/eps)> at arbitrary xi.

    ``series`` holds the rows of ``inner_series``: S, alpha and the
    coordinates c_i = beta_i + h_i of f_0, f_1, ..., four rows each.  Uses
    the fundamental-matrix identity to evaluate through c_i, which keeps
    every exponential in the safe range: the result is
    q^-3/8 <c_i, N(xi, gamma_eps)>.
    """
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    rows = cheb_eval(series, xi)
    gam = rows[0] / eps + rows[1]
    gam1 = phase.gamma1(eps)
    qv = phase.coeffs.q_at(xi) ** (-0.375)
    N = (np.cos(gam), np.sin(gam), np.exp(-gam), np.exp(gam - gam1))
    out = np.zeros(xi.size)
    for i in range((rows.shape[0] - 2) // 4):
        cv = rows[2 + 4 * i:6 + 4 * i]
        bracket = cv[0] * N[0] + cv[1] * N[1] + cv[2] * N[2] + cv[3] * N[3]
        out = out + eps ** (4 + i) * qv * bracket
    return out
