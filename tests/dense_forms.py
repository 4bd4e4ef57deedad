"""Dense reference forms of the inner operators, for checks only.

The package never builds these: it works through the T-algebra and the
fundamental-matrix coordinates, and reads grid functions off the grid
through their Chebyshev coefficients.  The tests use these literal
matrices and the barycentric interpolant to check those fast paths.
"""

import math

import numpy as np

from beamwkb import inner
from beamwkb.inner import T_POWERS


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
    return inner._transport_solve(phase, -1, sigma, w_stack,
                                  inner.g_matrix(gamma1), N1)


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


def interface_quantities(phase, i, f_terms, tables):
    """Raw (D_i, E_i) at xi = +-1 and F_i at x = +-0.

    ``tables`` maps side (-1 or +1) to a list of endpoint derivative tables
    (objects with .deriv(j)) for the outer terms, index = order.
    """
    out = {}
    for side in (-1, +1):
        at = np.array([float(side)])
        cD = inner.phi_inv_D(phase, i, f_terms, side)
        cE = inner.phi_inv_E(phase, i, f_terms, side)

        def missing(order):
            return inner.MissingDataError(
                f"F_{i}({'+' if side > 0 else '-'}0) needs the order-{order} "
                f"outer term on side {side:+d}")

        key = "minus" if side == -1 else "plus"
        out[f"D_{key}"] = phi_apply_at(phase, cD[:, None], at)[:, 0]
        out[f"E_{key}"] = phi_apply_at(phase, cE[:, None], at)[:, 0]
        out[f"F_{key}"] = inner.taylor_shift(tables[side], side, i - 2, 0, 3,
                                             missing)
    return out


def log_linear_correlation(x, logy):
    """|Pearson correlation| of x against log-values (exponential-decay fits)."""
    x = np.asarray(x, float)
    y = np.asarray(logy, float)
    return float(abs(np.corrcoef(x, y)[0, 1]))
