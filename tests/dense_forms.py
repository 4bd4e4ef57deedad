"""Dense reference forms of the inner operators, for checks only.

The package never builds these: it works through the T-algebra and the
fundamental-matrix coordinates.  The tests use them to check those fast
paths against the literal matrices.
"""

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


def phi_matrices(phase, xs=None):
    """Dense Phi(xi) as (n, 4, 4)."""
    if xs is None:
        xs = phase.nodes
    pref, ca, sa, e1, e2 = phase.phi_blocks(xs)
    n = np.asarray(xs).size
    out = np.zeros((n, 4, 4))
    out[:, 0, 0] = ca
    out[:, 0, 1] = sa
    out[:, 1, 0] = -sa
    out[:, 1, 1] = ca
    out[:, 2, 2] = e1
    out[:, 3, 3] = e2
    return pref[:, None, None] * out


def N_of_S(phase, eps, xs=None):
    """N(xi, S/eps) with overflow-safe shifted exponentials, (4, n)."""
    if xs is None:
        xs = phase.nodes
        Sv = phase.S
    else:
        Sv = inner.barycentric_eval(phase.nodes, phase.S, xs)
    tau = Sv / eps
    if np.any(tau < -1e-12) or np.any(tau - phase.S1 / eps > 1e-9):
        raise FloatingPointError("inner phase left the safe range")
    return np.stack([np.cos(tau), np.sin(tau),
                     np.exp(-tau), np.exp(tau - phase.S1 / eps)])


def log_linear_correlation(x, logy):
    """|Pearson correlation| of x against log-values (exponential-decay fits)."""
    x = np.asarray(x, float)
    y = np.asarray(logy, float)
    return float(abs(np.corrcoef(x, y)[0, 1]))
