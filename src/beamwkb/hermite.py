"""C1-conforming Hermite-cubic finite elements for the fourth-order operator.

Shared by the outer (limit) solver and the direct oracle.  Unknowns are
value/slope pairs per node, so clamped and interface data are imposed
strongly.  Element integrals use fixed 8-point Gauss rules, exact for the
polynomial coefficient degrees this package admits.

Every mesh here is clamped at both ends, so ``Assembly`` owns the split
into the four clamped dofs and the contiguous free range between them,
together with the factorizations of the free block of the pencil
K - lambda M: the shifted LU, the cached mass LU behind the mass-inverse
residual norm, and the shift-invert eigensolve.

Element matrices are accumulated in extended precision: the 1/h^3
stiffness scaling otherwise pollutes eigenvalues near the 1e-9 relative
targets whenever h is not exactly representable.  Factorizations stay in
double precision; converged eigenpairs are polished by inverse iteration
and a Rayleigh quotient evaluated against the extended-precision element
data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .model import eval_coefficient

N_GAUSS = 8
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(N_GAUSS)
_GS = 0.5 * (_GAUSS_X + 1.0)      # reference coordinates on [0, 1]
_GW = 0.5 * _GAUSS_W


def _reference_basis(s):
    """Hermite shape functions and s-derivatives on the reference element."""
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


_PHI, _DPHI, _DDPHI, _DDDPHI = _reference_basis(_GS)


def gauss_points(nodes):
    """All element Gauss points (n_elem, N_GAUSS) and weights scaled by h."""
    nodes = np.asarray(nodes, dtype=float)
    h = np.diff(nodes)
    xg = nodes[:-1, None] + h[:, None] * _GS[None, :]
    wg = h[:, None] * _GW[None, :]
    return xg, wg


def _basis_blocks(h):
    """Per-element basis derivative arrays (n_elem, 4, N_GAUSS) in x-space."""
    n = h.size
    ones = np.ones(n, dtype=h.dtype)
    scale0 = np.stack([ones, h, ones, h], axis=1)
    B0 = scale0[:, :, None] * _PHI.astype(h.dtype)[None, :, :]
    scale1 = np.stack([1.0 / h, ones, 1.0 / h, ones], axis=1)
    B1 = scale1[:, :, None] * _DPHI.astype(h.dtype)[None, :, :]
    scale2 = np.stack([1.0 / h**2, 1.0 / h, 1.0 / h**2, 1.0 / h], axis=1)
    B2 = scale2[:, :, None] * _DDPHI.astype(h.dtype)[None, :, :]
    return B0, B1, B2


@dataclass
class Assembly:
    """Assembled bilinear forms plus extended-precision element data."""

    nodes: np.ndarray
    K: sp.csr_matrix
    M: sp.csr_matrix
    Ke: np.ndarray            # (n_elem, 4, 4) longdouble
    Me: np.ndarray            # (n_elem, 4, 4) longdouble

    @property
    def ndof(self):
        return 2 * self.nodes.size

    @property
    def clamped(self):
        """Value and slope dofs of the first node, then of the last node."""
        return np.array([0, 1, self.ndof - 2, self.ndof - 1])

    @property
    def free(self):
        """The free dofs: everything between the two clamped nodes."""
        return slice(2, self.ndof - 2)

    @cached_property
    def free_blocks(self):
        """(K_ff, M_ff), the pencil restricted to the free dofs."""
        return self.K[self.free, self.free], self.M[self.free, self.free]

    @cached_property
    def _mass_lu(self):
        return spla.splu(self.free_blocks[1].tocsc())

    def factor(self, shift):
        """LU of K_ff - shift M_ff; an exactly singular shift is nudged."""
        Kff, Mff = self.free_blocks
        try:
            return spla.splu((Kff - shift * Mff).tocsc())
        except RuntimeError:
            return spla.splu((Kff - shift * (1.0 + 1e-11) * Mff).tocsc())

    def mass_inverse_norm(self, r):
        """sqrt(r_f^T M_ff^-1 r_f) for a residual r over all dofs.

        The clamped rows of r carry boundary reactions, not equation
        residuals, and are dropped.
        """
        rf = np.asarray(r[self.free], dtype=float)
        return math.sqrt(abs(float(rf @ self._mass_lu.solve(rf))))

    def edof(self):
        return 2 * np.arange(self.nodes.size - 1)[:, None] + np.arange(4)[None, :]

    def _quad_form(self, elem_mats, v, w):
        vl = np.asarray(v, dtype=np.longdouble)
        wl = np.asarray(w, dtype=np.longdouble)
        ed = self.edof()
        ve = vl[ed]
        we = wl[ed]
        return np.einsum("ei,eij,ej->", ve, elem_mats, we)

    def mass(self, v, w=None):
        """v^T M w accumulated in extended precision."""
        return float(self._quad_form(self.Me, v, v if w is None else w))

    def rayleigh(self, v):
        return float(self._quad_form(self.Ke, v, v) / self._quad_form(self.Me, v, v))

    def pencil_apply(self, v, lam, mass_vec=None, load=None):
        """K v - lam M v (- load) over all dofs, accumulated in extended precision.

        ``mass_vec`` optionally subtracts M @ mass_vec as well (inhomogeneous
        eigen-corrections): the result is K v - lam M v - M mass_vec - load.
        """
        vl = np.asarray(v, dtype=np.longdouble)
        ed = self.edof()
        re = np.einsum("eij,ej->ei", self.Ke, vl[ed]) - \
            np.longdouble(lam) * np.einsum("eij,ej->ei", self.Me, vl[ed])
        if mass_vec is not None:
            ml = np.asarray(mass_vec, dtype=np.longdouble)
            re = re - np.einsum("eij,ej->ei", self.Me, ml[ed])
        out = np.zeros(self.ndof, dtype=np.longdouble)
        np.add.at(out, ed.ravel(), re.ravel())
        if load is not None:
            out = out - np.asarray(load, dtype=np.longdouble)
        return out


def assemble(nodes, k0_fn, k1_fn, k2_fn, weight_fn):
    """Assemble stiffness and mass forms on the given node vector.

    Coefficient callables must accept arrays; ``k1_fn``/``k2_fn`` may be
    None when the corresponding term vanishes.
    """
    nodes = np.asarray(nodes, dtype=float)
    h = np.diff(nodes).astype(np.longdouble)
    if np.any(h <= 0):
        raise ValueError("nodes must be strictly increasing")
    xg, _ = gauss_points(nodes)
    wg = h[:, None] * _GW.astype(np.longdouble)[None, :]
    B0, B1, B2 = _basis_blocks(h)

    k0g = k0_fn(xg).astype(np.longdouble) * wg
    Ke = np.einsum("eg,eig,ejg->eij", k0g, B2, B2)
    if k1_fn is not None:
        k1g = k1_fn(xg).astype(np.longdouble) * wg
        Ke += np.einsum("eg,eig,ejg->eij", k1g, B1, B1)
    if k2_fn is not None:
        k2g = k2_fn(xg).astype(np.longdouble) * wg
        Ke += np.einsum("eg,eig,ejg->eij", k2g, B0, B0)
    wgt = weight_fn(xg).astype(np.longdouble) * wg
    Me = np.einsum("eg,eig,ejg->eij", wgt, B0, B0)

    n_elem = h.size
    ndof = 2 * nodes.size
    edof = 2 * np.arange(n_elem)[:, None] + np.arange(4)[None, :]
    rows = np.repeat(edof, 4, axis=1).ravel()
    cols = np.tile(edof, (1, 4)).ravel()
    K = sp.coo_matrix((Ke.astype(float).ravel(), (rows, cols)),
                      shape=(ndof, ndof)).tocsr()
    M = sp.coo_matrix((Me.astype(float).ravel(), (rows, cols)),
                      shape=(ndof, ndof)).tocsr()
    return Assembly(nodes=nodes, K=K, M=M, Ke=Ke, Me=Me)


def poly_fn(coeff):
    if len(coeff) == 0:
        return None
    return lambda x: eval_coefficient(coeff, x) * np.ones_like(np.asarray(x, float))


@dataclass
class HermiteFunction:
    """Piecewise-cubic function given by nodal values and slopes."""

    nodes: np.ndarray
    values: np.ndarray
    slopes: np.ndarray

    @classmethod
    def from_dofs(cls, nodes, dofs):
        dofs = np.asarray(dofs, dtype=float)
        return cls(np.asarray(nodes, float), dofs[0::2].copy(), dofs[1::2].copy())

    @classmethod
    def zero(cls, nodes):
        nodes = np.asarray(nodes, float)
        return cls(nodes, np.zeros(nodes.size), np.zeros(nodes.size))

    def dofs(self):
        out = np.empty(2 * self.nodes.size)
        out[0::2] = self.values
        out[1::2] = self.slopes
        return out

    def _locate(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.nodes, x, side="right") - 1,
                      0, self.nodes.size - 2)
        h = self.nodes[idx + 1] - self.nodes[idx]
        s = (x - self.nodes[idx]) / h
        return idx, h, s

    def __call__(self, x, deriv: int = 0):
        if not 0 <= deriv <= 3:
            raise ValueError("piecewise cubics support derivatives 0..3")
        idx, h, s = self._locate(x)
        phi = _reference_basis(s)[deriv]
        fac = np.stack([np.ones_like(h), h, np.ones_like(h), h])
        pow_h = h ** float(-deriv)
        coef = np.stack([self.values[idx], self.slopes[idx],
                         self.values[idx + 1], self.slopes[idx + 1]]) * fac
        out = np.sum(coef * phi, axis=0) * pow_h
        return out[()] if np.ndim(x) == 0 else out

    def scaled(self, factor):
        return HermiteFunction(self.nodes, self.values * factor, self.slopes * factor)


def inner_product(nodes, f, g, weight_fn=None, lo=None, hi=None):
    """Integral of f * g (optionally weighted) over [lo, hi] via element Gauss rules."""
    nodes = np.asarray(nodes, float)
    xg, wg = gauss_points(nodes)
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


def load_vector(nodes, rhs_fn):
    """Consistent load vector for a vectorized right-hand side density."""
    nodes = np.asarray(nodes, float)
    h = np.diff(nodes)
    xg, wg = gauss_points(nodes)
    B0, _, _ = _basis_blocks(h)
    fe = np.einsum("eg,eig->ei", rhs_fn(xg) * wg, B0)
    F = np.zeros(2 * nodes.size)
    edof = 2 * np.arange(h.size)[:, None] + np.arange(4)[None, :]
    np.add.at(F, edof.ravel(), fe.ravel())
    return F


class EigenConvergenceError(RuntimeError):
    """Shift-invert iteration failed to converge near the requested target."""


def eigs_near(asm: Assembly, sigma, k=6, polish=2):
    """Eigenpairs of the clamped pencil nearest to sigma.

    ARPACK shift-invert with a deterministic all-ones start vector, then
    per-pair inverse-iteration polish and an extended-precision Rayleigh
    quotient.

    Returns (values ascending, vectors as columns in full dof numbering,
    zero on the clamped dofs).
    """
    Kff, Mff = asm.free_blocks
    n = Kff.shape[0]
    v0 = np.ones(n) / np.sqrt(n)
    try:
        vals, vecs = spla.eigsh(Kff.tocsc(), k=min(k, n - 2), M=Mff.tocsc(),
                                sigma=sigma, which="LM", v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise EigenConvergenceError(
            f"shift-invert failed to converge at sigma={sigma!r}") from exc
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]

    out_vals = np.empty_like(vals)
    out_vecs = np.zeros((asm.ndof, vals.size))
    for i in range(vals.size):
        lam, v = vals[i], vecs[:, i]
        for _ in range(polish):
            w = asm.factor(lam).solve(Mff @ v)
            nrm = np.sqrt(abs(w @ (Mff @ w)))
            if not np.isfinite(nrm) or nrm == 0.0:
                break
            v = w / nrm
            out_vecs[asm.free, i] = v
            lam = asm.rayleigh(out_vecs[:, i])
        out_vals[i] = lam
        out_vecs[asm.free, i] = v
    order = np.argsort(out_vals)
    return out_vals[order], out_vecs[:, order]
