"""C1-conforming Hermite-cubic finite elements for the fourth-order operator.

Shared by the outer (limit) solver and the direct oracle.  Unknowns are
value/slope pairs per node, so clamped and interface data are imposed
strongly.  Element integrals use fixed 8-point Gauss rules, exact for the
polynomial coefficient degrees this package admits.

Every mesh here is clamped at both ends, so ``Assembly`` owns the split
into the four clamped dofs and the contiguous free range between them,
together with the factorizations of the free block of the pencil
K - lambda M.  Both forms have half-bandwidth MASS_BANDWIDTH = 3 and are
kept once, in one LAPACK band store over all dofs that every product
(summed in CSR order) and factorization reads.  The free block is its
column slice: the shifted band LU (dgbtrf) and the banded Cholesky
M_ff = U^T U of the mass block.  ``eigs_near`` runs ARPACK in standard
form on U (K_ff - sigma M_ff)^-1 U^T, so it makes no mass product.

A load vector has one path: ``GaussRule.load_vector`` sums density
values given at the rule's points against its weights and shape values.
A caller makes the rule once per mesh; the outer chain keeps one per
side for the whole build (``outer.GaussSide``).

Element matrices are accumulated in extended precision: the 1/h^3
stiffness scaling otherwise pollutes eigenvalues near the 1e-9 relative
targets whenever h is not exactly representable.  Factorizations stay in
double precision.  ``eigs_near`` returns unpolished Ritz pairs, with
ARPACK stopped at the relative tolerance RITZ_TOL rather than at machine
precision; a caller polishes only the pairs it reports with ``polish``
(inverse iteration and a Rayleigh quotient evaluated against the
extended-precision element data), which finishes each pair: a float
eigenvalue and a vector of unit M-norm, scaled by the mass form of its
last Rayleigh step.  Rayleigh-quotient iteration converges only the pair
it starts from, so the other Ritz values, which feed gaps and flanks,
stay as ARPACK returns them: far more accurate than any gap or flank
check needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg as sla
import scipy.sparse.linalg as spla
from scipy.linalg.blas import dtbmv, dtbsv

from .model import eval_coefficient

N_GAUSS = 8
_GAUSS_X, _GAUSS_W = np.polynomial.legendre.leggauss(N_GAUSS)
_GS = 0.5 * (_GAUSS_X + 1.0)      # reference coordinates on [0, 1]
_GW = 0.5 * _GAUSS_W


# the four Hermite shape functions' d-th s-derivatives, d = 0..2
_SHAPES = (
    lambda s: (1.0 - 3.0 * s**2 + 2.0 * s**3,
               s - 2.0 * s**2 + s**3,
               3.0 * s**2 - 2.0 * s**3,
               -(s**2) + s**3),
    lambda s: (-6.0 * s + 6.0 * s**2,
               1.0 - 4.0 * s + 3.0 * s**2,
               6.0 * s - 6.0 * s**2,
               -2.0 * s + 3.0 * s**2),
    lambda s: (-6.0 + 12.0 * s,
               -4.0 + 6.0 * s,
               6.0 - 12.0 * s,
               -2.0 + 6.0 * s),
)


def _reference_basis(s, deriv):
    """The deriv-th s-derivative of the Hermite shape functions on the
    reference element, stacked (4, ...)."""
    return np.stack(_SHAPES[deriv](np.asarray(s)))


_PHI, _DPHI, _DDPHI = (_reference_basis(_GS, d) for d in range(3))
MASS_BANDWIDTH = 3        # element e couples dofs 2e..2e+3


def gauss_points(nodes):
    """All element Gauss points (n_elem, N_GAUSS) and weights scaled by h."""
    nodes = np.asarray(nodes, dtype=float)
    h = np.diff(nodes)
    xg = nodes[:-1, None] + h[:, None] * _GS[None, :]
    wg = h[:, None] * _GW[None, :]
    return xg, wg


# x-space scale of each shape function's deriv-th derivative, deriv = 0..2
_SCALES = (
    lambda h, one: (one, h, one, h),
    lambda h, one: (1.0 / h, one, 1.0 / h, one),
    lambda h, one: (1.0 / h**2, 1.0 / h, 1.0 / h**2, 1.0 / h),
)


def _basis_block(h, deriv):
    """Per-element deriv-th basis derivative array (n_elem, 4, N_GAUSS)
    in x-space."""
    scale = np.stack(_SCALES[deriv](h, np.ones(h.size, dtype=h.dtype)), axis=1)
    table = (_PHI, _DPHI, _DDPHI)[deriv]
    return scale[:, :, None] * table.astype(h.dtype)[None, :, :]


@dataclass
class Assembly:
    """Assembled bilinear forms plus extended-precision element data.

    Also the clamped/free dof split and the free-block factorizations:
    ``band_factor`` (shifted band LU) and ``mass_inverse_norm`` (banded
    Cholesky of M_ff, cached).
    """

    nodes: np.ndarray
    bands: np.ndarray         # (2, 3 MASS_BANDWIDTH + 1, ndof): K, M
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

    def pencil(self, shift):
        """K - shift M over all dofs, in the band storage of ``bands``."""
        return self.bands[0] - shift * self.bands[1]

    @staticmethod
    def product(band, x):
        """A x for the square matrix A held in ``band``.

        Entry (i, j) sits in row 2 MASS_BANDWIDTH + i - j of column j, as
        dgbtrf stores it.  Each row sums in increasing j, as CSR and CSC
        do, so the result is theirs bit for bit; cells outside the matrix
        are never read.
        """
        bw, n = MASS_BANDWIDTH, x.size
        y = np.zeros(n)
        for d in range(-bw, bw + 1):          # column offset j - i
            i, j, m = max(0, -d), max(0, d), n - abs(d)
            y[i:i + m] += band[2 * bw - d, j:j + m] * x[j:j + m]
        return y

    @cached_property
    def _mass_cholesky(self):
        """Upper banded Cholesky factor of M_ff."""
        bw = MASS_BANDWIDTH
        return sla.cholesky_banded(self.bands[1, bw:2 * bw + 1, self.free],
                                   lower=False)

    def band_factor(self, shift):
        """LAPACK band LU of K_ff - shift M_ff, returned as its solve b -> x.

        An exactly singular shift is nudged; any other failure raises.
        """
        bw = MASS_BANDWIDTH
        lu, piv, info = sla.lapack.dgbtrf(self.pencil(shift)[:, self.free],
                                          bw, bw)
        if info > 0:              # an exactly zero pivot
            lu, piv, info = sla.lapack.dgbtrf(
                self.pencil(shift * (1.0 + 1e-11))[:, self.free], bw, bw)
        if info != 0:
            raise np.linalg.LinAlgError(f"dgbtrf failed with info={info}")
        return lambda b: sla.lapack.dgbtrs(lu, bw, bw, b, piv)[0]

    def mass_inverse_norm(self, r):
        """sqrt(r_f^T M_ff^-1 r_f) for a residual r over all dofs.

        The clamped rows of r carry boundary reactions, not equation
        residuals, and are dropped.
        """
        rf = np.asarray(r[self.free], dtype=float)
        y = sla.cho_solve_banded((self._mass_cholesky, False), rf)
        return math.sqrt(abs(float(rf @ y)))

    def edof(self):
        return 2 * np.arange(self.nodes.size - 1)[:, None] + np.arange(4)[None, :]

    def _quad_form(self, elem_mats, v, w):
        vl = np.asarray(v, dtype=np.longdouble)
        wl = np.asarray(w, dtype=np.longdouble)
        ed = self.edof()
        ve = vl[ed]
        we = wl[ed]
        return np.einsum("ei,eij,ej->", ve, elem_mats, we)

    def rayleigh(self, v):
        """(v^T K v / v^T M v, v^T M v), both forms in extended precision
        from one gather of v."""
        ve = np.asarray(v, dtype=np.longdouble)[self.edof()]
        mass = np.einsum("ei,eij,ej->", ve, self.Me, ve)
        return (float(np.einsum("ei,eij,ej->", ve, self.Ke, ve) / mass),
                float(mass))

    def pencil_apply(self, v, lam, load=None):
        """K v - lam M v (- load) over all dofs, accumulated in extended
        precision from one gather of v."""
        ve = np.asarray(v, dtype=np.longdouble)[self.edof()]
        re = np.einsum("eij,ej->ei", self.Ke, ve) - \
            np.longdouble(lam) * np.einsum("eij,ej->ei", self.Me, ve)
        out = _scatter(re, self.ndof)
        if load is not None:
            out = out - np.asarray(load, dtype=np.longdouble)
        return out


def _scatter(elem_vecs, ndof):
    """Sum (n_elem, 4) element vectors into the global dof vector.

    Element e owns dofs 2e..2e+3, so neighbours overlap in one dof pair:
    one slice-add for the left halves, one for the right halves.
    """
    out = np.zeros(ndof, dtype=elem_vecs.dtype)
    out[:-2] += elem_vecs[:, :2].ravel()
    out[2:] += elem_vecs[:, 2:].ravel()
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
    B0, B2 = _basis_block(h, 0), _basis_block(h, 2)

    k0g = k0_fn(xg).astype(np.longdouble) * wg
    Ke = np.einsum("eg,eig,ejg->eij", k0g, B2, B2)
    if k1_fn is not None:
        B1 = _basis_block(h, 1)
        k1g = k1_fn(xg).astype(np.longdouble) * wg
        Ke += np.einsum("eg,eig,ejg->eij", k1g, B1, B1)
    if k2_fn is not None:
        k2g = k2_fn(xg).astype(np.longdouble) * wg
        Ke += np.einsum("eg,eig,ejg->eij", k2g, B0, B0)
    wgt = weight_fn(xg).astype(np.longdouble) * wg
    Me = np.einsum("eg,eig,ejg->eij", wgt, B0, B0)

    # element e couples dofs 2e..2e+3; each block is rounded to double
    # before it is added, and no entry has more than two addends
    n_elem, bw = h.size, MASS_BANDWIDTH
    bands = np.zeros((2, 3 * bw + 1, 2 * nodes.size))
    blocks = np.stack([Ke, Me]).astype(float)
    for i in range(4):
        for j in range(4):
            bands[:, 2 * bw + i - j, j:j + 2 * n_elem:2] += blocks[:, :, i, j]
    return Assembly(nodes=nodes, bands=bands, Ke=Ke, Me=Me)


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

    def __call__(self, x):
        """Values at x: nodal values and h-scaled slopes against the
        reference shape functions."""
        idx, h, s = self._locate(x)
        coef = np.stack([self.values[idx], h * self.slopes[idx],
                         self.values[idx + 1], h * self.slopes[idx + 1]])
        out = np.sum(coef * _reference_basis(s, 0), axis=0)
        return out[()] if np.ndim(x) == 0 else out

    def gauss_values(self):
        """Values at the Gauss points of its own mesh, (n_elem, N_GAUSS).

        Nodal values and h-scaled slopes against the reference table
        ``_PHI``: no point is located or mapped back to [0, 1], so it
        agrees with ``self(gauss_points(self.nodes)[0])`` to round-off.
        """
        h = np.diff(self.nodes)
        coef = np.stack([self.values[:-1], h * self.slopes[:-1],
                         self.values[1:], h * self.slopes[1:]], axis=1)
        return coef @ _PHI

    def scaled(self, factor):
        return HermiteFunction(self.nodes, self.values * factor, self.slopes * factor)


class GaussRule:
    """A mesh's element Gauss points ``x``, their weights ``w`` scaled by
    h, and the shape values there: what every load vector on the mesh
    reads, made once per mesh by its user."""

    def __init__(self, nodes):
        self.nodes = np.asarray(nodes, float)
        self.x, self.w = gauss_points(self.nodes)
        self.shapes = _basis_block(np.diff(self.nodes), 0)

    def load_vector(self, density):
        """Consistent load vector of a density given by its values at x."""
        fe = np.einsum("eg,eig->ei", density * self.w, self.shapes)
        return _scatter(fe, 2 * self.nodes.size)


POLISH_STEPS = 2
RITZ_TOL = 1e-10          # ARPACK stopping tolerance, relative


class EigenConvergenceError(RuntimeError):
    """Shift-invert iteration failed to converge near the requested target."""


def eigs_near(asm: Assembly, sigma, k):
    """Ritz pairs of the clamped pencil nearest to sigma, unpolished.

    The spectral transformation in standard form (Ericsson & Ruhe, Math.
    Comp. 35, 1980; ARPACK Users' Guide, section 3.2): with the banded
    Cholesky factor M_ff = U^T U, the operator OP = U (K_ff - sigma
    M_ff)^-1 U^T is symmetric, and its eigenvalues theta = 1 / (lambda -
    sigma) are largest in magnitude next to sigma.  ARPACK runs in its
    standard mode on OP; each step is one band solve (``band_factor``)
    and two triangular band products (BLAS dtbmv), and no mass product.
    The eigenvectors come back as x = U^-1 y (dtbsv), M-orthonormal.

    ARPACK starts from a deterministic all-ones vector and stops once each
    Ritz pair of OP has a residual below RITZ_TOL times its Ritz value.
    The operator is symmetric, so the Ritz value error is of the order of
    the squared residual: on the oracle pencils the values still match a
    tol=0 solve to about 1e-15 relative.  ARPACK's default (tol=0, machine
    precision on all k pairs) costs about 60 % more steps at k = 4, for
    digits that only gaps and flanks read; a caller polishes every pair
    it reports.

    Returns (values ascending, vectors as columns in full dof numbering,
    zero on the clamped dofs).
    """
    bw, U = MASS_BANDWIDTH, asm._mass_cholesky
    solve = asm.band_factor(sigma)
    n = U.shape[1]

    def op(y):
        return dtbmv(bw, U, solve(dtbmv(bw, U, y, trans=1)))

    try:
        theta, y = spla.eigsh(
            spla.LinearOperator((n, n), matvec=op, dtype=float),
            k=min(k, n - 2), which="LM", v0=np.ones(n) / np.sqrt(n),
            tol=RITZ_TOL)
    except spla.ArpackNoConvergence as exc:
        raise EigenConvergenceError(
            f"shift-invert failed to converge at sigma={sigma!r}") from exc
    vals = sigma + 1.0 / theta
    order = np.argsort(vals)
    out_vecs = np.zeros((asm.ndof, vals.size))
    for col, j in enumerate(order):
        out_vecs[asm.free, col] = dtbsv(bw, U, y[:, j])
    return vals[order], out_vecs


def polish(asm: Assembly, lam, v, factor):
    """One eigenpair refined by POLISH_STEPS inverse-iteration steps.

    Each step solves with K_ff - lam M_ff (by ``factor(lam)``),
    M-normalizes, and updates lam to the extended-precision Rayleigh
    quotient.  The mass form v^T M v of that last Rayleigh step scales the
    vector to unit M-norm; should a step's solve come back zero or not
    finite, the last good pair is returned, normalized the same way.
    ``v`` is in full dof numbering; returns (lam as a float, unit vector
    in full dof numbering).
    """
    Mff = asm.bands[1, :, asm.free]
    vf = v[asm.free]
    out = np.zeros(asm.ndof)
    out[asm.free] = vf
    mass = None
    for _ in range(POLISH_STEPS):
        w = factor(lam)(asm.product(Mff, vf))
        nrm = np.sqrt(abs(w @ asm.product(Mff, w)))
        if not np.isfinite(nrm) or nrm == 0.0:
            break
        vf = w / nrm
        out[asm.free] = vf
        lam, mass = asm.rayleigh(out)
    if mass is None:              # the first step broke: the pair as given
        mass = asm.rayleigh(out)[1]
    return float(lam), out / math.sqrt(mass)
