"""Limit three-point eigenproblem and the chain of outer correction terms.

The leading pair (lambda0, v0) solves the clamped problem on (a, 0) with
value and slope pinned at both ends, extended by zero across (0, b).
Higher terms v_i solve nonhomogeneous problems with the interface data
that ``inner.boundary_data`` matches to the inner expansion; each
eigenvalue correction lambda_i is fixed by the Fredholm solvability
condition at the interface.

What the stages of one build share is made once, in an ``OuterWork``
that ``harness.build_expansion`` drops on return: the extended-precision
Taylor tables of the coefficients at x = 0 (read by every endpoint
table), the SuperLU solve of the (0, b) pencil at lambda0 (the three-point
right eigensolve's shift-invert, then every correction order), the
bordered (a, 0) system that ``factor_pencils`` factors, and per side the
Gauss table that every load vector reads: the rule, p and each outer
term at its points, a term evaluated once, where it first forces an order.

Each interval's forms come from ``_interval_assembly``, a private
extended-precision assembly (``_ExtendedAssembly``: np.longdouble
element tables, the Rayleigh quotient and pencil residuals read against
them), not from the oracle's double-precision ``hermite.assemble``.  The
lambda_i digest pins its rounding, like that of the SuperLU and
generalized-ARPACK path (``_factor``, ``_eigs_near``) beside it, until
ROADMAP item 2 replaces the FE chain and deletes all three.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import hermite
from .hermite import Assembly, HermiteFunction
from .model import CoefficientSet, eval_coefficient

DATA_ZERO_TOL = 1e-9      # resonant right interval: data this small count as zero
GAP_MIN_REL = 1e-3        # simplicity threshold on lambda0, relative to lambda0


class ThreePointMultiplicityError(RuntimeError):
    """The selected limit eigenvalue is not simple within gap_min."""


class SolvabilityError(RuntimeError):
    """The singular left-interval system is inconsistent beyond tolerance."""


def interval_nodes(coeffs, outer_grid):
    """Meshes of (a, 0) and (0, b): outer_grid elements per unit length,
    at least 32 per interval.  Every outer term of one side lives on it."""
    meshes = []
    for lo, hi in ((coeffs.a, 0.0), (0.0, coeffs.b)):
        n_elem = max(32, int(round(outer_grid * (hi - lo))))
        meshes.append(np.linspace(lo, hi, n_elem + 1))
    return meshes


@dataclass
class _ExtendedAssembly(Assembly):
    """An interval assembly that keeps extended-precision element data.

    ``Ke`` and ``Me`` are the (n_elem, 4, 4) np.longdouble element
    matrices its band store was rounded from.  Its Rayleigh quotient
    (which ``hermite.polish`` reads for lambda0 and the right pair) and
    its pencil residuals (the correction chain's refinement and the
    endpoint reactions) are evaluated against them; it has no Gauss
    energy data (``x``, ``w``, ``rho_w`` and ``stiffness`` are None).
    The lambda_i digest pins the rounding of this path, which the
    oracle's double-precision ``hermite.assemble`` does not reproduce:
    even the same extended sums taken pair by pair over i <= j, which
    move Ke by 1.8e-22 of its largest entry, move the n_max 6 lambda_i
    of the variable beam at outer_grid 512 by up to 2.5e-8 relative,
    past the digest's 1e-9.  So the outer chain keeps it, with
    ``_factor`` and ``_eigs_near``, until ROADMAP item 2 deletes them.
    """

    Ke: np.ndarray = field(repr=False)    # (n_elem, 4, 4) longdouble
    Me: np.ndarray = field(repr=False)    # (n_elem, 4, 4) longdouble

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
        out = hermite._scatter(re, self.ndof)
        if load is not None:
            out = out - np.asarray(load, dtype=np.longdouble)
        return out


def _interval_assembly(coeffs, nodes):
    """Stiffness and mass forms of k0, k1, k2 and p on one interval's
    nodes, element matrices accumulated in extended precision."""
    k0_fn, k1_fn, k2_fn, weight_fn = (hermite.poly_fn(c) for c in (
        coeffs.k0, coeffs.k1, coeffs.k2, coeffs.p))
    nodes = np.asarray(nodes, dtype=float)
    h = np.diff(nodes).astype(np.longdouble)
    if np.any(h <= 0):
        raise ValueError("nodes must be strictly increasing")
    xg, _ = hermite.gauss_points(nodes)
    wg = h[:, None] * hermite._GW.astype(np.longdouble)[None, :]
    B0, B2 = hermite._basis_block(h, 0), hermite._basis_block(h, 2)

    k0g = k0_fn(xg).astype(np.longdouble) * wg
    Ke = np.einsum("eg,eig,ejg->eij", k0g, B2, B2)
    if k1_fn is not None:
        B1 = hermite._basis_block(h, 1)
        k1g = k1_fn(xg).astype(np.longdouble) * wg
        Ke += np.einsum("eg,eig,ejg->eij", k1g, B1, B1)
    if k2_fn is not None:
        k2g = k2_fn(xg).astype(np.longdouble) * wg
        Ke += np.einsum("eg,eig,ejg->eij", k2g, B0, B0)
    wgt = weight_fn(xg).astype(np.longdouble) * wg
    Me = np.einsum("eg,eig,ejg->eij", wgt, B0, B0)

    # element e couples dofs 2e..2e+3; each block is rounded to double
    # before it is added, and no entry has more than two addends
    n_elem, bw = h.size, hermite.MASS_BANDWIDTH
    bands = np.zeros((2, 3 * bw + 1, 2 * nodes.size))
    blocks = np.stack([Ke, Me]).astype(float)
    for i in range(4):
        for j in range(4):
            bands[:, 2 * bw + i - j, j:j + 2 * n_elem:2] += blocks[:, :, i, j]
    return _ExtendedAssembly(nodes=nodes, bands=bands, x=None, w=None,
                             rho_w=None, stiffness=None, Ke=Ke, Me=Me)


def _free_block(asm: Assembly, band):
    """The free block of the matrix held in ``band`` (dgbtrf storage) as
    a DIA array; converting it drops zero entries and corner cells."""
    bw = hermite.MASS_BANDWIDTH
    band = band[bw:, asm.free]
    return sp.dia_array((band, np.arange(bw, -bw - 1, -1)),
                        shape=(band.shape[1],) * 2)


def _pencil_csc(asm: Assembly, shift):
    """K_ff - shift M_ff as CSC."""
    return _free_block(asm, asm.pencil(shift)).tocsc()


def _factor(asm: Assembly, shift):
    """SuperLU of K_ff - shift M_ff, returned as its solve b -> x.

    An exactly singular shift is nudged.
    """
    try:
        lu = spla.splu(_pencil_csc(asm, shift))
    except RuntimeError:
        lu = spla.splu(_pencil_csc(asm, shift * (1.0 + 1e-11)))
    return lu.solve


def _eigs_near(asm: Assembly, sigma, k, solve):
    """Ritz pairs of the clamped pencil nearest to sigma, unpolished.

    ARPACK in generalized shift-invert mode, with ``solve``, the SuperLU
    solve ``_factor(asm, sigma)``, as its OPinv and M_ff in CSR as its
    mass operator (built once per call; CSR sums each row in increasing
    column order, as ``Assembly.product`` does, so bit for bit), stopped
    at ``hermite.RITZ_TOL`` from the all-ones start vector.  That mode
    applies only OPinv and M, never the pencil's A, so the mass operator
    stands in for A.  The lambda_i digest pins the rounding of this path,
    so the outer chain keeps it and its SuperLU solves while the oracle
    runs ``hermite.eigs_near``; ROADMAP item 2 deletes them.

    Returns (values ascending, vectors as columns in full dof numbering,
    zero on the clamped dofs).
    """
    Mf = _free_block(asm, asm.bands[1]).tocsr()
    n = Mf.shape[1]
    v0 = np.ones(n) / np.sqrt(n)
    M, opinv = (spla.LinearOperator((n, n), matvec=f, dtype=float)
                for f in (Mf.dot, solve))
    try:
        vals, vecs = spla.eigsh(M, k=min(k, n - 2), M=M, sigma=sigma,
                                which="LM", v0=v0, tol=hermite.RITZ_TOL,
                                OPinv=opinv)
    except spla.ArpackNoConvergence as exc:
        raise hermite.EigenConvergenceError(
            f"shift-invert failed to converge at sigma={sigma!r}") from exc
    order = np.argsort(vals)
    out_vecs = np.zeros((asm.ndof, vals.size))
    out_vecs[asm.free] = vecs[:, order]
    return vals[order], out_vecs


def coefficient_taylor(coeffs, depth):
    """The derivatives of order < depth of k0, k1, k2 and p at x = 0, in
    extended precision: the tables ``endpoint_derivatives`` reads."""
    return tuple([np.longdouble(eval_coefficient(coeff, 0.0, s))
                  for s in range(depth)]
                 for coeff in (coeffs.k0, coeffs.k1, coeffs.k2, coeffs.p))


def endpoint_derivatives(taylor, lam0, seeds, g_derivs):
    """Extend (v, v', v'', v''') at x = 0 to derivatives of order <= depth.

    Uses repeated differentiation of (k0 v'')'' - (k1 v')' + k2 v =
    lam0 p v + p g, which determines v^(r+4) from lower derivatives; the
    coefficient derivatives at 0 are exact polynomial data, read from
    ``taylor = coefficient_taylor(coeffs, depth)``.
    """
    k0, k1, k2, p = taylor
    depth = len(k0)
    v = np.zeros(depth + 1, dtype=np.longdouble)
    v[: min(4, depth + 1)] = seeds[: min(4, depth + 1)]
    if depth < 4:
        return np.asarray(v, dtype=float)
    g = np.zeros(depth + 1, dtype=np.longdouble)
    g[: len(g_derivs)] = g_derivs[: depth + 1]
    for r in range(depth - 3):
        acc = np.longdouble(0.0)
        for s in range(1, r + 3):
            acc -= math.comb(r + 2, s) * k0[s] * v[r + 4 - s]
        for s in range(0, r + 2):
            acc += math.comb(r + 1, s) * k1[s] * v[r + 2 - s]
        for s in range(0, r + 1):
            c = math.comb(r, s)
            acc -= c * k2[s] * v[r - s]
            acc += c * np.longdouble(lam0) * p[s] * v[r - s]
            acc += c * p[s] * g[r - s]
        v[r + 4] = acc / k0[0]
    return np.asarray(v, dtype=float)


def _endpoint_data(work, asm, dofs, lam0, load, side, V, W, g_derivs):
    """Interface data of one outer term at x = 0 from reaction residuals.

    v'' and (k0 v'')' are read off the pencil residual at the interface
    node: the last node for side "left" on (a, 0), the first for "right"
    on (0, b).  ``V``, ``W`` are the term's value and slope there.
    """
    coeffs = work.coeffs
    k00 = coeffs.k0_at(0.0)
    rows = asm.clamped[2:] if side == "left" else asm.clamped[:2]
    R = np.asarray(asm.pencil_apply(dofs, lam0, load=load)[rows], dtype=float)
    sgn = 1.0 if side == "left" else -1.0
    vpp = float(sgn * R[1] / k00)
    k0vpp_prime = float(-sgn * R[0] + coeffs.k1_at(0.0) * W)
    vppp = (k0vpp_prime - coeffs.k0_at(0.0, 1) * vpp) / k00
    return endpoint_derivatives(work.taylor, lam0, [V, W, vpp, vppp], g_derivs)


class GaussSide:
    """One side's Gauss rule, p at its points, and the values there of
    the outer terms of orders < n_orders, each evaluated once, the first
    time the term forces an order, and kept for the build."""

    def __init__(self, nodes, p, n_orders):
        self.rule = hermite.GaussRule(nodes)
        self.p = hermite.poly_fn(p)(self.rule.x)
        self.values = np.empty((n_orders,) + self.p.shape)    # row k: v_k
        self._filled = set()

    def load(self, pairs):
        """Load vector of the density p g, g the sum of lambda_j v_k over
        the (lambda_j, k, v_k) of ``pairs``, added in their order."""
        g = np.zeros_like(self.p)
        for lam_j, k, fn in pairs:
            if k not in self._filled:
                self.values[k] = fn(self.rule.x)
                self._filled.add(k)
            g = g + lam_j * self.values[k]
        return self.rule.load_vector(self.p * g)


class OuterWork:
    """The outer chain's shared work for one build, done once.

    Made on the two meshes for a chain to order ``n_max``: ``taylor``
    (``coefficient_taylor`` to depth n_max + 5) serves every endpoint
    table, and ``sides`` holds the ``GaussSide`` of (a, 0) (-1) and of
    (0, b) (+1).  All of these are allocated here, before any solve: made
    after the bordered LU, these build-long arrays fragmented the heap
    among the LUs' transient buffers, and the peak RSS of the benchmark's
    repeated expand builds rose by 2 to 8 MB.  ``right_solve`` factors the (0, b) pencil at
    lambda0 on its first call, for the three-point right eigensolve, and
    returns the same solve on every later call (``factor_pencils``
    stores it with the lambda0 systems, ``left`` and ``right``).  ``harness.build_expansion`` makes it
    and drops it on return: no mode, term or artifact holds any of it.
    """

    def __init__(self, coeffs, meshes, n_max=3):
        self.coeffs = coeffs
        self.meshes = meshes
        self.depth = n_max + 5
        self.taylor = coefficient_taylor(coeffs, self.depth)
        self.sides = {side: GaussSide(nodes, coeffs.p, n_max)
                      for side, nodes in zip((-1, +1), meshes)}
        self._right_solve = None
        self.left = self.right = None

    def right_solve(self, asm, lam0):
        """SuperLU solve of the (0, b) pencil ``asm`` at lambda0."""
        if self._right_solve is None:
            self._right_solve = _factor(asm, lam0)
        return self._right_solve


@dataclass
class OuterMode:
    """Leading eigenpair of the three-point limit problem."""

    lambda0: float
    v_left: HermiteFunction
    v_right: HermiteFunction
    gap_left: float
    gap_right: float
    degenerate_right: bool
    left_asm: Assembly = field(repr=False)
    right_asm: Assembly = field(repr=False)
    coeffs: CoefficientSet = field(repr=False)
    endpoint_minus: np.ndarray = None     # v0^(j)(0-), j = 0..depth
    endpoint_plus: np.ndarray = None      # v0^(j)(0+), all zero

    @property
    def vpp_minus0(self):
        return float(self.endpoint_minus[2])

    @property
    def vppp_minus0(self):
        return float(self.endpoint_minus[3])


def solve_three_point_eigen(coeffs: CoefficientSet, mode_index: int = 1,
                            outer_grid: int = 256, work: OuterWork = None):
    """Solve the limit problem for (lambda0, v0), normalized on the left.

    The eigenfunction is supported on (a, 0), pinned to zero value and
    slope at both ends, extended by zero on (0, b), normalized so that
    the p-weighted square integral over (a, 0) is one and v0''(0-) > 0.

    A lambda0 within gap_min of the right-interval clamped spectrum (a
    multiple eigenvalue of the three-point problem) is recorded on the
    returned mode as ``degenerate_right``.  ``work`` is the build's
    ``OuterWork``, whose meshes stand in for ``outer_grid`` (when None, a
    fresh one on ``interval_nodes(coeffs, outer_grid)`` at n_max 3): its
    tables give the endpoint tables, of its depth, and it keeps the
    (0, b) LU at lambda0.
    """
    work = work or OuterWork(coeffs, interval_nodes(coeffs, outer_grid))
    left, right = (_interval_assembly(coeffs, nodes) for nodes in work.meshes)

    k_want = mode_index + 4
    vals_l, vecs_l = _eigs_near(left, 0.0, k_want, _factor(left, 0.0))
    if mode_index > vals_l.size:
        raise ValueError(f"mode_index {mode_index} beyond computed spectrum")
    lam0, v = hermite.polish(left, vals_l[mode_index - 1],
                             vecs_l[:, mode_index - 1], partial(_factor, left))

    # a mirror-symmetric beam has gap_right ~ 0, below the Ritz error of
    # the right pair, so that pair is polished; gap_left uses Ritz values
    vals_r, vecs_r = _eigs_near(right, lam0, 6, work.right_solve(right, lam0))
    j = int(np.argmin(np.abs(vals_r - lam0)))
    lam_r, _ = hermite.polish(right, vals_r[j], vecs_r[:, j],
                              partial(_factor, right))

    others = np.delete(vals_l, mode_index - 1)
    gap_left = float(np.min(np.abs(others - lam0))) if others.size else np.inf
    gap_right = float(abs(lam_r - lam0))
    gap_min = GAP_MIN_REL * abs(lam0)
    if gap_left < gap_min:
        raise ThreePointMultiplicityError(
            f"lambda0={lam0:.6g} has a left-interval neighbor at distance "
            f"{gap_left:.3g} < gap_min={gap_min:.3g}")
    degenerate = gap_right < gap_min

    # the polish returns v0 with unit p-weighted norm on (a, 0); the sign
    # makes v0''(0-) > 0, and the endpoint table is linear in v0
    ep_minus = _endpoint_data(work, left, v, lam0, None, "left", 0.0, 0.0, [])
    if ep_minus[2] < 0.0:
        v, ep_minus = -v, -ep_minus

    v_left = HermiteFunction.from_dofs(left.nodes, v)
    v_right = HermiteFunction.zero(right.nodes)
    return OuterMode(
        lambda0=lam0, v_left=v_left, v_right=v_right,
        gap_left=gap_left, gap_right=gap_right, degenerate_right=bool(degenerate),
        left_asm=left, right_asm=right, coeffs=coeffs,
        endpoint_minus=ep_minus,
        endpoint_plus=np.zeros(work.depth + 1),
    )


def compute_lambda1(mode: OuterMode):
    """lambda1 = k0(0) v0''(0-)^2: solvability of the data (0, v0''(0-))."""
    return solvability_lambda(mode, 0.0, mode.vpp_minus0)


def solvability_lambda(mode: OuterMode, V_minus: float, W_minus: float):
    """lambda_i from the interface data via the solvability condition."""
    k00 = mode.coeffs.k0_at(0.0)
    k0vpp_prime = k00 * mode.vppp_minus0 + mode.coeffs.k0_at(0.0, 1) * mode.vpp_minus0
    return float(k00 * mode.vpp_minus0 * W_minus - k0vpp_prime * V_minus)


@dataclass
class CorrectionTerm:
    """Outer correction (lambda_i, v_i) with its interface data."""

    order: int
    lambda_i: float
    v_left: HermiteFunction
    v_right: HermiteFunction            # None when the right problem is resonant
    endpoint_minus: np.ndarray          # v_i^(j)(0-), j = 0..depth
    endpoint_plus: np.ndarray           # v_i^(j)(0+); None when v_right is None
    solvability_residual: float
    right_skip_reason: str = ""


def _forcing(terms, lambdas, i, side, depth):
    """Forcing g = sum_{j=1..i} lambda_j v_{i-j} of the order-i problem on one side.

    ``terms`` holds orders 0..i-1 (the mode, then the corrections).  One
    walk gives the (lambda_j, i - j, v_{i-j}) triples with lambda_j != 0
    and the table of g^(r)(0), r <= depth, or None when a lower-order term
    is unavailable on that side.
    """
    pairs = []
    derivs = np.zeros(depth + 1)
    for j in range(1, i + 1):
        term = terms[i - j]
        fn, tab = (term.v_left, term.endpoint_minus) if side == -1 else \
            (term.v_right, term.endpoint_plus)
        if fn is None:
            return None
        if lambdas[j] != 0.0:
            pairs.append((lambdas[j], i - j, fn))
            take = min(depth + 1, tab.size)
            derivs[:take] += lambdas[j] * tab[:take]
    return pairs, derivs


def factor_pencils(mode: OuterMode, work: OuterWork = None):
    """The lambda0-pencil factorizations that every correction order
    shares, added to ``work`` (when None, a fresh ``OuterWork`` on the
    mode's meshes at n_max 3), which is returned.

    ``left``: on (a, 0) K - lambda0 M in band storage, M v0 (the
    p-weighted projection onto v0), border scale s, s c and the bordered
    LU.  ``right``: on (0, b) the band pencil and ``work.right_solve``, or
    None when the right interval is resonant (``mode.degenerate_right``).
    """
    work = work or OuterWork(mode.coeffs, (mode.left_asm.nodes,
                                           mode.right_asm.nodes))
    left, right = mode.left_asm, mode.right_asm
    A = _pencil_csc(left, mode.lambda0)
    c_full = left.product(left.bands[1], mode.v_left.dofs())
    c = c_full[left.free]
    # scale the border to the stiffness magnitude so the factorization is balanced
    s = max(abs(A).max(), 1.0) / max(np.max(np.abs(c)), 1e-30)
    sc = s * c
    B = sp.bmat([[A, sc[:, None]], [sp.csr_matrix(sc[None, :]), None]],
                format="csc")
    work.left = (left.pencil(mode.lambda0), c_full, s, sc, spla.splu(B))
    work.right = None if mode.degenerate_right else (
        right.pencil(mode.lambda0), work.right_solve(right, mode.lambda0))
    return work


def solve_correction(mode: OuterMode, work: OuterWork, i: int, lambdas,
                     prev_terms, V_minus, V_plus, W_minus, W_plus):
    """Solve the order-i three-point correction problem.

    ``work`` is the ``OuterWork`` that ``factor_pencils(mode)`` filled;
    the endpoint tables run to its depth.  ``lambdas`` holds
    lambda_0..lambda_{i-1} and is extended here with the solvability
    value lambda_i.  ``prev_terms`` are CorrectionTerm objects for orders
    1..i-1 (order 0 data comes from ``mode``).

    On (a, 0) the rank-one-deficient system is solved in bordered form with
    the p-weighted orthogonality to v0; the multiplier of the border is the
    solvability residual and must vanish for consistent data.  On (0, b)
    the problem is regular unless lambda0 resonates with the right clamped
    spectrum, in which case only zero data admits the zero solution.
    """
    lam0 = mode.lambda0
    lam_i = solvability_lambda(mode, V_minus, W_minus)
    lambdas = list(lambdas[:i]) + [lam_i]
    terms = [mode] + list(prev_terms)

    # ---- left interval: bordered singular solve -------------------------
    left = mode.left_asm
    forcing = _forcing(terms, lambdas, i, -1, work.depth)
    if forcing is None:
        raise SolvabilityError(f"missing lower-order left term below order {i}")
    pairs, g_derivs = forcing
    F = work.sides[-1].load(pairs)

    fixed, free = left.clamped, left.free
    fixed_vals = np.array([0.0, 0.0, V_minus, W_minus])
    A, c_full, s, sc, lu = work.left
    v_dofs = np.zeros(left.ndof)
    v_dofs[fixed] = fixed_vals
    rhs = F[free] - left.product(A, v_dofs)[free]
    v0_dofs = mode.v_left.dofs()
    d = -float(c_full[fixed] @ fixed_vals)
    sol = lu.solve(np.concatenate([rhs, [s * d]]))
    # mixed-precision refinement: residuals against the extended-precision
    # element data push the bordered solve to its true floor
    for _ in range(3):
        v_dofs[free] = sol[:-1]
        nu = sol[-1]
        pen = left.pencil_apply(v_dofs, lam0)
        r1 = F[free] - np.asarray(pen[free], dtype=float) - sc * nu
        r2 = -s * float(left._quad_form(left.Me, v0_dofs, v_dofs))
        sol = sol + lu.solve(np.concatenate([r1, [r2]]))
    mu = float(sol[-1]) * s
    v_dofs[free] = sol[:-1]
    v_left_fn = HermiteFunction.from_dofs(left.nodes, v_dofs)

    scale = abs(lam_i) + abs(lam0) * (abs(V_minus) + abs(W_minus)) + 1.0
    if not np.isfinite(mu) or abs(mu) > 1e-6 * scale:
        raise SolvabilityError(
            f"left singular system inconsistent at order {i}: multiplier {mu:.3e}")

    ep_minus = _endpoint_data(work, left, v_dofs, lam0, F, "left", V_minus,
                              W_minus, g_derivs)

    # ---- right interval: regular (or resonant) solve --------------------
    right = mode.right_asm
    resonant = mode.degenerate_right
    forcing = _forcing(terms, lambdas, i, +1, work.depth)
    data_scale = abs(V_plus) + abs(W_plus)

    v_right_fn = None
    ep_plus = None
    skip_reason = ""
    if forcing is None:
        skip_reason = f"missing lower-order right term below order {i}"
    elif resonant and not (
            all(np.all(vf.values == 0.0) and np.all(vf.slopes == 0.0)
                for *_, vf in forcing[0]) and
            data_scale < DATA_ZERO_TOL * (abs(mode.vpp_minus0) + 1.0)):
        skip_reason = (
            "right interval resonant: lambda0 within "
            f"{mode.gap_right:.3g} of the clamped spectrum on (0, b) and the "
            f"order-{i} interface data do not vanish")
    elif resonant:
        v_right_fn = HermiteFunction.zero(right.nodes)
        ep_plus = np.zeros(work.depth + 1)
    else:
        pairs, g_derivs = forcing
        Fr = work.sides[+1].load(pairs)
        fixed_r, free_r = right.clamped, right.free
        A_r, solve_r = work.right
        v_dofs_r = np.zeros(right.ndof)
        v_dofs_r[fixed_r] = [V_plus, W_plus, 0.0, 0.0]
        w = solve_r(Fr[free_r] - right.product(A_r, v_dofs_r)[free_r])
        for _ in range(2):
            v_dofs_r[free_r] = w
            pen_r = right.pencil_apply(v_dofs_r, lam0)
            w = w + solve_r(Fr[free_r] - np.asarray(pen_r[free_r], float))
        v_dofs_r[free_r] = w
        v_right_fn = HermiteFunction.from_dofs(right.nodes, v_dofs_r)
        ep_plus = _endpoint_data(work, right, v_dofs_r, lam0, Fr, "right",
                                 V_plus, W_plus, g_derivs)

    return CorrectionTerm(
        order=i, lambda_i=lam_i, v_left=v_left_fn, v_right=v_right_fn,
        endpoint_minus=ep_minus, endpoint_plus=ep_plus,
        solvability_residual=mu, right_skip_reason=skip_reason,
    )
