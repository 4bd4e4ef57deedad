"""Limit three-point eigenproblem and the chain of outer correction terms.

The leading pair (lambda0, v0) solves the clamped problem on (a, 0) with
value and slope pinned at both ends, extended by zero across (0, b).
Higher terms v_i solve nonhomogeneous problems with the interface data
that ``inner.boundary_data`` matches to the inner expansion; each
eigenvalue correction lambda_i is fixed by the Fredholm solvability
condition at the interface.

One build's outer half is one ``OuterChain``: the pairs (lambda_i, v_i)
with their endpoint tables, and what the orders share, made once.
``solve_three_point_eigen`` fills order 0 and ``solve_correction``
appends each later order; ``harness.build_expansion`` drops the chain on
return.

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
from .model import eval_coefficient

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


def _endpoint_data(chain, asm, dofs, lam0, load, side, V, W, g_derivs):
    """Interface data of one outer term at x = 0 from reaction residuals.

    v'' and (k0 v'')' are read off the pencil residual at the interface
    node: the last node for side -1 on (a, 0), the first for +1 on
    (0, b).  ``V``, ``W`` are the term's value and slope there.
    """
    coeffs = chain.coeffs
    k00 = coeffs.k0_at(0.0)
    rows = asm.clamped[2:] if side == -1 else asm.clamped[:2]
    R = np.asarray(asm.pencil_apply(dofs, lam0, load=load)[rows], dtype=float)
    sgn = -float(side)
    vpp = float(sgn * R[1] / k00)
    k0vpp_prime = float(-sgn * R[0] + coeffs.k1_at(0.0) * W)
    vppp = (k0vpp_prime - coeffs.k0_at(0.0, 1) * vpp) / k00
    return endpoint_derivatives(chain.taylor, lam0, [V, W, vpp, vppp],
                                g_derivs)


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


class OuterChain:
    """The outer half of one build: the terms (lambda_k, v_k) by order.

    Per order k: ``lambdas[k]``, ``terms[s][k]`` (v_k as a
    HermiteFunction on side s, -1 for (a, 0) and +1 for (0, b); None
    where a resonant (0, b) rules the term out) and ``tables[s][k]``,
    the endpoint table v_k^(j)(0-) or (0+), j = 0..depth (None with the
    term), which ``inner.boundary_data`` and ``inner.transport_sigma``
    read.  ``solve_three_point_eigen`` fills order 0, with ``gap_left``,
    ``gap_right`` and ``degenerate_right``; ``solve_correction`` appends
    each later order, its solvability residual to ``residuals`` and any
    reason it skipped the right term to ``notes``.

    What the orders share is made once: ``taylor``
    (``coefficient_taylor`` to depth n_max + 5, in extended precision),
    which every endpoint table reads; ``sides``, the ``GaussSide`` of each
    side, whose Gauss table every load vector reads; ``asm``, the two
    interval assemblies; ``right_solve``, the SuperLU solve of the (0, b)
    pencil at lambda0, made as the three-point right eigensolve's
    shift-invert and reused by every order; and, at the first correction,
    the bordered (a, 0) system with its LU (``bordered``) and the (0, b)
    band pencil (``right_pencil``, None on a resonant (0, b)).  The Gauss
    sides are allocated here, before any solve: made after the bordered
    LU, these build-long arrays fragmented the heap among the LUs'
    transient buffers, and the peak RSS of the benchmark's repeated
    expand builds rose by 2 to 8 MB.
    """

    def __init__(self, coeffs, outer_grid, n_max):
        self.coeffs = coeffs
        self.meshes = interval_nodes(coeffs, outer_grid)
        self.depth = n_max + 5
        self.taylor = coefficient_taylor(coeffs, self.depth)
        self.sides = {side: GaussSide(nodes, coeffs.p, n_max)
                      for side, nodes in zip((-1, +1), self.meshes)}
        self.asm = self.right_solve = self.bordered = self.right_pencil = None
        self.lambdas, self.residuals, self.notes = [], [], {}
        self.terms, self.tables = {-1: [], +1: []}, {-1: [], +1: []}

    @property
    def vpp_minus0(self):
        return float(self.tables[-1][0][2])

    @property
    def vppp_minus0(self):
        return float(self.tables[-1][0][3])


def solve_three_point_eigen(chain: OuterChain, mode_index: int):
    """Solve the limit problem for (lambda0, v0) as order 0 of ``chain``,
    which is returned.

    The eigenfunction is supported on (a, 0), pinned to zero value and
    slope at both ends, extended by zero on (0, b), normalized so that
    the p-weighted square integral over (a, 0) is one and v0''(0-) > 0.

    A lambda0 within gap_min of the right-interval clamped spectrum (a
    multiple eigenvalue of the three-point problem) is recorded as
    ``chain.degenerate_right``.
    """
    left, right = (_interval_assembly(chain.coeffs, nodes)
                   for nodes in chain.meshes)
    chain.asm = {-1: left, +1: right}

    k_want = mode_index + 4
    vals_l, vecs_l = _eigs_near(left, 0.0, k_want, _factor(left, 0.0))
    if mode_index > vals_l.size:
        raise ValueError(f"mode_index {mode_index} beyond computed spectrum")
    lam0, v = hermite.polish(left, vals_l[mode_index - 1],
                             vecs_l[:, mode_index - 1], partial(_factor, left))

    # a mirror-symmetric beam has gap_right ~ 0, below the Ritz error of
    # the right pair, so that pair is polished; gap_left uses Ritz values
    chain.right_solve = _factor(right, lam0)
    vals_r, vecs_r = _eigs_near(right, lam0, 6, chain.right_solve)
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
    chain.gap_left, chain.gap_right = gap_left, gap_right
    chain.degenerate_right = bool(gap_right < gap_min)

    # the polish returns v0 with unit p-weighted norm on (a, 0); the sign
    # makes v0''(0-) > 0, and the endpoint table is linear in v0
    ep_minus = _endpoint_data(chain, left, v, lam0, None, -1, 0.0, 0.0, [])
    if ep_minus[2] < 0.0:
        v, ep_minus = -v, -ep_minus

    chain.lambdas.append(lam0)
    chain.terms[-1].append(HermiteFunction.from_dofs(left.nodes, v))
    chain.terms[+1].append(HermiteFunction.zero(right.nodes))
    chain.tables[-1].append(ep_minus)
    chain.tables[+1].append(np.zeros(chain.depth + 1))
    return chain


def compute_lambda1(chain: OuterChain):
    """lambda1 = k0(0) v0''(0-)^2: solvability of the data (0, v0''(0-))."""
    return solvability_lambda(chain, 0.0, chain.vpp_minus0)


def solvability_lambda(chain: OuterChain, V_minus: float, W_minus: float):
    """lambda_i from the interface data via the solvability condition."""
    k00 = chain.coeffs.k0_at(0.0)
    k0vpp_prime = k00 * chain.vppp_minus0 + \
        chain.coeffs.k0_at(0.0, 1) * chain.vpp_minus0
    return float(k00 * chain.vpp_minus0 * W_minus - k0vpp_prime * V_minus)


def _forcing(chain, lambdas, i, side):
    """Forcing g = sum_{j=1..i} lambda_j v_{i-j} of the order-i problem on one side.

    One walk over the chain's orders 0..i-1 gives the (lambda_j, i - j,
    v_{i-j}) triples with lambda_j != 0 and the table of g^(r)(0),
    r <= depth, or None when a lower-order term is unavailable on that
    side.
    """
    pairs = []
    derivs = np.zeros(chain.depth + 1)
    for j in range(1, i + 1):
        fn, tab = chain.terms[side][i - j], chain.tables[side][i - j]
        if fn is None:
            return None
        if lambdas[j] != 0.0:
            pairs.append((lambdas[j], i - j, fn))
            take = min(chain.depth + 1, tab.size)
            derivs[:take] += lambdas[j] * tab[:take]
    return pairs, derivs


def _factor_at_lambda0(chain):
    """Fill ``chain.bordered``: on (a, 0) K - lambda0 M in band storage,
    M v0 (the p-weighted projection onto v0), border scale s, s c and the
    bordered LU; and ``chain.right_pencil``: the (0, b) band pencil,
    beside ``chain.right_solve``, or None when (0, b) is resonant."""
    left, right, lam0 = chain.asm[-1], chain.asm[+1], chain.lambdas[0]
    A = _pencil_csc(left, lam0)
    c_full = left.product(left.bands[1], chain.terms[-1][0].dofs())
    c = c_full[left.free]
    # scale the border to the stiffness magnitude so the factorization is balanced
    s = max(abs(A).max(), 1.0) / max(np.max(np.abs(c)), 1e-30)
    sc = s * c
    B = sp.bmat([[A, sc[:, None]], [sp.csr_matrix(sc[None, :]), None]],
                format="csc")
    chain.bordered = (left.pencil(lam0), c_full, s, sc, spla.splu(B))
    chain.right_pencil = None if chain.degenerate_right else \
        right.pencil(lam0)


def solve_correction(chain: OuterChain, i: int, V_minus, V_plus, W_minus,
                     W_plus):
    """Solve the order-i three-point correction problem and append its
    lambda_i and v_i to ``chain``, which holds orders 0..i-1.

    On (a, 0) the rank-one-deficient system is solved in bordered form with
    the p-weighted orthogonality to v0; the multiplier of the border is the
    solvability residual and must vanish for consistent data.  On (0, b)
    the problem is regular unless lambda0 resonates with the right clamped
    spectrum, in which case only zero data admits the zero solution.  The
    first call factors the lambda0 pencils that every order shares.
    """
    lam0 = chain.lambdas[0]
    lam_i = solvability_lambda(chain, V_minus, W_minus)
    lambdas = chain.lambdas[:i] + [lam_i]
    left, right = chain.asm[-1], chain.asm[+1]
    if chain.bordered is None:
        _factor_at_lambda0(chain)

    # ---- left interval: bordered singular solve -------------------------
    forcing = _forcing(chain, lambdas, i, -1)
    if forcing is None:
        raise SolvabilityError(f"missing lower-order left term below order {i}")
    pairs, g_derivs = forcing
    F = chain.sides[-1].load(pairs)

    fixed, free = left.clamped, left.free
    fixed_vals = np.array([0.0, 0.0, V_minus, W_minus])
    A, c_full, s, sc, lu = chain.bordered
    v_dofs = np.zeros(left.ndof)
    v_dofs[fixed] = fixed_vals
    rhs = F[free] - left.product(A, v_dofs)[free]
    v0_dofs = chain.terms[-1][0].dofs()
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

    ep_minus = _endpoint_data(chain, left, v_dofs, lam0, F, -1, V_minus,
                              W_minus, g_derivs)

    # ---- right interval: regular (or resonant) solve --------------------
    resonant = chain.degenerate_right
    forcing = _forcing(chain, lambdas, i, +1)
    data_scale = abs(V_plus) + abs(W_plus)

    v_right_fn = None
    ep_plus = None
    if forcing is None:
        chain.notes[f"right_order_{i}"] = \
            f"missing lower-order right term below order {i}"
    elif resonant and not (
            all(np.all(vf.values == 0.0) and np.all(vf.slopes == 0.0)
                for *_, vf in forcing[0]) and
            data_scale < DATA_ZERO_TOL * (abs(chain.vpp_minus0) + 1.0)):
        chain.notes[f"right_order_{i}"] = (
            "right interval resonant: lambda0 within "
            f"{chain.gap_right:.3g} of the clamped spectrum on (0, b) and the "
            f"order-{i} interface data do not vanish")
    elif resonant:
        v_right_fn = HermiteFunction.zero(right.nodes)
        ep_plus = np.zeros(chain.depth + 1)
    else:
        pairs, g_derivs = forcing
        Fr = chain.sides[+1].load(pairs)
        fixed_r, free_r = right.clamped, right.free
        A_r, solve_r = chain.right_pencil, chain.right_solve
        v_dofs_r = np.zeros(right.ndof)
        v_dofs_r[fixed_r] = [V_plus, W_plus, 0.0, 0.0]
        w = solve_r(Fr[free_r] - right.product(A_r, v_dofs_r)[free_r])
        for _ in range(2):
            v_dofs_r[free_r] = w
            pen_r = right.pencil_apply(v_dofs_r, lam0)
            w = w + solve_r(Fr[free_r] - np.asarray(pen_r[free_r], float))
        v_dofs_r[free_r] = w
        v_right_fn = HermiteFunction.from_dofs(right.nodes, v_dofs_r)
        ep_plus = _endpoint_data(chain, right, v_dofs_r, lam0, Fr, +1,
                                 V_plus, W_plus, g_derivs)

    chain.lambdas.append(lam_i)
    chain.terms[-1].append(v_left_fn)
    chain.terms[+1].append(v_right_fn)
    chain.tables[-1].append(ep_minus)
    chain.tables[+1].append(ep_plus)
    chain.residuals.append(mu)
