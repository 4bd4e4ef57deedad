"""Limit three-point eigenproblem and the chain of outer correction terms.

The leading pair (lambda0, v0) solves the clamped problem on (a, 0) with
value and slope pinned at both ends, extended by zero across (0, b).
Higher terms v_i solve nonhomogeneous problems with interface data fed
back from the inner expansion; each eigenvalue correction lambda_i is
fixed by the Fredholm solvability condition at the interface.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import hermite
from .hermite import Assembly, HermiteFunction
from .inner import N_MINUS, T_POWERS, n_plus, taylor_shift
from .model import CoefficientSet, eval_coefficient

DATA_ZERO_TOL = 1e-9      # resonant right interval: data this small count as zero


class ThreePointMultiplicityError(RuntimeError):
    """The selected limit eigenvalue is not simple within gap_min."""


class SolvabilityError(RuntimeError):
    """The singular left-interval system is inconsistent beyond tolerance."""


def _interval_assembly(coeffs, lo, hi, n_elem):
    nodes = np.linspace(lo, hi, n_elem + 1)
    return hermite.assemble(nodes, *(hermite.poly_fn(c) for c in (
        coeffs.k0, coeffs.k1, coeffs.k2, coeffs.p)))


@dataclass
class EndpointData:
    """One-sided interface data of an outer term at x = 0."""

    value: float
    slope: float
    vpp: float
    vppp: float
    derivs: np.ndarray            # v^(j)(side), j = 0..depth

    def deriv(self, j):
        if j >= self.derivs.size:
            raise ValueError(f"endpoint table depth {self.derivs.size - 1} < {j}")
        return float(self.derivs[j])


def endpoint_derivatives(coeffs, lam0, seeds, g_derivs, depth):
    """Extend (v, v', v'', v''') at x = 0 to derivatives of order <= depth.

    Uses repeated differentiation of (k0 v'')'' - (k1 v')' + k2 v =
    lam0 p v + p g, which determines v^(r+4) from lower derivatives; all
    coefficient derivatives at 0 are exact polynomial data.
    """
    v = np.zeros(depth + 1, dtype=np.longdouble)
    v[: min(4, depth + 1)] = seeds[: min(4, depth + 1)]
    if depth < 4:
        return np.asarray(v, dtype=float)
    g = np.zeros(depth + 1, dtype=np.longdouble)
    g[: len(g_derivs)] = g_derivs[: depth + 1]
    # coefficient derivatives at 0, one table per call: k0, k1, k2, p
    k0, k1, k2, p = ([np.longdouble(eval_coefficient(coeff, 0.0, s))
                      for s in range(depth)]
                     for coeff in (coeffs.k0, coeffs.k1, coeffs.k2, coeffs.p))
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


def _endpoint_data(coeffs, asm, dofs, lam0, load, side, V, W, g_derivs, depth):
    """Interface data of one outer term at x = 0 from reaction residuals.

    v'' and (k0 v'')' are read off the pencil residual at the interface
    node: the last node for side "left" on (a, 0), the first for "right"
    on (0, b).  ``V``, ``W`` are the term's value and slope there.
    """
    k00 = coeffs.k0_at(0.0)
    rows = asm.clamped[2:] if side == "left" else asm.clamped[:2]
    R = np.asarray(asm.pencil_apply(dofs, lam0, load=load)[rows], dtype=float)
    sgn = 1.0 if side == "left" else -1.0
    vpp = float(sgn * R[1] / k00)
    k0vpp_prime = float(-sgn * R[0] + coeffs.k1_at(0.0) * W)
    vppp = (k0vpp_prime - coeffs.k0_at(0.0, 1) * vpp) / k00
    table = endpoint_derivatives(coeffs, lam0, [V, W, vpp, vppp], g_derivs, depth)
    return EndpointData(V, W, vpp, vppp, table)


@dataclass
class OuterMode:
    """Leading eigenpair of the three-point limit problem."""

    lambda0: float
    v_left: HermiteFunction
    v_right: HermiteFunction
    vpp_minus0: float
    vppp_minus0: float
    gap_left: float
    gap_right: float
    degenerate_right: bool
    left_asm: Assembly = field(repr=False)
    right_asm: Assembly = field(repr=False)
    coeffs: CoefficientSet = field(repr=False)
    endpoint_minus: EndpointData = None
    endpoint_plus: EndpointData = None
    # order-independent parts of the correction solves, filled on first use;
    # the build that owns this mode empties it after its last order
    factors: dict = field(default_factory=dict, init=False, repr=False,
                          compare=False)

    @property
    def gap(self):
        return min(self.gap_left, self.gap_right)


def _left_factors(mode: OuterMode):
    """Bordered lambda0-pencil on (a, 0): its LU and the parts of its data.

    Returns ((K - lambda0 M)[free, clamped], M v0, border scale s, s c, LU).
    """
    if "left" not in mode.factors:
        left = mode.left_asm
        free = left.free
        A_full = (left.K - mode.lambda0 * left.M).tocsr()
        A = A_full[free, free]
        c_full = left.M @ mode.v_left.dofs()        # p-weighted projection onto v0
        c = c_full[free]
        # scale the border to the stiffness magnitude so the factorization is balanced
        s = max(abs(A).max(), 1.0) / max(np.max(np.abs(c)), 1e-30)
        sc = s * c
        B = sp.bmat([[A, sc[:, None]], [sp.csr_matrix(sc[None, :]), None]],
                    format="csc")
        mode.factors["left"] = (A_full[free, left.clamped], c_full, s, sc,
                                spla.splu(B))
    return mode.factors["left"]


def _right_factors(mode: OuterMode):
    """(K - lambda0 M)[free, clamped] on (0, b) and the LU of its free block."""
    if "right" not in mode.factors:
        right = mode.right_asm
        A_full = (right.K - mode.lambda0 * right.M).tocsr()
        mode.factors["right"] = (A_full[right.free, right.clamped],
                                 right.factor(mode.lambda0))
    return mode.factors["right"]


def solve_three_point_eigen(coeffs: CoefficientSet, mode_index: int = 1,
                            outer_grid: int = 256, strict: bool = False,
                            gap_min_rel: float = 1e-3, table_depth: int = 8):
    """Solve the limit problem for (lambda0, v0), normalized on the left.

    The eigenfunction is supported on (a, 0), pinned to zero value and
    slope at both ends, extended by zero on (0, b), normalized so that
    the p-weighted square integral over (a, 0) is one and v0''(0-) > 0.

    With ``strict`` the solver refuses configurations where lambda0 also
    lies within gap_min of the right-interval clamped spectrum (a multiple
    eigenvalue of the three-point problem); otherwise the degeneracy is
    recorded on the returned mode.
    """
    n_left = max(32, int(round(outer_grid * (-coeffs.a))))
    n_right = max(32, int(round(outer_grid * coeffs.b)))
    left = _interval_assembly(coeffs, coeffs.a, 0.0, n_left)
    right = _interval_assembly(coeffs, 0.0, coeffs.b, n_right)

    k_want = mode_index + 4
    vals_l, vecs_l = hermite.eigs_near(left, sigma=0.0, k=k_want)
    if mode_index > vals_l.size:
        raise ValueError(f"mode_index {mode_index} beyond computed spectrum")
    lam0, v = hermite.polish(left, vals_l[mode_index - 1],
                             vecs_l[:, mode_index - 1])
    lam0 = float(lam0)

    # a mirror-symmetric beam has gap_right ~ 0, below the Ritz error of
    # the right pair, so that pair is polished; gap_left uses Ritz values
    vals_r, vecs_r = hermite.eigs_near(right, sigma=lam0, k=6)
    j = int(np.argmin(np.abs(vals_r - lam0)))
    lam_r, _ = hermite.polish(right, vals_r[j], vecs_r[:, j])

    others = np.delete(vals_l, mode_index - 1)
    gap_left = float(np.min(np.abs(others - lam0))) if others.size else np.inf
    gap_right = float(abs(lam_r - lam0))
    gap_min = gap_min_rel * abs(lam0)
    if gap_left < gap_min:
        raise ThreePointMultiplicityError(
            f"lambda0={lam0:.6g} has a left-interval neighbor at distance "
            f"{gap_left:.3g} < gap_min={gap_min:.3g}")
    degenerate = gap_right < gap_min
    if degenerate and strict:
        raise ThreePointMultiplicityError(
            f"lambda0={lam0:.6g} lies within {gap_right:.3g} of the right-interval "
            "spectrum: the three-point eigenvalue is multiple (symmetric "
            "configurations are outside the theory)")

    # normalize: integral of p v0^2 over (a, 0) equals 1, sign via v0''(0-)
    v = v / math.sqrt(left.mass(v, v))
    ep_minus = _endpoint_data(coeffs, left, v, lam0, None, "left", 0.0, 0.0,
                              [], table_depth)
    if ep_minus.vpp < 0.0:
        v = -v
        ep_minus = _endpoint_data(coeffs, left, v, lam0, None, "left", 0.0,
                                  0.0, [], table_depth)

    v_left = HermiteFunction.from_dofs(left.nodes, v)
    v_right = HermiteFunction.zero(right.nodes)
    return OuterMode(
        lambda0=lam0, v_left=v_left, v_right=v_right,
        vpp_minus0=ep_minus.vpp, vppp_minus0=ep_minus.vppp,
        gap_left=gap_left, gap_right=gap_right, degenerate_right=bool(degenerate),
        left_asm=left, right_asm=right, coeffs=coeffs,
        endpoint_minus=ep_minus,
        endpoint_plus=EndpointData(0.0, 0.0, 0.0, 0.0,
                                   np.zeros(table_depth + 1)),
    )


def compute_lambda1(mode: OuterMode, coeffs: CoefficientSet = None):
    """First eigenvalue correction: k0(0) times the squared kink of v0."""
    coeffs = coeffs if coeffs is not None else mode.coeffs
    return float(coeffs.k0_at(0.0)) * mode.vpp_minus0 ** 2


def correction_residual(mode: OuterMode, prev_terms, term: CorrectionTerm,
                        lambdas):
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
    r = left.pencil_apply(term.v_left.dofs(), mode.lambda0,
                          mass_vec=forcing_dofs)
    scale = math.sqrt(max(left.mass(forcing_dofs), 1e-300))
    return left.mass_inverse_norm(r) / scale


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
    V_minus: float
    V_plus: float
    W_minus: float
    W_plus: float
    endpoint_minus: EndpointData
    endpoint_plus: EndpointData         # None when v_right is None
    solvability_residual: float
    right_resonant: bool
    right_skip_reason: str = ""


def _g_callable(terms_side, lambdas, i):
    """Right-hand side density g = sum_j lambda_j v_{i-j} on one interval."""
    funcs = []
    for j in range(1, i + 1):
        lam_j = lambdas[j]
        vf = terms_side[i - j]
        if vf is None:
            return None
        if lam_j != 0.0:
            funcs.append((lam_j, vf))

    def g(x):
        out = np.zeros_like(np.asarray(x, dtype=float))
        for lam_j, vf in funcs:
            out = out + lam_j * vf(x)
        return out

    return g


def _g_endpoint_derivs(tables_side, lambdas, i, depth):
    out = np.zeros(depth + 1)
    for j in range(1, i + 1):
        tab = tables_side[i - j]
        if tab is None:
            return None
        take = min(depth + 1, tab.derivs.size)
        out[:take] += lambdas[j] * np.asarray(tab.derivs[:take], dtype=float)
    return out


def solve_correction(mode: OuterMode, i: int, lambdas, prev_terms,
                     V_minus, V_plus, W_minus, W_plus,
                     table_depth: int = 8):
    """Solve the order-i three-point correction problem.

    ``lambdas`` holds lambda_0..lambda_{i-1} and is extended here with the
    solvability value lambda_i.  ``prev_terms`` are CorrectionTerm objects
    for orders 1..i-1 (order 0 data comes from ``mode``).

    On (a, 0) the rank-one-deficient system is solved in bordered form with
    the p-weighted orthogonality to v0; the multiplier of the border is the
    solvability residual and must vanish for consistent data.  On (0, b)
    the problem is regular unless lambda0 resonates with the right clamped
    spectrum, in which case only zero data admits the zero solution.
    """
    coeffs = mode.coeffs
    lam0 = mode.lambda0
    lam_i = solvability_lambda(mode, V_minus, W_minus)
    lambdas = list(lambdas[:i]) + [lam_i]

    left_funcs = [mode.v_left] + [t.v_left for t in prev_terms]
    right_funcs = [mode.v_right] + [t.v_right for t in prev_terms]
    tables_minus = [mode.endpoint_minus] + [t.endpoint_minus for t in prev_terms]
    tables_plus = [mode.endpoint_plus] + [t.endpoint_plus for t in prev_terms]

    # ---- left interval: bordered singular solve -------------------------
    left = mode.left_asm
    nodes_l = left.nodes
    p_fn = hermite.poly_fn(coeffs.p)
    g_left = _g_callable(left_funcs, lambdas, i)
    if g_left is None:
        raise SolvabilityError(f"missing lower-order left term below order {i}")
    F = hermite.load_vector(nodes_l, lambda x: p_fn(x) * g_left(x))

    fixed, free = left.clamped, left.free
    fixed_vals = np.array([0.0, 0.0, V_minus, W_minus])
    A_fixed, c_full, s, sc, lu = _left_factors(mode)
    rhs = F[free] - A_fixed @ fixed_vals
    v0_dofs = mode.v_left.dofs()
    d = -float(c_full[fixed] @ fixed_vals)
    sol = lu.solve(np.concatenate([rhs, [s * d]]))
    # mixed-precision refinement: residuals against the extended-precision
    # element data push the bordered solve to its true floor
    v_dofs = np.zeros(left.ndof)
    v_dofs[fixed] = fixed_vals
    for _ in range(3):
        v_dofs[free] = sol[:-1]
        nu = sol[-1]
        pen = left.pencil_apply(v_dofs, lam0)
        r1 = F[free] - np.asarray(pen[free], dtype=float) - sc * nu
        r2 = -s * float(left._quad_form(left.Me, v0_dofs, v_dofs))
        sol = sol + lu.solve(np.concatenate([r1, [r2]]))
    mu = float(sol[-1]) * s
    v_dofs[free] = sol[:-1]
    v_left_fn = HermiteFunction.from_dofs(nodes_l, v_dofs)

    scale = abs(lam_i) + abs(lam0) * (abs(V_minus) + abs(W_minus)) + 1.0
    if not np.isfinite(mu) or abs(mu) > 1e-6 * scale:
        raise SolvabilityError(
            f"left singular system inconsistent at order {i}: multiplier {mu:.3e}")

    ep_minus = _endpoint_data(
        coeffs, left, v_dofs, lam0, F, "left", V_minus, W_minus,
        _g_endpoint_derivs(tables_minus, lambdas, i, table_depth), table_depth)

    # ---- right interval: regular (or resonant) solve --------------------
    right = mode.right_asm
    nodes_r = right.nodes
    resonant = mode.degenerate_right
    g_right = _g_callable(right_funcs, lambdas, i)
    rhs_zero = g_right is not None and all(
        lambdas[j] == 0.0 or
        (np.all(right_funcs[i - j].values == 0.0) and
         np.all(right_funcs[i - j].slopes == 0.0))
        for j in range(1, i + 1))
    data_scale = abs(V_plus) + abs(W_plus)

    v_right_fn = None
    ep_plus = None
    skip_reason = ""
    if g_right is None:
        skip_reason = f"missing lower-order right term below order {i}"
    elif resonant and not (rhs_zero and
                           data_scale < DATA_ZERO_TOL * (abs(mode.vpp_minus0) + 1.0)):
        skip_reason = (
            "right interval resonant: lambda0 within "
            f"{mode.gap_right:.3g} of the clamped spectrum on (0, b) and the "
            f"order-{i} interface data do not vanish")
    else:
        if resonant:
            v_right_fn = HermiteFunction.zero(nodes_r)
            ep_plus = EndpointData(0.0, 0.0, 0.0, 0.0, np.zeros(table_depth + 1))
        else:
            Fr = hermite.load_vector(nodes_r, lambda x: p_fn(x) * g_right(x))
            fixed_r, free_r = right.clamped, right.free
            fixed_vals_r = np.array([V_plus, W_plus, 0.0, 0.0])
            A_fixed_r, lu_r = _right_factors(mode)
            w = lu_r.solve(Fr[free_r] - A_fixed_r @ fixed_vals_r)
            v_dofs_r = np.zeros(right.ndof)
            v_dofs_r[fixed_r] = fixed_vals_r
            for _ in range(2):
                v_dofs_r[free_r] = w
                pen_r = right.pencil_apply(v_dofs_r, lam0)
                w = w + lu_r.solve(Fr[free_r] - np.asarray(pen_r[free_r], float))
            v_dofs_r[free_r] = w
            v_right_fn = HermiteFunction.from_dofs(nodes_r, v_dofs_r)
            ep_plus = _endpoint_data(
                coeffs, right, v_dofs_r, lam0, Fr, "right", V_plus, W_plus,
                _g_endpoint_derivs(tables_plus, lambdas, i, table_depth),
                table_depth)

    return CorrectionTerm(
        order=i, lambda_i=lam_i, v_left=v_left_fn, v_right=v_right_fn,
        V_minus=V_minus, V_plus=V_plus, W_minus=W_minus, W_plus=W_plus,
        endpoint_minus=ep_minus, endpoint_plus=ep_plus,
        solvability_residual=mu, right_resonant=bool(resonant),
        right_skip_reason=skip_reason,
    )


def solve_v1(mode: OuterMode, lam1: float = None, table_depth: int = 8):
    """First correction: zero value and kink-matched slope at the interface.

    The solvability condition forces lambda1 = k0(0) v0''(0-)^2; passing a
    different value raises through the bordered-system residual.
    """
    expected = compute_lambda1(mode)
    if lam1 is not None and not math.isclose(lam1, expected, rel_tol=1e-8,
                                             abs_tol=1e-12):
        raise SolvabilityError(
            f"lambda1={lam1!r} inconsistent with solvability value {expected!r}")
    term = solve_correction(mode, 1, [mode.lambda0], [],
                            V_minus=0.0, V_plus=0.0,
                            W_minus=mode.vpp_minus0, W_plus=0.0,
                            table_depth=table_depth)
    return term


def boundary_data(i: int, mode: OuterMode, prev_terms, phase, inner_terms,
                  delta: float):
    """Interface data (V_i, W_i) at both sides of x = 0.

    Combines the inner traces (in fundamental-matrix coordinates, so the
    exponentially small content is dropped exactly) with the Taylor shift
    of all lower-order outer terms.
    """
    tables = {
        -1: [mode.endpoint_minus] + [t.endpoint_minus for t in prev_terms],
        +1: [mode.endpoint_plus] + [t.endpoint_plus for t in prev_terms],
    }
    out = {}
    for side in (-1, +1):
        Nv = N_MINUS if side == -1 else n_plus(delta)
        qm38 = phase.q_m38_at(side)
        inner_V = 0.0
        if i - 4 >= 0 and i - 4 < len(inner_terms):
            c = inner_terms[i - 4].phi_coords(0, side)
            inner_V = qm38 * float(np.dot(c, Nv))
        inner_W = 0.0
        vec = np.zeros(4)
        if i - 2 >= 0 and i - 2 < len(inner_terms):
            vec = vec + phase.sprime_at(side) * (
                T_POWERS[3] @ inner_terms[i - 2].phi_coords(0, side))
        if i - 3 >= 0 and i - 3 < len(inner_terms):
            vec = vec + inner_terms[i - 3].phi_coords(1, side)
        if np.any(vec != 0.0):
            inner_W = qm38 * float(np.dot(vec, Nv))

        tabs = tables[side]

        def missing(order):
            if order >= len(tabs):
                return SolvabilityError(
                    f"order-{i} interface data needs the order-{order} outer "
                    f"term, which has not been computed")
            return SolvabilityError(
                f"order-{i} interface data needs side {side:+d} derivatives of "
                f"order-{order} term, which is unavailable")

        sum_V = taylor_shift(tabs, side, i, 1, 0, missing)
        sum_W = taylor_shift(tabs, side, i, 1, 1, missing)
        key = "minus" if side == -1 else "plus"
        out[f"V_{key}"] = inner_V - sum_V
        out[f"W_{key}"] = inner_W - sum_W
    return out
