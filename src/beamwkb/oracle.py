"""Direct eigensolver for the original epsilon-dependent problem.

Ground truth for validating the asymptotic construction: Hermite-cubic
discretization of the clamped eigenvalue problem with the concentrated
density eps^-8 q(x/eps) on (-eps, eps), mesh nodes aligned exactly at
+-eps, and ARPACK shift-invert targeting; the reported eigenpair is
polished to an extended-precision Rayleigh quotient.  A row builds no
sparse matrix: it factors by LAPACK band LU (``Assembly.band_factor``),
one at the target for the standard-form shift-invert operator on the
banded mass Cholesky (``hermite.eigs_near``) and one per polish step.
Its mass norm is computed once, for the polished vector, and its
eigenfunction is tabulated at the Gauss points of its own mesh
(``HermiteFunction.gauss_values``) rather than located point by point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import hermite
from .hermite import Assembly, HermiteFunction
from .model import CoefficientSet

MIN_CORRELATION = 1e-3    # normalize_weighted: weaker means a foreign mode
NODES_PER_WAVELENGTH = 20   # inner elements per wavelength of the oscillation
OUTER_H = 1.0 / 96.0        # outer element width


class MeshResolutionError(ValueError):
    """The requested mesh violates the inner-oscillation resolution bound."""


class OracleInputError(ValueError):
    """eps or the eigenvalue target lies outside the admissible range."""


class ModeCaptureError(RuntimeError):
    """The solve captured a mode unrelated to the targeted global family."""


@dataclass
class DiscreteProblem:
    """Discretized pencil with the concentrated mass at fixed epsilon."""

    coeffs: CoefficientSet
    eps: float
    nodes: np.ndarray
    asm: Assembly = field(repr=False)
    n_inner: int

    def weighted_norm(self, dofs):
        return math.sqrt(self.asm.mass(dofs))

    def residual_norm(self, dofs, lam, nrm):
        """Mass-inverse residual norm over the free dofs, for nrm = ||dofs||_M.

        Bounds the eigenvalue error: min_j |lam - lam_j| is at most
        ||K v - lam M v||_{M^-1} / ||v||_M.
        """
        K, M = self.asm.bands
        r = self.asm.product(K, dofs) - lam * self.asm.product(M, dofs)
        return self.asm.mass_inverse_norm(r) / nrm


def build_mesh(coeffs: CoefficientSet, eps: float, S1: float,
               refine: float = 1.0):
    """Mesh with +-eps as nodes and the inner oscillation resolved.

    The inner region spans S1 / (2 pi eps) wavelengths; the element count
    there is at least NODES_PER_WAVELENGTH times that, and the outer
    elements are at most OUTER_H wide.  ``refine`` scales both inner and
    outer densities (mesh-doubling studies).
    """
    if not 0.0 < eps < min(-coeffs.a, coeffs.b):
        raise OracleInputError(
            f"eps={eps} out of range (0, {min(-coeffs.a, coeffs.b)})")
    wavecount = S1 / (2.0 * math.pi * eps)
    n_inner = max(int(math.ceil(NODES_PER_WAVELENGTH * wavecount * refine)), 16)
    h = OUTER_H / refine
    n_left = max(int(math.ceil((-coeffs.a - eps) / h)), 8)
    n_right = max(int(math.ceil((coeffs.b - eps) / h)), 8)
    left = np.linspace(coeffs.a, -eps, n_left + 1)
    inner = np.linspace(-eps, eps, n_inner + 1)
    right = np.linspace(eps, coeffs.b, n_right + 1)
    return np.concatenate([left, inner[1:], right[1:]]), n_inner


def assemble(coeffs: CoefficientSet, eps: float, S1: float,
             refine: float = 1.0) -> DiscreteProblem:
    """Stiffness/mass pencil with density p outside and eps^-8 q(x/eps) inside."""
    nodes, n_inner = build_mesh(coeffs, eps, S1, refine)
    wavecount = S1 / (2.0 * math.pi * eps)
    if n_inner < NODES_PER_WAVELENGTH * wavecount - 1:
        raise MeshResolutionError(
            f"{n_inner} inner elements < {NODES_PER_WAVELENGTH} per wavelength "
            f"x {wavecount:.2f} wavelengths")
    k0 = hermite.poly_fn(coeffs.k0)
    k1 = hermite.poly_fn(coeffs.k1)
    k2 = hermite.poly_fn(coeffs.k2)
    asm = hermite.assemble(nodes, k0, k1, k2,
                           lambda x: coeffs.density(x, eps))
    return DiscreteProblem(coeffs=coeffs, eps=eps, nodes=nodes, asm=asm,
                           n_inner=n_inner)


@dataclass
class SpectralResult:
    """One converged eigenpair with its flanking spectrum."""

    eigenvalue: float
    eigenfunction: HermiteFunction
    dofs: np.ndarray
    residual: float
    gap: float
    neighbors: np.ndarray
    mass_norm: float              # ||dofs||_M; 1 once normalized
    sign_correlation: float = 0.0

    def flanking(self):
        lo = self.neighbors[self.neighbors < self.eigenvalue]
        hi = self.neighbors[self.neighbors > self.eigenvalue]
        return (float(lo.max()) if lo.size else None,
                float(hi.min()) if hi.size else None)


def solve_near(problem: DiscreteProblem, target: float):
    """Eigenpair nearest to ``target`` plus flanking eigenvalues.

    Deterministic shift-invert (all-ones start vector) for four Ritz
    pairs on the band LU: the one nearest the target and its three
    nearest neighbours, enough for a flank on each side.  Only the
    reported pair is polished; ``neighbors`` are the other Ritz values,
    and the returned gap is the distance to the nearest of them,
    supporting the isolation checks.
    """
    if target <= 0.0:
        raise OracleInputError("target must be positive")
    vals, vecs = hermite.eigs_near(problem.asm, target, k=4)
    idx = int(np.argmin(np.abs(vals - target)))
    lam, v = hermite.polish(problem.asm, vals[idx], vecs[:, idx],
                            problem.asm.band_factor)
    lam = float(lam)
    nrm = problem.weighted_norm(v)
    residual = problem.residual_norm(v, lam, nrm) / abs(lam)
    others = np.delete(vals, idx)
    gap = float(np.min(np.abs(others - lam))) if others.size else np.inf
    return SpectralResult(
        eigenvalue=lam,
        eigenfunction=HermiteFunction.from_dofs(problem.nodes, v),
        dofs=v, residual=residual, gap=gap, neighbors=others, mass_norm=nrm,
    )


def normalize_weighted(result: SpectralResult, problem: DiscreteProblem,
                       reference):
    """Scale to unit weighted norm; fix the sign against a reference profile.

    ``reference`` is a callable approximating the limit eigenfunction on
    (a, -eps).  A near-zero correlation signals that the solve captured a
    mode outside the targeted global family (for example a low local
    vibration), which is reported rather than silently normalized.
    """
    dofs = result.dofs / result.mass_norm
    fn = HermiteFunction.from_dofs(problem.nodes, dofs)
    # both integrals over (a, -eps) read one evaluation of reference and p;
    # -eps is a node, so those elements end at or left of it
    xg, wg = hermite.gauss_points(problem.nodes)
    left = problem.nodes[1:] <= -problem.eps
    xg, wg = xg[left], wg[left]
    ref = reference(xg)
    p = problem.coeffs.p_at(xg)
    corr = float(np.sum(fn.gauss_values()[left] * ref * p * wg))
    ref_nrm2 = float(np.sum(ref * ref * p * wg))
    rel = abs(corr) / math.sqrt(max(ref_nrm2, 1e-300))
    if rel < MIN_CORRELATION:
        raise ModeCaptureError(
            f"eigenvector correlation {rel:.3e} with the reference profile "
            "is negligible: captured a mode outside the global family")
    if corr < 0.0:
        dofs = -dofs
        fn = fn.scaled(-1.0)
        corr = -corr
    return SpectralResult(
        eigenvalue=result.eigenvalue, eigenfunction=fn, dofs=dofs,
        residual=result.residual, gap=result.gap, neighbors=result.neighbors,
        mass_norm=1.0, sign_correlation=corr,
    )
