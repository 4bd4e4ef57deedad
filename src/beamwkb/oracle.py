"""Direct eigensolver for the original epsilon-dependent problem.

Ground truth for validating the asymptotic construction: Hermite-cubic
discretization of the clamped eigenvalue problem with the concentrated
density eps^-8 q(x/eps) on (-eps, eps), mesh nodes aligned exactly at
+-eps, and ARPACK shift-invert targeting with polished Rayleigh quotients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import hermite
from .hermite import Assembly, HermiteFunction
from .model import CoefficientSet

MIN_CORRELATION = 1e-3    # normalize_weighted: weaker means a foreign mode


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
    nodes_per_wavelength: float

    def weighted_norm(self, dofs):
        return math.sqrt(self.asm.mass(dofs))

    def residual_norm(self, dofs, lam):
        """Mass-inverse residual norm over the free dofs.

        Bounds the eigenvalue error: min_j |lam - lam_j| is at most
        ||K v - lam M v||_{M^-1} / ||v||_M.
        """
        r = self.asm.K @ dofs - lam * (self.asm.M @ dofs)
        return self.asm.mass_inverse_norm(r) / self.weighted_norm(dofs)


def build_mesh(coeffs: CoefficientSet, eps: float, S1: float,
               nodes_per_wavelength: int = 20, outer_h: float = 1.0 / 96.0,
               refine: float = 1.0):
    """Mesh with +-eps as nodes and the inner oscillation resolved.

    The inner region spans S1 / (2 pi eps) wavelengths; the element count
    there is at least nodes_per_wavelength times that.  ``refine`` scales
    both inner and outer densities (mesh-doubling studies).
    """
    if not 0.0 < eps < min(-coeffs.a, coeffs.b):
        raise OracleInputError(
            f"eps={eps} out of range (0, {min(-coeffs.a, coeffs.b)})")
    wavecount = S1 / (2.0 * math.pi * eps)
    n_inner = max(int(math.ceil(nodes_per_wavelength * wavecount * refine)), 16)
    h = outer_h / refine
    n_left = max(int(math.ceil((-coeffs.a - eps) / h)), 8)
    n_right = max(int(math.ceil((coeffs.b - eps) / h)), 8)
    left = np.linspace(coeffs.a, -eps, n_left + 1)
    inner = np.linspace(-eps, eps, n_inner + 1)
    right = np.linspace(eps, coeffs.b, n_right + 1)
    return np.concatenate([left, inner[1:], right[1:]]), n_inner


def assemble(coeffs: CoefficientSet, eps: float, S1: float,
             nodes_per_wavelength: int = 20, outer_h: float = 1.0 / 96.0,
             refine: float = 1.0) -> DiscreteProblem:
    """Stiffness/mass pencil with density p outside and eps^-8 q(x/eps) inside."""
    nodes, n_inner = build_mesh(coeffs, eps, S1, nodes_per_wavelength,
                                outer_h, refine)
    wavecount = S1 / (2.0 * math.pi * eps)
    if n_inner < nodes_per_wavelength * wavecount - 1:
        raise MeshResolutionError(
            f"{n_inner} inner elements < {nodes_per_wavelength} per wavelength "
            f"x {wavecount:.2f} wavelengths")
    scale = eps ** (-float(coeffs.m))

    def rho(x):
        inside = np.abs(x) < eps
        out = coeffs.p_at(x)
        if np.any(inside):
            out = np.where(inside, scale * coeffs.q_at(x / eps), out)
        return out

    k0 = hermite.poly_fn(coeffs.k0)
    k1 = hermite.poly_fn(coeffs.k1)
    k2 = hermite.poly_fn(coeffs.k2)
    asm = hermite.assemble(nodes, k0, k1, k2, rho)
    return DiscreteProblem(coeffs=coeffs, eps=eps, nodes=nodes, asm=asm,
                           n_inner=n_inner,
                           nodes_per_wavelength=n_inner / wavecount)


@dataclass
class SpectralResult:
    """One converged eigenpair with its flanking spectrum."""

    eigenvalue: float
    eigenfunction: HermiteFunction
    dofs: np.ndarray
    residual: float
    gap: float
    neighbors: np.ndarray
    normalized: bool = False
    sign_correlation: float = 0.0

    def flanking(self):
        lo = self.neighbors[self.neighbors < self.eigenvalue]
        hi = self.neighbors[self.neighbors > self.eigenvalue]
        return (float(lo.max()) if lo.size else None,
                float(hi.min()) if hi.size else None)


def solve_near(problem: DiscreteProblem, target: float, k: int = 6):
    """Eigenpair nearest to ``target`` plus flanking eigenvalues.

    Deterministic shift-invert (all-ones start vector); the returned gap is
    the distance to the nearest other computed eigenvalue, supporting the
    isolation checks.
    """
    if target <= 0.0:
        raise OracleInputError("target must be positive")
    vals, vecs = hermite.eigs_near(problem.asm, sigma=target, k=k)
    idx = int(np.argmin(np.abs(vals - target)))
    lam = float(vals[idx])
    v = vecs[:, idx]
    residual = problem.residual_norm(v, lam) / abs(lam)
    others = np.delete(vals, idx)
    gap = float(np.min(np.abs(others - lam))) if others.size else np.inf
    return SpectralResult(
        eigenvalue=lam,
        eigenfunction=HermiteFunction.from_dofs(problem.nodes, v),
        dofs=v, residual=residual, gap=gap, neighbors=others,
    )


def normalize_weighted(result: SpectralResult, problem: DiscreteProblem,
                       reference=None):
    """Scale to unit weighted norm; fix the sign against a reference profile.

    ``reference`` is a callable approximating the limit eigenfunction on
    (a, -eps).  A near-zero correlation signals that the solve captured a
    mode outside the targeted global family (for example a low local
    vibration), which is reported rather than silently normalized.
    """
    nrm = problem.weighted_norm(result.dofs)
    dofs = result.dofs / nrm
    fn = HermiteFunction.from_dofs(problem.nodes, dofs)
    corr = 0.0
    if reference is not None:
        p_at = problem.coeffs.p_at
        corr = hermite.inner_product(problem.nodes, fn, reference,
                                     weight_fn=p_at, hi=-problem.eps)
        ref_nrm2 = hermite.inner_product(problem.nodes, reference, reference,
                                         weight_fn=p_at, hi=-problem.eps)
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
        normalized=True, sign_correlation=corr,
    )
