"""Problem data: polynomial coefficients, geometry and run parameters.

All material functions (bending stiffness k0, tension k1, foundation k2,
outer density p, inner density profile q) are polynomials stored as
ascending-degree coefficient lists.  That keeps every Taylor coefficient
at the interface exact, which the inner recursion relies on.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import polynomial as P

DENSITY_EXPONENT = 8
GUARD_BAND = 0.1
POSITIVITY_SAMPLES = 1001


class ConfigError(ValueError):
    """Raised when a configuration violates a documented invariant."""


def eval_coefficient(coeff, x, derivative_order: int = 0):
    """Evaluate the ``derivative_order``-th derivative of a polynomial at x.

    ``coeff`` is an ascending-degree coefficient sequence; an empty sequence
    is the zero polynomial.
    """
    if derivative_order < 0:
        raise ValueError("derivative_order must be >= 0")
    c = np.asarray(coeff, dtype=float)
    if c.size == 0:
        return np.zeros_like(np.asarray(x, dtype=float))[()]
    if derivative_order > 0:
        if derivative_order >= c.size:
            return np.zeros_like(np.asarray(x, dtype=float))[()]
        c = P.polyder(c, m=derivative_order)
    return P.polyval(x, c)


def taylor_at_zero(coeff, order: int):
    """Return [c_j] with c_j = k^(j)(0)/j! for j = 0..order (exact for polynomials)."""
    if order < 0:
        raise ValueError("order must be >= 0")
    c = list(float(v) for v in coeff)
    c = c + [0.0] * (order + 1 - len(c))
    return c[: order + 1]


def _positivity_floor(coeff, lo: float, hi: float):
    """Minimum of a polynomial over [lo, hi], sampled densely plus endpoints."""
    xs = np.linspace(lo, hi, POSITIVITY_SAMPLES)
    vals = eval_coefficient(coeff, xs)
    vals = np.atleast_1d(vals)
    k = int(np.argmin(vals))
    return float(vals[k]), float(xs[k])


@dataclass(frozen=True)
class CoefficientSet:
    """Geometry and material polynomials of the eigenvalue problem.

    Attributes
    ----------
    a, b : interval endpoints, a < 0 < b
    k0, k1, k2 : stiffness, tension and foundation polynomials on [a, b]
    p : outer density polynomial on [a, b]
    q : inner density profile polynomial on [-1, 1]
    m : density exponent; only m = 8 is supported
    """

    a: float
    b: float
    k0: tuple
    k1: tuple = ()
    k2: tuple = ()
    p: tuple = (1.0,)
    q: tuple = (1.0,)
    m: int = DENSITY_EXPONENT

    def __post_init__(self):
        object.__setattr__(self, "k0", tuple(float(v) for v in self.k0))
        object.__setattr__(self, "k1", tuple(float(v) for v in self.k1))
        object.__setattr__(self, "k2", tuple(float(v) for v in self.k2))
        object.__setattr__(self, "p", tuple(float(v) for v in self.p))
        object.__setattr__(self, "q", tuple(float(v) for v in self.q))
        self.validate()

    def validate(self):
        if not self.a < 0.0:
            raise ConfigError(f"left endpoint a must be negative, got a={self.a}")
        if not self.b > 0.0:
            raise ConfigError(f"right endpoint b must be positive, got b={self.b}")
        if self.m != DENSITY_EXPONENT:
            raise ConfigError(
                f"density exponent m must equal {DENSITY_EXPONENT}, got m={self.m}"
            )
        for name, coeff, lo, hi, bound in (
            ("k0", self.k0, self.a, self.b, 0.0),
            ("p", self.p, self.a, self.b, 0.0),
            ("q", self.q, -1.0, 1.0, 0.0),
        ):
            if len(coeff) == 0:
                raise ConfigError(f"{name} not positive: empty coefficient list")
            floor, where = _positivity_floor(coeff, lo, hi)
            if floor <= bound:
                raise ConfigError(
                    f"{name} not positive: {name}({where:.6g}) = {floor:.6g}"
                )
        if len(self.k2) > 0:
            floor, where = _positivity_floor(self.k2, self.a, self.b)
            if floor < 0.0:
                raise ConfigError(
                    f"k2 negative: k2({where:.6g}) = {floor:.6g}"
                )

    def k0_at(self, x, deriv=0):
        return eval_coefficient(self.k0, x, deriv)

    def k1_at(self, x, deriv=0):
        return eval_coefficient(self.k1, x, deriv)

    def k2_at(self, x, deriv=0):
        return eval_coefficient(self.k2, x, deriv)

    def p_at(self, x, deriv=0):
        return eval_coefficient(self.p, x, deriv)

    def q_at(self, x, deriv=0):
        return eval_coefficient(self.q, x, deriv)


def guard_band_message(delta: float, guard: float = GUARD_BAND):
    """Why delta is inadmissible (within guard of a pole of det G_delta
    = -2 cos delta, at pi/2 and 3*pi/2), or None."""
    for pole in (math.pi / 2.0, 3.0 * math.pi / 2.0):
        if abs(delta - pole) < guard:
            return (f"delta in guard band: |delta - {pole:.6g}| = "
                    f"{abs(delta - pole):.3g} < {guard}")
    return None


_DEFAULT_TOLERANCES = {
    "gap_min_rel": 1e-3,        # simplicity threshold relative to lambda0
    "guard": GUARD_BAND,        # exclusion radius around pi/2 and 3*pi/2
}


@dataclass(frozen=True)
class RunSpec:
    """Run parameters: deformation angle, truncation order, grids, tolerances."""

    delta: float = 0.0
    n_max: int = 1
    l_range: tuple = (6, 18)
    mode_index: int = 1
    outer_grid: int = 512          # Hermite elements per unit length, outer solver
    inner_grid: int = 128          # Chebyshev nodes on [-1, 1]
    oracle_nodes_per_wavelength: int = 20
    oracle_outer_h: float = 1.0 / 96.0
    tolerances: dict = field(default_factory=dict)

    def __post_init__(self):
        tol = dict(_DEFAULT_TOLERANCES)
        tol.update(self.tolerances)
        object.__setattr__(self, "tolerances", tol)
        object.__setattr__(self, "l_range", tuple(int(v) for v in self.l_range))
        self.validate()

    def validate(self):
        guard = self.tolerances["guard"]
        if guard <= 0.0:
            raise ConfigError("guard band must be positive")
        d = self.delta
        if not (0.0 <= d < 2.0 * math.pi):
            raise ConfigError(f"delta must lie in [0, 2*pi), got {d}")
        message = guard_band_message(d, guard)
        if message:
            raise ConfigError(message)
        if self.n_max < 0:
            raise ConfigError("n_max must be >= 0")
        lo, hi = self.l_range
        if lo > hi or lo < 1:
            raise ConfigError(f"invalid l_range {self.l_range}")
        if self.mode_index < 1:
            raise ConfigError("mode_index is 1-based and must be >= 1")
        if self.inner_grid < 16:
            raise ConfigError("inner_grid too coarse (need >= 16 Chebyshev nodes)")
        if self.outer_grid < 8:
            raise ConfigError("outer_grid too coarse (need >= 8 elements per unit length)")

    def tol(self, name: str) -> float:
        return self.tolerances[name]


_CONFIG_KEYS = {
    "a", "b", "m", "k0", "k1", "k2", "p", "q",
    "delta", "n_max", "l_range", "mode_index",
    "outer_grid", "inner_grid", "tolerances",
    "oracle_nodes_per_wavelength", "oracle_outer_h",
}


def config_from_dict(data: dict):
    """Build (CoefficientSet, RunSpec) from a parsed configuration mapping."""
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    try:
        coeffs = CoefficientSet(
            a=float(data["a"]),
            b=float(data["b"]),
            k0=tuple(data.get("k0", (1.0,))),
            k1=tuple(data.get("k1", ())),
            k2=tuple(data.get("k2", ())),
            p=tuple(data.get("p", (1.0,))),
            q=tuple(data.get("q", (1.0,))),
            m=int(data.get("m", DENSITY_EXPONENT)),
        )
    except KeyError as exc:
        raise ConfigError(f"missing configuration key: {exc}") from exc
    run_kwargs = {}
    for key in ("delta", "oracle_outer_h"):
        if key in data:
            run_kwargs[key] = float(data[key])
    for key in ("n_max", "mode_index", "outer_grid", "inner_grid",
                "oracle_nodes_per_wavelength"):
        if key in data:
            run_kwargs[key] = int(data[key])
    if "l_range" in data:
        run_kwargs["l_range"] = tuple(data["l_range"])
    if "tolerances" in data:
        run_kwargs["tolerances"] = dict(data["tolerances"])
    run = RunSpec(**run_kwargs)
    return coeffs, run


def config_to_dict(coeffs: CoefficientSet, run: RunSpec) -> dict:
    data = {
        "a": coeffs.a, "b": coeffs.b, "m": coeffs.m,
        "k0": list(coeffs.k0), "k1": list(coeffs.k1), "k2": list(coeffs.k2),
        "p": list(coeffs.p), "q": list(coeffs.q),
        "delta": run.delta, "n_max": run.n_max, "l_range": list(run.l_range),
        "mode_index": run.mode_index, "outer_grid": run.outer_grid,
        "inner_grid": run.inner_grid,
        "oracle_nodes_per_wavelength": run.oracle_nodes_per_wavelength,
        "oracle_outer_h": run.oracle_outer_h,
        "tolerances": dict(run.tolerances),
    }
    return data


def load_config(path):
    """Load and validate a JSON configuration file."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"configuration root must be an object, got {type(data).__name__}")
    return config_from_dict(data)


def save_config(coeffs: CoefficientSet, run: RunSpec, path):
    with open(path, "w") as fh:
        json.dump(config_to_dict(coeffs, run), fh, indent=2)
        fh.write("\n")
