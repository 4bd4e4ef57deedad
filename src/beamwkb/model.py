"""Problem data: polynomial coefficients, geometry and run parameters.

All material functions (bending stiffness k0, tension k1, foundation k2,
outer density p, inner density profile q) are polynomials stored as
ascending-degree coefficient lists.  That keeps every Taylor coefficient
at the interface exact, which the inner recursion relies on.
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields

import numpy as np
from numpy.polynomial import polynomial as P

DENSITY_EXPONENT = 8      # inner density eps^-8 q(x/eps)
GUARD_BAND = 0.1          # exclusion radius of delta around pi/2 and 3*pi/2


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
    """(minimum, argmin) of a polynomial over [lo, hi]: the least value at
    the endpoints and at the real parts of the derivative's roots inside."""
    slope = np.trim_zeros(P.polyder(np.asarray(coeff, dtype=float)), "b")
    roots = P.polyroots(slope).real if slope.size > 1 else np.zeros(0)
    xs = np.concatenate([[lo, hi], roots[(roots >= lo) & (roots <= hi)]])
    vals = np.atleast_1d(eval_coefficient(coeff, xs))
    k = int(np.argmin(vals))
    return float(vals[k]), float(xs[k])


def _real(value):
    """A JSON number (or numpy scalar) as float; strings, booleans and
    other types raise TypeError."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise TypeError(f"not a number: {value!r}")
    return float(value)


def _integral(value):
    """An integral number (3 or 3.0) as int; 1.5 raises ValueError."""
    if not _real(value).is_integer():
        raise ValueError(f"not an integer: {value!r}")
    return int(value)


def _coerce(obj, convert, *names):
    """Convert fields of a frozen dataclass in place; a value that does not
    convert is a ConfigError naming its key."""
    for name in names:
        try:
            value = convert(getattr(obj, name))
        except (TypeError, ValueError, OverflowError) as exc:
            raise ConfigError(
                f"invalid value for {name!r}: {getattr(obj, name)!r}") from exc
        object.__setattr__(obj, name, value)


@dataclass(frozen=True)
class CoefficientSet:
    """Geometry and material polynomials of the eigenvalue problem.

    Attributes
    ----------
    a, b : interval endpoints, a < 0 < b
    k0, k1, k2 : stiffness, tension and foundation polynomials on [a, b]
    p : outer density polynomial on [a, b]
    q : inner density profile polynomial on [-1, 1]

    With RunSpec, the configuration schema: keys, defaults and key order.
    """

    a: float
    b: float
    k0: tuple = (1.0,)
    k1: tuple = ()
    k2: tuple = ()
    p: tuple = (1.0,)
    q: tuple = (1.0,)

    def __post_init__(self):
        _coerce(self, _real, "a", "b")
        _coerce(self, lambda c: tuple(map(_real, c)), "k0", "k1", "k2", "p", "q")
        self.validate()

    def validate(self):
        if not self.a < 0.0:
            raise ConfigError(f"left endpoint a must be negative, got a={self.a}")
        if not self.b > 0.0:
            raise ConfigError(f"right endpoint b must be positive, got b={self.b}")
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

    def p_at(self, x, deriv=0):
        return eval_coefficient(self.p, x, deriv)

    def q_at(self, x, deriv=0):
        return eval_coefficient(self.q, x, deriv)

    def density(self, x, eps):
        """Density of the epsilon-problem: eps^-8 q(x/eps) on (-eps, eps),
        p outside."""
        return np.where(np.abs(x) < eps, eps ** (-float(DENSITY_EXPONENT)) *
                        self.q_at(x / eps), self.p_at(x))


def guard_band_message(delta: float):
    """Why delta is inadmissible (within GUARD_BAND of a pole of det G_delta
    = -2 cos delta, at pi/2 and 3*pi/2), or None."""
    for pole in (math.pi / 2.0, 3.0 * math.pi / 2.0):
        if abs(delta - pole) < GUARD_BAND:
            return (f"delta in guard band: |delta - {pole:.6g}| = "
                    f"{abs(delta - pole):.3g} < {GUARD_BAND}")
    return None


@dataclass(frozen=True)
class RunSpec:
    """Run parameters: deformation angle, truncation order, index range, grids."""

    delta: float = 0.0
    n_max: int = 1
    l_range: tuple = (6, 18)
    mode_index: int = 1
    outer_grid: int = 512          # Hermite elements per unit length, outer solver
    inner_grid: int = 128          # Chebyshev nodes on [-1, 1]

    def __post_init__(self):
        _coerce(self, _real, "delta")
        _coerce(self, _integral, "n_max", "mode_index", "outer_grid", "inner_grid")
        _coerce(self, lambda v: tuple(map(_integral, v)), "l_range")
        self.validate()

    def validate(self):
        d = self.delta
        if not (0.0 <= d < 2.0 * math.pi):
            raise ConfigError(f"delta must lie in [0, 2*pi), got {d}")
        message = guard_band_message(d)
        if message:
            raise ConfigError(message)
        if self.n_max < 0:
            raise ConfigError("n_max must be >= 0")
        if len(self.l_range) != 2:
            raise ConfigError(f"invalid value for 'l_range': need [lo, hi], "
                              f"got {list(self.l_range)}")
        lo, hi = self.l_range
        if lo > hi or lo < 1:
            raise ConfigError(f"invalid l_range {self.l_range}")
        if self.mode_index < 1:
            raise ConfigError("mode_index is 1-based and must be >= 1")
        if self.inner_grid < 17:
            raise ConfigError("inner_grid too coarse (need >= 17 Chebyshev "
                              "nodes, the fewest on which a series can chop)")
        if self.outer_grid < 8:
            raise ConfigError("outer_grid too coarse (need >= 8 elements per unit length)")


def config_from_dict(data: dict):
    """Build (CoefficientSet, RunSpec) from a parsed configuration mapping."""
    keys = [{f.name for f in fields(cls)} for cls in (CoefficientSet, RunSpec)]
    unknown = set(data) - keys[0] - keys[1]
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    for f in fields(CoefficientSet):
        if f.default is MISSING and f.name not in data:
            raise ConfigError(f"missing configuration key: {f.name!r}")
    return tuple(cls(**{k: v for k, v in data.items() if k in names})
                 for cls, names in zip((CoefficientSet, RunSpec), keys))


def config_to_dict(coeffs: CoefficientSet, run: RunSpec) -> dict:
    return {**asdict(coeffs), **asdict(run)}


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
