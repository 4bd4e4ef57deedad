"""Shared fixtures: closed-form beam oracles and prebuilt expansions."""

from dataclasses import dataclass

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from beamwkb.harness import ExpansionArtifact
from beamwkb.model import CoefficientSet, RunSpec
from beamwkb import build_expansion, inner, outer
from dense_forms import three_point


@dataclass
class RecordedBuild:
    """One ``build_expansion`` call and the stage objects it made."""

    art: ExpansionArtifact
    chain: outer.OuterChain         # the outer terms (lambda_i, v_i) by order
    f_terms: list                   # InnerCoefficient f_0, f_1, ...


def record_build(coeffs, run):
    """``build_expansion(coeffs, run)``, keeping what its stages returned.

    The stage functions are wrapped as module attributes for the call
    only; ``inner.solve_f0`` reaches ``transport_solve`` through the
    module too, so ``f_terms`` comes out in order f_0, f_1, ...
    """
    made = {}

    def recording(name, fn):
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            made[name].append(result)
            return result
        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        for module, name in ((outer, "solve_three_point_eigen"),
                             (inner, "transport_solve")):
            made[name] = []
            mp.setattr(module, name, recording(name, getattr(module, name)))
        art = build_expansion(coeffs, run)
    (chain,) = made["solve_three_point_eigen"]
    return RecordedBuild(art, chain, made["transport_solve"])


@pytest.fixture(scope="session")
def recorded_build():
    """``record_build``, for tests that build their own expansion."""
    return record_build


@pytest.fixture(scope="session")
def beam_root():
    """First root of cos(mu) cosh(mu) = 1: the clamped-clamped unit beam."""
    return brentq(lambda m: np.cos(m) * np.cosh(m) - 1.0, 4.5, 5.0, xtol=1e-14)


@pytest.fixture(scope="session")
def beam_root_2():
    return brentq(lambda m: np.cos(m) * np.cosh(m) - 1.0, 7.5, 8.2, xtol=1e-14)


@pytest.fixture(scope="session")
def closed_form_mode(beam_root):
    """Closed-form clamped-clamped unit mode, unit L2 norm, as a dict.

    Computed by quadrature of the classical mode shape: the independent
    oracle for v0''(0-) and v0'''(0-) of the uniform beam on (-1, 0).
    """
    mu = beam_root
    sig = (np.cosh(mu) - np.cos(mu)) / (np.sinh(mu) - np.sin(mu))

    def phi(s):
        return (np.cosh(mu * s) - np.cos(mu * s)
                - sig * (np.sinh(mu * s) - np.sin(mu * s)))

    nrm2, _ = quad(lambda s: phi(s) ** 2, 0.0, 1.0, epsabs=1e-13, epsrel=1e-13)
    nrm = np.sqrt(nrm2)
    vpp = mu ** 2 * (np.cosh(mu) + np.cos(mu) - sig * (np.sinh(mu) + np.sin(mu)))
    vppp = mu ** 3 * (np.sinh(mu) - np.sin(mu) - sig * (np.cosh(mu) + np.cos(mu)))
    sign = np.sign(vpp)
    return {
        "mu": mu,
        "lambda0": mu ** 4,
        "vpp": sign * vpp / nrm,
        "vppp": sign * vppp / nrm,
        "norm": nrm,
    }


@pytest.fixture(scope="session")
def uniform_coeffs():
    return CoefficientSet(a=-1.0, b=1.0, k0=(1.0,), p=(1.0,), q=(1.0,))


@pytest.fixture(scope="session")
def asym_coeffs():
    return CoefficientSet(a=-1.0, b=0.8, k0=(1.0,), p=(1.0,), q=(1.0,))


@pytest.fixture(scope="session")
def variable_coeffs():
    return CoefficientSet(a=-1.0, b=0.75, k0=(1.0, 0.25), k1=(0.3,),
                          k2=(0.2,), p=(1.0, 0.0, 0.125), q=(1.0, 0.0, 0.2))


@pytest.fixture(scope="session")
def uniform_mode(uniform_coeffs):
    return three_point(uniform_coeffs)


@pytest.fixture(scope="session")
def uniform_chain(uniform_coeffs):
    run = RunSpec(delta=0.0, n_max=2, l_range=(6, 18), outer_grid=256,
                  inner_grid=128)
    return record_build(uniform_coeffs, run)


@pytest.fixture(scope="session")
def asym_chain(asym_coeffs):
    run = RunSpec(delta=0.0, n_max=3, l_range=(8, 40), outer_grid=256,
                  inner_grid=128)
    return record_build(asym_coeffs, run)


@pytest.fixture(scope="session")
def variable_chain(variable_coeffs):
    run = RunSpec(delta=0.3, n_max=4, l_range=(8, 44), outer_grid=256,
                  inner_grid=128)
    return record_build(variable_coeffs, run)


@pytest.fixture(scope="session")
def uniform_artifact(uniform_chain):
    return uniform_chain.art


@pytest.fixture(scope="session")
def asym_artifact(asym_chain):
    return asym_chain.art


@pytest.fixture(scope="session")
def variable_artifact(variable_chain):
    return variable_chain.art
