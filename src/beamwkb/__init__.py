"""Asymptotics of global eigenvibrations for a beam with a concentrated mass.

The package builds complete small-parameter expansions of the global
eigenvalues and eigenfunctions of a fourth-order clamped operator whose
density carries an eps^-8 concentration on (-eps, eps), quantizes the
admissible parameter sequence, and validates everything against a direct
finite-element eigensolver of the unexpanded problem.
"""

from . import cli, harness, hermite, inner, model, oracle, outer
from .harness import (CSV_HEADER, build_expansion, emit_report, fit_rate,
                      load_artifact, run_convergence, save_artifact)
from .model import CoefficientSet, ConfigError, RunSpec

__version__ = "0.1.0"
