"""Nonlocal-diffusion free-boundary fronts: simulation, semi-wave speeds,
spreading-rate diagnostics, and machine-checked barrier constructions."""

import importlib

from . import config, kernels, reactions, semiwave, solver
from .errors import (ContractError, ConvergenceError, InsufficientDataError,
                     NoSemiWaveError, NoTravelingWaveError, ResourceError,
                     ValidationError)
from .kernels import (AlgebraicTail, CompactCosine, CompactUniform, Kernel,
                      LightExponential, truncate)
from .reactions import (Reaction, custom, logistic, perturb, rho_constant,
                        validate_F, zero_reaction)
from .semiwave import (SemiWaveConfig, minimal_speed, mu_curve, solve_semiwave,
                       stationary_profile)
from .solver import (Field, ProblemSpec, SolverConfig, State, TrajectoryLog,
                     boundary_flux, classify, make_plateau, nonlocal_operator,
                     run, stability_budget, step)

__version__ = "0.1.0"


def __getattr__(name):
    # the fits and the barrier checks load on first use: only `rates` and
    # `verify` need them
    if name in ("asymptotics", "validation"):
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
