"""Nonlocal-diffusion free-boundary fronts: simulation, semi-wave speeds,
spreading-rate diagnostics, and machine-checked barrier constructions."""

from . import asymptotics, config, kernels, reactions, semiwave, solver, validation
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
