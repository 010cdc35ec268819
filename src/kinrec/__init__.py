"""Implicit finite-volume solver for a two-species kinetic
generation-recombination system on a periodic interval, with structure
diagnostics: weighted-norm decay, modified entropy, discrete maximum
principle, and mass-difference conservation."""

from .config import ParseError, RunConfig, ValidationError, load_config
from .grid import (
    GridSpec,
    VelocityProfile,
    build_grid,
    discretize_profile,
    poincare_constant,
    profile_from_samples,
)
from .linear import Flux, assemble_linear_operator
from .nonlinear import (
    AdaptiveController,
    BoundsEnvelope,
    NewtonConfig,
    NewtonDivergedError,
    NonlinearStepper,
    StepFailedError,
    adaptive_advance,
    check_maximum_principle,
)
from .diagnostics import (
    PotentialState,
    TimeSeriesRecord,
    fit_decay_rate,
    modified_entropy,
    solve_discrete_poisson,
)
from .runner import ExperimentAbortedError, execute_run, run_experiment
from .state import (
    ConstantsLedger,
    SpeciesPair,
    build_equilibrium,
    constants_ledger,
    equilibrium_rho,
    mass_difference,
    weighted_norm,
)

__all__ = [
    "AdaptiveController",
    "BoundsEnvelope",
    "ConstantsLedger",
    "ExperimentAbortedError",
    "Flux",
    "GridSpec",
    "NewtonConfig",
    "NewtonDivergedError",
    "NonlinearStepper",
    "ParseError",
    "PotentialState",
    "RunConfig",
    "SpeciesPair",
    "StepFailedError",
    "TimeSeriesRecord",
    "ValidationError",
    "VelocityProfile",
    "adaptive_advance",
    "assemble_linear_operator",
    "build_equilibrium",
    "build_grid",
    "check_maximum_principle",
    "constants_ledger",
    "discretize_profile",
    "equilibrium_rho",
    "execute_run",
    "fit_decay_rate",
    "load_config",
    "mass_difference",
    "modified_entropy",
    "poincare_constant",
    "profile_from_samples",
    "run_experiment",
    "solve_discrete_poisson",
    "weighted_norm",
]

__version__ = "0.1.0"
