"""Implicit finite-volume solver for a two-species kinetic
generation-recombination system on a periodic interval, with structure
diagnostics: weighted-norm decay, modified entropy, discrete maximum
principle, and mass-difference conservation.

The top level holds the run API; the solver's layers are its submodules."""

from .config import ParseError, RunConfig, ValidationError, load_config
from .runner import ExperimentAbortedError, execute_run, run_experiment

__all__ = [
    "ExperimentAbortedError",
    "ParseError",
    "RunConfig",
    "ValidationError",
    "execute_run",
    "load_config",
    "run_experiment",
]

__version__ = "0.1.0"
