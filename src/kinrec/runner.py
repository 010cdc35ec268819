"""Experiment driver: initial data, time marching, diagnostics, output files.

The evolved variable differs by model.  Linear runs march the deviation from
equilibrium (the well-prepared part of the data) as its spatial Fourier
modes: one forward transform of the data, the step solved per mode, and an
inverse transform only for a snapshot.  Nonlinear runs march the full
distribution pair in physical space and transform state minus equilibrium
once per recorded step.  Every per-step diagnostic is computed from the
deviation's modes (DiagnosticsRecorder); only the bounds check of a
nonlinear run reads the physical state.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np
from numpy.random import default_rng

from .config import RunConfig, ValidationError, effective_config_text, resolve_config, snapshot_name
from .diagnostics import (
    DecayFit,
    NotMeanFreeError,
    fit_decay_rate,
    poisson_modes,
    wide_stencil_symbol,
)
from .grid import (
    GridSpec,
    NAMED_PROFILES,
    VelocityProfile,
    build_grid,
    discretize_profile,
    profile_from_samples,
)
from .linear import LAX_FRIEDRICHS, Flux, assemble_linear_operator
from .nonlinear import (
    AdaptiveController,
    BoundsEnvelope,
    NewtonConfig,
    NonlinearStepper,
    check_maximum_principle,
    adaptive_advance,
)
from .state import (
    ConstantsLedger,
    EquilibriumData,
    build_equilibrium,
    constants_ledger,
    equilibrium_rho,
    irfft_pair,
    mass_difference,
    rfft_pair,
)

# Physical-space diagnostics the runner no longer calls.  The benchmark's
# tracer (perfbench/spans.py) patches them by name in this module, and
# tests/test_tracer_names.py checks that those names exist.
from .diagnostics import modified_entropy, solve_discrete_poisson  # noqa: F401
from .state import macroscopic_densities, weighted_norm  # noqa: F401

# The time series of a run: one list per column, keyed by the CSV header names.
TIMESERIES_COLUMNS = (
    "t", "weighted_norm", "rho_f_l2", "rho_g_l2", "entropy", "mass_difference",
    "bounds_pass", "dt_used", "newton_iters",
)
TIMESERIES_HEADER = ",".join(TIMESERIES_COLUMNS)

# Width of the reporting envelope around the equilibrium amplitudes, as a
# fraction of rho.  Bounds columns in the output always use this envelope,
# and the truncated scheme clamps its reaction into it.
REPORT_ENVELOPE_FRACTION = 0.2

# Steps a DiagnosticsRecorder buffers before finishing their rows; each
# flush has a fixed cost of a few dozen array operations, shared by the block.
# A step's row holds 4 complex sums and one float per mode, where its modes
# hold 4*nv complex values per mode, so the buffers stay small on any grid.
DIAGNOSTICS_BLOCK = 32

# Entries of the linear march's modes below this are zeroed after each step.
# The high modes decay far faster than the slowest one, until their squares and
# then the entries themselves are subnormal, and arithmetic on subnormals takes
# a slow path: the march's cost is the point.  The bound is a property of the
# float format, not a tuning value: the square of such an entry is below the
# smallest normal double, so it cannot change a norm, an inner product or a
# snapshot value at the printed precision.
UNDERFLOW = math.sqrt(sys.float_info.min)


def resolve_lambda(cfg: RunConfig, grid: GridSpec) -> float:
    """Numerical diffusion strength for the Lax-Friedrichs flux.

    Linear runs take dx/(2 dt): large implicit steps tolerate it and the
    measured decay rate stays flux-independent.  Nonlinear runs additionally
    clamp from below by v*/2, the monotonicity threshold that makes the
    update order-preserving and keeps Newton inside the positive cone.
    """
    if cfg.flux != LAX_FRIEDRICHS:
        return 0.0
    if cfg.lam is not None:
        return cfg.lam
    if cfg.model == "linear":
        return grid.dx / (2.0 * cfg.dt)
    return max(cfg.v_star / 2.0, grid.dx / (2.0 * cfg.dt))


def resolve_profile(name: str, grid: GridSpec) -> VelocityProfile:
    if name in NAMED_PROFILES:
        return discretize_profile(NAMED_PROFILES[name], grid)
    if name.startswith("file:"):
        samples = np.loadtxt(name[len("file:"):], dtype=float).reshape(-1)
        return profile_from_samples(samples, grid, symmetrize=True)
    raise ValueError(f"unknown velocity profile {name!r}")


def _bump(x: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Gaussian blob centred at x = pi/2, v = 0 with width parameter 0.2.
    return np.exp(-(np.square(x - math.pi / 2.0)[:, None] + np.square(v)[None, :] / 2.0) / 0.2)


def initial_data(cfg: RunConfig, grid: GridSpec, rng: np.random.Generator) -> np.ndarray:
    """Full initial distributions for the configured experiment.

    Tests 1 and 2 share a smooth two-species bump; test 3 uses a mean-zero
    velocity-ring profile times a spatial cosine; test 4 draws iid uniform
    cell values from the seeded generator, all of f before g.  Without a test
    number the data family follows the model kind.
    """
    x, v = grid.x_centers, grid.v_centers
    test = cfg.test
    if test is None:
        test = 1 if cfg.model == "linear" else 3
    if test in (1, 2):
        f = 10.0 * _bump(x, v)
        g = (1.0 + np.cos(4.0 * x))[:, None] * _bump(x, v)
        return np.stack([f, g])
    if test == 3:
        maxwellian = np.exp(-np.square(v) / 2.0) / math.sqrt(2.0 * math.pi)
        f = (1.0 + np.cos(2.0 * x))[:, None] * (maxwellian * v**4)[None, :]
        g = (1.0 + np.cos(4.0 * x))[:, None] * _bump(x, v)
        return np.stack([f, g])
    return rng.random((2, grid.nx, grid.n_vel))


@dataclass(frozen=True)
class RunSetup:
    """Everything derived from the configuration before time marching."""

    cfg: RunConfig
    grid: GridSpec
    chi1: VelocityProfile
    chi2: VelocityProfile
    flux: Flux
    data0: np.ndarray
    rho: float
    equilibrium: EquilibriumData
    ledger: ConstantsLedger
    # The reporting envelope of a nonlinear run; linear runs have none.
    envelope: BoundsEnvelope | None


def build_setup(cfg: RunConfig) -> RunSetup:
    """Grid, profiles, initial data and constants of a resolved configuration."""
    grid = build_grid(cfg.torus_length, cfg.nx, cfg.nv, cfg.v_star)
    profiles = []
    for field in ("chi1", "chi2"):
        try:
            profiles.append(resolve_profile(getattr(cfg, field), grid))
        except (OSError, ValueError) as exc:
            raise ValidationError(f"model.{field}: {exc}") from exc
    chi1, chi2 = profiles
    rng = default_rng(cfg.seed)
    data0 = initial_data(cfg, grid, rng)
    rho = equilibrium_rho(mass_difference(data0, grid), grid.torus_length)
    eq = build_equilibrium(rho, chi1, chi2, grid)
    lam = resolve_lambda(cfg, grid)
    flux = Flux(kind=cfg.flux, lam=lam)
    dt_cap = cfg.dt if cfg.model == "linear" else cfg.dt_max
    ledger = constants_ledger(chi1, chi2, rho, grid, lam, dt_cap)
    envelope = None
    if cfg.model == "nonlinear":
        envelope = BoundsEnvelope(rho, REPORT_ENVELOPE_FRACTION * rho, chi1, chi2)
    return RunSetup(
        cfg=cfg,
        grid=grid,
        chi1=chi1,
        chi2=chi2,
        flux=flux,
        data0=data0,
        rho=rho,
        equilibrium=eq,
        ledger=ledger,
        envelope=envelope,
    )


@dataclass(frozen=True)
class Snapshot:
    requested_t: float
    actual_t: float
    state: np.ndarray


class DiagnosticsRecorder:
    """Per-step diagnostics shared by both marches, from the deviation's modes.

    observe takes the rfft_pair modes of the deviation from equilibrium.  On
    the periodic grid every quantity is diagonal per mode: cell sums follow
    from Parseval (nx is odd, so the weight is 1 at k = 0 and 2 elsewhere,
    over nx), the site densities and the moments u and j are velocity sums
    per mode, the potential is -u_hat over the wide-stencil symbol and its
    centered gradient has symbol i*sin(theta)/dx.

    The time series is one list per column of TIMESERIES_COLUMNS.  Each
    observe appends its step's t, dt_used, Newton iterations and bounds
    verdict, and reduces its modes to one buffered row of per-mode sums: the
    site density and the current per mode and species (two matrix-vector
    products) and the norm's weighted power per mode.  It also makes the
    step's bounds check and snapshots, which need the step's own state.
    flush finishes the other columns of the buffered rows at once, in
    vectorized form: u and j, the norm, the potential's gradient, both
    entropy inner products (the time-increment term with each row's dt, and
    the previous gradient carried across blocks), the density norms and the
    mass difference.  It runs when DIAGNOSTICS_BLOCK rows are buffered, and
    reading series runs it first, so the end of a run and its abort both
    see every observed step.

    The entropy needs a mean-free deviation density.  A step whose density
    drifts, which none of the three fluxes allows, makes flush keep the
    steps before it, drop the snapshots of that step and later ones (step
    times strictly increase), and raise NotMeanFreeError.

    The bounds verdict of a nonlinear run is its envelope's passes.
    """

    def __init__(self, setup: RunSetup) -> None:
        grid = setup.grid
        self._setup = setup
        n_modes = grid.nx // 2 + 1
        theta = 2.0 * np.pi * np.arange(n_modes) / grid.nx
        # dx * sum_i a_i b_i = sum_k parseval_k Re(a_hat_k conj(b_hat_k)) for real a, b;
        # interleaved holds each weight twice, for the real and the imaginary part.
        self._parseval = np.where(theta == 0.0, 1.0, 2.0) * grid.dx / grid.nx
        self._parseval_interleaved = np.repeat(self._parseval, 2)
        # Weights 1/(rho chi1) and rho/chi2 of the norm, times dv, per species
        # and velocity, each twice: for the real and the imaginary part.
        self._weights = np.repeat(
            grid.dv
            * np.concatenate([1.0 / (setup.rho * setup.chi1.values), setup.rho / setup.chi2.values]),
            2,
        )
        # Velocity sums giving the site density and the current; complex, so
        # that each product with the modes is one matrix-vector BLAS call.
        self._density_sum = np.full(grid.n_vel, grid.dv, dtype=complex)
        self._current_sum = (grid.dv * grid.v_centers).astype(complex)
        self._poisson = wide_stencil_symbol(grid)
        self._gradient = 1j * np.sin(theta) / grid.dx
        self._equilibrium_mass = mass_difference(setup.equilibrium.state, grid)
        # The buffered rows: the density and the current per mode and
        # species, and the weighted power per mode; squares is observe's scratch.
        self._sums = np.empty((DIAGNOSTICS_BLOCK, 2, 2 * n_modes), dtype=complex)
        self._power = np.empty((DIAGNOSTICS_BLOCK, n_modes))
        self._squares = np.empty((n_modes, self._weights.size))
        self._dphi_prev: np.ndarray | None = None
        self._series: dict[str, list] = {column: [] for column in TIMESERIES_COLUMNS}
        self.snapshots: list[Snapshot] = []
        self._pending = list(setup.cfg.snapshot_times)
        # The Newton failures retried with a smaller dt, nonlinear runs only.
        self.rejected_attempts: int | None = None

    @property
    def series(self) -> dict[str, list]:
        """The time-series columns of every observed step; flushes the buffered rows first."""
        self.flush()
        return self._series

    def _inner(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """dx * sum_i a_i b_i of real fields, from their modes along the last axis.

        a and b are C-contiguous, so that their real and imaginary parts
        interleave in a float view.
        """
        return (a.view(float) * b.view(float)) @ self._parseval_interleaved

    def observe(
        self,
        t: float,
        modes: np.ndarray,
        dt_used: float | None,
        newton_iterations: int | None,
        state: np.ndarray | None = None,
    ) -> None:
        """Buffer one step's sums from the deviation's modes, which are left unchanged.

        state is the full distribution of a nonlinear run: it is checked
        against the reporting envelope, kept for snapshots, and its mass
        difference is the deviation's plus the equilibrium's.  Linear runs
        evolve the deviation itself and pass none; a snapshot transforms the
        modes back.
        """
        series = self._series
        row = len(series["t"]) - len(series["weighted_norm"])
        velocities = modes.reshape(-1, modes.shape[-1])
        density, current = self._sums[row]
        np.matmul(velocities, self._density_sum, out=density)
        np.matmul(velocities, self._current_sum, out=current)
        # |mode|^2 as the squares of the interleaved real and imaginary parts.
        np.square(modes.view(float).reshape(self._squares.shape), out=self._squares)
        np.matmul(self._squares, self._weights, out=self._power[row])
        bounds_pass = None if state is None else self._setup.envelope.passes(state)
        series["t"].append(t)
        series["dt_used"].append(dt_used)
        series["newton_iters"].append(newton_iterations)
        series["bounds_pass"].append(bounds_pass)
        while self._pending and t >= self._pending[0] - 1e-9:
            if state is None:
                state = irfft_pair(modes, self._setup.grid.nx)
            self.snapshots.append(
                Snapshot(requested_t=self._pending.pop(0), actual_t=t, state=state.copy())
            )
        if row + 1 == DIAGNOSTICS_BLOCK:
            self.flush()

    def flush(self) -> None:
        """Finish the buffered rows' columns, in order; see the class docstring."""
        series = self._series
        done = len(series["weighted_norm"])
        n = len(series["t"]) - done
        if not n:
            return
        setup = self._setup
        grid = setup.grid
        # Step, mode, species.
        density, current = self._sums[:n].reshape(n, 2, -1, 2).swapaxes(0, 1)
        u_hat = density[..., 0] - density[..., 1]
        j_hat = current[..., 0] - current[..., 1]
        try:
            dphi = self._gradient * poisson_modes(u_hat, self._poisson, grid)
        except NotMeanFreeError as exc:
            # Keep the steps before the first one without a potential.
            failed = done + exc.row
            self.snapshots = [s for s in self.snapshots if s.actual_t < series["t"][failed]]
            for values in series.values():
                del values[failed:]
            self.flush()
            raise
        norm_sq = self._power[:n] @ self._parseval
        delta = setup.ledger.delta
        entropy = 0.5 * norm_sq + delta * self._inner(j_hat, dphi)
        # Every step after the first of a run has a previous potential and a dt.
        first = 1 if self._dphi_prev is None else 0
        previous = dphi[:-1] if first else np.concatenate([self._dphi_prev[None], dphi[:-1]])
        incr = dphi[first:] - previous
        dt = np.array(series["dt_used"][done + first :], dtype=float)
        entropy[first:] += delta / (2.0 * dt) * self._inner(incr, incr)
        self._dphi_prev = dphi[-1].copy()
        norm = np.sqrt(np.maximum(norm_sq, 0.0))
        per_species = np.ascontiguousarray(density.swapaxes(1, 2))
        rho_l2 = np.sqrt(self._inner(per_species, per_species))
        mass = grid.dx * u_hat[:, 0].real
        # A row with a bounds verdict came with the state, whose mass includes the equilibrium's.
        mass[[b is not None for b in series["bounds_pass"][done:]]] += self._equilibrium_mass
        series["weighted_norm"] += norm.tolist()
        series["rho_f_l2"] += rho_l2[:, 0].tolist()
        series["rho_g_l2"] += rho_l2[:, 1].tolist()
        series["entropy"] += entropy.tolist()
        series["mass_difference"] += mass.tolist()


@dataclass(frozen=True)
class RunSummary:
    model: str
    flux: str
    lam: float
    rho: float
    initial_mass_difference: float
    fit: DecayFit | None
    final_weighted_norm: float
    max_mass_drift_abs: float
    max_mass_drift_rel: float
    f_ratio_min: float | None
    f_ratio_max: float | None
    g_ratio_min: float | None
    g_ratio_max: float | None
    n_steps: int
    newton_iterations: int | None
    stalled_steps: int | None
    rejected_attempts: int | None
    wall_clock_s: float


@dataclass(frozen=True)
class RunData:
    setup: RunSetup
    series: dict[str, list]
    snapshots: list[Snapshot]
    summary: RunSummary


class ExperimentAbortedError(RuntimeError):
    """A run failed mid-march; partial_data holds everything recorded so far."""

    def __init__(self, message: str, partial_data: "RunData") -> None:
        super().__init__(message)
        self.partial_data = partial_data


def _march_linear(setup: RunSetup, recorder: DiagnosticsRecorder) -> None:
    """March the deviation's modes; the step and every diagnostic are per mode."""
    cfg = setup.cfg
    op = assemble_linear_operator(
        setup.grid, setup.chi1, setup.chi2, setup.rho, cfg.dt, setup.flux
    )
    modes = rfft_pair(setup.data0 - setup.equilibrium.state)
    recorder.observe(0.0, modes, None, None)
    entries = modes.view(float)
    n_steps = round(cfg.t_final / cfg.dt)
    for n in range(1, n_steps + 1):
        op.solve_modes(modes)
        entries[np.abs(entries) < UNDERFLOW] = 0.0
        recorder.observe(n * cfg.dt, modes, cfg.dt, None)


def _march_nonlinear(setup: RunSetup, recorder: DiagnosticsRecorder) -> None:
    cfg = setup.cfg
    state = setup.data0
    # Subtracted in physical space: near the solver floor the deviation is
    # about 1e-10 of the state, and the modes of the difference keep its digits.
    equilibrium = setup.equilibrium.state
    stepper = NonlinearStepper(
        setup.grid,
        setup.chi1,
        setup.chi2,
        setup.flux,
        envelope=setup.envelope if cfg.truncated else None,
    )
    recorder.rejected_attempts = 0
    newton_cfg = NewtonConfig(
        tol_residual=cfg.newton_tol, max_iterations=cfg.newton_max_iterations
    )
    controller = AdaptiveController(dt_min=cfg.dt_min, dt_max=cfg.dt_max)
    recorder.observe(0.0, rfft_pair(state - equilibrium), None, None, state)
    t, next_dt = 0.0, cfg.dt
    while t < cfg.t_final - 1e-12:
        result = adaptive_advance(
            state, min(next_dt, cfg.t_final - t), controller, newton_cfg, stepper
        )
        state, next_dt = result.state, result.next_dt
        t += result.dt_used
        recorder.rejected_attempts += result.rejected_attempts
        recorder.observe(
            t,
            rfft_pair(state - equilibrium),
            result.dt_used,
            result.newton_iterations,
            state,
        )


def _finalize(setup: RunSetup, recorder: DiagnosticsRecorder, start: float) -> RunData:
    cfg = setup.cfg
    series = recorder.series

    fit: DecayFit | None = None
    try:
        fit = fit_decay_rate(series["t"], series["weighted_norm"])
    except ValueError:
        fit = None

    mass = series["mass_difference"]
    mass0 = mass[0]
    drift = max(abs(m - mass0) for m in mass)
    scale = max(1.0, abs(mass0))

    newton = series["newton_iters"][1:] if cfg.model == "nonlinear" else None
    ratios: dict[str, float | None] = {k: None for k in ("f_min", "f_max", "g_min", "g_max")}
    if cfg.model == "nonlinear":
        bounds_states = [setup.data0] + [s.state for s in recorder.snapshots]
        reports = [check_maximum_principle(s, setup.envelope) for s in bounds_states]
        ratios = {
            "f_min": min(r.f_ratio_min for r in reports),
            "f_max": max(r.f_ratio_max for r in reports),
            "g_min": min(r.g_ratio_min for r in reports),
            "g_max": max(r.g_ratio_max for r in reports),
        }

    summary = RunSummary(
        model=cfg.model,
        flux=cfg.flux,
        lam=setup.flux.lam,
        rho=setup.rho,
        initial_mass_difference=mass0,
        fit=fit,
        final_weighted_norm=series["weighted_norm"][-1],
        max_mass_drift_abs=drift,
        max_mass_drift_rel=drift / scale,
        f_ratio_min=ratios["f_min"],
        f_ratio_max=ratios["f_max"],
        g_ratio_min=ratios["g_min"],
        g_ratio_max=ratios["g_max"],
        n_steps=len(series["t"]) - 1,
        newton_iterations=None if newton is None else sum(newton),
        stalled_steps=None if newton is None else newton.count(0),
        rejected_attempts=recorder.rejected_attempts,
        wall_clock_s=time.perf_counter() - start,
    )
    return RunData(setup=setup, series=series, snapshots=recorder.snapshots, summary=summary)


def execute_run(cfg: RunConfig) -> RunData:
    cfg = resolve_config(cfg)
    start = time.perf_counter()
    setup = build_setup(cfg)
    recorder = DiagnosticsRecorder(setup)
    march = _march_linear if cfg.model == "linear" else _march_nonlinear
    try:
        march(setup, recorder)
        recorder.flush()
    except Exception as exc:
        error = exc
        try:
            recorder.flush()  # the steps observed before the failure
        except NotMeanFreeError as earlier:  # a buffered step had already drifted
            error = earlier
        if not recorder.series["t"]:
            raise error
        raise ExperimentAbortedError(
            f"{cfg.model} run with {cfg.flux} flux aborted at "
            f"t={recorder.series['t'][-1]:.6g}: {error}",
            _finalize(setup, recorder, start),
        ) from error
    return _finalize(setup, recorder, start)


def _fmt(value: float | None) -> str:
    if value is None:
        return ""
    return "%.17g" % value


def _count(value: int | None) -> str:
    return "" if value is None else str(value)


def timeseries_csv(series: dict[str, list]) -> str:
    rows = zip(
        series["t"],
        series["weighted_norm"],
        series["rho_f_l2"],
        series["rho_g_l2"],
        series["entropy"],
        series["mass_difference"],
        ["" if b is None else ("1" if b else "0") for b in series["bounds_pass"]],
        map(_fmt, series["dt_used"]),
        map(_count, series["newton_iters"]),
    )
    lines = ["%.17g,%.17g,%.17g,%.17g,%.17g,%.17g,%s,%s,%s" % row for row in rows]
    return "\n".join([TIMESERIES_HEADER] + lines) + "\n"


def snapshot_templates(grid: GridSpec) -> list[str]:
    """Per cell i, the format string of its 2*nv snapshot rows, open for f and g.

    The i,j,x,v start of a row is the same in every snapshot of a run, so a
    run formats it once, from each x and each v formatted once.
    """
    # Row (i, j) is "i," + "j," + "x_i" + ",v_j,%.17g,%.17g\n".
    velocities = [
        ("%d," % j, ",%s,%%.17g,%%.17g\n" % _fmt(v))
        for j, v in enumerate(grid.v_centers.tolist())
    ]
    templates = []
    for i, x in enumerate(grid.x_centers.tolist()):
        head, x_text = "%d," % i, _fmt(x)
        templates.append("".join([head + j + x_text + tail for j, tail in velocities]))
    return templates


def snapshot_chunks(snapshot: Snapshot, grid: GridSpec, templates: list[str]) -> Iterator[str]:
    """The text of a snapshot CSV: the header, then the rows of one cell at a time."""
    yield "# t=%s\n# N=%d L=%d\ni,j,x,v,f,g\n" % (_fmt(snapshot.actual_t), grid.nx, grid.nv)
    # Per cell, f and g alternate over the velocities, in the order of the rows.
    values = snapshot.state.transpose(1, 2, 0).reshape(grid.nx, -1)
    for template, cell in zip(templates, values):
        yield template % tuple(cell.tolist())


def summary_text(data: RunData) -> str:
    s = data.summary
    fit = s.fit
    pairs = [
        ("model", s.model),
        ("flux", s.flux),
        ("lambda", _fmt(s.lam)),
        ("rho_inf", _fmt(s.rho)),
        ("initial_mass_difference", _fmt(s.initial_mass_difference)),
        ("kappa_fit", _fmt(fit.kappa) if fit else ""),
        ("r_squared", _fmt(fit.r_squared) if fit else ""),
        ("prefactor", _fmt(fit.prefactor) if fit else ""),
        ("final_weighted_norm", _fmt(s.final_weighted_norm)),
        ("max_mass_drift_abs", _fmt(s.max_mass_drift_abs)),
        ("max_mass_drift_rel", _fmt(s.max_mass_drift_rel)),
        ("f_ratio_min", _fmt(s.f_ratio_min)),
        ("f_ratio_max", _fmt(s.f_ratio_max)),
        ("g_ratio_min", _fmt(s.g_ratio_min)),
        ("g_ratio_max", _fmt(s.g_ratio_max)),
        ("n_steps", str(s.n_steps)),
        ("newton_iterations", _count(s.newton_iterations)),
        ("stalled_steps", _count(s.stalled_steps)),
        ("rejected_attempts", _count(s.rejected_attempts)),
        ("wall_clock_s", _fmt(s.wall_clock_s)),
    ]
    return "\n".join(f"{k} = {v}" for k, v in pairs) + "\n"


_PLOT_SCRIPT = """\
#!/usr/bin/env python3
\"\"\"Plot the time series and snapshots written next to this script.\"\"\"
import csv
import glob
import os
import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt

here = os.path.dirname(os.path.abspath(__file__))

with open(os.path.join(here, "timeseries.csv")) as fh:
    rows = list(csv.DictReader(fh))
t = [float(r["t"]) for r in rows]
norm = [float(r["weighted_norm"]) for r in rows]
fig, ax = plt.subplots()
ax.semilogy(t, norm, marker=".", lw=1)
ax.set_xlabel("t")
ax.set_ylabel("weighted norm of deviation")
fig.savefig(os.path.join(here, "decay.png"), dpi=150)

for path in sorted(glob.glob(os.path.join(here, "snapshot_t*.csv"))):
    with open(path) as fh:
        header = fh.readline().strip()
        dims = fh.readline().strip().split()
        n = int(dims[1].split("=")[1])
        l2 = 2 * int(dims[2].split("=")[1])
        rows = list(csv.DictReader(fh))
    f = [[0.0] * l2 for _ in range(n)]
    for r in rows:
        f[int(r["i"])][int(r["j"])] = float(r["f"])
    fig, ax = plt.subplots()
    ax.imshow([list(col) for col in zip(*f)], origin="lower", aspect="auto")
    ax.set_title(header.lstrip("# "))
    ax.set_xlabel("x cell")
    ax.set_ylabel("v cell")
    fig.savefig(path.replace(".csv", ".png"), dpi=150)
"""


def write_outputs(data: RunData, out_dir: str | Path) -> Path:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "timeseries.csv").write_text(timeseries_csv(data.series), encoding="utf-8")
    templates = snapshot_templates(data.setup.grid)
    for snapshot in data.snapshots:
        with open(out / snapshot_name(snapshot.requested_t), "w", encoding="utf-8") as fh:
            fh.writelines(snapshot_chunks(snapshot, data.setup.grid, templates))
    (out / "summary.txt").write_text(summary_text(data), encoding="utf-8")
    (out / "config.ini").write_text(effective_config_text(data.setup.cfg), encoding="utf-8")
    if data.setup.cfg.emit_plot_script:
        (out / "plot.py").write_text(_PLOT_SCRIPT, encoding="utf-8")
    return out


def run_experiment(cfg: RunConfig) -> RunData:
    """Execute a configured run and write its output directory.

    On a mid-run failure the partial outputs gathered so far are still
    written before the error propagates.  An output directory that cannot be
    made is a ValidationError; so is a configuration the set-up rejects.
    """
    out = Path(cfg.output_dir)
    created = [path for path in (out, *out.parents) if not path.exists()]
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ValidationError(f"output.dir: {exc}") from exc
    try:
        data = execute_run(cfg)
    except ValidationError:
        for path in created:  # a rejected configuration leaves no new directory
            path.rmdir()
        raise
    except ExperimentAbortedError as exc:
        write_outputs(exc.partial_data, cfg.output_dir)
        raise
    write_outputs(data, cfg.output_dir)
    return data
