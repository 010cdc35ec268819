"""Relaxation instrumentation: potential solve, mixed entropy, decay fits."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, VelocityProfile, centered_gradient
from .state import ConstantsLedger, weighted_norm


def wide_stencil_symbol(grid: GridSpec) -> np.ndarray:
    """Symbol of the wide five-point stencil Dc Dc per rfft mode k = 0..nx//2.

    Dc Dc phi = (phi_{i+2} - 2 phi_i + phi_{i-2}) / (4 dx^2) has symbol
    -sin^2(2 pi k / nx) / dx^2.  It vanishes only where 2k/nx is an integer,
    which for odd nx is k = 0 alone; that entry is set to infinity, so
    dividing by the symbol zeroes the mean.
    """
    symbol = -np.sin(2.0 * np.pi * np.arange(grid.nx // 2 + 1) / grid.nx) ** 2 / grid.dx**2
    symbol[0] = np.inf
    return symbol


# Cell means of a Poisson source at or below this pass the mean-free check
# whatever the source's size; larger ones must be within it times rms u.
MEAN_FREE_FLOOR = 1e-10


def check_mean_free(u_hat: np.ndarray, grid: GridSpec) -> None:
    """Raise ValueError unless the source with rfft modes u_hat is mean-free.

    The wide stencil is invertible on mean-free fields only, so the cell mean
    u_hat[0]/nx must stay within MEAN_FREE_FLOOR*max(1, rms u), with rms u
    from Parseval (odd nx: weight 1 at k = 0 and 2 elsewhere).  Both sides
    are means over the cells, so the rule does not depend on the torus length.
    """
    power = u_hat.real**2 + u_hat.imag**2
    rms = np.sqrt(2.0 * np.sum(power) - power[0]) / grid.nx
    mean = u_hat[0].real / grid.nx
    if abs(mean) > MEAN_FREE_FLOOR * np.maximum(1.0, rms):
        raise ValueError(f"source must be mean-free for solvability, got cell mean {mean:.3e}")


def solve_discrete_poisson(u_h: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Mean-free potential phi with (Dc Dc phi)_i = -u_h[i], in physical space.

    phi_hat = -u_hat / wide_stencil_symbol(grid) between a real FFT and its
    inverse, for a mean-free field of shape (nx,).
    """
    u = np.asarray(u_h, dtype=float)
    if u.shape != (grid.nx,):
        raise ValueError(f"expected shape ({grid.nx},), got {u.shape}")
    u_hat = np.fft.rfft(u)
    check_mean_free(u_hat, grid)
    return np.fft.irfft(-u_hat / wide_stencil_symbol(grid), grid.nx)


def modified_entropy(
    state: np.ndarray,
    phi: np.ndarray,
    phi_prev: np.ndarray | None,
    dt: float,
    ledger: ConstantsLedger,
    chi1: VelocityProfile,
    chi2: VelocityProfile,
    grid: GridSpec,
    delta: float | None = None,
) -> float:
    """Mixed Lyapunov functional certifying exponential relaxation.

    H = 1/2 ||F||^2 + delta <j_h, Dc phi> + delta/(2 dt) ||Dc phi - Dc phi_prev||^2,
    where j_h is the first velocity moment of f - g and phi solves the wide
    Poisson problem for the density difference.  phi_prev is the previous
    step's potential, or None on the first record of a run, where the last
    term is omitted (partial value).  delta defaults to the ledger's choice
    and must stay below the admissible ceiling min(delta1..3).
    """
    if delta is None:
        delta = ledger.delta
    ceiling = min(ledger.delta1, ledger.delta2, ledger.delta3)
    if not 0.0 < delta < ceiling:
        raise ValueError(
            f"delta must lie in (0, {ceiling:.6e}) for the estimate chain, got {delta}"
        )
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    j_h = grid.dv * ((state[0] - state[1]) @ grid.v_centers)
    dphi = centered_gradient(phi, grid)
    h = 0.5 * weighted_norm(state, chi1, chi2, ledger.rho, grid) ** 2
    h += delta * grid.dx * float(np.sum(j_h * dphi))
    if phi_prev is not None:
        incr = dphi - centered_gradient(phi_prev, grid)
        h += delta / (2.0 * dt) * grid.dx * float(np.sum(incr**2))
    return h


@dataclass(frozen=True)
class DecayFit:
    """Least-squares exponential fit value ~ prefactor * exp(-kappa * t)."""

    kappa: float
    prefactor: float
    r_squared: float
    window: tuple[float, float]
    n_points: int


def fit_decay_rate(
    times: np.ndarray,
    values: np.ndarray,
    window: tuple[float, float] | None = None,
    floor: float = 1e-14,
) -> DecayFit:
    """Fit log(value) against time on a window clear of the rounding plateau.

    The default window starts at 20% of the horizon and ends at the first
    sample at or below 1e3*floor (where the series is about to drown in
    rounding noise).  Non-positive samples inside the window are an error;
    samples at or below the floor are excluded.  Needs at least 5 usable
    points.
    """
    t = np.asarray(times, dtype=float)
    v = np.asarray(values, dtype=float)
    if t.shape != v.shape or t.ndim != 1:
        raise ValueError(f"times and values must be matching 1-d arrays, got {t.shape}, {v.shape}")
    if t.size == 0:
        raise ValueError("empty series")
    if window is None:
        t_lo = t[0] + 0.2 * (t[-1] - t[0])
        below = np.nonzero(v <= 1e3 * floor)[0]
        t_hi = t[below[0]] if below.size else t[-1]
    else:
        t_lo, t_hi = window
    in_window = (t >= t_lo) & (t <= t_hi)
    if np.any(v[in_window] <= 0.0):
        raise ValueError("series has non-positive values inside the fit window")
    usable = in_window & (v > floor)
    if int(np.sum(usable)) < 5:
        raise ValueError(
            f"only {int(np.sum(usable))} usable points in window [{t_lo}, {t_hi}], need 5"
        )
    ts, logs = t[usable], np.log(v[usable])
    slope, intercept = np.polyfit(ts, logs, 1)
    fitted = slope * ts + intercept
    ss_res = float(np.sum((logs - fitted) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    r_squared = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return DecayFit(
        kappa=-float(slope),
        prefactor=float(math.exp(intercept)),
        r_squared=r_squared,
        window=(float(t_lo), float(t_hi)),
        n_points=int(np.sum(usable)),
    )

