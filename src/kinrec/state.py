"""Two-species states, equilibrium data, weighted geometry, and estimate constants.

A state of the pair (f, g) is one float array of shape (2, nx, 2*nv):
species, then cell, then velocity, in C order.  Its ravel() is the vector
Newton works on, with cell (i, m) of species s at
(s*nx + i)*2*nv + m.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, VelocityProfile, poincare_constant


def species_profiles(chi1: VelocityProfile, chi2: VelocityProfile) -> np.ndarray:
    """chi1 and chi2 as shape (2, 1, 2*nv), to broadcast over the cells of a state."""
    return np.stack([chi1.values, chi2.values])[:, None]


# Largest nx whose periodic transforms are products with the dense real DFT
# matrices of dft_matrices.  Up to it the products beat np.fft on all but a
# few composite nx; above it np.fft wins on most nx, and the matrices grow as
# nx^2.  Set from forward and inverse pairs timed on both paths, one BLAS
# thread (CHANGES.md).
DENSE_DFT_MAX_NX = 151


@functools.lru_cache(maxsize=8)
def dft_matrices(nx: int) -> tuple[np.ndarray, np.ndarray]:
    """Real DFT matrices of the rfft on an odd nx, built on first use.

    forward, of shape (2*(nx//2+1), nx), stacks cos and -sin: its products
    with x are the real parts of rfft(x) over modes k, then the imaginary
    parts.  inverse, of shape (nx, 2*(nx//2+1)), maps those parts back to
    irfft's x: weight 1/nx at k = 0 and 2/nx above, with no Nyquist term
    since nx is odd.  Both are cached and shared, so they are read-only.
    """
    k = np.arange(nx // 2 + 1)
    theta = 2.0 * np.pi / nx * (np.outer(k, np.arange(nx)) % nx)
    forward = np.concatenate([np.cos(theta), -np.sin(theta)])
    weights = np.tile(np.where(k == 0, 1.0, 2.0) / nx, 2)
    inverse = np.ascontiguousarray((weights[:, None] * forward).T)
    forward.flags.writeable = inverse.flags.writeable = False
    return forward, inverse


def rfft_pair(cells: np.ndarray) -> np.ndarray:
    """Spatial rfft of a state, shape (nx//2+1, 2, 2*nv): mode, species, velocity.

    The modes are a new C-contiguous complex array.
    """
    _, nx, n_vel = cells.shape
    if nx > DENSE_DFT_MAX_NX:
        return np.ascontiguousarray(np.fft.rfft(cells, axis=1).transpose(1, 0, 2))
    n_modes = nx // 2 + 1
    parts = dft_matrices(nx)[0] @ cells  # species, (real | imaginary, mode), velocity
    modes = np.empty((n_modes, 2, n_vel), dtype=complex)
    interleaved = modes.view(float).reshape(n_modes, 2, n_vel, 2)
    interleaved.transpose(1, 3, 0, 2)[...] = parts.reshape(2, 2, n_modes, n_vel)
    return modes


def irfft_pair(modes: np.ndarray, nx: int) -> np.ndarray:
    """Inverse of rfft_pair on nx cells: a new C-contiguous state."""
    n_modes, _, n_vel = modes.shape
    if nx > DENSE_DFT_MAX_NX:
        return np.ascontiguousarray(np.fft.irfft(modes, n=nx, axis=0).transpose(1, 0, 2))
    interleaved = modes.view(float).reshape(n_modes, 2, n_vel, 2)
    parts = interleaved.transpose(1, 3, 0, 2).reshape(2, 2 * n_modes, n_vel)
    return dft_matrices(nx)[1] @ parts


def mass_difference(state: np.ndarray, grid: GridSpec) -> float:
    """Net phase-space mass of species one minus species two.

    Conserved exactly by both evolution schemes with any conservative flux.
    """
    return grid.dx * grid.dv * float(state[0].sum() - state[1].sum())


def equilibrium_rho(mass_diff: float, torus_length: float) -> float:
    """Positive root of torus_length * (rho - 1/rho) = mass_diff.

    This is the spatial density level of species one in the steady state
    compatible with the conserved mass difference; species two sits at 1/rho.
    In floats it can round to 0 or overflow, which build_setup refuses.
    """
    return (mass_diff + math.hypot(mass_diff, 2.0 * torus_length)) / (2.0 * torus_length)


@dataclass(frozen=True)
class EquilibriumData:
    """Spatially uniform steady state.

    rho is the density level of species one (species two sits at 1/rho);
    state holds f = rho*chi1 and g = chi2/rho on the grid.
    """

    rho: float
    state: np.ndarray


def build_equilibrium(
    rho: float, chi1: VelocityProfile, chi2: VelocityProfile, grid: GridSpec
) -> EquilibriumData:
    state = np.stack([rho * chi1.values, chi2.values / rho])[:, None].repeat(grid.nx, axis=1)
    return EquilibriumData(rho=float(rho), state=state)


def weighted_inner(
    a: np.ndarray,
    b: np.ndarray,
    chi1: VelocityProfile,
    chi2: VelocityProfile,
    rho: float,
    grid: GridSpec,
) -> float:
    """Phase-space inner product with weights 1/(rho*chi1) and rho/chi2.

    Makes the linearized collision operator self-adjoint and its kernel
    projection orthogonal.
    """
    w = a[0] * b[0] / (rho * chi1.values) + a[1] * b[1] * (rho / chi2.values)
    return grid.dx * grid.dv * float(np.sum(w))


def weighted_norm(
    state: np.ndarray,
    chi1: VelocityProfile,
    chi2: VelocityProfile,
    rho: float,
    grid: GridSpec,
) -> float:
    return math.sqrt(max(weighted_inner(state, state, chi1, chi2, rho, grid), 0.0))


def macroscopic_densities(state: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Velocity averages (rho_f, rho_g), shape (2, nx)."""
    return grid.dv * state.sum(axis=-1)


@dataclass(frozen=True)
class ConstantsLedger:
    """Every constant entering the discrete relaxation estimate.

    All are computed from the two profiles' actual discrete moments (the
    tightest admissible choice), the equilibrium density level, the grid, the
    LF diffusion strength, and the largest admissible time step.
    """

    rho: float
    lam: float
    dt_max: float
    d0: float        # rho-weighted mean second moment of the two profiles
    c_mc: float      # collision coercivity on the non-kernel part
    c_u: float       # exact norm ratio between density difference and kernel part
    c_j1: float      # first-moment bound
    c_s: float       # centered-second-moment bound
    c_j2: float      # rho-weighted first-moment difference bound
    c_p: float       # sharp periodic Poincare constant
    c_tilde: float   # combined transport-coupling bound
    alpha1: float    # potential-increment bound
    delta1: float
    delta2: float
    delta3: float
    delta: float     # chosen mixing weight, delta_fraction * min(delta1..3)
    k_delta: float   # dissipation rate in front of ||F^{n+1}||^2
    c_upper: float   # entropy <= c_upper * ||F||^2
    c_lower: float   # entropy >= c_lower * ||F||^2
    kappa: float     # certified decay rate k_delta / c_upper


def constants_ledger(
    chi1: VelocityProfile,
    chi2: VelocityProfile,
    rho: float,
    grid: GridSpec,
    lam: float,
    dt_max: float,
    delta_fraction: float = 0.9,
) -> ConstantsLedger:
    """Evaluate the full chain of estimate constants for one configuration.

    lam is the LF diffusion strength (0 reproduces the centered transport,
    which drops the transport-dissipation terms); delta_fraction places the
    mixing weight strictly inside its admissible interval.  Unchecked: rho > 0,
    lam >= 0, dt_max > 0 and 0 < delta_fraction < 1; build_setup refuses a
    set-up whose constants overflow or divide by zero.
    """
    d1, d2 = chi1.second_moment, chi2.second_moment
    q1, q2 = chi1.fourth_moment, chi2.fourth_moment
    d0 = (rho**2 * d1 + d2) / (rho**2 + 1.0)

    c_mc = min(rho, 1.0 / rho)
    c_u = math.sqrt((rho**2 + 1.0) / rho)
    c_j1 = math.sqrt(2.0 * max(rho * d1, d2 / rho))
    # Centered second moments of each profile; nonnegative by Cauchy-Schwarz,
    # the max(..., 0) only guards rounding.
    s1 = max(q1 - 2.0 * d0 * d1 + d0**2, 0.0)
    s2 = max(q2 - 2.0 * d0 * d2 + d0**2, 0.0)
    c_s = math.sqrt(2.0 * max(rho * s1, s2 / rho))
    c_j2 = max(rho, 1.0 / rho) * c_j1
    c_p = poincare_constant(grid)
    c_tilde = c_s * c_u + c_j2 * c_p * c_u + 4.0 * lam * c_j1 * c_u

    delta1 = c_mc / c_j1**2
    delta2 = (c_mc * d0 * c_u**2) / (c_tilde**2 + c_j1**2 * d0 * c_u**2)
    delta3 = 1.0 / (2.0 * c_j1 * c_u * c_p)
    delta = delta_fraction * min(delta1, delta2, delta3)

    alpha1 = c_j1**2 + 4.0 * (lam * c_u) ** 2
    k_delta = 0.5 * min(c_mc - delta * c_j1**2, delta * d0 * c_u**2)
    c_upper = 0.5 + delta * c_j1 * c_u * c_p + delta * alpha1 * dt_max
    c_lower = 0.5 - delta * c_j1 * c_u * c_p

    return ConstantsLedger(
        rho=float(rho),
        lam=float(lam),
        dt_max=float(dt_max),
        d0=d0,
        c_mc=c_mc,
        c_u=c_u,
        c_j1=c_j1,
        c_s=c_s,
        c_j2=c_j2,
        c_p=c_p,
        c_tilde=c_tilde,
        alpha1=alpha1,
        delta1=delta1,
        delta2=delta2,
        delta3=delta3,
        delta=delta,
        k_delta=k_delta,
        c_upper=c_upper,
        c_lower=c_lower,
        kappa=k_delta / c_upper,
    )
