"""Phase-space mesh, periodic discrete gradients, and velocity profiles."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class GridSpec:
    """Uniform tensor mesh of a periodic interval times a symmetric velocity band.

    Spatial cells are indexed 0..nx-1 with periodic wraparound and centers at
    (i + 1/2)*dx.  Velocity cells cover [-v_star, v_star] left to right with
    2*nv cells of width dv = v_star/nv; one interface sits exactly at v = 0.
    The mirror of velocity cell m is 2*nv-1-m, and midpoints satisfy
    v_centers[m] == -v_centers[2*nv-1-m] exactly.

    Attributes
    ----------
    torus_length : float
        Length of the periodic spatial interval.
    nx : int
        Number of spatial cells; must be odd (keeps the centered gradient
        injective on mean-free fields).
    nv : int
        Velocity cells per half-axis; the full band has 2*nv cells.
    v_star : float
        Velocity cutoff.
    """

    torus_length: float
    nx: int
    nv: int
    v_star: float
    dx: float
    dv: float
    x_centers: np.ndarray
    v_centers: np.ndarray

    @property
    def n_vel(self) -> int:
        return 2 * self.nv

    @property
    def n_unknowns(self) -> int:
        """Unknowns per species."""
        return self.nx * self.n_vel


def build_grid(torus_length: float, nx: int, nv: int, v_star: float) -> GridSpec:
    """Construct the phase-space mesh.

    Raises ValueError for even or too-small nx and for non-positive sizes.
    """
    if torus_length <= 0.0:
        raise ValueError(f"torus_length must be positive, got {torus_length}")
    if v_star <= 0.0:
        raise ValueError(f"v_star must be positive, got {v_star}")
    if nx < 3:
        raise ValueError(f"nx must be at least 3, got {nx}")
    if nx % 2 == 0:
        raise ValueError(
            f"nx must be odd, got {nx}: the centered spatial gradient is "
            "singular on mean-free fields for even cell counts"
        )
    if nv < 1:
        raise ValueError(f"nv must be at least 1, got {nv}")
    dx = torus_length / nx
    dv = v_star / nv
    x_centers = (np.arange(nx) + 0.5) * dx
    # (m - nv + 0.5)*dv: exact sign-mirror pairs, interface at v = 0.
    v_centers = (np.arange(2 * nv) - nv + 0.5) * dv
    return GridSpec(
        torus_length=float(torus_length),
        nx=int(nx),
        nv=int(nv),
        v_star=float(v_star),
        dx=dx,
        dv=dv,
        x_centers=x_centers,
        v_centers=v_centers,
    )


def centered_gradient(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(u_{i+1} - u_{i-1}) / (2 dx), periodic, along axis 0."""
    return (np.roll(u, -1, axis=0) - np.roll(u, 1, axis=0)) / (2.0 * grid.dx)


def forward_gradient(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(u_{i+1} - u_i) / dx, periodic, along axis 0."""
    return (np.roll(u, -1, axis=0) - u) / grid.dx


def backward_gradient(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(u_i - u_{i-1}) / dx, periodic, along axis 0."""
    return (u - np.roll(u, 1, axis=0)) / grid.dx


def second_difference(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(u_{i+1} - 2 u_i + u_{i-1}) / dx^2, periodic, along axis 0.

    Equals the composition of the forward and backward gradients in either
    order.
    """
    return (np.roll(u, -1, axis=0) - 2.0 * u + np.roll(u, 1, axis=0)) / grid.dx**2


def poincare_constant(grid: GridSpec) -> float:
    """Sharp constant C with ||u||_2 <= C ||centered_gradient(u)||_2 on mean-free u.

    C = dx / min_k |sin(2 pi k / nx)| over k = 1..nx-1; the minimizing Fourier
    mode attains equality.  Finite only for odd nx.
    """
    k = np.arange(1, grid.nx)
    return grid.dx / float(np.min(np.abs(np.sin(2.0 * np.pi * k / grid.nx))))


@dataclass(frozen=True)
class VelocityProfile:
    """Positive, even, unit-mass velocity weights on the grid's band.

    values[m] is the weight at v_centers[m]; dv * sum(values) == 1 up to
    rounding, values are bitwise mirror-symmetric, and the stored moments are
    second_moment = dv * sum(v^2 * values), fourth_moment likewise with v^4.
    """

    values: np.ndarray
    second_moment: float
    fourth_moment: float


def profile_from_samples(
    samples: np.ndarray, grid: GridSpec, *, symmetrize: bool = False
) -> VelocityProfile:
    """Normalize point samples at the velocity midpoints into a profile.

    Rejects non-positive samples, samples without a finite sum, and asymmetry
    beyond 1e-12 relative unless symmetrize is set; mirror pairs are averaged
    either way, which is a no-op on already-symmetric data and makes the
    symmetry bitwise exact.
    """
    s = np.asarray(samples, dtype=float)
    if s.shape != (grid.n_vel,):
        raise ValueError(f"expected {grid.n_vel} samples, got shape {s.shape}")
    if not np.all(s > 0.0):
        raise ValueError("velocity profile samples must be strictly positive")
    mirrored = s[::-1]
    scale = np.maximum(np.abs(s), np.abs(mirrored))
    if not symmetrize and np.any(np.abs(s - mirrored) > 1e-12 * scale):
        raise ValueError(
            "velocity profile samples are not even in v; pass symmetrize=True "
            "to average mirror cells"
        )
    s = 0.5 * (s + mirrored)
    mass = grid.dv * float(np.sum(s))
    if not 0.0 < mass < math.inf:  # else the normalised profile is not finite
        raise ValueError(f"velocity profile samples must have a finite sum, got mass {mass}")
    values = s / mass
    v = grid.v_centers
    second = grid.dv * float(np.sum(v**2 * values))
    fourth = grid.dv * float(np.sum(v**4 * values))
    return VelocityProfile(values=values, second_moment=second, fourth_moment=fourth)


def discretize_profile(
    profile: Callable[[np.ndarray], np.ndarray],
    grid: GridSpec,
    *,
    symmetrize: bool = False,
) -> VelocityProfile:
    """Sample a velocity density at the cell midpoints and normalize it."""
    return profile_from_samples(
        np.asarray(profile(grid.v_centers), dtype=float), grid, symmetrize=symmetrize
    )


def gaussian_profile(v: np.ndarray) -> np.ndarray:
    """Standard Gaussian weight exp(-v^2/2)/sqrt(2 pi)."""
    return np.exp(-0.5 * np.asarray(v) ** 2) / np.sqrt(2.0 * np.pi)


def heavytail_profile(v: np.ndarray) -> np.ndarray:
    """Algebraic weight 1/(1 + v^4)."""
    return 1.0 / (1.0 + np.asarray(v) ** 4)


def oscillating_profile(v: np.ndarray) -> np.ndarray:
    """Oscillatory positive weight (cos(pi v) + 1.1)/(1 + v^6)."""
    v = np.asarray(v)
    return (np.cos(np.pi * v) + 1.1) / (1.0 + v**6)


NAMED_PROFILES: dict[str, Callable[[np.ndarray], np.ndarray]] = {
    "gaussian": gaussian_profile,
    "heavytail": heavytail_profile,
    "oscillating": oscillating_profile,
}
