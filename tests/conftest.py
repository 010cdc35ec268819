"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np

from kinrec.grid import (
    GridSpec,
    build_grid,
    discretize_profile,
    gaussian_profile,
    heavytail_profile,
    oscillating_profile,
)
from kinrec.linear import CENTERED, LAX_FRIEDRICHS, UPWIND, Flux
from kinrec.nonlinear import NonlinearStepper
from kinrec.state import SpeciesPair, build_equilibrium


def make_grid(torus_length=1.0, nx=7, nv=3, v_star=3.0) -> GridSpec:
    return build_grid(torus_length, nx, nv, v_star)


def dense_poisson(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Dense oracle for the mean-free wide-stencil Poisson problem.

    Solves the (nx+1)^2 bordered system [[Dc Dc, 1], [dx, 0]] (phi, mu) =
    (-u, 0), which appends the zero-mean constraint with a Lagrange
    multiplier, entry by entry and independent of any Fourier argument.
    """
    n = grid.nx
    idx = np.arange(n)
    a = np.zeros((n + 1, n + 1))
    coef = 1.0 / (4.0 * grid.dx**2)
    a[idx, (idx + 2) % n] += coef
    a[idx, (idx - 2) % n] += coef
    a[idx, idx] -= 2.0 * coef
    a[:n, n] = 1.0
    a[n, :n] = grid.dx
    return np.linalg.solve(a, np.concatenate([-u, [0.0]]))[:n]


def make_profiles(grid: GridSpec):
    """An asymmetric pair so species-1/species-2 mixups cannot cancel."""
    return (
        discretize_profile(heavytail_profile, grid),
        discretize_profile(oscillating_profile, grid),
    )


def make_gaussian(grid: GridSpec):
    return discretize_profile(gaussian_profile, grid)


def random_pair(grid: GridSpec, rng: np.random.Generator, scale=1.0) -> SpeciesPair:
    shape = (grid.nx, grid.n_vel)
    return SpeciesPair(scale * rng.standard_normal(shape), scale * rng.standard_normal(shape))


def random_positive_pair(grid: GridSpec, rng: np.random.Generator) -> SpeciesPair:
    shape = (grid.nx, grid.n_vel)
    return SpeciesPair(rng.uniform(0.2, 2.0, shape), rng.uniform(0.2, 2.0, shape))


def norm2(field: np.ndarray, grid: GridSpec) -> float:
    """Spatial l2 norm with the cell-size weight, sqrt(dx * sum(field^2))."""
    return float(np.sqrt(grid.dx * np.sum(np.asarray(field) ** 2)))


def interface_flux(h_left: float, h_right: float, v: float, flux: Flux) -> float:
    """Reference two-point interface flux, written directly from the formulas."""
    if flux.kind == CENTERED:
        return 0.5 * v * (h_left + h_right)
    if flux.kind == LAX_FRIEDRICHS:
        return 0.5 * v * (h_left + h_right) - flux.lam * (h_right - h_left)
    if v >= 0.0:
        return v * h_left
    return v * h_right


def naive_flux_divergence(field: np.ndarray, flux: Flux, grid: GridSpec) -> np.ndarray:
    """Loop-based reference for the per-cell transport update."""
    nx, nvel = field.shape
    out = np.zeros_like(field)
    for i in range(nx):
        for m in range(nvel):
            v = grid.v_centers[m]
            right = interface_flux(field[i, m], field[(i + 1) % nx, m], v, flux)
            left = interface_flux(field[(i - 1) % nx, m], field[i, m], v, flux)
            out[i, m] = (right - left) / grid.dx
    return out


def dense_reference_operator(grid, chi1, chi2, rho, dt, flux) -> np.ndarray:
    """Brute-force dense assembly of the implicit linearized one-step matrix.

    Index layout matches the solver: per species, unknown (i, m) sits at
    i*2*nv + m; species one occupies the first block of the stacked vector.
    Built entry by entry from the scheme formulas with explicit loops, as an
    oracle independent of any sparse kron construction.
    """
    nx, nvel = grid.nx, grid.n_vel
    n = nx * nvel
    a = np.zeros((2 * n, 2 * n))

    def at(species: int, i: int, m: int) -> int:
        return species * n + (i % nx) * nvel + m

    for i in range(nx):
        for m in range(nvel):
            v = grid.v_centers[m]
            for s in (0, 1):
                row = at(s, i, m)
                a[row, row] += 1.0
                # Transport stencil from the interface formulas.
                if flux.kind in (CENTERED, LAX_FRIEDRICHS):
                    a[row, at(s, i + 1, m)] += dt * v / (2.0 * grid.dx)
                    a[row, at(s, i - 1, m)] -= dt * v / (2.0 * grid.dx)
                    if flux.kind == LAX_FRIEDRICHS:
                        coef = dt * flux.lam / grid.dx
                        a[row, at(s, i + 1, m)] -= coef
                        a[row, at(s, i, m)] += 2.0 * coef
                        a[row, at(s, i - 1, m)] -= coef
                else:
                    if v >= 0.0:
                        a[row, at(s, i, m)] += dt * v / grid.dx
                        a[row, at(s, i - 1, m)] -= dt * v / grid.dx
                    else:
                        a[row, at(s, i + 1, m)] += dt * v / grid.dx
                        a[row, at(s, i, m)] -= dt * v / grid.dx
            # Linearized reaction: -dt * L, with
            # (L F)_f = -rho*chi1[m]*rho_g[i] - f[i,m]/rho,
            # (L F)_g = -chi2[m]*rho_f[i]/rho - rho*g[i,m].
            row_f = at(0, i, m)
            row_g = at(1, i, m)
            a[row_f, row_f] += dt / rho
            a[row_g, row_g] += dt * rho
            for mp in range(nvel):
                a[row_f, at(1, i, mp)] += dt * rho * chi1.values[m] * grid.dv
                a[row_g, at(0, i, mp)] += dt * chi2.values[m] * grid.dv / rho
    return a


def linear_step_matrix(grid, chi1, chi2, rho, dt, flux) -> np.ndarray:
    """Dense matrix of the linear backward-Euler step, as the solver states it.

    dt times the nonlinear Newton Jacobian at the uniform steady state, read
    column by column from the product Newton's GMRES uses, for comparison
    with the per-mode solve and with dense_reference_operator.
    """
    equilibrium = build_equilibrium(rho, chi1, chi2, grid).state
    return dt * NonlinearStepper(grid, chi1, chi2, flux).jacobian(equilibrium, dt)
