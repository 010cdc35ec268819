"""Numerical fluxes and the implicit scheme linearized around the uniform steady state."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grid import (
    GridSpec,
    VelocityProfile,
    backward_gradient,
    centered_gradient,
    second_difference,
)
from .state import SpeciesPair, collision_linear, moments_ujs, weighted_inner

LAX_FRIEDRICHS = "lax-friedrichs"
CENTERED = "centered"
UPWIND = "upwind"
FLUX_NAMES = (LAX_FRIEDRICHS, CENTERED, UPWIND)


@dataclass(frozen=True)
class Flux:
    """Numerical flux for the periodic transport term.

    kind selects the interface weights (see interface_weights); lam is the LF
    diffusion strength (interface jump penalty divided by dv), unused by the
    other kinds.  The LF cell update equals the centered one minus lam*dx
    times the second difference.  Monotone iff lam >= v_star/2.
    """

    kind: str
    lam: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FLUX_NAMES:
            raise ValueError(f"unknown flux kind {self.kind!r}")
        if self.kind == LAX_FRIEDRICHS and self.lam <= 0.0:
            raise ValueError(f"lax_friedrichs flux needs lam > 0, got {self.lam}")
        if self.kind != LAX_FRIEDRICHS and self.lam != 0.0:
            raise ValueError(f"{self.kind} flux takes no lam, got {self.lam}")

    @staticmethod
    def lax_friedrichs(lam: float) -> "Flux":
        return Flux(LAX_FRIEDRICHS, float(lam))

    @staticmethod
    def centered() -> "Flux":
        return Flux(CENTERED)

    @staticmethod
    def upwind() -> "Flux":
        return Flux(UPWIND)


def interface_weights(flux: Flux, grid: GridSpec) -> tuple[np.ndarray, np.ndarray]:
    """Per-velocity weights (a, b) of the interface value F = a*h_i + b*h_{i+1}.

    F is the flux between cells i and i+1 divided by dv.  LF takes
    a = v/2 + lam and b = v/2 - lam, the centered flux being LF with lam = 0;
    upwind takes a = max(v, 0) and b = min(v, 0).  The flux is monotone iff
    a >= 0 >= b at every velocity.
    """
    v = grid.v_centers
    if flux.kind == UPWIND:
        return np.maximum(v, 0.0), np.minimum(v, 0.0)
    return v / 2.0 + flux.lam, v / 2.0 - flux.lam


def flux_divergence(field: np.ndarray, flux: Flux, grid: GridSpec) -> np.ndarray:
    """Per-cell transport update (flux difference over cell area) of one species.

    field has shape (nx, 2*nv).  The difference of interface values keeps a
    constant field exactly stationary.
    """
    a, b = interface_weights(flux, grid)
    right = a * field + b * np.roll(field, -1, axis=0)
    return (right - np.roll(right, 1, axis=0)) / grid.dx


class ImplicitLinearOperator:
    """Backward-Euler step I + dt*(transport - collision), solved per Fourier mode.

    Linearized around the uniform steady state, the operator commutes with
    shifts in x, so an rfft splits it into nx//2+1 separate systems.  In mode
    k, velocity m is diagonal through the symbol of the interface weights
    (a, b), tau_m(k) = (a_m + b_m*e^{i theta})(1 - e^{-i theta})/dx with
    theta = 2*pi*k/nx: D_f = 1 + dt*(tau + 1/rho), D_g = 1 + dt*(tau + rho).
    The reaction couples each species to its partner's site density
    sigma = dv*sum_m h.  Eliminating (sigma_f, sigma_g) leaves a 2x2 system
    per mode with A_f = dv*sum dt*rho*chi1/D_f, A_g = dv*sum (dt/rho)*chi2/D_g
    and det = 1 - A_f*A_g, which never vanishes: Re tau = (a - b)(1 - cos theta)
    >= 0 for every flux, so |D_f| >= 1 + dt/rho and |D_g| >= 1 + dt*rho, and
    with positive unit-mass profiles |A_f*A_g| <= dt^2*rho/((rho + dt)(1 + dt*rho)) < 1.

    The operator is dt times the Jacobian of the nonlinear step at the steady
    state; NonlinearStepper.jacobian reads that Jacobian back as a dense matrix.
    """

    def __init__(
        self,
        grid: GridSpec,
        chi1: VelocityProfile,
        chi2: VelocityProfile,
        rho: float,
        dt: float,
        flux: Flux,
    ) -> None:
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        if rho <= 0.0:
            raise ValueError(f"rho must be positive, got {rho}")
        self.grid = grid
        a, b = interface_weights(flux, grid)
        phase = np.exp(2j * np.pi * np.arange(grid.nx // 2 + 1) / grid.nx)[:, None]
        tau = (a + b * phase) * (1.0 - phase.conj()) / grid.dx
        # Per mode, species (f, g) and velocity; the coupling is the response
        # of each species to a unit site density of its partner.
        self._inv_d = 1.0 / (1.0 + dt * np.stack([tau + 1.0 / rho, tau + rho], axis=1))
        self._coupling = self._inv_d * dt * np.stack([rho * chi1.values, chi2.values / rho])
        self._a = grid.dv * self._coupling.sum(axis=2)
        self._det = 1.0 - self._a[:, :1] * self._a[:, 1:]

    def solve(self, rhs: SpeciesPair) -> SpeciesPair:
        nx, n_vel = rhs.f.shape
        modes = np.fft.rfft(np.hstack([rhs.f, rhs.g]), axis=0).reshape(-1, 2, n_vel)
        modes *= self._inv_d
        p = self.grid.dv * modes.sum(axis=2)
        sigma = (p - self._a * p[:, ::-1]) / self._det  # (sigma_f, sigma_g)
        modes -= self._coupling * sigma[:, ::-1, None]
        out = np.fft.irfft(modes.reshape(-1, 2 * n_vel), n=nx, axis=0)
        return SpeciesPair(out[:, :n_vel], out[:, n_vel:])


def assemble_linear_operator(
    grid: GridSpec,
    chi1: VelocityProfile,
    chi2: VelocityProfile,
    rho: float,
    dt: float,
    flux: Flux,
) -> ImplicitLinearOperator:
    return ImplicitLinearOperator(grid, chi1, chi2, rho, dt, flux)


def residual_linear(
    state_next: SpeciesPair,
    state_prev: SpeciesPair,
    dt: float,
    flux: Flux,
    chi1: VelocityProfile,
    chi2: VelocityProfile,
    rho: float,
    grid: GridSpec,
) -> SpeciesPair:
    """Pointwise defect of the implicit linear scheme, via the stencil path."""
    coll = collision_linear(state_next, rho, chi1, chi2, grid)
    rf = (
        (state_next.f - state_prev.f) / dt
        + flux_divergence(state_next.f, flux, grid)
        - coll.f
    )
    rg = (
        (state_next.g - state_prev.g) / dt
        + flux_divergence(state_next.g, flux, grid)
        - coll.g
    )
    return SpeciesPair(rf, rg)


def verify_moment_schemes(
    state_prev: SpeciesPair,
    state_next: SpeciesPair,
    grid: GridSpec,
    rho: float,
    d0: float,
    dt: float,
    lam: float,
    density_shift: tuple[np.ndarray | float, np.ndarray | float] = (0.0, 0.0),
) -> tuple[float, float]:
    """Max-norm defects of the density- and current-difference updates.

    Both vanish identically (up to rounding) when the two states are
    consecutive iterates of the implicit LF scheme with diffusion strength
    lam: the velocity averages of the kinetic update close exactly on
    (u, j, s) because the profiles carry unit mass and no first moment.
    For the full system the states are deviations from equilibrium and
    density_shift holds the new site densities minus their steady levels,
    (rho_f - rho, rho_g - 1/rho), which add the bilinear current term.
    """
    u_p, j_p, _ = moments_ujs(state_prev.f - state_prev.g, grid, d0)
    u_n, j_n, s_n = moments_ujs(state_next.f - state_next.g, grid, d0)
    _, jf_n, _ = moments_ujs(state_next.f, grid, d0)
    _, jg_n, _ = moments_ujs(state_next.g, grid, d0)

    res_u = (
        (u_n - u_p) / dt
        + centered_gradient(j_n, grid)
        - lam * grid.dx * second_difference(u_n, grid)
    )
    res_j = (
        (j_n - j_p) / dt
        + centered_gradient(s_n, grid)
        + d0 * centered_gradient(u_n, grid)
        - lam * grid.dx * second_difference(j_n, grid)
        + (jf_n / rho - rho * jg_n)
        + (density_shift[1] * jf_n - density_shift[0] * jg_n)
    )
    return float(np.max(np.abs(res_u))), float(np.max(np.abs(res_j)))


def transport_quadratic_form(
    state: SpeciesPair,
    flux: Flux,
    chi1: VelocityProfile,
    chi2: VelocityProfile,
    rho: float,
    grid: GridSpec,
) -> float:
    """Weighted inner product of the transport update with the state itself.

    Zero for the centered flux (skew transport), nonnegative for LF; the
    difference between the LF and centered forms is the explicit gradient
    dissipation returned by lax_friedrichs_dissipation.
    """
    div = SpeciesPair(
        flux_divergence(state.f, flux, grid), flux_divergence(state.g, flux, grid)
    )
    return weighted_inner(div, state, chi1, chi2, rho, grid)


def lax_friedrichs_dissipation(
    state: SpeciesPair,
    lam: float,
    chi1: VelocityProfile,
    chi2: VelocityProfile,
    rho: float,
    grid: GridSpec,
) -> float:
    """Gradient dissipation added by the LF interface penalty.

    Equals lam*dx times the weighted square norm of the one-sided spatial
    gradient, which is exactly the difference between the LF and centered
    transport quadratic forms (summation by parts turns the second-difference
    penalty into -||backward gradient||^2; the two one-sided gradients have
    equal norms on the periodic grid).
    """
    gf = backward_gradient(state.f, grid)
    gg = backward_gradient(state.g, grid)
    quad = float(
        np.sum(gf**2 / (rho * chi1.values) + gg**2 * (rho / chi2.values))
    )
    return lam * grid.dx * grid.dx * grid.dv * quad
