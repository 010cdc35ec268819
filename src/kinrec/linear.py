"""Numerical fluxes and the implicit scheme linearized around the uniform steady state."""

from __future__ import annotations

import copy
import functools
from dataclasses import dataclass

import numpy as np

from .grid import GridSpec, VelocityProfile
from .state import irfft_pair, rfft_pair

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
    times the second difference.  Monotone iff lam >= v_star/2.  Unchecked:
    validate_config keeps lam > 0 for LF and 0 for the other kinds.
    """

    kind: str
    lam: float = 0.0


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


def transport_symbol(flux: Flux, grid: GridSpec) -> np.ndarray:
    """Per-mode symbol of the transport stencil, shape (nx//2+1, 2*nv): mode, velocity.

    The stencil updates cell i by (F_{i+1/2} - F_{i-1/2})/dx, F_{i+1/2} =
    a*h_i + b*h_{i+1} with (a, b) the interface weights, so tau_m(k) = (a_m +
    b_m*e^{i theta})(1 - e^{-i theta})/dx with theta = 2*pi*k/nx; Re tau =
    (a - b)(1 - cos theta) >= 0 for every flux.
    """
    a, b = interface_weights(flux, grid)
    phase = np.exp(2j * np.pi * np.arange(grid.nx // 2 + 1) / grid.nx)[:, None]
    return (a + b * phase) * (1.0 - phase.conj()) / grid.dx


@functools.lru_cache(maxsize=8)
def _site_sum_vector(n_vel: int, dv: float) -> np.ndarray:
    """dv per velocity, read-only: modes @ it gives each mode's site sums.

    The stacked product is one small product per mode, so a mode's sums
    keep their bits wherever the mode sits (ImplicitLinearOperator.on_modes).
    """
    vector = np.full(n_vel, dv, dtype=complex)
    vector.flags.writeable = False
    return vector


class ImplicitLinearOperator:
    """Backward-Euler step with coefficients constant in x, solved per Fourier mode.

    The step maps a state h = (f, g) to h_s + dt*(T h_s + d_s w_s h_s + c_s sigma_s')
    per species s with partner s': T is the transport, d_s the reaction's
    diagonal, c_s the velocity profile of its coupling to the partner's site
    density sigma = dv*sum_m w h, and w the weights of that site sum and of
    the diagonal, 1 when weights is None.  diagonal is shape (2, 1), coupling
    and weights (2, 2*nv).  Nothing depends on x, so an rfft splits the step
    into nx//2+1 separate systems.  In mode k, velocity m is diagonal through
    the transport's symbol tau (transport_symbol): D_s = 1 + dt*(tau + d_s w_s).
    Eliminating (sigma_f, sigma_g) leaves a 2x2 system per mode with
    A_s = dv*sum w_s*dt*c_s/D_s and det = 1 - A_f*A_g.

    assemble_linear_operator linearizes the scheme around the uniform steady
    state of rho: d = (1/rho, rho), c = (rho*chi1, chi2/rho), w = 1.  There
    det never vanishes: Re tau >= 0, so |D_f| >= 1 + dt/rho and |D_g| >=
    1 + dt*rho, and with positive unit-mass profiles
    |A_f*A_g| <= dt^2*rho/((rho + dt)(1 + dt*rho)) < 1.  That step is dt
    times the Jacobian of the nonlinear step at the steady state, which
    NonlinearStepper.jacobian reads back as a dense matrix.  dt > 0 is unchecked.
    """

    def __init__(
        self,
        grid: GridSpec,
        tau: np.ndarray,
        dt: float,
        diagonal: np.ndarray,
        coupling: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        self.grid = grid
        self._weights = weights
        self._dv = _site_sum_vector(grid.n_vel, grid.dv)
        if weights is not None:
            diagonal = diagonal * weights
        # Per mode, species (f, g) and velocity, 1/(1 + dt*(tau + d)) built in
        # place; the coupling is the response of each species to a unit site
        # density of its partner.
        inv_d = tau[:, None, :] + diagonal
        inv_d *= dt
        inv_d += 1.0
        self._inv_d = np.divide(1.0, inv_d, out=inv_d)
        self._coupling = inv_d * (dt * coupling)
        weighted = self._coupling if weights is None else self._coupling * weights
        self._a = weighted @ self._dv
        self._det = 1.0 - self._a[:, :1] * self._a[:, 1:]

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        """Solve for a state, or its ravel(); the solution is a new array of rhs's shape."""
        grid = self.grid
        modes = rfft_pair(rhs.reshape(2, grid.nx, grid.n_vel))
        self.solve_modes(modes)
        return irfft_pair(modes, grid.nx).reshape(rhs.shape)

    def solve_modes(self, modes: np.ndarray) -> None:
        """Overwrite the rfft_pair modes of a right-hand side with those of the solution."""
        modes *= self._inv_d
        weighted = modes if self._weights is None else modes * self._weights
        p = weighted @ self._dv
        sigma = (p - self._a * p[:, ::-1]) / self._det  # (sigma_f, sigma_g)
        modes -= self._coupling * sigma[:, ::-1, None]

    def on_modes(self, keep: np.ndarray) -> "ImplicitLinearOperator":
        """This operator for solve_modes on the modes keep (a mask or index) selects; no solve."""
        op = copy.copy(self)
        op._inv_d, op._coupling, op._a, op._det = (
            x[keep] for x in (self._inv_d, self._coupling, self._a, self._det)
        )
        return op


def assemble_linear_operator(
    grid: GridSpec,
    chi1: VelocityProfile,
    chi2: VelocityProfile,
    rho: float,
    dt: float,
    flux: Flux,
) -> ImplicitLinearOperator:
    """The scheme's step linearized around the uniform steady state of rho."""
    diagonal = np.array([[1.0 / rho], [rho]])
    coupling = np.stack([rho * chi1.values, chi2.values / rho])
    return ImplicitLinearOperator(grid, transport_symbol(flux, grid), dt, diagonal, coupling)
