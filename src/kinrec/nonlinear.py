"""Implicit scheme for the full generation-recombination system, solved by Newton."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .grid import GridSpec, VelocityProfile
from .linear import Flux, ImplicitLinearOperator, interface_weights, verify_moment_schemes
from .state import (
    EquilibriumData,
    SpeciesPair,
    macroscopic_densities,
    mass_difference,
    stack_pair,
    unstack_pair,
)


class NewtonDivergedError(RuntimeError):
    """Newton failed to deliver an acceptable state; the caller may shrink dt."""


class StepFailedError(RuntimeError):
    """Adaptive stepping reached dt_min without producing an acceptable state."""


@dataclass(frozen=True)
class NewtonConfig:
    tol_residual: float = 1e-11
    max_iterations: int = 25
    # Relative per-step tolerance on the conserved mass difference, which
    # every flux conserves, the centered one included.
    mass_diff_drift_tol: float = 1e-10

    def __post_init__(self) -> None:
        if self.tol_residual <= 0.0:
            raise ValueError(f"tol_residual must be positive, got {self.tol_residual}")
        if self.max_iterations < 1:
            raise ValueError(f"max_iterations must be >= 1, got {self.max_iterations}")
        if self.mass_diff_drift_tol <= 0.0:
            raise ValueError(
                f"mass_diff_drift_tol must be positive, got {self.mass_diff_drift_tol}"
            )


# Step-size rule of the nonlinear march: grow after an accept within the
# iteration budget, shrink after a reject.
DT_GROWTH = 2.0
DT_SHRINK = 0.5
ACCEPT_ITERATION_BUDGET = 8

# Newton's linear solve: GMRES accepts an update once the true residual is
# this small relative to the Newton residual, and gives up after this many
# iterations (the basis is kept whole, with no restart).
KRYLOV_TOL = 1e-12
KRYLOV_MAX_ITERATIONS = 40


@dataclass(frozen=True)
class AdaptiveController:
    """Bounds on the step size of the nonlinear march."""

    dt_min: float
    dt_max: float

    def __post_init__(self) -> None:
        if not 0.0 < self.dt_min <= self.dt_max:
            raise ValueError(
                f"need 0 < dt_min <= dt_max, got {self.dt_min}, {self.dt_max}"
            )


@dataclass(frozen=True)
class BoundsEnvelope:
    """Two-sided control band around the uniform steady state.

    Species one is confined to [(rho-gamma1)*chi1, (rho+gamma2)*chi1] and
    species two to the reciprocal band [chi2/(rho+gamma2), chi2/(rho-gamma1)].
    A monotone flux (LF with lam >= v_star/2, or upwind) propagates the band.
    """

    gamma1: float
    gamma2: float

    def __post_init__(self) -> None:
        if self.gamma1 <= 0.0 or self.gamma2 <= 0.0:
            raise ValueError(f"gammas must be positive, got {self.gamma1}, {self.gamma2}")

    def levels(self, rho: float) -> tuple[float, float, float, float]:
        """(f_low, f_high, g_low, g_high) multipliers of the two profiles."""
        if self.gamma1 >= rho:
            raise ValueError(f"gamma1={self.gamma1} must stay below rho={rho}")
        return (
            rho - self.gamma1,
            rho + self.gamma2,
            1.0 / (rho + self.gamma2),
            1.0 / (rho - self.gamma1),
        )


def truncate_state(
    cells: np.ndarray,
    envelope: BoundsEnvelope,
    rho: float,
    chi1: VelocityProfile,
    chi2: VelocityProfile,
) -> np.ndarray:
    """Clamp the (2, nx, 2*nv) cells of both species into the envelope, cell by cell."""
    f_lo, f_hi, g_lo, g_hi = envelope.levels(rho)
    low = np.stack([f_lo * chi1.values, g_lo * chi2.values])[:, None]
    high = np.stack([f_hi * chi1.values, g_hi * chi2.values])[:, None]
    return np.clip(cells, low, high)


@dataclass(frozen=True)
class BoundsReport:
    """Extreme profile-relative levels of a state against an envelope."""

    f_ratio_min: float
    f_ratio_max: float
    g_ratio_min: float
    g_ratio_max: float
    passed: bool


def check_maximum_principle(
    state: SpeciesPair,
    envelope: BoundsEnvelope,
    rho: float,
    chi1: VelocityProfile,
    chi2: VelocityProfile,
    rtol: float = 1e-11,
) -> BoundsReport:
    f_lo, f_hi, g_lo, g_hi = envelope.levels(rho)
    rf = state.f / chi1.values
    rg = state.g / chi2.values
    f_min, f_max = float(rf.min()), float(rf.max())
    g_min, g_max = float(rg.min()), float(rg.max())
    slack_f = rtol * max(1.0, abs(f_lo), abs(f_hi))
    slack_g = rtol * max(1.0, abs(g_lo), abs(g_hi))
    passed = (
        f_min >= f_lo - slack_f
        and f_max <= f_hi + slack_f
        and g_min >= g_lo - slack_g
        and g_max <= g_hi + slack_g
    )
    return BoundsReport(f_min, f_max, g_min, g_max, passed)


def transport_pair(flux: Flux, grid: GridSpec) -> tuple[sp.csr_matrix, sp.csr_matrix]:
    """The conservative transport of both species, in stack_pair layout, as (F, D).

    F maps h to the interface values a_m*h_i + b_m*h_{i+1}, with the weights
    (a, b) of interface_weights; D maps interface values to the periodic
    difference F_i - F_{i-1}.  D @ (F @ u) / dx is flux_divergence of both
    species, bit for bit.
    """
    a, b = interface_weights(flux, grid)
    up = sp.eye(grid.nx, k=1) + sp.eye(grid.nx, k=1 - grid.nx)  # periodic: picks cell i+1
    both_up = sp.kron(sp.eye(2), up)
    interfaces = (sp.kron(sp.eye(2 * grid.nx), sp.diags(a)) + sp.kron(both_up, sp.diags(b))).tocsr()
    interfaces.eliminate_zeros()  # upwind has a = 0 or b = 0 at every velocity
    difference = sp.eye(2 * grid.n_unknowns) - sp.kron(both_up.T, sp.eye(grid.n_vel))
    return interfaces, difference.tocsr()


def gmres(
    apply: Callable[[np.ndarray], np.ndarray],
    precondition: Callable[[np.ndarray], np.ndarray],
    rhs: np.ndarray,
    tol: float,
    max_iterations: int,
) -> tuple[np.ndarray, int]:
    """Solve apply(x) = rhs by right-preconditioned GMRES from zero, without restart.

    Returns x with |rhs - apply(x)| <= tol*|rhs| in the 2-norm and the number
    of iterations; x is a combination of precondition(v) over the Krylov
    basis v.  The Givens estimate of the residual only triggers the
    check; the residual checked is recomputed from x.  Raises
    NewtonDivergedError when max_iterations pass without meeting tol.
    """
    beta = float(np.linalg.norm(rhs))
    if beta == 0.0:
        return np.zeros_like(rhs), 0
    basis = np.empty((max_iterations + 1, rhs.size))
    search = np.empty((max_iterations, rhs.size))
    hess = np.zeros((max_iterations + 1, max_iterations))
    cos, sin = np.zeros(max_iterations), np.zeros(max_iterations)
    g = np.zeros(max_iterations + 1)
    g[0] = beta
    basis[0] = rhs / beta
    for k in range(max_iterations):
        search[k] = precondition(basis[k])
        w = apply(search[k])
        for _ in range(2):  # classical Gram-Schmidt, repeated to stay orthogonal
            h = basis[: k + 1] @ w
            w -= h @ basis[: k + 1]
            hess[: k + 1, k] += h
        h_next = float(np.linalg.norm(w))
        for j in range(k):
            hess[j, k], hess[j + 1, k] = (
                cos[j] * hess[j, k] + sin[j] * hess[j + 1, k],
                cos[j] * hess[j + 1, k] - sin[j] * hess[j, k],
            )
        r = math.hypot(hess[k, k], h_next)
        cos[k], sin[k] = hess[k, k] / r, h_next / r
        hess[k, k] = r
        g[k + 1] = -sin[k] * g[k]
        g[k] *= cos[k]
        if abs(g[k + 1]) <= tol * beta:
            y = np.linalg.solve(hess[: k + 1, : k + 1], g[: k + 1])
            x = y @ search[: k + 1]
            if np.linalg.norm(rhs - apply(x)) <= tol * beta:
                return x, k + 1
        basis[k + 1] = w / h_next
    raise NewtonDivergedError(
        f"GMRES missed relative residual {tol:.1e} in {max_iterations} iterations"
    )


class NonlinearStepper:
    """Newton driver with a fixed grid, flux, profile pair and equilibrium level.

    States are stack_pair vectors.  The transport is the pair (F, D) of
    transport_pair, built once here: the residual applies D @ (F @ u) / dx,
    and Jacobian products apply their product (D @ F) / dx, formed once.
    Each Newton update is solved by GMRES; its products with the Jacobian
    are that transport plus the reaction's derivative: a diagonal and, per
    site, a rank-one sum over velocities.  The preconditioner is the linear
    step at the uniform steady state of rho, solved per Fourier mode.
    krylov_iterations lists the GMRES iterations of every Newton update.

    rho is the run's equilibrium level, fixed by its conserved mass
    difference; the truncated collision clamps into the envelope around it.
    """

    def __init__(
        self,
        grid: GridSpec,
        chi1: VelocityProfile,
        chi2: VelocityProfile,
        flux: Flux,
        rho: float,
        envelope: BoundsEnvelope | None = None,
    ) -> None:
        self.grid = grid
        self.chi1 = chi1
        self.chi2 = chi2
        self.flux = flux
        self.rho = rho
        self.envelope = envelope
        self._cells = (2, grid.nx, grid.n_vel)
        self._sources = np.stack([chi1.values, chi2.values])[:, None]
        self._interfaces, self._difference = transport_pair(flux, grid)
        transport = self._difference @ self._interfaces / grid.dx
        transport.eliminate_zeros()  # the centered flux has a = b
        transport.sort_indices()  # fixes the order in which each row sums
        self._transport = transport
        self._preconditioner: tuple[float, ImplicitLinearOperator] | None = None
        self.krylov_iterations: list[int] = []

    def _reaction_state(self, cells: np.ndarray) -> np.ndarray:
        """The (2, nx, 2*nv) cells the reaction is evaluated at: clamped if truncated."""
        if self.envelope is None:
            return cells
        return truncate_state(cells, self.envelope, self.rho, self.chi1, self.chi2)

    def residual(self, u: np.ndarray, u_prev: np.ndarray, dt: float) -> np.ndarray:
        """Pointwise defect of the backward-Euler step of

            d/dt f + v d/dx f = chi1 - rho_g f,
            d/dt g + v d/dx g = chi2 - rho_f g,

        all reaction terms evaluated at the new state u.  With an envelope,
        the reaction uses the clamped state (truncated scheme); transport and
        the time increment always use the raw one.
        """
        if dt <= 0.0:
            raise ValueError(f"dt must be positive, got {dt}")
        eff = self._reaction_state(u.reshape(self._cells))
        reaction = self._sources - self.grid.dv * eff.sum(axis=2)[::-1, :, None] * eff
        transport = self._difference @ (self._interfaces @ u) / self.grid.dx
        return (u - u_prev) / dt + transport - reaction.ravel()

    def _jacobian_product(self, u: np.ndarray, dt: float) -> Callable[[np.ndarray], np.ndarray]:
        """v -> J v, the exact derivative of the residual at the candidate new state u.

        J v = T v + (1/dt + rho_partner*mask) v + eff * (dv sum_m mask*v)_partner,
        with T = (D @ F) / dx, eff the state the reaction is evaluated at and
        rho its site densities.  With an envelope, eff is the clamped state
        and mask is 1 where the clamp leaves a cell as it is and 0 where it
        moves it (no derivative through the clamp); with none, eff is the
        state and mask is 1.
        """
        dv = self.grid.dv
        raw = u.reshape(self._cells)
        eff = self._reaction_state(raw)
        mask = 1.0 if eff is raw else (eff == raw).astype(float)
        diagonal = 1.0 / dt + dv * eff.sum(axis=2)[::-1, :, None] * mask

        def apply(v: np.ndarray) -> np.ndarray:
            cells = v.reshape(self._cells)
            site = dv * (mask * cells).sum(axis=2)
            return self._transport @ v + (diagonal * cells + eff * site[::-1, :, None]).ravel()

        return apply

    def jacobian(self, u: np.ndarray, dt: float) -> np.ndarray:
        """Dense Jacobian, read column by column from the product GMRES uses.

        For small grids.  At the steady state, dt times it is the linear step
        of ImplicitLinearOperator.
        """
        apply = self._jacobian_product(u, dt)
        return np.column_stack([apply(e) for e in np.eye(u.size)])

    def steady_step(self, dt: float) -> ImplicitLinearOperator:
        """Linear step at the steady state of rho, kept per dt.

        It is dt times the Jacobian at that steady state, so dt times its
        solve approximates J^{-1} while the state stays near equilibrium.
        """
        if self._preconditioner is None or self._preconditioner[0] != dt:
            op = ImplicitLinearOperator(self.grid, self.chi1, self.chi2, self.rho, dt, self.flux)
            self._preconditioner = (dt, op)
        return self._preconditioner[1]

    def newton_update(
        self,
        u: np.ndarray,
        res: np.ndarray,
        dt: float,
        preconditioner: ImplicitLinearOperator,
    ) -> np.ndarray:
        """Newton increment -J^{-1} res at u, by GMRES preconditioned with dt*solve.

        Raises NewtonDivergedError when GMRES misses KRYLOV_TOL within
        KRYLOV_MAX_ITERATIONS.
        """
        delta, iterations = gmres(
            self._jacobian_product(u, dt),
            lambda v: dt * stack_pair(preconditioner.solve(unstack_pair(v, self.grid))),
            -res,
            KRYLOV_TOL,
            KRYLOV_MAX_ITERATIONS,
        )
        self.krylov_iterations.append(iterations)
        return delta

    def newton(
        self, state_prev: SpeciesPair, dt: float, cfg: NewtonConfig
    ) -> tuple[SpeciesPair, int]:
        """Solve the implicit step; returns the new state and iteration count.

        Starts from the previous state.  Raises NewtonDivergedError when the
        iteration budget is exhausted or when the converged state moved the
        conserved mass difference too far.
        """
        u_prev = stack_pair(state_prev)
        u = u_prev
        res = self.residual(u, u_prev, dt)
        res_norm = np.max(np.abs(res))
        iterations = 0
        preconditioner = self.steady_step(dt)
        while res_norm > cfg.tol_residual:
            if iterations >= cfg.max_iterations:
                raise NewtonDivergedError(
                    f"residual {res_norm:.3e} after {iterations} iterations "
                    f"(tol {cfg.tol_residual:.3e}, dt {dt:.3e})"
                )
            delta = self.newton_update(u, res, dt, preconditioner)
            if not np.all(np.isfinite(delta)):
                raise NewtonDivergedError(f"non-finite Newton update at dt {dt:.3e}")
            u = u + delta
            res = self.residual(u, u_prev, dt)
            res_norm = np.max(np.abs(res))
            if not math.isfinite(res_norm):
                raise NewtonDivergedError(f"non-finite residual at dt {dt:.3e}")
            iterations += 1
        state = unstack_pair(u, self.grid)
        m_prev = mass_difference(state_prev, self.grid)
        drift = abs(mass_difference(state, self.grid) - m_prev)
        if drift > cfg.mass_diff_drift_tol * (1.0 + abs(m_prev)):
            raise NewtonDivergedError(
                f"mass-difference drift {drift:.3e} exceeds tolerance at dt {dt:.3e}"
            )
        return state, iterations


def verify_moment_schemes_nonlinear(
    state_prev: SpeciesPair,
    state_next: SpeciesPair,
    equilibrium: EquilibriumData,
    grid: GridSpec,
    dt: float,
    lam: float,
) -> tuple[float, float]:
    """Max-norm defects of the deviation density- and current-difference updates.

    Velocity-averaging one implicit LF step of the full system closes exactly
    on the moments of the deviation from equilibrium: the density-difference
    update is conservative, and the current-difference update picks up the
    linearized damping plus a bilinear correction weighted by the new
    densities' distance to their steady levels.  Both defects vanish up to
    the Newton residual left in the step.
    """
    rho, eq = equilibrium.rho, equilibrium.state
    rho_f, rho_g = macroscopic_densities(state_next, grid)
    shift = (rho_f - rho, rho_g - 1.0 / rho)
    return verify_moment_schemes(
        state_prev - eq, state_next - eq, grid, rho, equilibrium.d0, dt, lam, shift
    )


@dataclass(frozen=True)
class StepResult:
    state: SpeciesPair
    dt_used: float
    next_dt: float
    newton_iterations: int


def adaptive_advance(
    state_prev: SpeciesPair,
    dt: float,
    controller: AdaptiveController,
    cfg: NewtonConfig,
    stepper: NonlinearStepper,
) -> StepResult:
    """Advance one accepted step from an attempt of dt, shrinking on Newton failure.

    The accepted step grows the next dt, up to dt_max, only when Newton took
    at most ACCEPT_ITERATION_BUDGET iterations; a rejection shrinks dt down
    to dt_min.  A failure at or below dt_min raises StepFailedError.
    """
    while True:
        try:
            state, iterations = stepper.newton(state_prev, dt, cfg)
        except NewtonDivergedError as exc:
            if dt <= controller.dt_min * (1.0 + 1e-12):
                raise StepFailedError(
                    f"no acceptable step above dt_min={controller.dt_min}: {exc}"
                ) from exc
            dt = max(dt * DT_SHRINK, controller.dt_min)
            continue
        if iterations <= ACCEPT_ITERATION_BUDGET:
            next_dt = min(dt * DT_GROWTH, controller.dt_max)
        else:
            next_dt = dt
        return StepResult(state, dt, next_dt, iterations)
