"""Implicit scheme for the full generation-recombination system, solved by Newton."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse as sp

from .grid import GridSpec, VelocityProfile
from .linear import (
    Flux,
    ImplicitLinearOperator,
    flux_divergence,
    interface_weights,
    verify_moment_schemes,
)
from .state import (
    EquilibriumData,
    SpeciesPair,
    equilibrium_rho_from_state,
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
    state: SpeciesPair,
    envelope: BoundsEnvelope,
    rho: float,
    chi1: VelocityProfile,
    chi2: VelocityProfile,
) -> SpeciesPair:
    """Clamp both species into the envelope, cell by cell."""
    f_lo, f_hi, g_lo, g_hi = envelope.levels(rho)
    return SpeciesPair(
        np.clip(state.f, f_lo * chi1.values, f_hi * chi1.values),
        np.clip(state.g, g_lo * chi2.values, g_hi * chi2.values),
    )


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


def _collision_terms(
    state: SpeciesPair,
    chi1: VelocityProfile,
    chi2: VelocityProfile,
    grid: GridSpec,
    envelope: BoundsEnvelope | None,
    rho: float | None,
) -> tuple[np.ndarray, np.ndarray, SpeciesPair]:
    """Densities entering the collision term and the (possibly clamped) state."""
    if envelope is None:
        eff = state
    else:
        if rho is None:
            raise ValueError("truncated collision needs the equilibrium rho")
        eff = truncate_state(state, envelope, rho, chi1, chi2)
    rho_f = grid.dv * eff.f.sum(axis=1)
    rho_g = grid.dv * eff.g.sum(axis=1)
    return rho_f, rho_g, eff


def residual_nonlinear(
    state_next: SpeciesPair,
    state_prev: SpeciesPair,
    dt: float,
    flux: Flux,
    chi1: VelocityProfile,
    chi2: VelocityProfile,
    grid: GridSpec,
    envelope: BoundsEnvelope | None = None,
    rho: float | None = None,
) -> SpeciesPair:
    """Pointwise defect of the backward-Euler step of

        d/dt f + v d/dx f = chi1 - rho_g f,
        d/dt g + v d/dx g = chi2 - rho_f g,

    all reaction terms evaluated at the new state.  With an envelope, the
    reaction uses the clamped state (truncated scheme); transport and the
    time increment always use the raw one.
    """
    if dt <= 0.0:
        raise ValueError(f"dt must be positive, got {dt}")
    rho_f, rho_g, eff = _collision_terms(state_next, chi1, chi2, grid, envelope, rho)
    rf = (
        (state_next.f - state_prev.f) / dt
        + flux_divergence(state_next.f, flux, grid)
        - (chi1.values - rho_g[:, None] * eff.f)
    )
    rg = (
        (state_next.g - state_prev.g) / dt
        + flux_divergence(state_next.g, flux, grid)
        - (chi2.values - rho_f[:, None] * eff.g)
    )
    return SpeciesPair(rf, rg)


def transport_matrix(flux: Flux, grid: GridSpec) -> sp.csr_matrix:
    """Sparse flux divergence of both species, in stack_pair layout.

    Row (i, m) of either species holds -a_m/dx at cell i-1, (a_m - b_m)/dx at
    i and b_m/dx at i+1, from the interface weights (a, b) of flux_divergence.
    """
    a, b = interface_weights(flux, grid)
    up = sp.eye(grid.nx, k=1) + sp.eye(grid.nx, k=1 - grid.nx)  # periodic: picks cell i+1
    one = (
        sp.kron(up, sp.diags(b))
        - sp.kron(up.T, sp.diags(a))
        + sp.kron(sp.eye(grid.nx), sp.diags(a - b))
    )
    matrix = sp.kron(sp.eye(2), one / grid.dx, format="csr")
    matrix.eliminate_zeros()  # upwind has a = 0 or b = 0 at every velocity
    return matrix


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
    """Newton driver with a fixed grid, flux, and profile pair.

    Each Newton update is solved by GMRES.  Its products with the Jacobian
    are the constant transport matrix, built once here, plus the reaction's
    derivative: a diagonal and, per site, a rank-one sum over velocities.
    The preconditioner is the linear step at the uniform steady state,
    solved per Fourier mode.  krylov_iterations lists the GMRES iterations
    of every Newton update.

    rho is the run's equilibrium level, fixed by its conserved mass
    difference.  The truncated collision needs it, and the preconditioner
    is built at it.  Without it, each preconditioner is built at the level
    of the state it is looked up for.
    """

    def __init__(
        self,
        grid: GridSpec,
        chi1: VelocityProfile,
        chi2: VelocityProfile,
        flux: Flux,
        envelope: BoundsEnvelope | None = None,
        rho: float | None = None,
    ) -> None:
        self.grid = grid
        self.chi1 = chi1
        self.chi2 = chi2
        self.flux = flux
        self.envelope = envelope
        self.rho = rho
        self._transport = transport_matrix(flux, grid)
        self._preconditioner: tuple[tuple[float, float], ImplicitLinearOperator] | None = None
        self.krylov_iterations: list[int] = []

    def residual(self, state_next: SpeciesPair, state_prev: SpeciesPair, dt: float) -> SpeciesPair:
        return residual_nonlinear(
            state_next,
            state_prev,
            dt,
            self.flux,
            self.chi1,
            self.chi2,
            self.grid,
            self.envelope,
            self.rho,
        )

    def _jacobian_product(
        self, state: SpeciesPair, dt: float
    ) -> Callable[[np.ndarray], np.ndarray]:
        """v -> J v, the exact derivative of the residual at the candidate new state.

        J v = T v + (1/dt + rho_partner*mask) v + eff * (dv sum_m mask*v)_partner,
        with T the transport matrix, eff the state the reaction is evaluated
        at and rho its site densities.  With an envelope, eff is the clamped
        state and mask is 1 where the clamp leaves a cell as it is and 0 where
        it moves it (no derivative through the clamp); with none, eff is the
        state and mask is 1.
        """
        dv = self.grid.dv
        raw = np.stack([state.f, state.g])
        eff, mask = raw, 1.0
        if self.envelope is not None:
            clamped = truncate_state(state, self.envelope, self.rho, self.chi1, self.chi2)
            eff = np.stack([clamped.f, clamped.g])
            mask = (eff == raw).astype(float)
        diagonal = 1.0 / dt + dv * eff.sum(axis=2)[::-1, :, None] * mask

        def apply(v: np.ndarray) -> np.ndarray:
            cells = v.reshape(raw.shape)
            site = dv * (mask * cells).sum(axis=2)
            return self._transport @ v + (diagonal * cells + eff * site[::-1, :, None]).ravel()

        return apply

    def jacobian(self, state: SpeciesPair, dt: float) -> np.ndarray:
        """Dense Jacobian, read column by column from the product GMRES uses.

        For small grids.  At the steady state, dt times it is the linear step
        of ImplicitLinearOperator.
        """
        apply = self._jacobian_product(state, dt)
        return np.column_stack([apply(e) for e in np.eye(2 * self.grid.n_unknowns)])

    def steady_step(self, state: SpeciesPair, dt: float) -> ImplicitLinearOperator:
        """Linear step at the run's steady state, kept per (dt, rho).

        It is dt times the Jacobian at that steady state, so dt times its
        solve approximates J^{-1} while the state stays near equilibrium.
        The steady state is the one of rho, else of state's mass difference.
        """
        rho = self.rho if self.rho is not None else equilibrium_rho_from_state(state, self.grid)
        if self._preconditioner is None or self._preconditioner[0] != (dt, rho):
            op = ImplicitLinearOperator(self.grid, self.chi1, self.chi2, rho, dt, self.flux)
            self._preconditioner = ((dt, rho), op)
        return self._preconditioner[1]

    def newton_update(
        self,
        state: SpeciesPair,
        res: SpeciesPair,
        dt: float,
        preconditioner: ImplicitLinearOperator,
    ) -> np.ndarray:
        """Newton increment -J^{-1} res at state, by GMRES preconditioned with dt*solve.

        Raises NewtonDivergedError when GMRES misses KRYLOV_TOL within
        KRYLOV_MAX_ITERATIONS.
        """
        delta, iterations = gmres(
            self._jacobian_product(state, dt),
            lambda v: dt * stack_pair(preconditioner.solve(unstack_pair(v, self.grid))),
            -stack_pair(res),
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
        state = state_prev.copy()
        res = self.residual(state, state_prev, dt)
        res_norm = max(np.max(np.abs(res.f)), np.max(np.abs(res.g)))
        iterations = 0
        # Every iterate keeps state_prev's mass difference, so one steady
        # step serves the whole solve.
        preconditioner = self.steady_step(state_prev, dt)
        while res_norm > cfg.tol_residual:
            if iterations >= cfg.max_iterations:
                raise NewtonDivergedError(
                    f"residual {res_norm:.3e} after {iterations} iterations "
                    f"(tol {cfg.tol_residual:.3e}, dt {dt:.3e})"
                )
            delta = self.newton_update(state, res, dt, preconditioner)
            if not np.all(np.isfinite(delta)):
                raise NewtonDivergedError(f"non-finite Newton update at dt {dt:.3e}")
            state = state + unstack_pair(delta, self.grid)
            res = self.residual(state, state_prev, dt)
            res_norm = max(np.max(np.abs(res.f)), np.max(np.abs(res.g)))
            if not math.isfinite(res_norm):
                raise NewtonDivergedError(f"non-finite residual at dt {dt:.3e}")
            iterations += 1
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
