"""Implicit scheme for the full generation-recombination system, solved by Newton."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import RunConfig
from .grid import GridSpec, VelocityProfile
from .linear import Flux, ImplicitLinearOperator, interface_weights, transport_symbol
from .state import mass_difference, species_profiles


class NewtonDivergedError(RuntimeError):
    """Newton failed to deliver an acceptable state; the caller may shrink dt."""


class StepFailedError(RuntimeError):
    """Adaptive stepping reached dt_min without producing an acceptable state."""


# Step-size rule of the nonlinear march: grow after an accept within the
# iteration budget, shrink after a reject.
DT_GROWTH = 2.0
DT_SHRINK = 0.5
ACCEPT_ITERATION_BUDGET = 8

# Relative per-step tolerance on the conserved mass difference, which every
# flux conserves, the centered one included.
MASS_DIFF_DRIFT_TOL = 1e-10


# Relative slack of the bounds check, so that the rounding of a state's
# division by the profiles never fails a state on the band's edge.
BOUNDS_RTOL = 1e-11


class BoundsEnvelope:
    """Two-sided control band around the uniform steady state rho, built once per run.

    Species one is confined to [(rho-gamma)*chi1, (rho+gamma)*chi1] and
    species two to the reciprocal band [chi2/(rho+gamma), chi2/(rho-gamma)].
    A monotone flux (LF with lam >= v_star/2, or upwind) propagates the band.
    It holds the band per cell, for the truncated scheme's clamp, and the
    check's limits of a state's profile-relative ratios: the levels of each
    species widened by the slack BOUNDS_RTOL*max(1, |low|, |high|).  It needs
    0 < gamma < rho, unchecked.
    """

    def __init__(
        self, rho: float, gamma: float, chi1: VelocityProfile, chi2: VelocityProfile
    ) -> None:
        self.gamma = gamma
        self.profiles = species_profiles(chi1, chi2)
        # The (low, high) multipliers of the two profiles, shape (2, 1, 1): f's, then g's.
        low = np.array([rho - gamma, 1.0 / (rho + gamma)])[:, None, None]
        high = np.array([rho + gamma, 1.0 / (rho - gamma)])[:, None, None]
        self.floor, self.ceiling = low * self.profiles, high * self.profiles
        slack = BOUNDS_RTOL * np.maximum(1.0, np.maximum(abs(low), abs(high)))
        self.lower, self.upper = low - slack, high + slack

    def clamp(self, cells: np.ndarray) -> np.ndarray:
        """The state clamped into the band, cell by cell."""
        return np.clip(cells, self.floor, self.ceiling)

    def passes(self, state: np.ndarray) -> bool:
        """Whether every profile-relative ratio of state lies within the limits; a NaN fails."""
        ratios = state / self.profiles
        return bool((ratios >= self.lower).all() and (ratios <= self.upper).all())


@dataclass(frozen=True)
class BoundsReport:
    """Extreme profile-relative levels of a state against an envelope."""

    f_ratio_min: float
    f_ratio_max: float
    g_ratio_min: float
    g_ratio_max: float
    passed: bool


def check_maximum_principle(state: np.ndarray, envelope: BoundsEnvelope) -> BoundsReport:
    """The extreme profile-relative levels of state per species, and the envelope's verdict."""
    ratios = state / envelope.profiles
    f_min, g_min = ratios.min(axis=(1, 2)).tolist()
    f_max, g_max = ratios.max(axis=(1, 2)).tolist()
    return BoundsReport(f_min, f_max, g_min, g_max, envelope.passes(state))


@dataclass(frozen=True)
class _Evaluation:
    """The residual's parts at a raveled state.

    Its transport and reaction, the state eff the reaction is evaluated at
    with eff's partner site densities dv*sum_m eff (species swapped), and the
    clamp's mask: 1 where the clamp leaves a cell as it is and 0 where it
    moves it, or None when it moves none (and without an envelope).  The
    Newton update at that state reuses eff and mask, and jacobian all three.
    """

    transport: np.ndarray
    reaction: np.ndarray
    eff: np.ndarray
    partner: np.ndarray
    mask: np.ndarray | None


class NonlinearStepper:
    """Newton driver with a fixed grid, flux, profile pair and equilibrium level.

    newton takes and returns states; the residual and the Jacobian work on
    their ravel().  The transport is a periodic three-point stencil, built
    once here from interface_weights and each unknown's neighbours in x,
    with its per-mode symbol for the Newton updates.  The Jacobian J is
    that transport plus the reaction's derivative: a diagonal and, per site,
    a rank-one sum over velocities.  Only the reaction's coefficients vary in
    x, and each Newton update solves per Fourier mode with their x-averages
    instead (newton_update).

    The stepper carries the evaluation of the last state newton returned
    into the next call from that state, so each accepted state is evaluated
    once (see newton).

    With an envelope, the run's band around its equilibrium level, the
    truncated collision clamps into it.
    """

    def __init__(
        self,
        grid: GridSpec,
        chi1: VelocityProfile,
        chi2: VelocityProfile,
        flux: Flux,
        envelope: BoundsEnvelope | None = None,
    ) -> None:
        self.grid = grid
        self.envelope = envelope
        self._cells = (2, grid.nx, grid.n_vel)
        self._sources = species_profiles(chi1, chi2)
        a, b = interface_weights(flux, grid)
        index = np.arange(2 * grid.n_unknowns).reshape(self._cells)
        self._neighbours = np.stack([np.roll(index, s, axis=1).ravel() for s in (-1, 1)])
        self._a, self._b = (np.broadcast_to(w, self._cells).ravel() for w in (a, b))
        self._tau = transport_symbol(flux, grid)
        # The x-mean and the site sum of the Newton update's coefficients, as products.
        self._x_mean = np.full(grid.nx, 1.0 / grid.nx)
        self._dv = np.full(grid.n_vel, grid.dv)
        # The evaluation of the last residual call, or the carried one that
        # newton started from.
        self._evaluated: _Evaluation | None = None
        # The state newton last returned, its evaluation and mass difference.
        self._carried: tuple[np.ndarray, _Evaluation, float] | None = None

    def transport(self, u: np.ndarray) -> np.ndarray:
        """The residual's transport of a raveled state: the stencil's (right - right[down])/dx."""
        up, down = self._neighbours
        right = self._a * u + self._b * u[up]
        return (right - right[down]) / self.grid.dx

    def residual(self, u: np.ndarray, u_prev: np.ndarray, dt: float) -> np.ndarray:
        """Pointwise defect of the backward-Euler step of

            d/dt f + v d/dx f = chi1 - rho_g f,
            d/dt g + v d/dx g = chi2 - rho_f g,

        all reaction terms evaluated at the new state u.  With an envelope,
        the reaction uses the clamped state (truncated scheme); transport and
        the time increment always use the raw one.  The evaluation at u is
        kept for newton_update and for newton to carry.
        """
        evaluation = self._evaluated = self._evaluate(u)
        return (u - u_prev) / dt + evaluation.transport - evaluation.reaction

    def _evaluate(self, u: np.ndarray) -> _Evaluation:
        cells = u.reshape(self._cells)
        eff, mask = cells, None
        if self.envelope is not None:
            eff = self.envelope.clamp(cells)
            kept = eff == cells
            if not kept.all():
                mask = kept.astype(float)
        partner = self.grid.dv * eff.sum(axis=2)[::-1, :, None]
        reaction = (self._sources - partner * eff).ravel()
        return _Evaluation(self.transport(u), reaction, eff, partner, mask)

    def jacobian(self, u: np.ndarray, dt: float) -> np.ndarray:
        """Dense Jacobian J of the residual at u, column by column; for small grids.

        J e = (1/dt + partner*mask) e + eff * (dv sum_m mask*e)_partner
              + transport(e), with eff the state the reaction is evaluated at,
        partner its partner site densities and mask the clamp's (no
        derivative through the clamp), 1 where no cell is clamped.  At the
        steady state, dt times it is the linear step of assemble_linear_operator.
        """
        evaluation = self._evaluate(u)
        eff = evaluation.eff
        mask = 1.0 if evaluation.mask is None else evaluation.mask
        diagonal = 1.0 / dt + evaluation.partner * mask
        columns = []
        for e in np.eye(u.size):
            cells = e.reshape(self._cells)
            site = self.grid.dv * (mask * cells).sum(axis=2)
            column = diagonal * cells + eff * site[::-1, :, None]
            columns.append(column.ravel() + self.transport(e))
        return np.column_stack(columns)

    def newton_update(self, res: np.ndarray, dt: float) -> np.ndarray:
        """Newton increment delta = -dt*(dt*A)^{-1} res, solved per Fourier mode.

        A is the x-average of the Jacobian J at the state whose residual res
        is (that of the last residual call, or the carried state newton
        started from): its rank-one coupling is the x-mean of eff, one
        product with a 1/nx vector, and its diagonal the x-mean of partner,
        which is dv times the velocity sum of the partner's coupling.  With
        clamped cells, the diagonal and the site sums both take the weights
        of the mask's x-mean, where the average of J has the diagonal
        mean(partner*mask) and a full coupling.
        A is the circulant nearest to J (T. Chan, SIAM J. Sci. Stat. Comput.
        9, 1988), equal to J at the uniform steady state; using it for
        J^{-1} makes Newton converge linearly, at a rate that shrinks with
        dt (Kelley, Iterative Methods for Linear and Nonlinear Equations,
        SIAM 1995, sec. 5.4).  The update keeps the mass difference of res:
        in mode 0, where the transport vanishes, the diagonal d_s of each
        species is the site density of the other's mean eff, so the site
        densities M_s and the weighted site sums sigma_s of the solution meet
        M_s + dt*(d_s*sigma_s + d_s'*sigma_s') = the site densities of the
        right-hand side, and M_f - M_g is the right-hand side's.
        """
        evaluation = self._evaluated
        coupling = self._x_mean @ evaluation.eff
        diagonal = (coupling @ self._dv)[::-1, None]
        weights = None if evaluation.mask is None else self._x_mean @ evaluation.mask
        step = ImplicitLinearOperator(self.grid, self._tau, dt, diagonal, coupling, weights)
        return step.solve(-dt * res)

    def newton(self, state_prev: np.ndarray, dt: float, cfg: RunConfig) -> tuple[np.ndarray, int]:
        """Solve the implicit step; returns the new state and iteration count.

        Starts from the previous state and stops once the residual's max norm
        is within the run's cfg.newton_tol, which validate_config keeps
        positive.  Raises NewtonDivergedError when cfg.newton_max_iterations
        iterations did not get there, on which adaptive_advance shrinks dt,
        when an iterate's residual max norm is not finite (a non-finite
        update makes the iterate, and so that norm, non-finite), or when the
        converged state moved the conserved mass difference too far: with
        clamped cells an update may move it, and only the converged residual
        bounds that move.  A step that needs no iteration returns a view of
        state_prev, so states are never written to; the returned array is
        read-only.

        When state_prev is the array the previous call returned, that call
        already computed its evaluation and mass difference, neither of
        which depends on dt.  The time increment of the first residual is
        exactly zero, so that residual is the evaluation's transport minus
        its reaction: it differs from residual's only in the sign of a zero,
        which cannot move u + delta.  The first update reuses the
        evaluation, and a step without iteration reads that mass for both
        ends of the drift check, so the result has the bits a new stepper
        would give.  A failed attempt carries nothing, so its retry at a
        smaller dt reuses them too.
        """
        u_prev = state_prev.ravel()
        u = u_prev
        if self._carried is not None and self._carried[0] is state_prev:
            _, evaluation, m_prev = self._carried
            self._evaluated = evaluation
            res = evaluation.transport - evaluation.reaction
        else:
            res = self.residual(u, u_prev, dt)
            m_prev = mass_difference(state_prev, self.grid)
        res_norm = abs(res).max()
        iterations = 0
        while res_norm > cfg.newton_tol:
            if iterations >= cfg.newton_max_iterations:
                raise NewtonDivergedError(
                    f"residual {res_norm:.3e} after {iterations} iterations "
                    f"(tol {cfg.newton_tol:.3e}, dt {dt:.3e})"
                )
            u = u + self.newton_update(res, dt)
            res = self.residual(u, u_prev, dt)
            res_norm = abs(res).max()
            if not math.isfinite(res_norm):
                raise NewtonDivergedError(f"non-finite residual at dt {dt:.3e}")
            iterations += 1
        state = u.reshape(self._cells)
        state.flags.writeable = False
        m_new = mass_difference(state, self.grid) if iterations else m_prev
        drift = abs(m_new - m_prev)
        if drift > MASS_DIFF_DRIFT_TOL * (1.0 + abs(m_prev)):
            raise NewtonDivergedError(
                f"mass-difference drift {drift:.3e} exceeds tolerance at dt {dt:.3e}"
            )
        self._carried = (state, self._evaluated, m_new)
        return state, iterations


@dataclass(frozen=True)
class StepResult:
    state: np.ndarray
    dt_used: float
    next_dt: float
    newton_iterations: int
    rejected_attempts: int


def adaptive_advance(
    state_prev: np.ndarray, dt: float, cfg: RunConfig, stepper: NonlinearStepper
) -> StepResult:
    """Advance one accepted step from an attempt of dt, shrinking on Newton failure.

    The accepted step grows the next dt, up to cfg.dt_max, only when Newton
    took at most ACCEPT_ITERATION_BUDGET iterations; a rejection shrinks dt
    down to cfg.dt_min.  A failure at or below dt_min raises StepFailedError.
    The result counts the rejected attempts before the accepted one.
    """
    rejected = 0
    while True:
        try:
            state, iterations = stepper.newton(state_prev, dt, cfg)
        except NewtonDivergedError as exc:
            if dt <= cfg.dt_min * (1.0 + 1e-12):
                raise StepFailedError(
                    f"no acceptable step above dt_min={cfg.dt_min}: {exc}"
                ) from exc
            dt = max(dt * DT_SHRINK, cfg.dt_min)
            rejected += 1
            continue
        if iterations <= ACCEPT_ITERATION_BUDGET:
            next_dt = min(dt * DT_GROWTH, cfg.dt_max)
        else:
            next_dt = dt
        return StepResult(state, dt, next_dt, iterations, rejected)
