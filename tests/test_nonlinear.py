"""Newton solver for the full system, envelope truncation, adaptive stepping."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from scipy.optimize import fsolve

from conftest import (
    band_levels,
    make_grid,
    make_profiles,
    random_pair,
    random_positive_pair,
    residual_linear,
    verify_moment_schemes_nonlinear,
)
from kinrec import load_config, nonlinear
from kinrec.linear import (
    Flux,
    ImplicitLinearOperator,
    flux_divergence,
)
from kinrec.nonlinear import (
    DT_SHRINK,
    MASS_DIFF_DRIFT_TOL,
    AdaptiveController,
    BoundsEnvelope,
    NewtonConfig,
    NewtonDivergedError,
    NonlinearStepper,
    StepFailedError,
    adaptive_advance,
    check_maximum_principle,
)
from kinrec.runner import REPORT_ENVELOPE_FRACTION, build_setup
from kinrec.state import (
    build_equilibrium,
    equilibrium_rho,
    mass_difference,
    species_profiles,
)


def naive_residual(state_next, state_prev, dt, flux, chi1, chi2, grid):
    """Loop reference for the implicit defect of the full system."""
    from conftest import naive_flux_divergence

    (f_next, g_next), (f_prev, g_prev) = state_next, state_prev
    rho_f = np.array(
        [grid.dv * sum(f_next[i]) for i in range(grid.nx)]
    )
    rho_g = np.array(
        [grid.dv * sum(g_next[i]) for i in range(grid.nx)]
    )
    div_f = naive_flux_divergence(f_next, flux, grid)
    div_g = naive_flux_divergence(g_next, flux, grid)
    rf = np.zeros_like(f_next)
    rg = np.zeros_like(g_next)
    for i in range(grid.nx):
        for m in range(grid.n_vel):
            rf[i, m] = (
                (f_next[i, m] - f_prev[i, m]) / dt
                + div_f[i, m]
                - (chi1.values[m] - rho_g[i] * f_next[i, m])
            )
            rg[i, m] = (
                (g_next[i, m] - g_prev[i, m]) / dt
                + div_g[i, m]
                - (chi2.values[m] - rho_f[i] * g_next[i, m])
            )
    return np.stack([rf, rg])


@pytest.fixture
def setting():
    grid = make_grid(torus_length=2.0, nx=5, nv=2, v_star=3.0)
    chi1, chi2 = make_profiles(grid)
    return grid, chi1, chi2


class TestResidual:
    def test_equilibrium_is_a_fixed_point(self, setting):
        grid, chi1, chi2 = setting
        for rho in (0.5, 1.0, 2.0):
            u = build_equilibrium(rho, chi1, chi2, grid).state.ravel()
            stepper = NonlinearStepper(grid, chi1, chi2, Flux.lax_friedrichs(1.5))
            assert float(np.max(np.abs(stepper.residual(u, u, 0.2)))) <= 1e-12

    @pytest.mark.parametrize(
        "flux",
        [Flux.lax_friedrichs(1.5), Flux.centered(), Flux.upwind()],
        ids=lambda f: f.kind,
    )
    def test_matches_naive_loop(self, setting, flux):
        grid, chi1, chi2 = setting
        rng = np.random.default_rng(1)
        nxt, prev = random_positive_pair(grid, rng), random_positive_pair(grid, rng)
        stepper = NonlinearStepper(grid, chi1, chi2, flux)
        got = stepper.residual(nxt.ravel(), prev.ravel(), 0.1).reshape(nxt.shape)
        want = naive_residual(nxt, prev, 0.1, flux, chi1, chi2, grid)
        np.testing.assert_allclose(got[0], want[0], atol=1e-12)
        np.testing.assert_allclose(got[1], want[1], atol=1e-12)

    def test_agrees_with_linearization_to_second_order(self, setting):
        # Around the uniform steady state the full defect minus epsilon times
        # the linearized defect shrinks quadratically: the only leftover is
        # the bilinear density coupling.
        grid, chi1, chi2 = setting
        rho = 1.3
        eq = build_equilibrium(rho, chi1, chi2, grid)
        flux = Flux.lax_friedrichs(1.5)
        rng = np.random.default_rng(2)
        a, b = random_pair(grid, rng), random_pair(grid, rng)
        dt = 0.2
        stepper = NonlinearStepper(grid, chi1, chi2, flux)
        errs = []
        eps_values = (1e-2, 1e-3, 1e-4)
        for eps in eps_values:
            full = stepper.residual((eq.state + eps * a).ravel(), (eq.state + eps * b).ravel(), dt)
            lin = residual_linear(a, b, dt, flux, chi1, chi2, rho, grid)
            gap = full - eps * lin.ravel()
            errs.append(np.max(np.abs(gap)))
        slope = np.polyfit(np.log(eps_values), np.log(errs), 1)[0]
        assert slope >= 1.9

    def test_nonpositive_dt_rejected(self, setting):
        grid, chi1, chi2 = setting
        state = random_positive_pair(grid, np.random.default_rng(3))
        u = state.ravel()
        with pytest.raises(ValueError, match="dt"):
            NonlinearStepper(grid, chi1, chi2, Flux.centered()).residual(u, u, 0.0)


class TestTransportStencil:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        nx=st.integers(min_value=1, max_value=50).map(lambda half: 2 * half + 1),
        nv=st.integers(min_value=1, max_value=8),
        kind=st.sampled_from(["lax-friedrichs", "centered", "upwind"]),
        lam=st.floats(min_value=0.0, max_value=1e3, exclude_min=True),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_residual_and_product_apply_the_same_transport(self, nx, nv, kind, lam, seed):
        # The stencil's transport is flux_divergence bit for bit, and the
        # residual at u_prev = u is that transport minus the reaction.  At the
        # zero state with dt = inf, J v has no reaction or time term left and
        # adds the same transport to zeros, so it is flux_divergence too.
        flux = Flux.lax_friedrichs(lam) if kind == "lax-friedrichs" else Flux(kind)
        grid = make_grid(torus_length=2.0, nx=nx, nv=nv, v_star=3.0)
        chi1, chi2 = make_profiles(grid)
        state = random_pair(grid, np.random.default_rng(seed))
        u = state.ravel()
        divergence = flux_divergence(state, flux, grid).ravel()
        stepper = NonlinearStepper(grid, chi1, chi2, flux)
        assert np.array_equal(stepper.transport(u), divergence)

        cells = u.reshape(2, grid.nx, grid.n_vel)
        sources = np.stack([chi1.values, chi2.values])[:, None]
        reaction = sources - grid.dv * cells.sum(axis=2)[::-1, :, None] * cells
        assert np.array_equal(stepper.residual(u, u, 0.1), divergence - reaction.ravel())

        transport = stepper._jacobian_product(stepper._evaluate(np.zeros_like(u)), math.inf)
        assert np.array_equal(transport(u), divergence)


class TestJacobian:
    @staticmethod
    def fd_jacobian(stepper, base, dt):
        n = base.size
        jac = np.zeros((n, n))
        h = 1e-6
        for k in range(n):
            bump = np.zeros(n)
            bump[k] = h
            plus = stepper.residual(base + bump, base, dt)
            minus = stepper.residual(base - bump, base, dt)
            jac[:, k] = (plus - minus) / (2.0 * h)
        return jac

    # jacobian() reads the Jacobian's own product, so central differences of the
    # residual are the independent check; over every flux and a few grids.
    GRIDS = pytest.mark.parametrize(
        "nx, nv",
        [pytest.param(nx, nv, id=f"{nx}x{nv}") for nx in (3, 5, 7) for nv in (1, 3)],
    )
    FLUXES = pytest.mark.parametrize(
        "flux",
        [Flux.lax_friedrichs(1.5), Flux.centered(), Flux.upwind()],
        ids=lambda f: f.kind,
    )

    @GRIDS
    @FLUXES
    def test_matches_central_differences(self, flux, nx, nv):
        grid = make_grid(torus_length=2.0, nx=nx, nv=nv, v_star=3.0)
        chi1, chi2 = make_profiles(grid)
        state = random_positive_pair(grid, np.random.default_rng(4))
        dt = 0.15
        stepper = NonlinearStepper(grid, chi1, chi2, flux)
        exact = stepper.jacobian(state.ravel(), dt)
        approx = self.fd_jacobian(stepper, state.ravel(), dt)
        np.testing.assert_allclose(exact, approx, atol=1e-6)

    @GRIDS
    @FLUXES
    def test_truncated_variant_matches_central_differences(self, flux, nx, nv):
        # Pick a state far from every clamp threshold so the finite
        # differences never straddle a kink: some cells sit deep outside the
        # envelope (zero derivative through the clamp), the rest deep inside.
        grid = make_grid(torus_length=2.0, nx=nx, nv=nv, v_star=3.0)
        chi1, chi2 = make_profiles(grid)
        rho = 1.0
        envelope = BoundsEnvelope(rho, 0.3, chi1, chi2)
        f = np.tile(rho * chi1.values, (grid.nx, 1))
        g = np.tile(chi2.values / rho, (grid.nx, 1))
        f[0] = 2.0 * chi1.values       # clamped from above
        g[1] = 0.2 * chi2.values       # clamped from below
        u = np.stack([f, g]).ravel()
        dt = 0.15
        stepper = NonlinearStepper(grid, chi1, chi2, flux, envelope)
        exact = stepper.jacobian(u, dt)
        approx = self.fd_jacobian(stepper, u, dt)
        np.testing.assert_allclose(exact, approx, atol=1e-6)


# Random small Newton settings: odd grids, every flux, with or without the
# envelope, the equilibrium level and dt, and the seed of the two states.
NEWTON_SETTINGS = dict(
    nx=st.integers(min_value=1, max_value=15).map(lambda half: 2 * half + 1),
    nv=st.integers(min_value=1, max_value=4),
    flux=st.sampled_from([Flux.lax_friedrichs(1.5), Flux.centered(), Flux.upwind()]),
    truncated=st.booleans(),
    rho=st.floats(min_value=0.5, max_value=2.0),
    dt=st.floats(min_value=1e-3, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


def newton_setting(nx, nv, flux, truncated, rho, seed):
    """(grid, stepper, state, prev): two random states within +-50% of the steady state.

    The envelope, when there is one, is +-30%, so it clamps some cells and
    leaves others free.
    """
    grid = make_grid(torus_length=2.0, nx=nx, nv=nv, v_star=3.0)
    chi1, chi2 = make_profiles(grid)
    rng = np.random.default_rng(seed)
    shape = (grid.nx, grid.n_vel)

    def positive_state():
        return np.stack(
            [
                rho * chi1.values * rng.uniform(0.5, 1.5, shape),
                chi2.values / rho * rng.uniform(0.5, 1.5, shape),
            ]
        )

    state, prev = positive_state(), positive_state()
    envelope = BoundsEnvelope(rho, 0.3 * rho, chi1, chi2) if truncated else None
    return grid, NonlinearStepper(grid, chi1, chi2, flux, envelope), state, prev


def mass_drift(state, prev, grid):
    """|mass difference of state - that of prev| and the scale of prev."""
    scale = grid.dx * grid.dv * float(np.sum(prev[0] + prev[1]))
    return abs(mass_difference(state, grid) - mass_difference(prev, grid)), scale


def circulant_average(matrix, nx, n_vel):
    """A dense matrix on raveled states with each periodic diagonal in x replaced by its mean.

    For species and velocities fixed, the entries (i, i + d) over the cells
    i share one value: the circulant nearest to the matrix.  A matrix that
    commutes with shifts in x is its own average.
    """
    blocks = matrix.reshape(2, nx, n_vel, 2, nx, n_vel)
    averaged = np.empty_like(blocks)
    cells = np.arange(nx)
    for d in range(nx):
        averaged[:, cells, :, :, (cells + d) % nx, :] = blocks[
            :, cells, :, :, (cells + d) % nx, :
        ].mean(axis=0)
    return averaged.reshape(matrix.shape)


def mode_blocks(matrix, nx, n_vel):
    """Per-mode blocks of circulant_average(matrix), transformed as rfft_pair transforms a state.

    Block k is sum_d C(d)*e^{2 pi i k d/nx}, with C(d) the average's entries
    (i, i + d); shape (nx//2+1, 2*n_vel, 2*n_vel).
    """
    first_row = circulant_average(matrix, nx, n_vel).reshape(2, nx, n_vel, 2, nx, n_vel)[:, 0]
    phases = np.exp(2j * np.pi * np.arange(nx // 2 + 1) / nx)[:, None, None]
    return sum(
        first_row[:, :, :, d, :].reshape(2 * n_vel, 2 * n_vel) * phases**d for d in range(nx)
    )


def averaged_inverse(stepper, u, u_prev, dt):
    """Dense inverse of the x-averaged Jacobian Newton uses at u, column by column.

    newton_update maps a residual r to -dt*(dt*A)^{-1} r = -A^{-1} r, linearly
    in r once the residual at u has been evaluated.
    """
    stepper.residual(u, u_prev, dt)
    return -np.column_stack([stepper.newton_update(e, dt) for e in np.eye(u.size)])


# NEWTON_SETTINGS without the envelope: the x-average of J is the
# circulant nearest to J only where no cell is clamped.
UNTRUNCATED_SETTINGS = {**NEWTON_SETTINGS, "truncated": st.just(False)}


class TestNewtonUpdate:
    """The update with the x-averaged Jacobian against a dense solve with it."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(**UNTRUNCATED_SETTINGS)
    def test_update_matches_dense_solve_and_conserves_mass(
        self, nx, nv, flux, truncated, rho, dt, seed
    ):
        grid, stepper, state, prev = newton_setting(nx, nv, flux, truncated, rho, seed)
        u = state.ravel()
        res = stepper.residual(u, prev.ravel(), dt)
        delta = stepper.newton_update(res, dt)
        # The averaged Jacobian as a dense matrix, and least squares through
        # the SVD as a backward stable reference.
        averaged = circulant_average(stepper.jacobian(u, dt), grid.nx, grid.n_vel)
        reference = np.linalg.lstsq(averaged, -res, rcond=None)[0]
        assert np.max(np.abs(delta - reference)) <= 1e-10 * np.max(np.abs(reference))

        # The residual's mass difference is the step's mass change over dt,
        # and the averaged step keeps the mass difference of its right-hand
        # side, so one update lands on the previous mass difference.
        drift, scale = mass_drift(state + delta.reshape(state.shape), prev, grid)
        assert drift <= 1e-12 * scale


class TestInexactNewtonUpdate:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(**UNTRUNCATED_SETTINGS)
    def test_update_meets_its_tolerance_and_conserves_mass(
        self, nx, nv, flux, truncated, rho, dt, seed
    ):
        # Newton's first iterate is the previous state.  The update there
        # is inexact for J but solves the averaged system A delta = -res
        # directly, so its linear residual is rounding: backward error
        # relative to |A||delta| + |res|.  The residual has no mass
        # difference, and the averaged step keeps that of its right-hand
        # side, so the update has none either.
        grid, stepper, _, prev = newton_setting(nx, nv, flux, truncated, rho, seed)
        u = prev.ravel()
        res = stepper.residual(u, u, dt)
        delta = stepper.newton_update(res, dt)
        averaged = circulant_average(stepper.jacobian(u, dt), grid.nx, grid.n_vel)
        linear = res + averaged @ delta
        bound = np.abs(averaged) @ np.abs(delta) + np.abs(res)
        assert np.all(np.abs(linear) <= 1e-12 * np.max(bound))
        drift, scale = mass_drift(prev + delta.reshape(prev.shape), prev, grid)
        assert drift <= 1e-12 * scale


class TestAveragedJacobian:
    """Newton's operator is the circulant (x-)average of the Jacobian, per Fourier mode."""

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(**UNTRUNCATED_SETTINGS)
    def test_mode_blocks_are_the_circulant_average_of_the_jacobian(
        self, nx, nv, flux, truncated, rho, dt, seed
    ):
        # Block by block, A_k^{-1} times the averaged J's block k is the
        # identity to rounding, relative to the scales of the two blocks.
        grid, stepper, state, prev = newton_setting(nx, nv, flux, truncated, rho, seed)
        u = state.ravel()
        inverse = mode_blocks(averaged_inverse(stepper, u, prev.ravel(), dt), grid.nx, grid.n_vel)
        average = mode_blocks(stepper.jacobian(u, dt), grid.nx, grid.n_vel)
        identity = np.eye(2 * grid.n_vel)
        for inv_k, jac_k in zip(inverse, average):
            scale = np.max(np.abs(inv_k)) * np.max(np.abs(jac_k))
            assert np.max(np.abs(inv_k @ jac_k - identity)) <= 1e-12 * scale

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(**{**NEWTON_SETTINGS, "truncated": st.just(True)})
    def test_clamped_blocks_average_the_jacobian_but_its_site_coupling(
        self, nx, nv, flux, truncated, rho, dt, seed
    ):
        # With clamped cells, J's coupling to the partner's site density at
        # each site, dv*eff_s(x, m)*mask_s'(x, m'), averages to a full
        # velocity matrix; the update keeps it rank one, the mean of eff
        # times the mean of mask.  Every other entry of A is the circulant
        # average of J: the transport and the diagonal mean(partner*mask).
        grid, stepper, state, prev = newton_setting(nx, nv, flux, truncated, rho, seed)
        eff = stepper.envelope.clamp(state)
        mask = (eff == state).astype(float)
        assume(not mask.all())
        u = state.ravel()
        inverse = mode_blocks(averaged_inverse(stepper, u, prev.ravel(), dt), grid.nx, grid.n_vel)
        average = mode_blocks(stepper.jacobian(u, dt), grid.nx, grid.n_vel)
        n = grid.n_vel
        rank_one = np.zeros((2 * n, 2 * n))
        for species, partner in ((0, 1), (1, 0)):
            full = np.einsum("xm,xk->mk", eff[species], mask[partner]) / grid.nx
            outer = np.outer(eff[species].mean(axis=0), mask[partner].mean(axis=0))
            rank_one[species * n : (species + 1) * n, partner * n : (partner + 1) * n] = (
                grid.dv * (outer - full)
            )
        identity = np.eye(2 * n)
        for inv_k, jac_k in zip(inverse, average):
            expected = jac_k + rank_one
            scale = np.max(np.abs(inv_k)) * np.max(np.abs(expected))
            assert np.max(np.abs(inv_k @ expected - identity)) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "flux",
        [Flux.lax_friedrichs(1.5), Flux.centered(), Flux.upwind()],
        ids=lambda f: f.kind,
    )
    def test_steady_state_average_is_the_jacobian(self, setting, flux):
        # At the uniform steady state no coefficient varies in x, so the
        # average is J itself and Newton's update is exact: from there one
        # iteration meets any tolerance the rounding allows (criterion 8).
        grid, chi1, chi2 = setting
        rho, dt = 1.4, 0.2
        u = build_equilibrium(rho, chi1, chi2, grid).state.ravel()
        stepper = NonlinearStepper(grid, chi1, chi2, flux)
        jac = stepper.jacobian(u, dt)
        product = averaged_inverse(stepper, u, u, dt) @ jac
        assert np.max(np.abs(product - np.eye(u.size))) <= 1e-13 * np.max(np.abs(jac)) * dt


class TestCarriedEvaluation:
    """newton from the state it last returned reuses that state's evaluation."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(**NEWTON_SETTINGS)
    def test_carried_steps_match_a_new_stepper_bit_for_bit(
        self, nx, nv, flux, truncated, rho, dt, seed
    ):
        def new_stepper():
            return newton_setting(nx, nv, flux, truncated, rho, seed)[1]

        _, carrying, _, prev = newton_setting(nx, nv, flux, truncated, rho, seed)
        cfg = NewtonConfig()
        try:
            state, _ = carrying.newton(prev, dt, cfg)
            # A rejected attempt from the carried state, then its retry at a
            # smaller dt, as adaptive_advance makes them.
            with pytest.raises(NewtonDivergedError):
                carrying.newton(state, dt, NewtonConfig(tol_residual=1e-30, max_iterations=1))
            retried = carrying.newton(state, 0.5 * dt, cfg)
            expected = new_stepper().newton(state, 0.5 * dt, cfg)
            # And a step from a state carried without a rejection.
            carried = carrying.newton(retried[0], dt, cfg)
            expected_carried = new_stepper().newton(retried[0], dt, cfg)
        except NewtonDivergedError:
            assume(False)
        for got, want in ((retried, expected), (carried, expected_carried)):
            assert np.array_equal(got[0], want[0]) and got[1] == want[1]

    def test_returned_states_are_read_only(self, setting):
        # The carry is keyed on the array newton returned, so that array must
        # keep its values; a step without iteration returns a view of its
        # input, so the caller's own array is left writable.
        grid, chi1, chi2 = setting
        eq = build_equilibrium(1.4, chi1, chi2, grid)
        stepper = NonlinearStepper(grid, chi1, chi2, Flux.lax_friedrichs(1.5))
        state, _ = stepper.newton(eq.state, 0.2, NewtonConfig())
        stalled, iterations = stepper.newton(state, 0.2, NewtonConfig())
        assert iterations == 0 and np.shares_memory(stalled, state)
        assert not state.flags.writeable and not stalled.flags.writeable
        assert eq.state.flags.writeable


class TestNewton:
    def test_equilibrium_converges_immediately(self, setting):
        grid, chi1, chi2 = setting
        eq = build_equilibrium(1.4, chi1, chi2, grid)
        cfg = NewtonConfig()
        state, iterations = NonlinearStepper(
            grid, chi1, chi2, Flux.lax_friedrichs(1.5)
        ).newton(eq.state, 0.2, cfg)
        assert iterations <= 1
        np.testing.assert_allclose(state[0], eq.state[0], atol=1e-10)
        np.testing.assert_allclose(state[1], eq.state[1], atol=1e-10)

    def test_uniform_step_matches_independent_cell_solve(self, setting):
        # Uniform states stay uniform (no transport), so the implicit step is
        # one small nonlinear system per cell; fsolve provides the oracle.
        grid, chi1, chi2 = setting
        rng = np.random.default_rng(5)
        nvel = grid.n_vel
        row_f, row_g = rng.uniform(0.3, 1.5, nvel), rng.uniform(0.3, 1.5, nvel)
        prev = np.stack([np.tile(row_f, (grid.nx, 1)), np.tile(row_g, (grid.nx, 1))])
        dt = 0.25
        cfg = NewtonConfig(tol_residual=1e-13)
        state, _ = NonlinearStepper(grid, chi1, chi2, Flux.upwind()).newton(prev, dt, cfg)

        def cell_residual(z):
            zf, zg = z[:nvel], z[nvel:]
            rf = (zf - row_f) / dt - (chi1.values - grid.dv * zg.sum() * zf)
            rg = (zg - row_g) / dt - (chi2.values - grid.dv * zf.sum() * zg)
            return np.concatenate([rf, rg])

        z0 = np.concatenate([row_f, row_g])
        oracle = fsolve(cell_residual, z0, xtol=1e-13)
        for i in range(grid.nx):
            np.testing.assert_allclose(state[0, i], oracle[:nvel], atol=1e-9)
            np.testing.assert_allclose(state[1, i], oracle[nvel:], atol=1e-9)

    def test_step_residual_meets_tolerance(self, setting):
        grid, chi1, chi2 = setting
        prev = random_positive_pair(grid, np.random.default_rng(6))
        cfg = NewtonConfig(tol_residual=1e-12)
        stepper = NonlinearStepper(grid, chi1, chi2, Flux.lax_friedrichs(1.5))
        state, iterations = stepper.newton(prev, 0.1, cfg)
        res = stepper.residual(state.ravel(), prev.ravel(), 0.1)
        assert np.max(np.abs(res)) <= 1e-12
        assert 1 <= iterations <= 10

    def test_iteration_budget_enforced(self, setting):
        grid, chi1, chi2 = setting
        prev = random_positive_pair(grid, np.random.default_rng(7))
        cfg = NewtonConfig(tol_residual=1e-30, max_iterations=2)
        with pytest.raises(NewtonDivergedError, match="iterations"):
            NonlinearStepper(grid, chi1, chi2, Flux.centered()).newton(prev, 0.1, cfg)

    def test_newton_builds_one_averaged_step_per_iteration(self, setting, monkeypatch):
        # Each update solves with the average of the Jacobian at its own
        # iterate, so an iteration builds one operator; the transport's
        # per-mode symbol comes from the stepper, computed once.
        grid, chi1, chi2 = setting
        built, symbols = [], []
        symbol = nonlinear.transport_symbol

        class Counting(ImplicitLinearOperator):
            def __init__(self, grid, tau, dt, *args):
                built.append((tau, dt))
                super().__init__(grid, tau, dt, *args)

        def recording_symbol(*args):
            symbols.append(symbol(*args))
            return symbols[-1]

        monkeypatch.setattr(nonlinear, "ImplicitLinearOperator", Counting)
        monkeypatch.setattr(nonlinear, "transport_symbol", recording_symbol)
        prev = random_positive_pair(grid, np.random.default_rng(11))
        stepper = NonlinearStepper(grid, chi1, chi2, Flux.lax_friedrichs(1.5))
        _, iterations = stepper.newton(prev, 0.5, NewtonConfig(tol_residual=1e-12))
        assert iterations >= 2 and len(built) == iterations and len(symbols) == 1
        assert all(tau is symbols[0] and dt == 0.5 for tau, dt in built)

    def test_exhausted_iterations_are_retried_at_half_the_step(self):
        # Newton has no inner solve to fail: a step that does not converge
        # within max_iterations raises, and adaptive_advance retries it at
        # DT_SHRINK times dt.  On these data Newton takes 17 iterations at
        # dt = 0.5 and 16 at 0.25.
        grid = make_grid(torus_length=16.0, nx=7, nv=2, v_star=3.0)
        chi1, chi2 = make_profiles(grid)
        prev = random_positive_pair(grid, np.random.default_rng(0))
        cfg = NewtonConfig(max_iterations=16)
        with pytest.raises(NewtonDivergedError, match="after 16 iterations"):
            NonlinearStepper(grid, chi1, chi2, Flux.lax_friedrichs(1.5)).newton(prev, 0.5, cfg)
        controller = AdaptiveController(dt_min=1e-3, dt_max=1.0)
        stepper = NonlinearStepper(grid, chi1, chi2, Flux.lax_friedrichs(1.5))
        result = adaptive_advance(prev, 0.5, controller, cfg, stepper)
        assert result.rejected_attempts == 1 and result.dt_used == 0.5 * DT_SHRINK
        fresh = NonlinearStepper(grid, chi1, chi2, Flux.lax_friedrichs(1.5))
        state, iterations = fresh.newton(prev, 0.5 * DT_SHRINK, cfg)
        assert np.array_equal(result.state, state) and result.newton_iterations == iterations == 16

    def test_a_carried_step_allocates_a_few_states(self):
        # A Newton iteration holds about one state each of the iterate, its
        # residual and the evaluation behind it, the update's right-hand side,
        # its modes and the averaged step's per-mode coefficients.  The
        # second step of test 3 at 21x8, from the carried state at the same
        # dt, peaks at about 12 state sizes; nothing of the size of a matrix
        # or of a basis of states is allocated.
        setup = build_setup(load_config(None, dict(test=3, nx=21, nv=8)))
        cfg = NewtonConfig(setup.cfg.newton_tol, setup.cfg.newton_max_iterations)
        stepper = NonlinearStepper(setup.grid, setup.chi1, setup.chi2, setup.flux)
        state, _ = stepper.newton(setup.data0, setup.cfg.dt, cfg)
        tracemalloc.start()
        try:
            _, iterations = stepper.newton(state, setup.cfg.dt, cfg)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert iterations >= 2
        assert peak < 16 * state.nbytes

    def test_mass_drift_guard_trips_on_tiny_tolerance(self, setting, monkeypatch):
        # The conserved quantity moves at rounding level per step; an absurdly
        # small tolerance must trip the guard rather than pass silently.
        grid, chi1, chi2 = setting
        rng = np.random.default_rng(8)
        prev = random_positive_pair(grid, rng)
        monkeypatch.setattr(nonlinear, "MASS_DIFF_DRIFT_TOL", 1e-18)
        cfg = NewtonConfig(tol_residual=1e-9)
        with pytest.raises(NewtonDivergedError, match="drift"):
            NonlinearStepper(grid, chi1, chi2, Flux.lax_friedrichs(1.5)).newton(prev, 0.2, cfg)

    def test_mass_conserved_over_steps(self, setting):
        grid, chi1, chi2 = setting
        state = random_positive_pair(grid, np.random.default_rng(9))
        before = mass_difference(state, grid)
        stepper = NonlinearStepper(grid, chi1, chi2, Flux.lax_friedrichs(1.5))
        cfg = NewtonConfig(tol_residual=1e-13)
        for _ in range(10):
            state, _ = stepper.newton(state, 0.1, cfg)
        assert mass_difference(state, grid) == pytest.approx(
            before, abs=1e-11 * (1.0 + abs(before))
        )

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"tol_residual": 0.0},
            {"tol_residual": -1e-3},
            {"max_iterations": 0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NewtonConfig(**kwargs)


class TestEnvelope:
    def test_gamma_must_stay_below_rho(self, setting):
        _, chi1, chi2 = setting
        for gamma in (1.5, 1.0, 0.0, -0.1, math.nan):
            with pytest.raises(ValueError, match="gamma"):
                BoundsEnvelope(1.0, gamma, chi1, chi2)

    def test_truncation_clamps_and_is_idempotent(self, setting):
        grid, chi1, chi2 = setting
        env = BoundsEnvelope(1.0, 0.2, chi1, chi2)
        state = random_positive_pair(grid, np.random.default_rng(11))
        once = env.clamp(state)
        np.testing.assert_array_equal(once, env.clamp(once))
        report = check_maximum_principle(once, env)
        assert report.passed

    def test_truncation_is_identity_inside_the_band(self, setting):
        grid, chi1, chi2 = setting
        rho = 1.5
        env = BoundsEnvelope(rho, 0.3, chi1, chi2)
        cells = np.stack(
            [
                np.tile((rho + 0.1) * chi1.values, (grid.nx, 1)),
                np.tile(chi2.values / (rho + 0.1), (grid.nx, 1)),
            ]
        )
        np.testing.assert_array_equal(env.clamp(cells), cells)

    def test_report_flags_violations(self, setting):
        grid, chi1, chi2 = setting
        rho = 1.0
        env = BoundsEnvelope(rho, 0.2, chi1, chi2)
        eq = build_equilibrium(rho, chi1, chi2, grid)
        good = check_maximum_principle(eq.state, env)
        assert good.passed
        assert good.f_ratio_min == pytest.approx(rho, rel=1e-12)
        bad_state = eq.state.copy()
        bad_state[0] *= 1.5
        bad = check_maximum_principle(bad_state, env)
        assert not bad.passed
        assert bad.f_ratio_max == pytest.approx(1.5 * rho, rel=1e-12)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        nx=st.integers(min_value=1, max_value=7).map(lambda half: 2 * half + 1),
        nv=st.integers(min_value=1, max_value=4),
        rho=st.floats(min_value=0.2, max_value=5.0),
        fraction=st.floats(min_value=0.01, max_value=0.99),
        # Shares of the cells pushed out of the band and of the cells set to NaN.
        outside=st.sampled_from([0.0, 0.1, 1.0]),
        nans=st.sampled_from([0.0, 0.2]),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_clamp_and_check_share_the_band(self, nx, nv, rho, fraction, outside, nans, seed):
        # Levels drawn inside the band, some pushed out past an edge by 1% to
        # 50% of its width, some NaN.  The slack is far below 1% of any
        # width here, so a state passes exactly when no cell was pushed or
        # set to NaN.  The clamp lands every number in the band, keeps it
        # there, and gives a state inside the band back with its bits.
        grid = make_grid(torus_length=2.0, nx=nx, nv=nv, v_star=3.0)
        chi1, chi2 = make_profiles(grid)
        gamma = fraction * rho
        env = BoundsEnvelope(rho, gamma, chi1, chi2)
        rng = np.random.default_rng(seed)
        shape = (2, grid.nx, grid.n_vel)
        low, high = band_levels(rho, gamma)
        width = np.broadcast_to(high - low, shape)
        levels = low + width * rng.uniform(0.0, 1.0, shape)
        pushed = rng.uniform(0.0, 1.0, shape) < outside
        beyond = width[pushed] * rng.uniform(0.01, 0.5, pushed.sum())
        levels[pushed] = np.where(
            rng.random(pushed.sum()) < 0.5,
            np.broadcast_to(low, shape)[pushed] - beyond,
            np.broadcast_to(high, shape)[pushed] + beyond,
        )
        nan = rng.uniform(0.0, 1.0, shape) < nans
        levels[nan] = np.nan
        state = levels * species_profiles(chi1, chi2)

        passed = env.passes(state)
        assert passed is check_maximum_principle(state, env).passed
        assert passed is not (pushed.any() or nan.any())
        clamped = env.clamp(state)
        assert env.passes(clamped) is not nan.any()
        assert env.passes(np.where(nan, env.floor, clamped))
        assert np.array_equal(env.clamp(clamped), clamped, equal_nan=True)
        if passed:
            assert np.array_equal(clamped, state)


class TestAdaptiveControl:
    class FakeStepper:
        """Accepts steps only below a threshold dt; reports fixed iterations."""

        def __init__(self, threshold, iterations=3):
            self.threshold = threshold
            self.iterations = iterations
            self.attempts = []

        def newton(self, state_prev, dt, cfg):
            self.attempts.append(dt)
            if dt > self.threshold:
                raise NewtonDivergedError(f"over threshold at {dt}")
            return state_prev, self.iterations

    @pytest.fixture
    def state(self, setting):
        grid, _, _ = setting
        return random_positive_pair(grid, np.random.default_rng(12))

    def test_growth_after_cheap_accept(self, state):
        controller = AdaptiveController(dt_min=1e-6, dt_max=0.3)
        result = adaptive_advance(
            state, 0.01, controller, NewtonConfig(), self.FakeStepper(threshold=1.0)
        )
        assert result.dt_used == 0.01
        assert result.next_dt == pytest.approx(0.02)
        assert result.rejected_attempts == 0

    def test_growth_caps_at_dt_max(self, state):
        controller = AdaptiveController(dt_min=1e-6, dt_max=0.3)
        result = adaptive_advance(
            state, 0.25, controller, NewtonConfig(), self.FakeStepper(threshold=1.0)
        )
        assert result.next_dt == pytest.approx(0.3)

    def test_no_growth_over_iteration_budget(self, state):
        controller = AdaptiveController(dt_min=1e-6, dt_max=0.3)
        # One iteration over the budget of 8 keeps the step where it is.
        stepper = self.FakeStepper(threshold=1.0, iterations=9)
        result = adaptive_advance(state, 0.01, controller, NewtonConfig(), stepper)
        assert result.next_dt == pytest.approx(0.01)

    def test_shrinks_until_accepted(self, state):
        controller = AdaptiveController(dt_min=1e-4, dt_max=0.3)
        stepper = self.FakeStepper(threshold=0.06)
        result = adaptive_advance(state, 0.2, controller, NewtonConfig(), stepper)
        assert result.dt_used == pytest.approx(0.05)
        assert stepper.attempts == pytest.approx([0.2, 0.1, 0.05])
        assert result.rejected_attempts == 2

    def test_fails_at_dt_min(self, state):
        controller = AdaptiveController(dt_min=0.05, dt_max=0.3)
        with pytest.raises(StepFailedError, match="dt_min"):
            adaptive_advance(
                state, 0.1, controller, NewtonConfig(), self.FakeStepper(threshold=0.0)
            )

    def test_attempt_below_dt_min_fails_after_one_try(self, state):
        # The last piece before the horizon may be shorter than dt_min; it is
        # tried once and never shrunk.
        controller = AdaptiveController(dt_min=0.05, dt_max=0.3)
        stepper = self.FakeStepper(threshold=0.0)
        with pytest.raises(StepFailedError, match="dt_min"):
            adaptive_advance(state, 0.02, controller, NewtonConfig(), stepper)
        assert stepper.attempts == [0.02]

    def test_real_march_grows_the_step(self, setting):
        grid, chi1, chi2 = setting
        eq = build_equilibrium(1.0, chi1, chi2, grid)
        bump = np.outer(0.05 * np.cos(2 * np.pi * grid.x_centers / grid.torus_length),
                        chi1.values)
        state = eq.state.copy()
        state[0] += bump
        stepper = NonlinearStepper(grid, chi1, chi2, Flux.lax_friedrichs(1.5))
        controller = AdaptiveController(dt_min=1e-8, dt_max=0.3)
        cfg = NewtonConfig()
        dt = 1e-3
        for _ in range(4):
            result = adaptive_advance(state, dt, controller, cfg, stepper)
            state, dt = result.state, result.next_dt
        assert dt == pytest.approx(1.6e-2)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"dt_min": 0.0},
            {"dt_min": -1e-6},
            {"dt_min": 0.5},
        ],
    )
    def test_invalid_controller_rejected(self, kwargs):
        base = dict(dt_min=1e-6, dt_max=0.3)
        base.update(kwargs)
        with pytest.raises(ValueError):
            AdaptiveController(**base)


class TestMaximumPrinciplePropagation:
    def test_monotone_flux_keeps_the_band(self, setting):
        # Data inside the envelope around its own steady level stays inside
        # under LF with lam >= v_star/2 for every accepted step.
        grid, chi1, chi2 = setting
        rho = 1.0
        env = BoundsEnvelope(rho, 0.2 * rho, chi1, chi2)
        wave = 0.05 * np.cos(2.0 * np.pi * grid.x_centers / grid.torus_length)
        state = np.stack(
            [
                np.outer(rho * (1.0 + wave), chi1.values),
                np.outer((1.0 - 0.7 * wave) / rho, chi2.values),
            ]
        )
        lam = grid.v_star / 2.0
        stepper = NonlinearStepper(grid, chi1, chi2, Flux.lax_friedrichs(lam))
        cfg = NewtonConfig()
        dt = 0.05
        for _ in range(40):
            state, _ = stepper.newton(state, dt, cfg)
            assert check_maximum_principle(state, env).passed


def in_band_case(flux, nx, nv, torus_length, v_star, rho, seed):
    """(stepper, truncated stepper, envelope, state): data strictly inside the band.

    The envelope is the runs' reporting band around rho.  The data are
    per-cell multiples of chi1 and chi2 whose levels lie around the middle
    of each species' band, within 0.9 of its half-width.
    """
    grid = make_grid(torus_length=torus_length, nx=nx, nv=nv, v_star=v_star)
    chi1, chi2 = make_profiles(grid)
    gamma = REPORT_ENVELOPE_FRACTION * rho
    envelope = BoundsEnvelope(rho, gamma, chi1, chi2)
    low, high = band_levels(rho, gamma)
    rng = np.random.default_rng(seed)
    levels = (low + high) / 2.0 + 0.9 * (high - low) / 2.0 * rng.uniform(-1.0, 1.0, (2, nx, 1))
    state = levels * species_profiles(chi1, chi2)
    assert check_maximum_principle(state, envelope).passed
    plain = NonlinearStepper(grid, chi1, chi2, flux)
    truncated = NonlinearStepper(grid, chi1, chi2, flux, envelope)
    return plain, truncated, envelope, state


def fixed_step_marches(plain, truncated, state, dt, steps):
    """The two steppers' marches from state at a fixed dt, as (state, iterations) pairs."""
    marches = []
    for stepper in (plain, truncated):
        march, current = [], state
        for _ in range(steps):
            current, iterations = stepper.newton(current, dt, NewtonConfig())
            march.append((current, iterations))
        marches.append(march)
    return marches


# Random small in-band settings (ROADMAP item 13): odd grids of 5 to 15
# cells, the torus, the velocity cutoff, the level rho and a fixed dt.
IN_BAND_SETTINGS = dict(
    nx=st.integers(min_value=2, max_value=7).map(lambda half: 2 * half + 1),
    nv=st.integers(min_value=2, max_value=4),
    torus_length=st.floats(min_value=1.0, max_value=7.0),
    v_star=st.floats(min_value=1.0, max_value=6.0),
    rho=st.floats(min_value=0.5, max_value=2.0),
    dt=st.floats(min_value=0.01, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)


class TestTruncatedScheme:
    """On data inside the band, a monotone flux never lets the truncation act.

    The paper's maximum principle runs through the truncated scheme: if the
    solution stays in the band, the clamp changes nothing.  Here that is
    exact: with no cell clamped the evaluation has no mask, and the
    truncated step does the untruncated arithmetic.
    """

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        upwind=st.booleans(),
        lam_ratio=st.floats(min_value=0.5, max_value=1.5),
        **IN_BAND_SETTINGS,
    )
    def test_monotone_marches_are_identical_and_stay_in_the_band(
        self, upwind, lam_ratio, nx, nv, torus_length, v_star, rho, dt, seed
    ):
        # LF with lam >= v_star/2, or upwind.
        flux = Flux.upwind() if upwind else Flux.lax_friedrichs(lam_ratio * v_star)
        plain, truncated, envelope, state = in_band_case(
            flux, nx, nv, torus_length, v_star, rho, seed
        )
        marches = fixed_step_marches(plain, truncated, state, dt, 30)
        for (got, got_iterations), (want, want_iterations) in zip(*reversed(marches)):
            assert np.array_equal(got, want) and got_iterations == want_iterations
            assert check_maximum_principle(got, envelope).passed

    def test_adaptive_marches_are_identical(self):
        # The step-size controller sees the same iteration counts, so the two
        # adaptive marches take the same steps, from dt = 1e-3 up to dt_max.
        v_star = 4.0
        plain, truncated, envelope, state = in_band_case(
            Flux.lax_friedrichs(v_star / 2.0), 11, 3, 5.0, v_star, 1.2, 7
        )
        controller = AdaptiveController(dt_min=1e-6, dt_max=0.5)
        marches = []
        for stepper in (plain, truncated):
            current, dt, march = state, 1e-3, []
            for _ in range(20):
                result = adaptive_advance(current, dt, controller, NewtonConfig(), stepper)
                current, dt = result.state, result.next_dt
                march.append(result)
            marches.append(march)
        assert marches[0][-1].next_dt == 0.5
        for got, want in zip(marches[1], marches[0]):
            assert np.array_equal(got.state, want.state)
            assert (got.dt_used, got.newton_iterations) == (want.dt_used, want.newton_iterations)
            assert check_maximum_principle(got.state, envelope).passed

    def test_centered_marches_can_differ(self):
        # The property is not vacuous: the centered flux is not monotone and
        # carries these in-band data out of the band, and from the first
        # state outside it the clamp changes the truncated march.
        plain, truncated, envelope, state = in_band_case(
            Flux.centered(), 15, 2, 7.0, 5.0, 0.5, 0
        )
        marches = fixed_step_marches(plain, truncated, state, 0.3, 30)
        differ = [not np.array_equal(got, want) for (got, _), (want, _) in zip(*marches)]
        outside = [
            not check_maximum_principle(got, envelope).passed
            for got, _ in marches[0]
        ]
        assert any(differ) and any(outside)
        assert differ.index(True) >= outside.index(True)

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(**NEWTON_SETTINGS)
    def test_marches_keep_the_mass_difference(self, nx, nv, flux, truncated, rho, dt, seed):
        # Ten fixed-dt steps from random data, with or without the envelope,
        # for each flux: the whole march moves the mass difference by less
        # than the per-step tolerance newton enforces.
        grid, stepper, _, state = newton_setting(nx, nv, flux, truncated, rho, seed)
        before = mass_difference(state, grid)
        for _ in range(10):
            state, _ = stepper.newton(state, dt, NewtonConfig())
        drift = abs(mass_difference(state, grid) - before)
        assert drift <= MASS_DIFF_DRIFT_TOL * (1.0 + abs(before))


class TestNonlinearMomentSchemes:
    def test_residuals_along_lf_steps(self, setting):
        grid, chi1, chi2 = setting
        state = random_positive_pair(grid, np.random.default_rng(14))
        rho = equilibrium_rho(mass_difference(state, grid), grid.torus_length)
        eq = build_equilibrium(rho, chi1, chi2, grid)
        lam = 1.5
        dt = 0.1
        stepper = NonlinearStepper(grid, chi1, chi2, Flux.lax_friedrichs(lam))
        cfg = NewtonConfig(tol_residual=1e-13)
        for _ in range(5):
            nxt, _ = stepper.newton(state, dt, cfg)
            res_u, res_j = verify_moment_schemes_nonlinear(state, nxt, eq, grid, dt, lam)
            assert res_u <= 1e-10
            assert res_j <= 1e-10
            state = nxt

    def test_perturbed_step_fails_closure(self, setting):
        grid, chi1, chi2 = setting
        state = random_positive_pair(grid, np.random.default_rng(15))
        eq = build_equilibrium(1.0, chi1, chi2, grid)
        lam, dt = 1.5, 0.1
        stepper = NonlinearStepper(grid, chi1, chi2, Flux.lax_friedrichs(lam))
        nxt, _ = stepper.newton(state, dt, NewtonConfig(tol_residual=1e-13))
        bad = nxt.copy()
        bad[0, 1, 0] += 1e-3
        res_u, res_j = verify_moment_schemes_nonlinear(state, bad, eq, grid, dt, lam)
        assert max(res_u, res_j) > 1e-6
