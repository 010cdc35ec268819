"""Newton solver for the full system, envelope truncation, adaptive stepping."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import fsolve

from conftest import make_grid, make_profiles, random_pair, random_positive_pair
from kinrec import nonlinear
from kinrec.linear import Flux, residual_linear
from kinrec.nonlinear import (
    AdaptiveController,
    BoundsEnvelope,
    NewtonConfig,
    NewtonDivergedError,
    NonlinearStepper,
    StepFailedError,
    adaptive_advance,
    check_maximum_principle,
    residual_nonlinear,
    truncate_state,
    verify_moment_schemes_nonlinear,
)
from kinrec.state import (
    SpeciesPair,
    build_equilibrium,
    equilibrium_rho,
    mass_difference,
    stack_pair,
    unstack_pair,
)


def naive_residual(state_next, state_prev, dt, flux, chi1, chi2, grid):
    """Loop reference for the implicit defect of the full system."""
    from conftest import naive_flux_divergence

    rho_f = np.array(
        [grid.dv * sum(state_next.f[i]) for i in range(grid.nx)]
    )
    rho_g = np.array(
        [grid.dv * sum(state_next.g[i]) for i in range(grid.nx)]
    )
    div_f = naive_flux_divergence(state_next.f, flux, grid)
    div_g = naive_flux_divergence(state_next.g, flux, grid)
    rf = np.zeros_like(state_next.f)
    rg = np.zeros_like(state_next.g)
    for i in range(grid.nx):
        for m in range(grid.n_vel):
            rf[i, m] = (
                (state_next.f[i, m] - state_prev.f[i, m]) / dt
                + div_f[i, m]
                - (chi1.values[m] - rho_g[i] * state_next.f[i, m])
            )
            rg[i, m] = (
                (state_next.g[i, m] - state_prev.g[i, m]) / dt
                + div_g[i, m]
                - (chi2.values[m] - rho_f[i] * state_next.g[i, m])
            )
    return SpeciesPair(rf, rg)


@pytest.fixture
def setting():
    grid = make_grid(torus_length=2.0, nx=5, nv=2, v_star=3.0)
    chi1, chi2 = make_profiles(grid)
    return grid, chi1, chi2


class TestResidual:
    def test_equilibrium_is_a_fixed_point(self, setting):
        grid, chi1, chi2 = setting
        for rho in (0.5, 1.0, 2.0):
            eq = build_equilibrium(rho, chi1, chi2, grid)
            res = residual_nonlinear(
                eq.state, eq.state, 0.2, Flux.lax_friedrichs(1.5), chi1, chi2, grid
            )
            assert float(np.max(np.abs(res.f))) <= 1e-12
            assert float(np.max(np.abs(res.g))) <= 1e-12

    @pytest.mark.parametrize(
        "flux",
        [Flux.lax_friedrichs(1.5), Flux.centered(), Flux.upwind()],
        ids=lambda f: f.kind,
    )
    def test_matches_naive_loop(self, setting, flux):
        grid, chi1, chi2 = setting
        rng = np.random.default_rng(1)
        nxt, prev = random_positive_pair(grid, rng), random_positive_pair(grid, rng)
        got = residual_nonlinear(nxt, prev, 0.1, flux, chi1, chi2, grid)
        want = naive_residual(nxt, prev, 0.1, flux, chi1, chi2, grid)
        np.testing.assert_allclose(got.f, want.f, atol=1e-12)
        np.testing.assert_allclose(got.g, want.g, atol=1e-12)

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
        errs = []
        eps_values = (1e-2, 1e-3, 1e-4)
        for eps in eps_values:
            full = residual_nonlinear(
                eq.state + eps * a, eq.state + eps * b, dt, flux, chi1, chi2, grid
            )
            lin = residual_linear(a, b, dt, flux, chi1, chi2, rho, grid)
            gap = full - eps * lin
            errs.append(max(np.max(np.abs(gap.f)), np.max(np.abs(gap.g))))
        slope = np.polyfit(np.log(eps_values), np.log(errs), 1)[0]
        assert slope >= 1.9

    def test_nonpositive_dt_rejected(self, setting):
        grid, chi1, chi2 = setting
        state = random_positive_pair(grid, np.random.default_rng(3))
        with pytest.raises(ValueError, match="dt"):
            residual_nonlinear(state, state, 0.0, Flux.centered(), chi1, chi2, grid)


class TestJacobian:
    @staticmethod
    def fd_jacobian(state, dt, flux, chi1, chi2, grid, envelope=None, rho=None):
        base = stack_pair(state)
        n = base.size
        jac = np.zeros((n, n))
        h = 1e-6
        for k in range(n):
            bump = np.zeros(n)
            bump[k] = h
            plus = residual_nonlinear(
                unstack_pair(base + bump, grid), state, dt, flux, chi1, chi2, grid,
                envelope, rho,
            )
            minus = residual_nonlinear(
                unstack_pair(base - bump, grid), state, dt, flux, chi1, chi2, grid,
                envelope, rho,
            )
            jac[:, k] = (stack_pair(plus) - stack_pair(minus)) / (2.0 * h)
        return jac

    @pytest.mark.parametrize(
        "flux",
        [Flux.lax_friedrichs(1.5), Flux.centered(), Flux.upwind()],
        ids=lambda f: f.kind,
    )
    def test_matches_central_differences(self, flux):
        grid = make_grid(torus_length=2.0, nx=3, nv=2, v_star=3.0)
        chi1, chi2 = make_profiles(grid)
        state = random_positive_pair(grid, np.random.default_rng(4))
        dt = 0.15
        exact = NonlinearStepper(grid, chi1, chi2, flux).jacobian(state, dt).toarray()
        approx = self.fd_jacobian(state, dt, flux, chi1, chi2, grid)
        np.testing.assert_allclose(exact, approx, atol=1e-6)

    def test_truncated_variant_matches_central_differences(self):
        # Pick a state far from every clamp threshold so the finite
        # differences never straddle a kink: some cells sit deep outside the
        # envelope (zero derivative through the clamp), the rest deep inside.
        grid = make_grid(torus_length=2.0, nx=3, nv=2, v_star=3.0)
        chi1, chi2 = make_profiles(grid)
        rho = 1.0
        envelope = BoundsEnvelope(gamma1=0.3, gamma2=0.3)
        f = np.tile(rho * chi1.values, (grid.nx, 1))
        g = np.tile(chi2.values / rho, (grid.nx, 1))
        f[0] = 2.0 * chi1.values       # clamped from above
        g[1] = 0.2 * chi2.values       # clamped from below
        state = SpeciesPair(f, g)
        dt = 0.15
        flux = Flux.lax_friedrichs(1.5)
        exact = NonlinearStepper(
            grid, chi1, chi2, flux, envelope, rho
        ).jacobian(state, dt).toarray()
        approx = self.fd_jacobian(state, dt, flux, chi1, chi2, grid, envelope, rho)
        np.testing.assert_allclose(exact, approx, atol=1e-6)


class TestAugmentedNewtonUpdate:
    """Fast (GMRES on the density-augmented matrix) against reference (dense reduced) solve."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        nx=st.integers(min_value=1, max_value=15).map(lambda half: 2 * half + 1),
        nv=st.integers(min_value=1, max_value=4),
        flux=st.sampled_from([Flux.lax_friedrichs(1.5), Flux.centered(), Flux.upwind()]),
        truncated=st.booleans(),
        rho=st.floats(min_value=0.5, max_value=2.0),
        dt=st.floats(min_value=1e-3, max_value=1.0),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_update_matches_dense_solve_and_conserves_mass(
        self, nx, nv, flux, truncated, rho, dt, seed
    ):
        grid = make_grid(torus_length=2.0, nx=nx, nv=nv, v_star=3.0)
        chi1, chi2 = make_profiles(grid)
        rng = np.random.default_rng(seed)
        shape = (grid.nx, grid.n_vel)

        def positive_state():
            # Within +-50% of the steady state, so the envelope clamps some
            # cells and leaves others free.
            return SpeciesPair(
                rho * chi1.values * rng.uniform(0.5, 1.5, shape),
                chi2.values / rho * rng.uniform(0.5, 1.5, shape),
            )

        state, prev = positive_state(), positive_state()
        envelope = BoundsEnvelope(0.3 * rho, 0.3 * rho) if truncated else None
        stepper = NonlinearStepper(
            grid, chi1, chi2, flux, envelope, rho if truncated else None
        )
        res = stepper.residual(state, prev, dt)
        delta = stepper.newton_update(state, res, dt)
        reference = np.linalg.solve(stepper.jacobian(state, dt).toarray(), -stack_pair(res))
        assert np.max(np.abs(delta - reference)) <= 1e-10 * np.max(np.abs(reference))

        # The mass difference of the residual is the step's mass change over
        # dt and the reaction's derivative carries none, so one Newton step
        # lands on the previous mass difference.
        stepped = state + unstack_pair(delta, grid)
        scale = grid.dx * grid.dv * float(np.sum(prev.f + prev.g))
        drift = abs(mass_difference(stepped, grid) - mass_difference(prev, grid))
        assert drift <= 1e-12 * scale


class TestNewton:
    def test_equilibrium_converges_immediately(self, setting):
        grid, chi1, chi2 = setting
        eq = build_equilibrium(1.4, chi1, chi2, grid)
        cfg = NewtonConfig()
        state, iterations = NonlinearStepper(
            grid, chi1, chi2, Flux.lax_friedrichs(1.5)
        ).newton(eq.state, 0.2, cfg)
        assert iterations <= 1
        np.testing.assert_allclose(state.f, eq.state.f, atol=1e-10)
        np.testing.assert_allclose(state.g, eq.state.g, atol=1e-10)

    def test_uniform_step_matches_independent_cell_solve(self, setting):
        # Uniform states stay uniform (no transport), so the implicit step is
        # one small nonlinear system per cell; fsolve provides the oracle.
        grid, chi1, chi2 = setting
        rng = np.random.default_rng(5)
        nvel = grid.n_vel
        row_f, row_g = rng.uniform(0.3, 1.5, nvel), rng.uniform(0.3, 1.5, nvel)
        prev = SpeciesPair(np.tile(row_f, (grid.nx, 1)), np.tile(row_g, (grid.nx, 1)))
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
            np.testing.assert_allclose(state.f[i], oracle[:nvel], atol=1e-9)
            np.testing.assert_allclose(state.g[i], oracle[nvel:], atol=1e-9)

    def test_step_residual_meets_tolerance(self, setting):
        grid, chi1, chi2 = setting
        prev = random_positive_pair(grid, np.random.default_rng(6))
        cfg = NewtonConfig(tol_residual=1e-12)
        stepper = NonlinearStepper(grid, chi1, chi2, Flux.lax_friedrichs(1.5))
        state, iterations = stepper.newton(prev, 0.1, cfg)
        res = stepper.residual(state, prev, 0.1)
        assert max(np.max(np.abs(res.f)), np.max(np.abs(res.g))) <= 1e-12
        assert 1 <= iterations <= 10

    def test_iteration_budget_enforced(self, setting):
        grid, chi1, chi2 = setting
        prev = random_positive_pair(grid, np.random.default_rng(7))
        cfg = NewtonConfig(tol_residual=1e-30, max_iterations=2)
        with pytest.raises(NewtonDivergedError, match="iterations"):
            NonlinearStepper(grid, chi1, chi2, Flux.centered()).newton(prev, 0.1, cfg)

    def test_krylov_iteration_cap_is_a_newton_failure(self, setting, monkeypatch):
        # A GMRES solve that misses its tolerance hands Newton no inexact
        # update: it raises the error on which adaptive_advance shrinks dt.
        grid, chi1, chi2 = setting
        prev = random_positive_pair(grid, np.random.default_rng(10))
        stepper = NonlinearStepper(grid, chi1, chi2, Flux.lax_friedrichs(1.5))
        res = stepper.residual(prev, prev, 0.2)
        stepper.newton_update(prev, res, 0.2)
        assert stepper.krylov_iterations[-1] > 1
        monkeypatch.setattr(nonlinear, "KRYLOV_MAX_ITERATIONS", 1)
        with pytest.raises(NewtonDivergedError, match="GMRES"):
            stepper.newton_update(prev, res, 0.2)
        with pytest.raises(NewtonDivergedError, match="GMRES"):
            stepper.newton(prev, 0.2, NewtonConfig())

    def test_mass_drift_guard_trips_on_tiny_tolerance(self, setting):
        # The conserved quantity moves at rounding level per step; an absurdly
        # small tolerance must trip the guard rather than pass silently.
        grid, chi1, chi2 = setting
        rng = np.random.default_rng(8)
        prev = random_positive_pair(grid, rng)
        cfg = NewtonConfig(tol_residual=1e-9, mass_diff_drift_tol=1e-18)
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
            {"mass_diff_drift_tol": 0.0},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        with pytest.raises(ValueError):
            NewtonConfig(**kwargs)


class TestEnvelope:
    def test_levels(self):
        env = BoundsEnvelope(gamma1=0.2, gamma2=0.4)
        f_lo, f_hi, g_lo, g_hi = env.levels(2.0)
        assert (f_lo, f_hi) == (1.8, 2.4)
        assert g_lo == pytest.approx(1.0 / 2.4)
        assert g_hi == pytest.approx(1.0 / 1.8)

    def test_gamma_must_stay_below_rho(self):
        with pytest.raises(ValueError, match="rho"):
            BoundsEnvelope(gamma1=1.5, gamma2=0.1).levels(1.0)
        with pytest.raises(ValueError, match="positive"):
            BoundsEnvelope(gamma1=0.0, gamma2=0.1)

    def test_truncation_clamps_and_is_idempotent(self, setting):
        grid, chi1, chi2 = setting
        rho = 1.0
        env = BoundsEnvelope(gamma1=0.2, gamma2=0.2)
        state = random_positive_pair(grid, np.random.default_rng(11))
        once = truncate_state(state, env, rho, chi1, chi2)
        twice = truncate_state(once, env, rho, chi1, chi2)
        np.testing.assert_array_equal(once.f, twice.f)
        np.testing.assert_array_equal(once.g, twice.g)
        report = check_maximum_principle(once, env, rho, chi1, chi2)
        assert report.passed

    def test_truncation_is_identity_inside_the_band(self, setting):
        grid, chi1, chi2 = setting
        rho = 1.5
        env = BoundsEnvelope(gamma1=0.3, gamma2=0.3)
        inside = SpeciesPair(
            np.tile((rho + 0.1) * chi1.values, (grid.nx, 1)),
            np.tile(chi2.values / (rho + 0.1), (grid.nx, 1)),
        )
        out = truncate_state(inside, env, rho, chi1, chi2)
        np.testing.assert_array_equal(out.f, inside.f)
        np.testing.assert_array_equal(out.g, inside.g)

    def test_report_flags_violations(self, setting):
        grid, chi1, chi2 = setting
        rho = 1.0
        env = BoundsEnvelope(gamma1=0.2, gamma2=0.2)
        eq = build_equilibrium(rho, chi1, chi2, grid)
        good = check_maximum_principle(eq.state, env, rho, chi1, chi2)
        assert good.passed
        assert good.f_ratio_min == pytest.approx(rho, rel=1e-12)
        bad_state = SpeciesPair(eq.state.f * 1.5, eq.state.g)
        bad = check_maximum_principle(bad_state, env, rho, chi1, chi2)
        assert not bad.passed
        assert bad.f_ratio_max == pytest.approx(1.5 * rho, rel=1e-12)


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
        state = SpeciesPair(eq.state.f + bump, eq.state.g.copy())
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
        env = BoundsEnvelope(gamma1=0.2 * rho, gamma2=0.2 * rho)
        wave = 0.05 * np.cos(2.0 * np.pi * grid.x_centers / grid.torus_length)
        state = SpeciesPair(
            np.outer(rho * (1.0 + wave), chi1.values),
            np.outer((1.0 - 0.7 * wave) / rho, chi2.values),
        )
        lam = grid.v_star / 2.0
        stepper = NonlinearStepper(grid, chi1, chi2, Flux.lax_friedrichs(lam))
        cfg = NewtonConfig()
        dt = 0.05
        for _ in range(40):
            state, _ = stepper.newton(state, dt, cfg)
            assert check_maximum_principle(state, env, rho, chi1, chi2).passed


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
        bad.f[1, 0] += 1e-3
        res_u, res_j = verify_moment_schemes_nonlinear(state, bad, eq, grid, dt, lam)
        assert max(res_u, res_j) > 1e-6
