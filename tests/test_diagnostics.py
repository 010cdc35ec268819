"""Potential solve, mixed entropy functional, and exponential-decay fitting."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import dense_poisson, make_grid, make_profiles, moments_ujs, random_pair
from kinrec.diagnostics import (
    fit_decay_rate,
    modified_entropy,
    solve_discrete_poisson,
)
from kinrec.grid import centered_gradient
from kinrec.state import constants_ledger, weighted_norm


def wide_second_difference(phi, grid):
    """(phi_{i+2} - 2 phi_i + phi_{i-2}) / (4 dx^2), the composed centered stencil."""
    return (np.roll(phi, -2) - 2.0 * phi + np.roll(phi, 2)) / (4.0 * grid.dx**2)


class TestPoisson:
    def test_zero_source_gives_zero_potential(self):
        grid = make_grid(nx=11)
        phi = solve_discrete_poisson(np.zeros(grid.nx), grid)
        np.testing.assert_allclose(phi, 0.0, atol=1e-14)

    @pytest.mark.parametrize("nx,k", [(3, 1), (11, 1), (11, 3), (101, 7)])
    def test_fourier_modes_are_eigenvectors(self, nx, k):
        # cos modes diagonalize the wide stencil with symbol -sin(2 pi k/nx)^2/dx^2,
        # so the potential is the mode scaled by dx^2/sin^2.
        grid = make_grid(torus_length=2.3, nx=nx)
        angle = 2.0 * np.pi * k * grid.x_centers / grid.torus_length
        u = np.cos(angle)
        phi = solve_discrete_poisson(u, grid)
        a = 2.0 * np.pi * k / nx
        expected = u * grid.dx**2 / np.sin(a) ** 2
        np.testing.assert_allclose(phi, expected, atol=1e-10 * np.max(np.abs(expected)))

    def test_solution_satisfies_stencil_and_mean(self):
        grid = make_grid(torus_length=1.7, nx=31)
        rng = np.random.default_rng(1)
        u = rng.standard_normal(grid.nx)
        u -= u.mean()
        phi = solve_discrete_poisson(u, grid)
        np.testing.assert_allclose(wide_second_difference(phi, grid), -u, atol=1e-10)
        assert grid.dx * np.sum(phi) == pytest.approx(0.0, abs=1e-12)

    def test_linear_in_the_source(self):
        grid = make_grid(nx=9)
        u = np.sin(2.0 * np.pi * grid.x_centers / grid.torus_length)
        one = solve_discrete_poisson(u, grid)
        three = solve_discrete_poisson(3.0 * u, grid)
        np.testing.assert_allclose(three, 3.0 * one, atol=1e-12)

    def test_rejects_sources_with_mean(self):
        grid = make_grid(nx=7)
        with pytest.raises(ValueError, match="mean-free"):
            solve_discrete_poisson(np.ones(grid.nx), grid)

    @pytest.mark.parametrize("torus_length", [1e-3, 1.0, 1e6, 1e12])
    def test_mean_free_verdict_does_not_depend_on_the_torus_length(self, torus_length):
        # The check compares the cell mean of u with its rms, both independent
        # of dx: a source whose mean is rounding of its size passes on any
        # torus, and a mean of a thousandth of its size fails on any.
        grid = make_grid(torus_length=torus_length, nx=7)
        u = np.sin(2.0 * np.pi * grid.x_centers / grid.torus_length) + 1e-15
        solve_discrete_poisson(u, grid)
        with pytest.raises(ValueError, match="mean-free"):
            solve_discrete_poisson(u + 1e-3, grid)

    def test_rejects_wrong_shape(self):
        grid = make_grid(nx=7)
        with pytest.raises(ValueError, match="shape"):
            solve_discrete_poisson(np.zeros(grid.nx + 2), grid)


class TestPoissonProperties:
    """Closed-form Fourier solve against the dense bordered oracle."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        half=st.integers(min_value=1, max_value=150),
        torus_length=st.floats(min_value=0.5, max_value=10.0),
        amplitude=st.floats(min_value=1e-3, max_value=1e3),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_dense_oracle_and_inverts_the_stencil(
        self, half, torus_length, amplitude, seed
    ):
        grid = make_grid(torus_length=torus_length, nx=2 * half + 1)
        u = amplitude * np.random.default_rng(seed).standard_normal(grid.nx)
        u -= u.mean()
        phi = solve_discrete_poisson(u, grid)
        scale = np.max(np.abs(phi))
        assert np.max(np.abs(phi - dense_poisson(u, grid))) <= 1e-12 * scale
        assert abs(grid.dx * np.sum(phi)) <= 1e-12 * grid.torus_length * scale
        # Rounding in the stencil scales with its largest coefficient.
        np.testing.assert_allclose(
            wide_second_difference(phi, grid), -u, rtol=0.0, atol=1e-12 * scale / grid.dx**2
        )


class TestModifiedEntropy:
    @pytest.fixture
    def setting(self):
        grid = make_grid(torus_length=2.0, nx=7, nv=3, v_star=3.0)
        chi1, chi2 = make_profiles(grid)
        ledger = constants_ledger(chi1, chi2, 1.2, grid, lam=1.0, dt_max=0.2)
        return grid, chi1, chi2, ledger

    def test_zero_state_zero_potential(self, setting):
        grid, chi1, chi2, ledger = setting
        zero = np.zeros((2, grid.nx, grid.n_vel))
        value = modified_entropy(
            zero, np.zeros(grid.nx), None, 0.1, ledger, chi1, chi2, grid
        )
        assert value == 0.0

    def test_matches_direct_formula(self, setting):
        grid, chi1, chi2, ledger = setting
        rng = np.random.default_rng(2)
        state = random_pair(grid, rng)
        phi, phi_prev = rng.standard_normal(grid.nx), rng.standard_normal(grid.nx)
        dt, d0 = 0.07, 1.3
        got = modified_entropy(state, phi, phi_prev, dt, ledger, chi1, chi2, grid)
        _, j_h, _ = moments_ujs(state[0] - state[1], grid, d0)
        dphi = centered_gradient(phi, grid)
        incr = dphi - centered_gradient(phi_prev, grid)
        want = (
            0.5 * weighted_norm(state, chi1, chi2, ledger.rho, grid) ** 2
            + ledger.delta * grid.dx * np.sum(j_h * dphi)
            + ledger.delta / (2.0 * dt) * grid.dx * np.sum(incr**2)
        )
        assert got == pytest.approx(want, rel=1e-13)

    def test_partial_value_omits_increment_term(self, setting):
        grid, chi1, chi2, ledger = setting
        rng = np.random.default_rng(3)
        state = random_pair(grid, rng)
        phi = rng.standard_normal(grid.nx)
        partial = modified_entropy(state, phi, None, 0.1, ledger, chi1, chi2, grid)
        same_prev = modified_entropy(
            state, phi, phi.copy(), 0.1, ledger, chi1, chi2, grid
        )
        assert partial == pytest.approx(same_prev, rel=1e-14)
        moved = modified_entropy(state, phi, phi + 0.5, 0.1, ledger, chi1, chi2, grid)
        # A constant potential shift has no gradient, so even this matches.
        assert moved == pytest.approx(partial, rel=1e-12)
        sheared = modified_entropy(
            state, phi, phi + np.sin(grid.x_centers), 0.1, ledger, chi1, chi2, grid
        )
        assert sheared > partial

    def test_delta_validation(self, setting):
        grid, chi1, chi2, ledger = setting
        state = random_pair(grid, np.random.default_rng(4))
        phi = np.zeros(grid.nx)
        ceiling = min(ledger.delta1, ledger.delta2, ledger.delta3)
        for bad in (0.0, -1.0, ceiling, 2.0 * ceiling):
            with pytest.raises(ValueError, match="delta"):
                modified_entropy(
                    state, phi, None, 0.1, ledger, chi1, chi2, grid, delta=bad
                )
        with pytest.raises(ValueError, match="dt"):
            modified_entropy(state, phi, None, 0.0, ledger, chi1, chi2, grid)

    def test_default_delta_is_ledger_choice(self, setting):
        grid, chi1, chi2, ledger = setting
        state = random_pair(grid, np.random.default_rng(5))
        phi = np.cos(grid.x_centers)
        default = modified_entropy(state, phi, None, 0.1, ledger, chi1, chi2, grid)
        explicit = modified_entropy(
            state, phi, None, 0.1, ledger, chi1, chi2, grid, delta=ledger.delta
        )
        assert default == explicit


class TestDecayFit:
    def test_recovers_exact_exponential(self):
        t = np.linspace(0.0, 10.0, 101)
        fit = fit_decay_rate(t, 3.0 * np.exp(-2.0 * t))
        assert fit.kappa == pytest.approx(2.0, abs=1e-10)
        assert fit.prefactor == pytest.approx(3.0, rel=1e-9)
        assert fit.r_squared >= 1.0 - 1e-12
        assert fit.window[0] == pytest.approx(2.0)
        assert fit.n_points >= 5

    def test_constant_series_has_zero_rate(self):
        t = np.linspace(0.0, 5.0, 21)
        fit = fit_decay_rate(t, np.full_like(t, 0.25))
        assert fit.kappa == pytest.approx(0.0, abs=1e-14)
        assert fit.r_squared == 1.0

    def test_window_override(self):
        t = np.linspace(0.0, 10.0, 101)
        v = np.exp(-1.0 * t)
        v[t > 5.0] = np.exp(-5.0)  # flat tail that would pollute a full fit
        fit = fit_decay_rate(t, v, window=(0.0, 5.0))
        assert fit.kappa == pytest.approx(1.0, abs=1e-9)

    def test_plateau_is_cut_and_floor_excluded(self):
        t = np.linspace(0.0, 20.0, 201)
        v = np.maximum(np.exp(-3.0 * t), 1e-18)
        fit = fit_decay_rate(t, v)
        # Default upper end: first sample at or below 1e3 * floor.
        first_small = t[np.nonzero(v <= 1e-11)[0][0]]
        assert fit.window[1] == pytest.approx(first_small)
        assert fit.kappa == pytest.approx(3.0, abs=1e-6)

    def test_nonpositive_values_in_window_rejected(self):
        t = np.linspace(0.0, 10.0, 21)
        v = np.exp(-t)
        v[15] = 0.0
        with pytest.raises(ValueError, match="non-positive"):
            fit_decay_rate(t, v)

    def test_too_few_points_rejected(self):
        t = np.linspace(0.0, 1.0, 4)
        with pytest.raises(ValueError, match="points|usable"):
            fit_decay_rate(t, np.exp(-t))

    def test_empty_and_mismatched_series_rejected(self):
        with pytest.raises(ValueError):
            fit_decay_rate(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            fit_decay_rate(np.arange(3.0), np.arange(4.0))
