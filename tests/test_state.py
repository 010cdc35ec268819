"""States, equilibrium, weighted geometry, moments, and estimate constants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    collision_linear,
    equilibrium_rho_from_state,
    make_grid,
    make_profiles,
    moments_ujs,
    norm2,
    project_pi,
    random_pair,
)
from kinrec.config import ValidationError, load_config
from kinrec.grid import VelocityProfile, build_grid, discretize_profile, gaussian_profile
from kinrec.runner import build_setup
from kinrec.state import (
    DENSE_DFT_MAX_NX,
    build_equilibrium,
    constants_ledger,
    dft_matrices,
    equilibrium_rho,
    irfft_pair,
    macroscopic_densities,
    mass_difference,
    rfft_pair,
    weighted_inner,
    weighted_norm,
)


def naive_mass_difference(state, grid):
    total = 0.0
    for i in range(grid.nx):
        for m in range(grid.n_vel):
            total += grid.dx * grid.dv * (state[0, i, m] - state[1, i, m])
    return total


@pytest.fixture
def setting():
    grid = make_grid(torus_length=2.0, nx=7, nv=3, v_star=3.0)
    chi1, chi2 = make_profiles(grid)
    return grid, chi1, chi2


class TestMassDifference:
    def test_matches_naive_loop(self, setting):
        grid, _, _ = setting
        state = random_pair(grid, np.random.default_rng(1))
        assert mass_difference(state, grid) == pytest.approx(
            naive_mass_difference(state, grid), rel=1e-13
        )

    def test_equal_species_give_exact_zero(self, setting):
        grid, _, _ = setting
        f = np.random.default_rng(2).standard_normal((grid.nx, grid.n_vel))
        assert mass_difference(np.stack([f, f]), grid) == 0.0

    def test_equilibrium_mass(self):
        grid = build_grid(np.pi, 11, 8, 12.0)
        chi1, chi2 = make_profiles(grid)
        eq = build_equilibrium(2.0, chi1, chi2, grid)
        assert mass_difference(eq.state, grid) == pytest.approx(1.5 * np.pi, abs=1e-12)


class TestEquilibriumDensity:
    def test_zero_mass_gives_unit_density(self):
        assert equilibrium_rho(0.0, np.pi) == 1.0

    def test_known_roots(self):
        assert equilibrium_rho(1.5 * np.pi, np.pi) == pytest.approx(2.0, rel=1e-14)
        assert equilibrium_rho(-1.5 * np.pi, np.pi) == pytest.approx(0.5, rel=1e-14)

    def test_defining_equation_residual(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            m0 = rng.uniform(-10.0, 10.0)
            torus = rng.uniform(0.5, np.pi)
            rho = equilibrium_rho(m0, torus)
            assert rho > 0.0
            assert torus * (rho - 1.0 / rho) - m0 == pytest.approx(0.0, abs=1e-12)

    def test_sign_flip_inverts_density(self):
        rho = equilibrium_rho(2.7, 1.3)
        assert equilibrium_rho(-2.7, 1.3) == pytest.approx(1.0 / rho, rel=1e-14)

    def test_bad_torus_rejected(self):
        # equilibrium_rho divides by the torus length unchecked: load_config
        # refuses one that is not positive.
        with pytest.raises(ValidationError, match=r"grid\.torus_length: must be positive"):
            load_config(None, {"torus_length": 0.0})

    def test_from_state(self, setting):
        grid, chi1, chi2 = setting
        eq = build_equilibrium(1.7, chi1, chi2, grid)
        assert equilibrium_rho_from_state(eq.state, grid) == pytest.approx(1.7, rel=1e-12)


class TestBuildEquilibrium:
    def test_rows_are_spatially_uniform(self, setting):
        grid, chi1, chi2 = setting
        eq = build_equilibrium(2.0, chi1, chi2, grid)
        for i in range(grid.nx):
            np.testing.assert_array_equal(eq.state[0, i], eq.state[0, 0])
            np.testing.assert_array_equal(eq.state[1, i], eq.state[1, 0])
        np.testing.assert_allclose(eq.state[0, 0], 2.0 * chi1.values)
        np.testing.assert_allclose(eq.state[1, 0], chi2.values / 2.0)

    def test_unit_density_with_equal_profiles(self):
        grid = make_grid(nv=4)
        chi = discretize_profile(gaussian_profile, grid)
        eq = build_equilibrium(1.0, chi, chi, grid)
        np.testing.assert_array_equal(eq.state[0], eq.state[1])
        d0 = constants_ledger(chi, chi, 1.0, grid, 0.0, 0.1).d0
        assert d0 == pytest.approx(chi.second_moment, rel=1e-15)

    def test_weight_interpolates_profile_moments(self):
        # rho = 2 with second moments 1 and 6 averages to (4*1 + 6)/5 = 2.
        vals = np.array([0.5, 0.5])
        chi1 = VelocityProfile(values=vals, second_moment=1.0, fourth_moment=3.0)
        chi2 = VelocityProfile(values=vals, second_moment=6.0, fourth_moment=50.0)
        grid = make_grid(nv=1)
        d0 = constants_ledger(chi1, chi2, 2.0, grid, 0.0, 0.1).d0
        assert d0 == pytest.approx(2.0, rel=1e-15)

    def test_nonpositive_density_rejected(self):
        # build_equilibrium divides by rho unchecked: build_setup refuses a
        # rho that is not a finite positive number.  Here the data's mass
        # difference is so far below -torus_length that rho rounds to 0.
        cfg = load_config(None, dict(test=4, nx=5, nv=1, t_final=0.3, v_star=1e12, seed=2))
        with pytest.raises(ValidationError, match=r"grid\.vstar: .* rho = 0, not a finite"):
            build_setup(cfg)


class TestWeightedGeometry:
    def test_inner_product_is_symmetric_bilinear(self, setting):
        grid, chi1, chi2 = setting
        rng = np.random.default_rng(4)
        a, b, c = (random_pair(grid, rng) for _ in range(3))
        rho = 1.4
        ab = weighted_inner(a, b, chi1, chi2, rho, grid)
        assert ab == pytest.approx(weighted_inner(b, a, chi1, chi2, rho, grid), rel=1e-13)
        lhs = weighted_inner(a + 2.0 * c, b, chi1, chi2, rho, grid)
        rhs = ab + 2.0 * weighted_inner(c, b, chi1, chi2, rho, grid)
        assert lhs == pytest.approx(rhs, rel=1e-11)

    def test_norm_of_zero(self, setting):
        grid, chi1, chi2 = setting
        zero = np.zeros((grid.nx, grid.n_vel))
        assert weighted_norm(np.stack([zero, zero]), chi1, chi2, 1.0, grid) == 0.0

    def test_norm_positive_definite(self, setting):
        grid, chi1, chi2 = setting
        state = random_pair(grid, np.random.default_rng(5))
        assert weighted_norm(state, chi1, chi2, 0.8, grid) > 0.0


class TestProjector:
    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.3])
    def test_fixes_its_range(self, setting, rho):
        grid, chi1, chi2 = setting
        coef = np.cos(2.0 * np.pi * grid.x_centers / grid.torus_length)
        state = np.stack(
            [np.outer(coef, rho**2 * chi1.values), np.outer(coef, -chi2.values)]
        )
        proj = project_pi(state, rho, chi1, chi2, grid)
        np.testing.assert_allclose(proj[0], state[0], atol=1e-12)
        np.testing.assert_allclose(proj[1], state[1], atol=1e-12)

    def test_idempotent(self, setting):
        grid, chi1, chi2 = setting
        state = random_pair(grid, np.random.default_rng(6))
        once = project_pi(state, 1.6, chi1, chi2, grid)
        twice = project_pi(once, 1.6, chi1, chi2, grid)
        np.testing.assert_allclose(twice[0], once[0], atol=1e-13)
        np.testing.assert_allclose(twice[1], once[1], atol=1e-13)

    def test_self_adjoint_and_orthogonal(self, setting):
        grid, chi1, chi2 = setting
        rng = np.random.default_rng(7)
        rho = 1.3
        a, b = random_pair(grid, rng), random_pair(grid, rng)
        pa, pb = (project_pi(s, rho, chi1, chi2, grid) for s in (a, b))
        lhs = weighted_inner(pa, b, chi1, chi2, rho, grid)
        rhs = weighted_inner(a, pb, chi1, chi2, rho, grid)
        assert lhs == pytest.approx(rhs, rel=1e-11)
        cross = weighted_inner(pa, a - pa, chi1, chi2, rho, grid)
        scale = weighted_inner(a, a, chi1, chi2, rho, grid)
        assert abs(cross) <= 1e-12 * scale

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_density_difference_norm_identity(self, setting, rho):
        # The spatial l2 norm of rho_f - rho_g equals
        # sqrt((rho^2+1)/rho) times the weighted norm of the kernel part,
        # exactly, state by state.
        grid, chi1, chi2 = setting
        state = random_pair(grid, np.random.default_rng(8))
        rho_f, rho_g = macroscopic_densities(state, grid)
        c_u = np.sqrt((rho**2 + 1.0) / rho)
        proj = project_pi(state, rho, chi1, chi2, grid)
        assert norm2(rho_f - rho_g, grid) == pytest.approx(
            c_u * weighted_norm(proj, chi1, chi2, rho, grid), rel=1e-12
        )


class TestCollision:
    def test_kernel_states_are_annihilated(self, setting):
        grid, chi1, chi2 = setting
        rho = 1.9
        coef = np.sin(2.0 * np.pi * grid.x_centers / grid.torus_length) + 0.3
        state = np.stack(
            [np.outer(coef, rho**2 * chi1.values), np.outer(coef, -chi2.values)]
        )
        out = collision_linear(state, rho, chi1, chi2, grid)
        scale = float(np.max(np.abs(state[0])))
        assert float(np.max(np.abs(out[0]))) <= 1e-12 * scale
        assert float(np.max(np.abs(out[1]))) <= 1e-12 * scale

    def test_equilibrium_deviation_of_projection_is_zero(self, setting):
        grid, chi1, chi2 = setting
        state = random_pair(grid, np.random.default_rng(9))
        rho = 0.7
        proj = project_pi(state, rho, chi1, chi2, grid)
        out = collision_linear(proj, rho, chi1, chi2, grid)
        assert float(np.max(np.abs(out[0]))) <= 1e-12
        assert float(np.max(np.abs(out[1]))) <= 1e-12

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_dissipative_with_kernel_gap(self, setting, rho):
        grid, chi1, chi2 = setting
        rng = np.random.default_rng(10)
        c_mc = min(rho, 1.0 / rho)
        for _ in range(25):
            state = random_pair(grid, rng)
            out = collision_linear(state, rho, chi1, chi2, grid)
            dissipation = -weighted_inner(out, state, chi1, chi2, rho, grid)
            rest = state - project_pi(state, rho, chi1, chi2, grid)
            gap = weighted_inner(rest, rest, chi1, chi2, rho, grid)
            scale = weighted_inner(state, state, chi1, chi2, rho, grid)
            assert dissipation >= -1e-12 * scale
            assert dissipation - c_mc * gap >= -1e-11 * scale


class TestMacroscopicDensities:
    def test_matches_naive_loop(self, setting):
        grid, _, _ = setting
        state = random_pair(grid, np.random.default_rng(11))
        rho_f, rho_g = macroscopic_densities(state, grid)
        for i in range(grid.nx):
            assert rho_f[i] == pytest.approx(
                grid.dv * sum(state[0, i, m] for m in range(grid.n_vel)), rel=1e-13
            )
            assert rho_g[i] == pytest.approx(
                grid.dv * sum(state[1, i, m] for m in range(grid.n_vel)), rel=1e-13
            )

    def test_equilibrium_levels(self, setting):
        grid, chi1, chi2 = setting
        eq = build_equilibrium(2.0, chi1, chi2, grid)
        rho_f, rho_g = macroscopic_densities(eq.state, grid)
        np.testing.assert_allclose(rho_f, 2.0, rtol=1e-13)
        np.testing.assert_allclose(rho_g, 0.5, rtol=1e-13)

    def test_replicated_profile_has_unit_density(self, setting):
        grid, chi1, _ = setting
        field = np.tile(chi1.values, (grid.nx, 1))
        rho_f, _ = macroscopic_densities(np.stack([field, field]), grid)
        np.testing.assert_allclose(rho_f, 1.0, rtol=1e-13)


class TestMoments:
    def test_even_field_has_zero_current(self, setting):
        grid, chi1, _ = setting
        h = np.tile(chi1.values, (grid.nx, 1))
        _, j, _ = moments_ujs(h, grid, d0=1.0)
        assert float(np.max(np.abs(j))) <= 1e-14

    def test_zero_deviation_has_zero_moments(self):
        grid = make_grid(nv=4)
        chi = discretize_profile(gaussian_profile, grid)
        eq = build_equilibrium(1.0, chi, chi, grid)
        h = eq.state[0] - eq.state[1]
        u, j, s = moments_ujs(h, grid, constants_ledger(chi, chi, 1.0, grid, 0.0, 0.1).d0)
        assert np.all(u == 0.0) and np.all(j == 0.0) and np.all(s == 0.0)

    def test_matches_direct_sums(self, setting):
        grid, _, _ = setting
        rng = np.random.default_rng(12)
        h = rng.standard_normal((grid.nx, grid.n_vel))
        d0 = 1.7
        u, j, s = moments_ujs(h, grid, d0)
        v = grid.v_centers
        np.testing.assert_allclose(u, grid.dv * h.sum(axis=1), rtol=1e-13)
        np.testing.assert_allclose(j, grid.dv * (h * v).sum(axis=1), rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(
            s, grid.dv * (h * (v**2 - d0)).sum(axis=1), rtol=1e-12, atol=1e-14
        )

    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_moment_estimates(self, setting, rho):
        # The five bounds tying velocity moments to the weighted norm and its
        # kernel split, with constants from the ledger.
        grid, chi1, chi2 = setting
        led = constants_ledger(chi1, chi2, rho, grid, lam=1.0, dt_max=0.1)
        rng = np.random.default_rng(13)
        for _ in range(25):
            state = random_pair(grid, rng)
            proj = project_pi(state, rho, chi1, chi2, grid)
            rest = state - proj
            u, j, s = moments_ujs(state[0] - state[1], grid, led.d0)
            _, jf, _ = moments_ujs(state[0], grid, led.d0)
            _, jg, _ = moments_ujs(state[1], grid, led.d0)
            total = weighted_norm(state, chi1, chi2, rho, grid)
            kernel = weighted_norm(proj, chi1, chi2, rho, grid)
            rest_norm = weighted_norm(rest, chi1, chi2, rho, grid)
            slack = 1e-11 * total
            assert norm2(u, grid) == pytest.approx(led.c_u * kernel, rel=1e-11)
            assert norm2(j, grid) <= led.c_j1 * total + slack
            assert norm2(j, grid) <= led.c_j1 * rest_norm + slack
            assert norm2(s, grid) <= led.c_s * rest_norm + slack
            assert norm2(jf / rho - rho * jg, grid) <= led.c_j2 * rest_norm + slack


class TestConstantsLedger:
    def test_unit_density_values(self, setting):
        grid, chi1, chi2 = setting
        led = constants_ledger(chi1, chi2, 1.0, grid, lam=0.5, dt_max=0.1)
        assert led.c_mc == 1.0
        assert led.c_u == pytest.approx(np.sqrt(2.0), rel=1e-15)
        assert led.c_j2 == pytest.approx(led.c_j1, rel=1e-15)

    def test_all_fields_positive_on_production_grid(self):
        grid = build_grid(np.pi, 101, 16, 12.0)
        from kinrec.grid import NAMED_PROFILES, discretize_profile

        profiles = {k: discretize_profile(v, grid) for k, v in NAMED_PROFILES.items()}
        for name1, name2, rho in [
            ("heavytail", "heavytail", 1.0),
            ("heavytail", "oscillating", 1.4),
            ("gaussian", "gaussian", 0.6),
        ]:
            led = constants_ledger(
                profiles[name1], profiles[name2], rho, grid, lam=6.0, dt_max=0.3
            )
            for field, value in vars(led).items():
                assert value > 0.0, f"{field} for ({name1},{name2},{rho})"
            assert led.delta < min(led.delta1, led.delta2, led.delta3)
            assert led.kappa == pytest.approx(led.k_delta / led.c_upper, rel=1e-15)

    def test_margins_survive_aggressive_fraction(self, setting):
        grid, chi1, chi2 = setting
        led = constants_ledger(chi1, chi2, 1.2, grid, lam=2.0, dt_max=0.3, delta_fraction=0.99)
        assert led.k_delta > 0.0
        assert led.c_lower > 0.0

    def test_centered_flux_drops_diffusion_terms(self, setting):
        grid, chi1, chi2 = setting
        led = constants_ledger(chi1, chi2, 1.0, grid, lam=0.0, dt_max=0.1)
        assert led.alpha1 == pytest.approx(led.c_j1**2, rel=1e-15)

    @pytest.mark.parametrize(
        "kwargs",
        [
            # rho rounds to 0: the data's mass difference is far below -torus_length.
            {"test": 4, "v_star": 1e12, "seed": 2, "path": "grid.vstar"},
            {"test": 4, "v_star": 1e12, "seed": 3, "path": "grid.vstar"},
            {"lam": -0.5, "path": "model.lambda"},
            {"model": "nonlinear", "dt_max": 0.0, "path": "time.dt"},
            # The profiles' second moments underflow to 0, and delta1 divides by them.
            {"v_star": 1e-308, "path": "grid.vstar"},
            # The auto lambda = dx/(2 dt) overflows the squares of the LF terms.
            {"dt": 1e-300, "t_final": 1e-299, "path": "time.dt"},
        ],
    )
    def test_invalid_arguments_rejected(self, kwargs):
        # constants_ledger takes its arguments unchecked: a run's come from a
        # config that load_config or build_setup refuses, naming the key,
        # unless every constant is a double.
        overrides = dict(nx=5, nv=1, t_final=0.3)
        overrides.update(kwargs)
        path = overrides.pop("path").replace(".", r"\.")
        with pytest.raises(ValidationError, match=path):
            build_setup(load_config(None, overrides))


class TestPeriodicTransforms:
    @settings(derandomize=True, database=None, max_examples=60, deadline=None)
    @given(
        # Odd nx up to 301, with the primes of the presets' range and the
        # last dense and first FFT size.
        nx=st.one_of(
            st.integers(1, 150).map(lambda k: 2 * k + 1),
            st.sampled_from([37, 53, 71, 89, 101, DENSE_DFT_MAX_NX, DENSE_DFT_MAX_NX + 2]),
        ),
        n_vel=st.integers(1, 16).map(lambda k: 2 * k),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_helpers_match_numpy_fft_and_round_trip(self, nx, n_vel, seed):
        rng = np.random.default_rng(seed)
        cells = rng.standard_normal((2, nx, n_vel))
        modes = rfft_pair(cells)
        expected = np.fft.rfft(cells, axis=1).transpose(1, 0, 2)
        assert modes.dtype == complex and modes.flags.c_contiguous
        np.testing.assert_allclose(
            modes, expected, rtol=0.0, atol=1e-13 * np.max(np.abs(expected))
        )
        back = irfft_pair(modes, nx)
        assert back.shape == cells.shape and back.flags.c_contiguous
        np.testing.assert_allclose(back, cells, rtol=0.0, atol=1e-13 * np.max(np.abs(cells)))
        # Modes of no real field: irfft drops the imaginary part at k = 0.
        drawn = rng.standard_normal(modes.shape) + 1j * rng.standard_normal(modes.shape)
        reference = np.fft.irfft(drawn, n=nx, axis=0).transpose(1, 0, 2)
        np.testing.assert_allclose(
            irfft_pair(drawn, nx), reference, rtol=0.0, atol=1e-13 * np.max(np.abs(reference))
        )

    def test_matrices_are_built_on_the_first_transform(self):
        dft_matrices.cache_clear()
        setup = build_setup(load_config(None, {"nx": 21, "nv": 2}))
        assert dft_matrices.cache_info().currsize == 0
        rfft_pair(setup.data0)
        assert dft_matrices.cache_info().currsize == 1
