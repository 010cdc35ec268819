"""Transport fluxes, the implicit linearized scheme, and its moment closures."""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import (
    collision_linear,
    dense_reference_operator,
    flux_divergence,
    lax_friedrichs_dissipation,
    linear_step_matrix,
    make_grid,
    make_profiles,
    naive_flux_divergence,
    project_pi,
    random_pair,
    residual_linear,
    second_difference,
    transport_quadratic_form,
    verify_moment_schemes,
)
from kinrec.grid import build_grid, centered_gradient
from kinrec.linear import (
    CENTERED,
    FLUX_NAMES,
    LAX_FRIEDRICHS,
    UPWIND,
    Flux,
    assemble_linear_operator,
)
from kinrec.config import ValidationError, load_config
from kinrec.runner import build_setup
from kinrec.state import (
    constants_ledger,
    irfft_pair,
    mass_difference,
    rfft_pair,
    weighted_inner,
)

ALL_FLUXES = [Flux(LAX_FRIEDRICHS, 1.3), Flux(CENTERED), Flux(UPWIND)]

flux_cases = dict(
    nx=st.integers(1, 15).map(lambda k: 2 * k + 1),
    nv=st.integers(1, 4),
    length=st.floats(0.5, 4.0),
    v_star=st.floats(0.5, 12.0),
    lam=st.floats(0.0, 10.0, exclude_min=True),
    seed=st.integers(0, 2**32 - 1),
)
flux_settings = settings(derandomize=True, database=None, max_examples=60, deadline=None)


def drawn_flux(kind, lam):
    return Flux(LAX_FRIEDRICHS, lam) if kind == LAX_FRIEDRICHS else Flux(kind)


def drawn_field(grid, seed):
    return np.random.default_rng(seed).standard_normal((grid.nx, grid.n_vel))


@pytest.fixture
def setting():
    grid = make_grid(torus_length=2.0, nx=7, nv=3, v_star=3.0)
    chi1, chi2 = make_profiles(grid)
    return grid, chi1, chi2


class TestFlux:
    def test_kind_names_are_config_spellings(self):
        assert LAX_FRIEDRICHS == "lax-friedrichs"
        assert CENTERED == "centered"
        assert UPWIND == "upwind"

    @pytest.mark.parametrize(
        "args",
        [("lax-friedrichs", 0.0, "model.lambda"), ("lax-friedrichs", -1.0, "model.lambda"),
         ("centered", 1.0, "model.lambda"), ("upwind", 0.5, "model.lambda"),
         ("bogus", 0.0, "model.flux")],
    )
    def test_invalid_combinations_rejected(self, args):
        # Flux takes its kind and lam unchecked: a run's come from a config
        # that load_config refuses, naming the key, unless Flux can use them.
        kind, lam, path = args
        with pytest.raises(ValidationError, match=path.replace(".", r"\.")):
            load_config(None, {"flux": kind, "lam": lam})


class TestFluxDivergence:
    @pytest.mark.parametrize("flux", ALL_FLUXES, ids=lambda f: f.kind)
    def test_constant_field_is_stationary(self, flux):
        grid = make_grid(nx=5, nv=2)
        field = np.full((grid.nx, grid.n_vel), 3.7)
        assert np.all(flux_divergence(field, flux, grid) == 0.0)

    @pytest.mark.parametrize("kind", [LAX_FRIEDRICHS, CENTERED, UPWIND])
    @flux_settings
    @given(**flux_cases)
    def test_matches_interface_flux_loop(self, kind, nx, nv, length, v_star, lam, seed):
        grid = build_grid(length, nx, nv, v_star)
        flux = drawn_flux(kind, lam)
        field = drawn_field(grid, seed)
        expected = naive_flux_divergence(field, flux, grid)
        np.testing.assert_allclose(
            flux_divergence(field, flux, grid),
            expected,
            rtol=0.0,
            atol=1e-12 * np.max(np.abs(expected)),
        )

    @pytest.mark.parametrize("flux", ALL_FLUXES, ids=lambda f: f.kind)
    def test_conservative_per_velocity(self, flux):
        grid = make_grid(nx=9, nv=4)
        field = np.random.default_rng(2).standard_normal((grid.nx, grid.n_vel))
        column_sums = grid.dx * flux_divergence(field, flux, grid).sum(axis=0)
        np.testing.assert_allclose(column_sums, 0.0, atol=1e-13)

    def test_lf_is_centered_plus_gradient_penalty(self):
        # Second route to the LF update: centered transport minus lam*dx times
        # the second difference.
        grid = make_grid(nx=11, nv=3)
        field = np.random.default_rng(3).standard_normal((grid.nx, grid.n_vel))
        lam = 0.8
        lf = flux_divergence(field, Flux(LAX_FRIEDRICHS, lam), grid)
        composed = grid.v_centers * centered_gradient(field, grid) - lam * grid.dx * (
            second_difference(field, grid)
        )
        np.testing.assert_allclose(lf, composed, atol=1e-13)


class TestCollisionMatrix:
    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_matches_entrywise_operator(self, setting, rho):
        # The collision part of the step matrix, (state + dt*T state -
        # matrix @ state)/dt with T the transport stencil on both species.
        grid, chi1, chi2 = setting
        state = random_pair(grid, np.random.default_rng(5))
        dt, flux = 0.25, Flux(LAX_FRIEDRICHS, 1.3)
        matrix = linear_step_matrix(grid, chi1, chi2, rho, dt, flux)
        transport = flux_divergence(state, flux, grid)
        stepped = (state + dt * transport).ravel() - matrix @ state.ravel()
        via_matrix = (stepped / dt).reshape(state.shape)
        direct = collision_linear(state, rho, chi1, chi2, grid)
        np.testing.assert_allclose(via_matrix[0], direct[0], atol=1e-13)
        np.testing.assert_allclose(via_matrix[1], direct[1], atol=1e-13)


class TestImplicitOperator:
    @pytest.mark.parametrize("flux", ALL_FLUXES, ids=lambda f: f.kind)
    def test_matrix_matches_dense_reference(self, flux):
        # Entry-by-entry comparison with a loop-assembled dense matrix on the
        # smallest mesh: 12 unknowns total for nx=3, nv=1.
        grid = build_grid(1.0, 3, 1, 1.0)
        chi1, chi2 = make_profiles(grid)
        rho, dt = 1.7, 0.2
        dense = dense_reference_operator(grid, chi1, chi2, rho, dt, flux)
        assert dense.shape == (12, 12)
        np.testing.assert_allclose(
            linear_step_matrix(grid, chi1, chi2, rho, dt, flux), dense, atol=1e-13
        )

    def test_matrix_matches_dense_reference_larger(self):
        grid = make_grid(torus_length=1.5, nx=5, nv=2, v_star=2.0)
        chi1, chi2 = make_profiles(grid)
        flux = Flux(LAX_FRIEDRICHS, 1.1)
        dense = dense_reference_operator(grid, chi1, chi2, 0.8, 0.05, flux)
        np.testing.assert_allclose(
            linear_step_matrix(grid, chi1, chi2, 0.8, 0.05, flux), dense, atol=1e-13
        )

    def test_apply_equals_stencil_action(self, setting):
        grid, chi1, chi2 = setting
        rho, dt = 1.2, 0.1
        flux = Flux(LAX_FRIEDRICHS, 0.9)
        matrix = linear_step_matrix(grid, chi1, chi2, rho, dt, flux)
        state = random_pair(grid, np.random.default_rng(6))
        applied = (matrix @ state.ravel()).reshape(state.shape)
        coll = collision_linear(state, rho, chi1, chi2, grid)
        expect_f = state[0] + dt * (flux_divergence(state[0], flux, grid) - coll[0])
        expect_g = state[1] + dt * (flux_divergence(state[1], flux, grid) - coll[1])
        np.testing.assert_allclose(applied[0], expect_f, atol=1e-12)
        np.testing.assert_allclose(applied[1], expect_g, atol=1e-12)

    @flux_settings
    @given(
        kind=st.sampled_from(FLUX_NAMES),
        # Prime nx up to the presets' 101, with one velocity pair so that the
        # dense reference stays small.
        shape=st.one_of(
            st.tuples(flux_cases["nx"], flux_cases["nv"]),
            st.tuples(st.sampled_from([37, 53, 71, 89, 101]), st.just(1)),
        ),
        lam=flux_cases["lam"],
        rho=st.floats(0.2, 5.0),
        dt=st.floats(1e-3, 2.0),
        seed=flux_cases["seed"],
    )
    def test_solve_matches_dense_solve(self, kind, shape, lam, rho, dt, seed):
        # The per-mode Fourier solve against a dense solve of the
        # loop-assembled matrix, over grids, fluxes and linearizations; that
        # matrix is also dt times the Newton Jacobian at equilibrium, up to
        # rounding of its largest entry (dt*lam/dx reaches the hundreds).
        grid = build_grid(1.0, *shape, 3.0)
        chi1, chi2 = make_profiles(grid)
        flux = drawn_flux(kind, lam)
        state = random_pair(grid, np.random.default_rng(seed))
        op = assemble_linear_operator(grid, chi1, chi2, rho, dt, flux)
        stepped = op.solve(state.ravel())
        dense = dense_reference_operator(grid, chi1, chi2, rho, dt, flux)
        np.testing.assert_allclose(
            linear_step_matrix(grid, chi1, chi2, rho, dt, flux),
            dense,
            rtol=0.0,
            atol=1e-13 * np.max(np.abs(dense)),
        )
        # Least squares, not LU: the periodic corner entries give partial
        # pivoting a Wilkinson-like growth (2e6 on the centered 53x1 grid at
        # dt = 1/32), which costs an LU solve ten digits on a matrix of
        # condition 2.7.
        expected = np.linalg.lstsq(dense, state.ravel(), rcond=None)[0]
        np.testing.assert_allclose(
            stepped, expected, rtol=0.0, atol=1e-12 * np.max(np.abs(expected))
        )

    @flux_settings
    @given(
        kind=st.sampled_from(FLUX_NAMES),
        nx=st.one_of(flux_cases["nx"], st.sampled_from([37, 53, 71, 89, 101])),
        nv=flux_cases["nv"],
        lam=flux_cases["lam"],
        rho=st.floats(0.2, 5.0),
        dt=st.floats(1e-3, 2.0),
        seed=flux_cases["seed"],
    )
    def test_solve_modes_is_the_solve_in_fourier_space(self, kind, nx, nv, lam, rho, dt, seed):
        grid = build_grid(1.0, nx, nv, 3.0)
        chi1, chi2 = make_profiles(grid)
        op = assemble_linear_operator(grid, chi1, chi2, rho, dt, drawn_flux(kind, lam))
        state = random_pair(grid, np.random.default_rng(seed))
        modes = rfft_pair(state)
        op.solve_modes(modes)
        solved = op.solve(state.ravel())
        expected = rfft_pair(solved.reshape(2, grid.nx, grid.n_vel))
        np.testing.assert_allclose(
            modes, expected, rtol=0.0, atol=1e-12 * np.max(np.abs(expected))
        )
        np.testing.assert_array_equal(irfft_pair(modes, grid.nx).ravel(), solved)

    @flux_settings
    @given(
        kind=st.sampled_from(FLUX_NAMES),
        nx=st.one_of(flux_cases["nx"], st.sampled_from([37, 53, 71, 89, 101])),
        nv=flux_cases["nv"],
        lam=flux_cases["lam"],
        rho=st.floats(0.2, 5.0),
        dt=st.floats(1e-3, 2.0),
        seed=flux_cases["seed"],
    )
    def test_on_modes_solves_the_kept_modes_bit_for_bit(self, kind, nx, nv, lam, rho, dt, seed):
        # The linear march steps only its live modes, a contiguous copy of
        # them, with the operator narrowed to them: each must keep the bits
        # of the whole solve, in the masked subset and in any order.
        grid = build_grid(1.0, nx, nv, 3.0)
        chi1, chi2 = make_profiles(grid)
        op = assemble_linear_operator(grid, chi1, chi2, rho, dt, drawn_flux(kind, lam))
        rng = np.random.default_rng(seed)
        modes = rfft_pair(random_pair(grid, rng))
        keep = rng.random(len(modes)) < 0.5
        selections = (keep, rng.permutation(np.flatnonzero(keep)))
        narrowed = [modes[selection] for selection in selections]
        for selection, kept in zip(selections, narrowed):
            op.on_modes(selection).solve_modes(kept)
        op.solve_modes(modes)
        for selection, kept in zip(selections, narrowed):
            assert kept.tobytes() == modes[selection].tobytes()

    def test_zero_state_is_fixed(self, setting):
        grid, chi1, chi2 = setting
        op = assemble_linear_operator(grid, chi1, chi2, 1.0, 0.1, Flux(CENTERED))
        out = op.solve(np.zeros(2 * grid.n_unknowns))
        assert np.all(out == 0.0)

    @pytest.mark.parametrize("flux", ALL_FLUXES, ids=lambda f: f.kind)
    def test_uniform_states_reduce_to_cell_ode(self, setting, flux):
        # A spatially uniform state sees no transport; the implicit step then
        # solves one dense reaction system per cell, assembled here by hand.
        grid, chi1, chi2 = setting
        rho, dt = 1.4, 0.15
        rng = np.random.default_rng(8)
        nvel = grid.n_vel
        row_f, row_g = rng.standard_normal(nvel), rng.standard_normal(nvel)
        state = np.stack([np.tile(row_f, (grid.nx, 1)), np.tile(row_g, (grid.nx, 1))])
        op = assemble_linear_operator(grid, chi1, chi2, rho, dt, flux)
        stepped = op.solve(state)

        ident = np.eye(nvel)
        cell = np.block(
            [
                [ident * (1.0 + dt / rho), dt * rho * grid.dv * np.outer(chi1.values, np.ones(nvel))],
                [dt * grid.dv * np.outer(chi2.values, np.ones(nvel)) / rho, ident * (1.0 + dt * rho)],
            ]
        )
        expected = np.linalg.solve(cell, np.concatenate([row_f, row_g]))
        for i in range(grid.nx):
            np.testing.assert_allclose(stepped[0, i], expected[:nvel], atol=1e-12)
            np.testing.assert_allclose(stepped[1, i], expected[nvel:], atol=1e-12)

    @pytest.mark.parametrize("flux", ALL_FLUXES, ids=lambda f: f.kind)
    def test_step_has_small_residual(self, setting, flux):
        grid, chi1, chi2 = setting
        rho, dt = 0.9, 0.1
        op = assemble_linear_operator(grid, chi1, chi2, rho, dt, flux)
        state = random_pair(grid, np.random.default_rng(9))
        nxt = op.solve(state)
        res = residual_linear(nxt, state, dt, flux, chi1, chi2, rho, grid)
        scale = max(1.0, float(np.max(np.abs(state[0]))), float(np.max(np.abs(state[1]))))
        assert float(np.max(np.abs(res[0]))) <= 1e-11 * scale
        assert float(np.max(np.abs(res[1]))) <= 1e-11 * scale

    @pytest.mark.parametrize("flux", ALL_FLUXES, ids=lambda f: f.kind)
    def test_mass_difference_conserved(self, setting, flux):
        grid, chi1, chi2 = setting
        op = assemble_linear_operator(grid, chi1, chi2, 1.1, 0.2, flux)
        state = random_pair(grid, np.random.default_rng(10))
        before = mass_difference(state, grid)
        for _ in range(20):
            state = op.solve(state)
        assert mass_difference(state, grid) == pytest.approx(
            before, abs=1e-11 * max(1.0, abs(before))
        )

    def test_invalid_parameters_rejected(self):
        # The operator takes dt and rho unchecked: load_config refuses a dt
        # that is not positive, and build_setup an equilibrium level that is
        # not a finite positive number (here the data's mass difference is so
        # far below -torus_length that rho rounds to 0).
        with pytest.raises(ValidationError, match=r"time\.dt"):
            load_config(None, {"dt": 0.0})
        cfg = load_config(None, dict(test=4, nx=5, nv=1, t_final=0.3, v_star=1e12, seed=2))
        with pytest.raises(ValidationError, match=r"grid\.vstar: .* rho = 0,"):
            build_setup(cfg)


class TestEnergyStructure:
    @pytest.mark.parametrize(
        "flux", [Flux(LAX_FRIEDRICHS, 1.3), Flux(CENTERED)], ids=lambda f: f.kind
    )
    @pytest.mark.parametrize("rho", [0.5, 1.0, 2.0])
    def test_per_step_energy_inequality(self, setting, flux, rho):
        # One implicit step contracts the weighted square norm by at least the
        # collision gap on the non-kernel part of the new state.
        grid, chi1, chi2 = setting
        dt = 0.1
        c_mc = min(rho, 1.0 / rho)
        op = assemble_linear_operator(grid, chi1, chi2, rho, dt, flux)
        rng = np.random.default_rng(11)
        for _ in range(34):
            state = random_pair(grid, rng)
            nxt = op.solve(state)
            before = weighted_inner(state, state, chi1, chi2, rho, grid)
            after = weighted_inner(nxt, nxt, chi1, chi2, rho, grid)
            rest = nxt - project_pi(nxt, rho, chi1, chi2, grid)
            gap = weighted_inner(rest, rest, chi1, chi2, rho, grid)
            assert 0.5 * (after - before) + dt * c_mc * gap <= 1e-12 * before

    def test_centered_form_vanishes(self, setting):
        grid, chi1, chi2 = setting
        state = random_pair(grid, np.random.default_rng(12))
        form = transport_quadratic_form(state, Flux(CENTERED), chi1, chi2, 1.2, grid)
        scale = weighted_inner(state, state, chi1, chi2, 1.2, grid)
        assert abs(form) <= 1e-12 * scale

    @pytest.mark.parametrize(
        "flux", [Flux(LAX_FRIEDRICHS, 2.0), Flux(UPWIND)], ids=lambda f: f.kind
    )
    def test_dissipative_forms_are_nonnegative(self, setting, flux):
        grid, chi1, chi2 = setting
        rng = np.random.default_rng(13)
        for _ in range(10):
            state = random_pair(grid, rng)
            form = transport_quadratic_form(state, flux, chi1, chi2, 0.7, grid)
            scale = weighted_inner(state, state, chi1, chi2, 0.7, grid)
            assert form >= -1e-12 * scale

    def test_lf_form_splits_into_centered_plus_dissipation(self, setting):
        grid, chi1, chi2 = setting
        rng = np.random.default_rng(14)
        rho, lam = 1.5, 0.9
        for _ in range(10):
            state = random_pair(grid, rng)
            lf = transport_quadratic_form(
                state, Flux(LAX_FRIEDRICHS, lam), chi1, chi2, rho, grid
            )
            cen = transport_quadratic_form(state, Flux(CENTERED), chi1, chi2, rho, grid)
            dissipation = lax_friedrichs_dissipation(state, lam, chi1, chi2, rho, grid)
            assert dissipation >= 0.0
            assert lf - cen == pytest.approx(dissipation, rel=1e-11)


class TestMomentSchemes:
    def test_zero_state_closes_exactly(self, setting):
        grid, chi1, chi2 = setting
        z = np.zeros((2, grid.nx, grid.n_vel))
        assert verify_moment_schemes(z, z, grid, 1.0, 1.0, 0.1, 0.5) == (0.0, 0.0)

    @pytest.mark.parametrize("lam", [0.0, 1.3])
    def test_residuals_along_implicit_steps(self, setting, lam):
        # The density and current differences of consecutive implicit iterates
        # satisfy their own closed updates; lam = 0 covers the centered flux.
        grid, chi1, chi2 = setting
        rho, dt = 1.2, 0.07
        flux = Flux(LAX_FRIEDRICHS, lam) if lam > 0.0 else Flux(CENTERED)
        d0 = constants_ledger(chi1, chi2, rho, grid, lam, dt).d0
        op = assemble_linear_operator(grid, chi1, chi2, rho, dt, flux)
        state = random_pair(grid, np.random.default_rng(15))
        for _ in range(5):
            nxt = op.solve(state)
            res_u, res_j = verify_moment_schemes(state, nxt, grid, rho, d0, dt, lam)
            assert res_u <= 1e-11
            assert res_j <= 1e-11
            state = nxt

    def test_perturbed_step_fails_closure(self, setting):
        grid, chi1, chi2 = setting
        rho, dt, lam = 1.2, 0.07, 1.3
        d0 = constants_ledger(chi1, chi2, rho, grid, lam, dt).d0
        op = assemble_linear_operator(grid, chi1, chi2, rho, dt, Flux(LAX_FRIEDRICHS, lam))
        state = random_pair(grid, np.random.default_rng(16))
        nxt = op.solve(state)
        bad = nxt.copy()
        bad[0, 2, 1] += 1e-3
        res_u, res_j = verify_moment_schemes(state, bad, grid, rho, d0, dt, lam)
        assert max(res_u, res_j) > 1e-6


PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kinrec"


def imported_modules(source: Path) -> set[str]:
    """Every module and imported name a source file's import statements name."""
    imported = set()
    for node in ast.walk(ast.parse(source.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:  # relative to the kinrec package
                base = ".".join(filter(None, ["kinrec", base]))
            imported.add(base)
            imported.update(f"{base}.{alias.name}" for alias in node.names)
    return imported


def test_linear_module_needs_no_sparse_assembly():
    # The linear model is its fluxes and the per-mode solve; it needs nothing
    # of the nonlinear Newton system.
    imported = imported_modules(PACKAGE / "linear.py")
    assert "kinrec.state" in imported  # the walk sees the relative imports
    assert not any(name.split(".")[:2] == ["kinrec", "nonlinear"] for name in imported)


@pytest.mark.parametrize("source", sorted(PACKAGE.glob("*.py")), ids=lambda path: path.name)
def test_package_module_imports_no_scipy(source):
    # The package depends on numpy alone; scipy is a test dependency.
    imported = imported_modules(source)
    assert imported  # the walk sees the module's imports
    assert not any(name.split(".")[0] == "scipy" for name in imported)
