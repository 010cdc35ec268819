"""Mesh construction, periodic gradients, and velocity profiles."""

import numpy as np
import pytest
from scipy.integrate import quad

from conftest import make_grid, norm2
from kinrec.grid import (
    NAMED_PROFILES,
    VelocityProfile,
    backward_gradient,
    build_grid,
    centered_gradient,
    discretize_profile,
    forward_gradient,
    gaussian_profile,
    heavytail_profile,
    oscillating_profile,
    poincare_constant,
    profile_from_samples,
    second_difference,
)


# Loop-based reference gradients, written directly from the difference
# quotients; the library versions are vectorized and must match these.
def naive_gradient(u, variant, dx):
    n = len(u)
    out = np.zeros(n)
    for i in range(n):
        if variant == "centered":
            out[i] = (u[(i + 1) % n] - u[(i - 1) % n]) / (2.0 * dx)
        elif variant == "forward":
            out[i] = (u[(i + 1) % n] - u[i]) / dx
        else:
            out[i] = (u[i] - u[(i - 1) % n]) / dx
    return out


def inner(a, b, grid):
    return grid.dx * float(np.dot(np.asarray(a).ravel(), np.asarray(b).ravel()))


class TestBuildGrid:
    def test_standard_mesh_dimensions(self):
        grid = build_grid(np.pi, 101, 16, 12.0)
        assert grid.dx == pytest.approx(np.pi / 101, rel=1e-15)
        assert grid.dv == pytest.approx(0.75, rel=1e-15)
        assert grid.n_vel == 32
        assert grid.n_unknowns == 101 * 32
        assert grid.x_centers[0] == pytest.approx(grid.dx / 2)
        assert grid.v_centers[0] == pytest.approx(-11.625)
        assert grid.v_centers[-1] == pytest.approx(11.625)

    def test_smallest_mesh(self):
        grid = build_grid(1.0, 3, 1, 1.0)
        np.testing.assert_allclose(grid.v_centers, [-0.5, 0.5], rtol=0, atol=0)
        np.testing.assert_allclose(grid.x_centers, [1 / 6, 1 / 2, 5 / 6], rtol=1e-15)

    def test_velocity_mirror_is_bitwise(self):
        for nv, v_star in [(1, 1.0), (4, 3.0), (16, 12.0), (7, 2.5)]:
            grid = build_grid(1.0, 5, nv, v_star)
            assert np.all(grid.v_centers == -grid.v_centers[::-1])
            assert np.all(np.diff(grid.v_centers) > 0)

    @pytest.mark.parametrize(
        "args",
        [
            (1.0, 100, 4, 1.0),
            (1.0, 4, 4, 1.0),
            (1.0, 1, 4, 1.0),
            (1.0, 5, 0, 1.0),
            (0.0, 5, 4, 1.0),
            (-1.0, 5, 4, 1.0),
            (1.0, 5, 4, 0.0),
        ],
    )
    def test_invalid_mesh_rejected(self, args):
        with pytest.raises(ValueError):
            build_grid(*args)

    def test_even_cell_count_message_mentions_odd(self):
        with pytest.raises(ValueError, match="odd"):
            build_grid(1.0, 100, 4, 1.0)


GRADIENTS = {
    "centered": centered_gradient,
    "forward": forward_gradient,
    "backward": backward_gradient,
}


class TestGradients:
    @pytest.mark.parametrize("variant", ["centered", "forward", "backward"])
    @pytest.mark.parametrize("nx", [3, 11, 31])
    def test_matches_naive_loop(self, variant, nx):
        rng = np.random.default_rng(11)
        grid = make_grid(torus_length=2.3, nx=nx)
        u = rng.standard_normal(nx)
        got = GRADIENTS[variant](u, grid)
        np.testing.assert_allclose(got, naive_gradient(u, variant, grid.dx), atol=1e-13)

    @pytest.mark.parametrize("variant", ["centered", "forward", "backward"])
    def test_constant_field_has_zero_gradient(self, variant):
        grid = make_grid(nx=9)
        u = np.full(9, 4.2)
        assert np.all(GRADIENTS[variant](u, grid) == 0.0)
        assert np.all(second_difference(u, grid) == 0.0)

    def test_applies_along_leading_axis(self):
        rng = np.random.default_rng(3)
        grid = make_grid(nx=7, nv=2)
        u = rng.standard_normal((7, 4))
        got = centered_gradient(u, grid)
        for m in range(4):
            np.testing.assert_allclose(got[:, m], naive_gradient(u[:, m], "centered", grid.dx))

    def test_fourier_mode_is_an_eigenvector(self):
        # Centered differencing of sin(2 pi x / T) returns cos times
        # sin(2 pi dx / T) / dx: the discrete symbol of the exact derivative.
        grid = make_grid(torus_length=2.0, nx=101)
        theta = 2.0 * np.pi / grid.torus_length
        u = np.sin(theta * grid.x_centers)
        expected = np.cos(theta * grid.x_centers) * np.sin(theta * grid.dx) / grid.dx
        np.testing.assert_allclose(centered_gradient(u, grid), expected, atol=1e-13)

    def test_average_of_one_sided_gradients_is_centered(self):
        rng = np.random.default_rng(5)
        for nx in (3, 11, 41):
            grid = make_grid(nx=nx)
            u = rng.standard_normal(nx)
            avg = 0.5 * (forward_gradient(u, grid) + backward_gradient(u, grid))
            np.testing.assert_allclose(avg, centered_gradient(u, grid), atol=1e-13)

    def test_one_sided_gradients_commute(self):
        rng = np.random.default_rng(7)
        grid = make_grid(nx=13)
        u = rng.standard_normal(13)
        ab = forward_gradient(backward_gradient(u, grid), grid)
        ba = backward_gradient(forward_gradient(u, grid), grid)
        np.testing.assert_allclose(ab, ba, atol=1e-11)
        np.testing.assert_allclose(second_difference(u, grid), ab, atol=1e-11)

    @pytest.mark.parametrize("nx", [3, 5, 11, 101])
    def test_summation_by_parts(self, nx):
        rng = np.random.default_rng(nx)
        grid = make_grid(torus_length=1.7, nx=nx)
        u = rng.standard_normal(nx)
        w = rng.standard_normal(nx)
        scale = norm2(u, grid) * norm2(w, grid) / grid.dx
        # Centered gradient is skew-adjoint; forward and backward are mutual
        # negative adjoints.
        assert inner(centered_gradient(u, grid), w, grid) == pytest.approx(
            -inner(u, centered_gradient(w, grid), grid), abs=1e-13 * scale
        )
        assert inner(forward_gradient(u, grid), w, grid) == pytest.approx(
            -inner(u, backward_gradient(w, grid), grid), abs=1e-13 * scale
        )
        # Both orderings of the one-sided pair sum by parts against a single
        # one-sided gradient on each slot.
        lhs = inner(
            forward_gradient(backward_gradient(u, grid), grid)
            + backward_gradient(forward_gradient(u, grid), grid),
            w,
            grid,
        )
        assert lhs == pytest.approx(
            -2.0 * inner(forward_gradient(u, grid), forward_gradient(w, grid), grid),
            abs=1e-12 * scale / grid.dx,
        )
        assert lhs == pytest.approx(
            -2.0 * inner(backward_gradient(u, grid), backward_gradient(w, grid), grid),
            abs=1e-12 * scale / grid.dx,
        )
        # The wide second difference built from two centered applications
        # pairs with centered gradients instead.
        wide = inner(
            4.0 * centered_gradient(centered_gradient(u, grid), grid),
            w,
            grid,
        )
        assert wide == pytest.approx(
            -4.0 * inner(centered_gradient(u, grid), centered_gradient(w, grid), grid),
            abs=1e-12 * scale / grid.dx,
        )

    def test_centered_gradient_norm_bound(self):
        rng = np.random.default_rng(19)
        for nx in (3, 9, 101):
            grid = make_grid(torus_length=0.9, nx=nx)
            for _ in range(20):
                u = rng.standard_normal(nx)
                assert grid.dx * norm2(centered_gradient(u, grid), grid) <= norm2(
                    u, grid
                ) * (1 + 1e-12)


class TestPoincare:
    def test_three_cell_value(self):
        grid = build_grid(1.0, 3, 1, 1.0)
        assert poincare_constant(grid) == pytest.approx((1 / 3) / (np.sqrt(3) / 2), rel=1e-14)

    def test_fine_mesh_approaches_continuum(self):
        grid = build_grid(1.0, 101, 1, 1.0)
        assert poincare_constant(grid) == pytest.approx(1.0 / np.pi, rel=0.02)

    def test_inequality_on_mean_free_fields(self):
        rng = np.random.default_rng(23)
        for nx in (3, 11, 101):
            grid = make_grid(torus_length=2.0, nx=nx)
            cp = poincare_constant(grid)
            for _ in range(34):
                u = rng.standard_normal(nx)
                u -= u.mean()
                assert norm2(u, grid) <= cp * norm2(centered_gradient(u, grid), grid) * (
                    1 + 1e-12
                )

    @pytest.mark.parametrize("nx", [3, 11, 101])
    def test_sharpness_at_extremal_mode(self, nx):
        grid = make_grid(torus_length=1.3, nx=nx)
        k = np.arange(1, nx)
        k_star = int(k[np.argmin(np.abs(np.sin(2.0 * np.pi * k / nx)))])
        u = np.cos(2.0 * np.pi * k_star * np.arange(nx) / nx)
        lhs = norm2(u, grid)
        rhs = poincare_constant(grid) * norm2(centered_gradient(u, grid), grid)
        assert lhs == pytest.approx(rhs, rel=1e-10)


class TestProfiles:
    @pytest.mark.parametrize("name", sorted(NAMED_PROFILES))
    def test_unit_mass_and_bitwise_symmetry(self, name):
        grid = build_grid(np.pi, 101, 16, 12.0)
        prof = discretize_profile(NAMED_PROFILES[name], grid)
        assert grid.dv * np.sum(prof.values) == pytest.approx(1.0, abs=1e-14)
        assert np.all(prof.values == prof.values[::-1])
        assert np.all(prof.values > 0.0)
        assert grid.dv * np.sum(grid.v_centers * prof.values) == pytest.approx(0.0, abs=1e-14)

    def test_moments_match_stored_sums(self):
        grid = build_grid(np.pi, 11, 8, 12.0)
        prof = discretize_profile(heavytail_profile, grid)
        v = grid.v_centers
        assert prof.second_moment == pytest.approx(grid.dv * np.sum(v**2 * prof.values))
        assert prof.fourth_moment == pytest.approx(grid.dv * np.sum(v**4 * prof.values))

    @pytest.mark.parametrize(
        "fn", [gaussian_profile, heavytail_profile, oscillating_profile]
    )
    def test_second_moment_tracks_quadrature(self, fn):
        # Independent oracle: adaptive quadrature of v^2*chi / integral of chi
        # over the same band.  The midpoint sums at dv = 0.75 land within 5%.
        grid = build_grid(np.pi, 101, 16, 12.0)
        mass, _ = quad(fn, -12.0, 12.0, limit=200)
        raw_second, _ = quad(lambda v: v**2 * fn(v), -12.0, 12.0, limit=200)
        prof = discretize_profile(fn, grid)
        assert prof.second_moment == pytest.approx(raw_second / mass, rel=0.05)

    def test_oscillating_samples_positive(self):
        grid = build_grid(np.pi, 3, 16, 12.0)
        assert np.all(oscillating_profile(grid.v_centers) > 0.0)

    def test_nonpositive_samples_rejected(self):
        grid = make_grid(nv=4)
        samples = np.ones(grid.n_vel)
        samples[2] = 0.0
        with pytest.raises(ValueError, match="positive"):
            profile_from_samples(samples, grid)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("bad", [np.inf, 1e308], ids=["inf", "overflowing-sum"])
    def test_samples_without_a_finite_sum_rejected(self, bad):
        # Either would normalise to a profile of NaN or zeros.
        grid = make_grid(nv=4)
        samples = np.ones(grid.n_vel)
        samples[[2, -3]] = bad
        with pytest.raises(ValueError, match="finite sum"):
            profile_from_samples(samples, grid)

    def test_asymmetric_samples_rejected_without_symmetrize(self):
        grid = make_grid(nv=4)
        samples = 1.0 + 0.1 * np.arange(grid.n_vel)
        with pytest.raises(ValueError, match="symmetrize"):
            profile_from_samples(samples, grid)
        prof = profile_from_samples(samples, grid, symmetrize=True)
        assert np.all(prof.values == prof.values[::-1])

    def test_symmetrize_is_identity_on_symmetric_data(self):
        grid = make_grid(nv=4)
        samples = np.exp(-0.5 * grid.v_centers**2)
        plain = profile_from_samples(samples, grid)
        averaged = profile_from_samples(samples, grid, symmetrize=True)
        assert np.all(plain.values == averaged.values)

    def test_wrong_sample_count_rejected(self):
        grid = make_grid(nv=4)
        with pytest.raises(ValueError, match="samples"):
            profile_from_samples(np.ones(grid.n_vel + 1), grid)

    def test_manual_profile_dataclass_roundtrip(self):
        prof = VelocityProfile(values=np.array([0.5, 0.5]), second_moment=1.0, fourth_moment=2.0)
        assert prof.second_moment == 1.0
