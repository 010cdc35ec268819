"""Acceptance gate: ten go/no-go checks, each with fixed tolerances and budgets.

Run `pytest tests/test_acceptance.py -v` for one pass/fail line per criterion;
every test also prints its measured figures.  Criterion 7 checks the flux
dichotomy of the nonlinear scheme: the monotone fluxes relax and keep the
discrete maximum principle, the centered flux does not keep it.  It does not
ask the centered run to lose mass or to saturate: every flux conserves the
mass difference (conservative two-point fluxes telescope over the torus and
the two collision sinks cancel in the mass functional), so all three test-3
runs relax to the same solver floor.
"""

import math
import time

import numpy as np
import pytest

from conftest import (
    backward_gradient,
    collision_linear,
    dense_reference_operator,
    equilibrium_rho_from_state,
    forward_gradient,
    linear_step_matrix,
    project_pi,
    random_pair,
    random_positive_pair,
    second_difference,
    verify_moment_schemes,
    verify_moment_schemes_nonlinear,
)

from kinrec.config import load_config
from kinrec.diagnostics import (
    PotentialState,
    fit_decay_rate,
    modified_entropy,
    solve_discrete_poisson,
)
from kinrec.grid import (
    build_grid,
    centered_gradient,
    discretize_profile,
    heavytail_profile,
    oscillating_profile,
)
from kinrec.linear import Flux, assemble_linear_operator
from kinrec.nonlinear import (
    AdaptiveController,
    BoundsEnvelope,
    NewtonConfig,
    NonlinearStepper,
    adaptive_advance,
    check_maximum_principle,
)
from kinrec.runner import build_setup, execute_run, run_experiment
from kinrec.state import (
    macroscopic_densities,
    moments_ujs,
    weighted_inner,
    weighted_norm,
)

FLUX_NAMES = ("lax-friedrichs", "centered", "upwind")


@pytest.fixture(scope="module")
def linear_decay_runs():
    """Tests 1-2 at N=101, L=16, dt=0.1 for each flux."""
    return {
        (test, flux): execute_run(load_config(None, {"test": test, "flux": flux}))
        for test in (1, 2)
        for flux in FLUX_NAMES
    }


@pytest.fixture(scope="module")
def dichotomy_runs():
    """Test 3 (nonlinear, N=101, L=16, adaptive dt) for each flux, timed."""
    t0 = time.perf_counter()
    runs = {
        flux: execute_run(load_config(None, {"test": 3, "flux": flux}))
        for flux in FLUX_NAMES
    }
    return runs, time.perf_counter() - t0


# Criterion 6's grid; lam = 6 is exactly the v*/2 monotonicity threshold.
ENVELOPE_GRID = {
    "model": "nonlinear", "torus_length": math.pi, "nx": 101, "nv": 16,
    "v_star": 12.0, "lam": 6.0, "dt": 1e-3, "dt_max": 0.3, "t_final": 20.0,
}


def envelope_march(setup, flux, state, envelope, t_final):
    """Adaptive nonlinear march from dt=1e-3, checking the envelope every step.

    Returns (accepted steps, steps outside the envelope, first such step or
    None, smallest and largest f/chi1 ratio seen).
    """
    cfg = setup.cfg
    stepper = NonlinearStepper(setup.grid, setup.chi1, setup.chi2, flux)
    newton_cfg = NewtonConfig(tol_residual=cfg.newton_tol,
                              max_iterations=cfg.newton_max_iterations)
    controller = AdaptiveController(dt_min=1e-8, dt_max=0.3)
    t, dt, steps, violations, first = 0.0, 1e-3, 0, 0, None
    f_min, f_max = math.inf, -math.inf
    while t < t_final - 1e-12:
        result = adaptive_advance(state, dt, controller, newton_cfg, stepper)
        state, dt = result.state, result.next_dt
        t += result.dt_used
        steps += 1
        report = check_maximum_principle(state, envelope)
        f_min, f_max = min(f_min, report.f_ratio_min), max(f_max, report.f_ratio_max)
        if not report.passed:
            violations += 1
            first = first or steps
    return steps, violations, first, f_min, f_max


def test_criterion_01_algebraic_identity_suite():
    """Summation by parts, gradient averaging, projector algebra, norm equality."""
    start = time.perf_counter()
    tol = 1e-11
    states = 0
    for nx in (3, 5, 11, 101):
        for nv in (1, 2, 16):
            grid = build_grid(math.pi, nx, nv, 12.0)
            chi1 = discretize_profile(heavytail_profile, grid)
            chi2 = discretize_profile(oscillating_profile, grid)
            inner = lambda a, b: grid.dx * grid.dv * float(np.sum(a * b))
            l2 = lambda a: math.sqrt(max(inner(a, a), 0.0))
            for k, rho in enumerate((0.5, 1.0, 2.0)):
                rng = np.random.default_rng(1000 * nx + 10 * nv + k)
                for _ in range(3):
                    fpair = random_pair(grid, rng)
                    gpair = random_pair(grid, rng)
                    states += 1
                    a, b = fpair[0], gpair[1]

                    # <Dc a, b> = -<a, Dc b>
                    da, db = centered_gradient(a, grid), centered_gradient(b, grid)
                    scale = l2(da) * l2(b) + l2(a) * l2(db)
                    assert abs(inner(da, b) + inner(a, db)) <= tol * scale
                    # <D+ a, b> = -<a, D- b>
                    fa, bb = forward_gradient(a, grid), backward_gradient(b, grid)
                    scale = l2(fa) * l2(b) + l2(a) * l2(bb)
                    assert abs(inner(fa, b) + inner(a, bb)) <= tol * scale
                    # <(D+D- + D-D+) a, b> = -2<D+a, D+b> = -2<D-a, D-b>
                    sd = 2.0 * second_difference(a, grid)
                    fb = forward_gradient(b, grid)
                    ba = backward_gradient(a, grid)
                    scale = l2(fa) * l2(fb) + l2(sd) * l2(b)
                    assert abs(inner(sd, b) + 2.0 * inner(fa, fb)) <= tol * scale
                    assert abs(inner(sd, b) + 2.0 * inner(ba, bb)) <= tol * scale
                    # wide stencil: <4 DcDc a, b> = -4<Dc a, Dc b>
                    wide = 4.0 * centered_gradient(da, grid)
                    scale = 4.0 * l2(da) * l2(db) + l2(wide) * l2(b)
                    assert abs(inner(wide, b) + 4.0 * inner(da, db)) <= tol * scale
                    # (D+ + D-)/2 = Dc
                    avg = 0.5 * (fa + backward_gradient(a, grid))
                    assert np.max(np.abs(avg - da)) <= tol * max(np.max(np.abs(da)), l2(a) / grid.dx)

                    # projector: idempotent, self-adjoint in the weighted metric
                    pf = project_pi(fpair, rho, chi1, chi2, grid)
                    ppf = project_pi(pf, rho, chi1, chi2, grid)
                    norm_f = weighted_norm(fpair, chi1, chi2, rho, grid)
                    norm_g = weighted_norm(gpair, chi1, chi2, rho, grid)
                    assert weighted_norm(ppf - pf, chi1, chi2, rho, grid) <= tol * norm_f
                    pg = project_pi(gpair, rho, chi1, chi2, grid)
                    lhs = weighted_inner(pf, gpair, chi1, chi2, rho, grid)
                    rhs = weighted_inner(fpair, pg, chi1, chi2, rho, grid)
                    assert abs(lhs - rhs) <= tol * norm_f * norm_g

                    # ||rho_f - rho_g||_2 = C_u * ||Pi F||_Delta
                    rho_f, rho_g = macroscopic_densities(fpair, grid)
                    u_norm = math.sqrt(grid.dx * float(np.sum((rho_f - rho_g) ** 2)))
                    c_u = math.sqrt((rho**2 + 1.0) / rho)
                    kernel = c_u * weighted_norm(pf, chi1, chi2, rho, grid)
                    assert abs(u_norm - kernel) <= tol * max(u_norm, kernel)
    elapsed = time.perf_counter() - start
    assert states >= 100
    assert elapsed < 30.0
    print(f"criterion 1: {states} states across 12 grids, all identities "
          f"within {tol:g} relative, {elapsed:.1f}s")


def test_criterion_02_small_instance_matches_dense_reference():
    """N=3, L=1 step matrix dt*J(equilibrium) entrywise against a loop-built 12x12 matrix."""
    start = time.perf_counter()
    grid = build_grid(1.0, 3, 1, 3.0)
    chi1 = discretize_profile(heavytail_profile, grid)
    chi2 = discretize_profile(oscillating_profile, grid)
    rho, dt = 1.7, 0.37
    rng = np.random.default_rng(2)
    worst = 0.0
    for flux in (Flux("lax-friedrichs", lam=0.8), Flux("centered"), Flux("upwind")):
        dense = dense_reference_operator(grid, chi1, chi2, rho, dt, flux)
        assert dense.shape == (12, 12)
        op = assemble_linear_operator(grid, chi1, chi2, rho, dt, flux)
        gap = float(np.max(np.abs(linear_step_matrix(grid, chi1, chi2, rho, dt, flux) - dense)))
        worst = max(worst, gap)
        assert gap <= 1e-13
        state = random_pair(grid, rng)
        mine = op.solve(state.ravel())
        ref = np.linalg.solve(dense, state.ravel())
        assert np.max(np.abs(mine - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 2: 12x12 operator entrywise gap {worst:.2e} <= 1e-13, "
          f"steps match dense solves, {elapsed:.2f}s")


def test_criterion_03_per_step_dissipation():
    """Collision coercivity and modified-entropy decay at every implicit step."""
    start = time.perf_counter()
    cfg = load_config(None, {"test": 1})
    setup = build_setup(cfg)
    grid, led, eq = setup.grid, setup.ledger, setup.equilibrium
    dt = cfg.dt
    # The dissipation constant of record belongs to the 0.9-fraction mixing weight.
    assert led.delta == pytest.approx(0.9 * min(led.delta1, led.delta2, led.delta3))

    op = assemble_linear_operator(grid, setup.chi1, setup.chi2, setup.rho, dt, setup.flux)
    dev = setup.data0 - eq.state
    u0 = moments_ujs(dev[0] - dev[1], grid, eq.d0)[0]
    pot = PotentialState(phi=solve_discrete_poisson(u0, grid))
    entropy = lambda state, p: modified_entropy(
        state, p, dt, led, setup.chi1, setup.chi2, grid, eq.d0
    )
    h_prev = entropy(dev, pot)
    min_coercivity = math.inf
    max_entropy_violation = -math.inf
    n_steps = int(round(setup.cfg.t_final / dt))
    for _ in range(n_steps):
        dev = op.solve(dev)
        dissipation = -weighted_inner(
            collision_linear(dev, setup.rho, setup.chi1, setup.chi2, grid),
            dev, setup.chi1, setup.chi2, setup.rho, grid,
        )
        gap = dev - project_pi(dev, setup.rho, setup.chi1, setup.chi2, grid)
        gap_sq = weighted_norm(gap, setup.chi1, setup.chi2, setup.rho, grid) ** 2
        min_coercivity = min(min_coercivity, dissipation - led.c_mc * gap_sq)

        u = moments_ujs(dev[0] - dev[1], grid, eq.d0)[0]
        pot = pot.advanced(solve_discrete_poisson(u, grid))
        h = entropy(dev, pot)
        norm_sq = weighted_norm(dev, setup.chi1, setup.chi2, setup.rho, grid) ** 2
        max_entropy_violation = max(max_entropy_violation, h - h_prev + dt * led.k_delta * norm_sq)
        h_prev = h
    elapsed = time.perf_counter() - start
    assert n_steps == 500
    assert min_coercivity >= -1e-12
    assert max_entropy_violation <= 1e-12
    assert elapsed < 300.0
    print(f"criterion 3: 500 steps, coercivity margin >= {min_coercivity:.2e}, "
          f"entropy decay slack >= {-max_entropy_violation:.2e}, {elapsed:.1f}s")


def test_criterion_04_linear_decay_rate_flux_independent(linear_decay_runs):
    """Exponential decay for every flux; rates agree within 15% per data set."""
    for test in (1, 2):
        kappas = []
        for flux in FLUX_NAMES:
            summary = linear_decay_runs[test, flux].summary
            fit = summary.fit
            assert fit is not None and fit.kappa > 0.0
            assert fit.r_squared >= 0.98
            assert summary.max_mass_drift_rel <= 1e-10
            kappas.append(fit.kappa)
            print(f"criterion 4: test {test} {flux}: kappa={fit.kappa:.4f} "
                  f"r2={fit.r_squared:.5f} drift={summary.max_mass_drift_rel:.2e}")
        spread = (max(kappas) - min(kappas)) / min(kappas)
        assert spread <= 0.15
        print(f"criterion 4: test {test} rate spread {spread:.2%} <= 15%")


def test_criterion_05_decay_rate_grid_independent(linear_decay_runs):
    """Fitted rate stable between 51 and 101 spatial cells."""
    coarse = execute_run(load_config(None, {"test": 1, "nx": 51}))
    k51 = coarse.summary.fit.kappa
    k101 = linear_decay_runs[1, "lax-friedrichs"].summary.fit.kappa
    gap = abs(k51 - k101) / k101
    assert gap <= 0.20
    print(f"criterion 5: kappa(N=51)={k51:.4f} vs kappa(N=101)={k101:.4f}, "
          f"gap {gap:.2%} <= 20%")


def test_criterion_06_maximum_principle_propagation():
    """Monotone LF run keeps envelope-respecting data inside the band to t=20."""
    setup = build_setup(load_config(None, ENVELOPE_GRID))
    grid = setup.grid
    assert setup.flux.lam == 6.0  # exactly the v*/2 monotonicity threshold
    x = grid.x_centers
    state = np.stack([
        np.outer(1.0 + 0.05 * np.cos(2.0 * x), setup.chi1.values),
        np.outer(1.0 - 0.05 * np.sin(2.0 * x), setup.chi2.values),
    ])
    rho_hat = equilibrium_rho_from_state(state, grid)
    envelope = BoundsEnvelope(rho_hat, 0.2 * rho_hat, setup.chi1, setup.chi2)
    report = check_maximum_principle(state, envelope)
    assert report.passed  # data starts strictly inside the band

    steps, violations, _, _, _ = envelope_march(setup, setup.flux, state,
                                                envelope, 20.0)
    assert violations == 0
    print(f"criterion 6: lam=6=v*/2, {steps} accepted steps to t=20, "
          f"0 envelope violations (gamma={envelope.gamma})")


def test_criterion_07_nonlinear_flux_dichotomy(dichotomy_runs):
    """Monotone fluxes relax and keep the maximum principle; centered breaks it."""
    runs, elapsed = dichotomy_runs
    fits = {}
    for flux in ("lax-friedrichs", "upwind"):
        series = runs[flux].series
        t = np.array(series["t"])
        norms = np.array(series["weighted_norm"])
        # Pre-plateau fit: cut the window where the series settles onto its floor.
        fits[flux] = fit_decay_rate(t, norms, floor=runs[flux].summary.final_weighted_norm)
    lf, ce = runs["lax-friedrichs"].summary, runs["centered"].summary
    floor_ratio = ce.final_weighted_norm / lf.final_weighted_norm
    drift_ratio = ce.max_mass_drift_abs / max(lf.max_mass_drift_abs, 1e-300)
    dts = runs["lax-friedrichs"].series["dt_used"][1:]

    for flux, fit in fits.items():
        print(f"criterion 7: {flux}: kappa={fit.kappa:.4f} r2={fit.r_squared:.5f} "
              f"window={fit.window}")
    # Figures only: every flux conserves the mass difference (the flux
    # divergences telescope over the torus and the two collision sinks cancel
    # in the mass functional, for any state and any Newton tolerance), so the
    # centered run reaches the same solver floor as LF and both ratios sit
    # near 1.
    print(f"criterion 7: centered final={ce.final_weighted_norm:.3e} "
          f"vs LF final={lf.final_weighted_norm:.3e} (ratio {floor_ratio:.2f}), "
          f"drift centered={ce.max_mass_drift_abs:.2e} "
          f"vs LF={lf.max_mass_drift_abs:.2e} (ratio {drift_ratio:.2f}), "
          f"wall {elapsed:.0f}s")

    for flux, fit in fits.items():
        assert fit.kappa > 0.0 and fit.r_squared >= 0.95, flux
    assert min(dts) == pytest.approx(1e-3) and max(dts) <= 0.3 * (1.0 + 1e-12)
    assert elapsed < 900.0
    for flux in FLUX_NAMES:
        assert runs[flux].summary.max_mass_drift_rel <= 1e-10, flux

    # Maximum-principle contrast on criterion 6's grid.  The test-3 data starts
    # outside the envelope, and smooth data inside it does not separate the
    # fluxes, so the data here has a jump in x with margin to both band edges.
    setup = build_setup(load_config(None, ENVELOPE_GRID))
    x = setup.grid.x_centers
    jump = 0.15 * np.sign(np.cos(2.0 * x))
    state = np.stack([np.outer(1.0 + jump, setup.chi1.values),
                      np.outer(1.0 - jump, setup.chi2.values)])
    rho_hat = equilibrium_rho_from_state(state, setup.grid)
    envelope = BoundsEnvelope(rho_hat, 0.2 * rho_hat, setup.chi1, setup.chi2)
    assert check_maximum_principle(state, envelope).passed
    f_lo, f_hi = rho_hat - envelope.gamma, rho_hat + envelope.gamma
    violations = {}
    for flux in (Flux("lax-friedrichs", 6.0), Flux("upwind"), Flux("centered")):
        steps, bad, first, r_min, r_max = envelope_march(
            setup, flux, state, envelope, 1.0)
        violations[flux.kind] = bad
        print(f"criterion 7: envelope march {flux.kind} (lam={flux.lam:g}): "
              f"{bad} of {steps} steps outside (first: {first or 'none'}); f ratio "
              f"{r_min:.4f}-{r_max:.4f} in band {f_lo:.4f}-{f_hi:.4f}")
    assert violations["lax-friedrichs"] == 0
    assert violations["upwind"] == 0
    assert violations["centered"] >= 1


def test_criterion_08_newton_jacobian_exactness():
    """Analytic Jacobian against central differences; equilibrium fixed point."""
    grid = build_grid(2.0, 3, 2, 3.0)
    chi1 = discretize_profile(heavytail_profile, grid)
    chi2 = discretize_profile(oscillating_profile, grid)
    flux = Flux("lax-friedrichs", lam=1.1)
    dt, h = 0.2, 1e-6
    rng = np.random.default_rng(8)
    n = grid.n_unknowns
    worst = 0.0
    for _ in range(3):
        base = random_positive_pair(grid, rng).ravel()
        prev = random_positive_pair(grid, rng)
        stepper = NonlinearStepper(grid, chi1, chi2, flux)
        exact = stepper.jacobian(base, dt)
        fd = np.empty((2 * n, 2 * n))
        for col in range(2 * n):
            plus, minus = base.copy(), base.copy()
            plus[col] += h
            minus[col] -= h
            r_plus = stepper.residual(plus, prev.ravel(), dt)
            r_minus = stepper.residual(minus, prev.ravel(), dt)
            fd[:, col] = (r_plus - r_minus) / (2.0 * h)
        gap = float(np.max(np.abs(exact - fd)))
        worst = max(worst, gap)
        assert gap <= 1e-6

    setup = build_setup(load_config(None, {"test": 3}))
    eq = setup.equilibrium.state
    newton_cfg = NewtonConfig(tol_residual=1e-11, max_iterations=25)
    stepper = NonlinearStepper(setup.grid, setup.chi1, setup.chi2, setup.flux)
    result, iterations = stepper.newton(eq, 0.1, newton_cfg)
    assert iterations <= 1
    drift = np.max(np.abs(result - eq))
    assert drift <= 1e-9
    print(f"criterion 8: Jacobian vs FD gap {worst:.2e} <= 1e-6; equilibrium "
          f"fixed in {iterations} iteration(s), moved {drift:.1e}")


def test_criterion_09_moment_scheme_consistency():
    """Velocity averages of LF steps close on the density and current updates."""
    cfg = load_config(None, {"test": 1})
    setup = build_setup(cfg)
    op = assemble_linear_operator(setup.grid, setup.chi1, setup.chi2,
                                  setup.rho, cfg.dt, setup.flux)
    dev = setup.data0 - setup.equilibrium.state
    worst_linear = 0.0
    for _ in range(50):
        nxt = op.solve(dev)
        res_u, res_j = verify_moment_schemes(dev, nxt, setup.grid, setup.rho,
                                             setup.equilibrium.d0, cfg.dt,
                                             setup.flux.lam)
        worst_linear = max(worst_linear, res_u, res_j)
        dev = nxt
    assert worst_linear <= 1e-10

    cfg3 = load_config(None, {"test": 3})
    s3 = build_setup(cfg3)
    stepper = NonlinearStepper(s3.grid, s3.chi1, s3.chi2, s3.flux)
    newton_cfg = NewtonConfig(tol_residual=cfg3.newton_tol,
                              max_iterations=cfg3.newton_max_iterations)
    controller = AdaptiveController(dt_min=cfg3.dt_min, dt_max=cfg3.dt_max)
    state, dt = s3.data0.copy(), cfg3.dt
    worst_nonlinear = 0.0
    for _ in range(12):
        result = adaptive_advance(state, dt, controller, newton_cfg, stepper)
        res_u, res_j = verify_moment_schemes_nonlinear(
            state, result.state, s3.equilibrium, s3.grid, result.dt_used, s3.flux.lam)
        worst_nonlinear = max(worst_nonlinear, res_u, res_j)
        state, dt = result.state, result.next_dt
    assert worst_nonlinear <= 1e-10
    print(f"criterion 9: moment-scheme residuals linear {worst_linear:.2e}, "
          f"nonlinear {worst_nonlinear:.2e}, both <= 1e-10")


def test_criterion_10_determinism(tmp_path):
    """Identical config and seed produce byte-identical CSV outputs."""
    base = {
        "model": "nonlinear", "test": 4, "seed": 11, "nx": 21, "nv": 4,
        "v_star": 6.0, "dt": 1e-3, "dt_max": 0.1, "t_final": 1.0,
        "snapshot_times": (0.0, 0.5),
    }
    outputs = []
    for tag in ("one", "two"):
        out = tmp_path / tag
        run_experiment(load_config(None, dict(base, output_dir=str(out))))
        outputs.append(out)
    names = sorted(p.name for p in outputs[0].iterdir() if p.suffix == ".csv")
    assert "timeseries.csv" in names and len(names) == 3
    for name in names:
        assert (outputs[0] / name).read_bytes() == (outputs[1] / name).read_bytes()
    print(f"criterion 10: {len(names)} CSV files byte-identical across reruns")
