"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np

from kinrec.grid import (
    GridSpec,
    build_grid,
    discretize_profile,
    gaussian_profile,
    heavytail_profile,
    oscillating_profile,
)
from kinrec.diagnostics import (
    PotentialState,
    TimeSeriesRecord,
    modified_entropy,
    solve_discrete_poisson,
)
from kinrec.linear import CENTERED, LAX_FRIEDRICHS, UPWIND, Flux, assemble_linear_operator
from kinrec.nonlinear import NonlinearStepper
from kinrec.runner import TIMESERIES_HEADER, Snapshot, _count, _fmt
from kinrec.state import (
    SpeciesPair,
    build_equilibrium,
    equilibrium_rho_from_state,
    macroscopic_densities,
    mass_difference,
    moments_ujs,
    stack_pair,
    weighted_norm,
)


def make_grid(torus_length=1.0, nx=7, nv=3, v_star=3.0) -> GridSpec:
    return build_grid(torus_length, nx, nv, v_star)


def dense_poisson(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """Dense oracle for the mean-free wide-stencil Poisson problem.

    Solves the (nx+1)^2 bordered system [[Dc Dc, 1], [dx, 0]] (phi, mu) =
    (-u, 0), which appends the zero-mean constraint with a Lagrange
    multiplier, entry by entry and independent of any Fourier argument.
    """
    n = grid.nx
    idx = np.arange(n)
    a = np.zeros((n + 1, n + 1))
    coef = 1.0 / (4.0 * grid.dx**2)
    a[idx, (idx + 2) % n] += coef
    a[idx, (idx - 2) % n] += coef
    a[idx, idx] -= 2.0 * coef
    a[:n, n] = 1.0
    a[n, :n] = grid.dx
    return np.linalg.solve(a, np.concatenate([-u, [0.0]]))[:n]


def make_profiles(grid: GridSpec):
    """An asymmetric pair so species-1/species-2 mixups cannot cancel."""
    return (
        discretize_profile(heavytail_profile, grid),
        discretize_profile(oscillating_profile, grid),
    )


def make_gaussian(grid: GridSpec):
    return discretize_profile(gaussian_profile, grid)


def random_pair(grid: GridSpec, rng: np.random.Generator, scale=1.0) -> SpeciesPair:
    shape = (grid.nx, grid.n_vel)
    return SpeciesPair(scale * rng.standard_normal(shape), scale * rng.standard_normal(shape))


def random_positive_pair(grid: GridSpec, rng: np.random.Generator) -> SpeciesPair:
    shape = (grid.nx, grid.n_vel)
    return SpeciesPair(rng.uniform(0.2, 2.0, shape), rng.uniform(0.2, 2.0, shape))


def norm2(field: np.ndarray, grid: GridSpec) -> float:
    """Spatial l2 norm with the cell-size weight, sqrt(dx * sum(field^2))."""
    return float(np.sqrt(grid.dx * np.sum(np.asarray(field) ** 2)))


def interface_flux(h_left: float, h_right: float, v: float, flux: Flux) -> float:
    """Reference two-point interface flux, written directly from the formulas."""
    if flux.kind == CENTERED:
        return 0.5 * v * (h_left + h_right)
    if flux.kind == LAX_FRIEDRICHS:
        return 0.5 * v * (h_left + h_right) - flux.lam * (h_right - h_left)
    if v >= 0.0:
        return v * h_left
    return v * h_right


def naive_flux_divergence(field: np.ndarray, flux: Flux, grid: GridSpec) -> np.ndarray:
    """Loop-based reference for the per-cell transport update."""
    nx, nvel = field.shape
    out = np.zeros_like(field)
    for i in range(nx):
        for m in range(nvel):
            v = grid.v_centers[m]
            right = interface_flux(field[i, m], field[(i + 1) % nx, m], v, flux)
            left = interface_flux(field[(i - 1) % nx, m], field[i, m], v, flux)
            out[i, m] = (right - left) / grid.dx
    return out


def dense_reference_operator(grid, chi1, chi2, rho, dt, flux) -> np.ndarray:
    """Brute-force dense assembly of the implicit linearized one-step matrix.

    Index layout matches the solver: per species, unknown (i, m) sits at
    i*2*nv + m; species one occupies the first block of the stacked vector.
    Built entry by entry from the scheme formulas with explicit loops, as an
    oracle independent of any sparse kron construction.
    """
    nx, nvel = grid.nx, grid.n_vel
    n = nx * nvel
    a = np.zeros((2 * n, 2 * n))

    def at(species: int, i: int, m: int) -> int:
        return species * n + (i % nx) * nvel + m

    for i in range(nx):
        for m in range(nvel):
            v = grid.v_centers[m]
            for s in (0, 1):
                row = at(s, i, m)
                a[row, row] += 1.0
                # Transport stencil from the interface formulas.
                if flux.kind in (CENTERED, LAX_FRIEDRICHS):
                    a[row, at(s, i + 1, m)] += dt * v / (2.0 * grid.dx)
                    a[row, at(s, i - 1, m)] -= dt * v / (2.0 * grid.dx)
                    if flux.kind == LAX_FRIEDRICHS:
                        coef = dt * flux.lam / grid.dx
                        a[row, at(s, i + 1, m)] -= coef
                        a[row, at(s, i, m)] += 2.0 * coef
                        a[row, at(s, i - 1, m)] -= coef
                else:
                    if v >= 0.0:
                        a[row, at(s, i, m)] += dt * v / grid.dx
                        a[row, at(s, i - 1, m)] -= dt * v / grid.dx
                    else:
                        a[row, at(s, i + 1, m)] += dt * v / grid.dx
                        a[row, at(s, i, m)] -= dt * v / grid.dx
            # Linearized reaction: -dt * L, with
            # (L F)_f = -rho*chi1[m]*rho_g[i] - f[i,m]/rho,
            # (L F)_g = -chi2[m]*rho_f[i]/rho - rho*g[i,m].
            row_f = at(0, i, m)
            row_g = at(1, i, m)
            a[row_f, row_f] += dt / rho
            a[row_g, row_g] += dt * rho
            for mp in range(nvel):
                a[row_f, at(1, i, mp)] += dt * rho * chi1.values[m] * grid.dv
                a[row_g, at(0, i, mp)] += dt * chi2.values[m] * grid.dv / rho
    return a


def linear_step_matrix(grid, chi1, chi2, rho, dt, flux) -> np.ndarray:
    """Dense matrix of the linear backward-Euler step, as the solver states it.

    dt times the nonlinear Newton Jacobian at the uniform steady state, read
    column by column from the product Newton's GMRES uses, for comparison
    with the per-mode solve and with dense_reference_operator.
    """
    equilibrium = stack_pair(build_equilibrium(rho, chi1, chi2, grid).state)
    return dt * NonlinearStepper(grid, chi1, chi2, flux, rho).jacobian(equilibrium, dt)


def make_stepper(grid, chi1, chi2, flux, state) -> NonlinearStepper:
    """Newton stepper at the equilibrium level of state's mass difference."""
    return NonlinearStepper(grid, chi1, chi2, flux, equilibrium_rho_from_state(state, grid))


def physical_diagnostics(deviation, pot, dt, setup):
    """The time-series quantities of a deviation from their physical-space definitions.

    pot is the previous PotentialState or None; returns (norm, rho_f_l2,
    rho_g_l2, entropy, new PotentialState), with phi from the Poisson solve
    of the deviation's density difference.
    """
    grid, d0 = setup.grid, setup.equilibrium.d0
    u = moments_ujs(deviation.f - deviation.g, grid, d0)[0]
    phi = solve_discrete_poisson(u, grid)
    pot = PotentialState(phi) if pot is None else pot.advanced(phi)
    rho_f, rho_g = macroscopic_densities(deviation, grid)
    entropy = modified_entropy(
        deviation, pot, dt, setup.ledger, setup.chi1, setup.chi2, grid, d0
    )
    norm = weighted_norm(deviation, setup.chi1, setup.chi2, setup.rho, grid)
    return norm, norm2(rho_f, grid), norm2(rho_g, grid), entropy, pot


def physical_linear_march(setup):
    """Reference linear march in physical space, for the runner's modal march.

    Steps the deviation with ImplicitLinearOperator.solve and records every
    diagnostic from its physical-space definition; returns the records and
    the snapshots, in the runner's types.
    """
    cfg = setup.cfg
    op = assemble_linear_operator(
        setup.grid, setup.chi1, setup.chi2, setup.rho, cfg.dt, setup.flux
    )
    deviation = setup.data0 - setup.equilibrium.state
    pending = list(cfg.snapshot_times)
    records, snapshots, pot = [], [], None
    for n in range(round(cfg.t_final / cfg.dt) + 1):
        if n > 0:
            deviation = op.solve(deviation)
        t = n * cfg.dt
        norm, rho_f_l2, rho_g_l2, entropy, pot = physical_diagnostics(
            deviation, pot, cfg.dt, setup
        )
        records.append(
            TimeSeriesRecord(
                t=t,
                weighted_norm=norm,
                rho_f_l2=rho_f_l2,
                rho_g_l2=rho_g_l2,
                entropy=entropy,
                mass_difference=mass_difference(deviation, setup.grid),
                bounds_pass=None,
                dt_used=cfg.dt if n > 0 else None,
                newton_iterations=None,
            )
        )
        while pending and t >= pending[0] - 1e-9:
            snapshots.append(Snapshot(pending.pop(0), t, deviation.copy()))
    return records, snapshots


def cellwise_timeseries_csv(records) -> str:
    """Time-series text formatted one cell at a time, the writer's reference."""
    lines = [TIMESERIES_HEADER]
    for r in records:
        bounds = "" if r.bounds_pass is None else ("1" if r.bounds_pass else "0")
        cells = (r.t, r.weighted_norm, r.rho_f_l2, r.rho_g_l2, r.entropy, r.mass_difference)
        lines.append(
            ",".join([_fmt(c) for c in cells] + [bounds, _fmt(r.dt_used), _count(r.newton_iterations)])
        )
    return "\n".join(lines) + "\n"


def cellwise_snapshot_csv(snapshot, grid) -> str:
    """Snapshot text formatted one cell at a time, the writer's reference."""
    lines = ["# t=%s" % _fmt(snapshot.actual_t), "# N=%d L=%d" % (grid.nx, grid.nv), "i,j,x,v,f,g"]
    f, g = snapshot.state.f, snapshot.state.g
    for i in range(grid.nx):
        for j in range(grid.n_vel):
            lines.append(
                "%d,%d,%s,%s,%s,%s"
                % (i, j, _fmt(grid.x_centers[i]), _fmt(grid.v_centers[j]), _fmt(f[i, j]), _fmt(g[i, j]))
            )
    return "\n".join(lines) + "\n"
