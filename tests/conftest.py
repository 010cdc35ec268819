"""Shared builders and independent oracles for the test suite."""

from __future__ import annotations

import numpy as np

from kinrec.grid import (
    GridSpec,
    VelocityProfile,
    build_grid,
    centered_gradient,
    discretize_profile,
    heavytail_profile,
    oscillating_profile,
)
from kinrec.diagnostics import modified_entropy, solve_discrete_poisson
from kinrec.linear import (
    CENTERED,
    LAX_FRIEDRICHS,
    UPWIND,
    Flux,
    assemble_linear_operator,
    interface_weights,
)
from kinrec.nonlinear import NonlinearStepper, adaptive_advance
from kinrec.runner import (
    TIMESERIES_COLUMNS,
    TIMESERIES_HEADER,
    UNDERFLOW,
    DiagnosticsRecorder,
    Snapshot,
    _fmt,
    snapshot_chunks,
    snapshot_templates,
)
from kinrec.state import (
    EquilibriumData,
    build_equilibrium,
    equilibrium_rho,
    macroscopic_densities,
    mass_difference,
    rfft_pair,
    weighted_inner,
    weighted_norm,
)


def make_grid(torus_length=1.0, nx=7, nv=3, v_star=3.0) -> GridSpec:
    return build_grid(torus_length, nx, nv, v_star)


def forward_gradient(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(u_{i+1} - u_i) / dx, periodic, along axis 0."""
    return (np.roll(u, -1, axis=0) - u) / grid.dx


def backward_gradient(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(u_i - u_{i-1}) / dx, periodic, along axis 0."""
    return (u - np.roll(u, 1, axis=0)) / grid.dx


def second_difference(u: np.ndarray, grid: GridSpec) -> np.ndarray:
    """(u_{i+1} - 2 u_i + u_{i-1}) / dx^2, periodic, along axis 0.

    Equals the composition of the forward and backward gradients in either
    order.
    """
    return (np.roll(u, -1, axis=0) - 2.0 * u + np.roll(u, 1, axis=0)) / grid.dx**2


def moments_ujs(
    h: np.ndarray, grid: GridSpec, d0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Zeroth, first, and centered-second velocity moments of a field.

    u = dv*sum(h), j = dv*sum(v h), s = dv*sum((v^2 - d0) h), each (nx,).
    """
    v = grid.v_centers
    u = grid.dv * h.sum(axis=1)
    j = grid.dv * (h @ v)
    s = grid.dv * (h @ (v**2 - d0))
    return u, j, s


def equilibrium_rho_from_state(state: np.ndarray, grid: GridSpec) -> float:
    return equilibrium_rho(mass_difference(state, grid), grid.torus_length)


def band_levels(rho: float, gamma: float) -> tuple[np.ndarray, np.ndarray]:
    """The maximum principle's band as (low, high) multipliers of the two profiles.

    Shape (2, 1, 1), f's then g's: [rho - gamma, rho + gamma] and the
    reciprocal [1/(rho + gamma), 1/(rho - gamma)].
    """
    low = np.array([rho - gamma, 1.0 / (rho + gamma)])[:, None, None]
    high = np.array([rho + gamma, 1.0 / (rho - gamma)])[:, None, None]
    return low, high


def project_pi(
    state: np.ndarray,
    rho: float,
    chi1: VelocityProfile,
    chi2: VelocityProfile,
    grid: GridSpec,
) -> np.ndarray:
    """Orthogonal projection onto the kernel of the linearized collision operator.

    The kernel at each site is spanned by (rho^2*chi1, -chi2); the coefficient
    is (rho_f - rho_g)/(rho^2 + 1).
    """
    rho_f, rho_g = macroscopic_densities(state, grid)
    coef = (rho_f - rho_g) / (rho**2 + 1.0)
    return coef[:, None] * np.stack([rho**2 * chi1.values, -chi2.values])[:, None]


def collision_linear(
    state: np.ndarray,
    rho: float,
    chi1: VelocityProfile,
    chi2: VelocityProfile,
    grid: GridSpec,
) -> np.ndarray:
    """Linearized generation-recombination operator around the uniform steady state."""
    rho_f, rho_g = macroscopic_densities(state, grid)
    lf = -rho * np.outer(rho_g, chi1.values) - state[0] / rho
    lg = -np.outer(rho_f, chi2.values) / rho - rho * state[1]
    return np.stack([lf, lg])


def residual_linear(
    state_next: np.ndarray,
    state_prev: np.ndarray,
    dt: float,
    flux: Flux,
    chi1: VelocityProfile,
    chi2: VelocityProfile,
    rho: float,
    grid: GridSpec,
) -> np.ndarray:
    """Pointwise defect of the implicit linear scheme, via the stencil path."""
    return (
        (state_next - state_prev) / dt
        + flux_divergence(state_next, flux, grid)
        - collision_linear(state_next, rho, chi1, chi2, grid)
    )


def verify_moment_schemes(
    state_prev: np.ndarray,
    state_next: np.ndarray,
    grid: GridSpec,
    rho: float,
    d0: float,
    dt: float,
    lam: float,
    density_shift: tuple[np.ndarray | float, np.ndarray | float] = (0.0, 0.0),
) -> tuple[float, float]:
    """Max-norm defects of the density- and current-difference updates.

    Both vanish identically (up to rounding) when the two states are
    consecutive iterates of the implicit LF scheme with diffusion strength
    lam: the velocity averages of the kinetic update close exactly on
    (u, j, s) because the profiles carry unit mass and no first moment.
    For the full system the states are deviations from equilibrium and
    density_shift holds the new site densities minus their steady levels,
    (rho_f - rho, rho_g - 1/rho), which add the bilinear current term.
    """
    u_p, j_p, _ = moments_ujs(state_prev[0] - state_prev[1], grid, d0)
    u_n, j_n, s_n = moments_ujs(state_next[0] - state_next[1], grid, d0)
    _, jf_n, _ = moments_ujs(state_next[0], grid, d0)
    _, jg_n, _ = moments_ujs(state_next[1], grid, d0)

    res_u = (
        (u_n - u_p) / dt
        + centered_gradient(j_n, grid)
        - lam * grid.dx * second_difference(u_n, grid)
    )
    res_j = (
        (j_n - j_p) / dt
        + centered_gradient(s_n, grid)
        + d0 * centered_gradient(u_n, grid)
        - lam * grid.dx * second_difference(j_n, grid)
        + (jf_n / rho - rho * jg_n)
        + (density_shift[1] * jf_n - density_shift[0] * jg_n)
    )
    return float(np.max(np.abs(res_u))), float(np.max(np.abs(res_j)))


def verify_moment_schemes_nonlinear(
    state_prev: np.ndarray,
    state_next: np.ndarray,
    equilibrium: EquilibriumData,
    d0: float,
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
        state_prev - eq, state_next - eq, grid, rho, d0, dt, lam, shift
    )


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


def random_pair(grid: GridSpec, rng: np.random.Generator, scale=1.0) -> np.ndarray:
    return scale * rng.standard_normal((2, grid.nx, grid.n_vel))


def random_positive_pair(grid: GridSpec, rng: np.random.Generator) -> np.ndarray:
    return rng.uniform(0.2, 2.0, (2, grid.nx, grid.n_vel))


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


def flux_divergence(field: np.ndarray, flux: Flux, grid: GridSpec) -> np.ndarray:
    """Per-cell transport update (flux difference over cell area).

    field is one species, shape (nx, 2*nv), or a state.  The difference of
    interface values keeps a constant field exactly stationary.
    """
    a, b = interface_weights(flux, grid)
    right = a * field + b * np.roll(field, -1, axis=-2)
    return (right - np.roll(right, 1, axis=-2)) / grid.dx


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
    column by column from the Jacobian's product, for comparison
    with the per-mode solve and with dense_reference_operator.
    """
    equilibrium = build_equilibrium(rho, chi1, chi2, grid).state.ravel()
    return dt * NonlinearStepper(grid, chi1, chi2, flux).jacobian(equilibrium, dt)


def physical_diagnostics(deviation, phi_prev, dt, setup):
    """The time-series quantities of a deviation from their physical-space definitions.

    phi_prev is the previous step's potential or None; returns (norm,
    rho_f_l2, rho_g_l2, entropy, phi), with phi from the Poisson solve of
    the deviation's density difference.
    """
    grid, d0 = setup.grid, setup.ledger.d0
    u = moments_ujs(deviation[0] - deviation[1], grid, d0)[0]
    phi = solve_discrete_poisson(u, grid)
    rho_f, rho_g = macroscopic_densities(deviation, grid)
    entropy = modified_entropy(
        deviation, phi, phi_prev, dt, setup.ledger, setup.chi1, setup.chi2, grid
    )
    norm = weighted_norm(deviation, setup.chi1, setup.chi2, setup.rho, grid)
    return norm, norm2(rho_f, grid), norm2(rho_g, grid), entropy, phi


def physical_linear_march(setup):
    """Reference linear march in physical space, for the runner's modal march.

    Steps the deviation with ImplicitLinearOperator.solve and records every
    diagnostic from its physical-space definition; returns the time-series
    columns and the snapshots, in the runner's types.
    """
    cfg = setup.cfg
    op = assemble_linear_operator(
        setup.grid, setup.chi1, setup.chi2, setup.rho, cfg.dt, setup.flux
    )
    deviation = setup.data0 - setup.equilibrium.state
    pending = list(cfg.snapshot_times)
    series = {column: [] for column in TIMESERIES_COLUMNS}
    snapshots, phi = [], None
    for n in range(round(cfg.t_final / cfg.dt) + 1):
        if n > 0:
            deviation = op.solve(deviation)
        t = n * cfg.dt
        norm, rho_f_l2, rho_g_l2, entropy, phi = physical_diagnostics(
            deviation, phi, cfg.dt, setup
        )
        row = dict(
            t=t,
            weighted_norm=norm,
            rho_f_l2=rho_f_l2,
            rho_g_l2=rho_g_l2,
            entropy=entropy,
            mass_difference=mass_difference(deviation, setup.grid),
            bounds_pass=None,
            dt_used=cfg.dt if n > 0 else None,
            newton_iters=None,
        )
        for column, value in row.items():
            series[column].append(value)
        while pending and t >= pending[0] * (1.0 - 1e-9):
            snapshots.append(Snapshot(pending.pop(0), t, deviation.copy()))
    return series, snapshots


def unflushed_linear_march(setup):
    """The runner's linear march without its underflow flush, the reference for it.

    Steps every one of the deviation's modes with solve_modes alone, so it
    neither zeroes small entries nor drops dead modes, and records them with
    a DiagnosticsRecorder; returns the time-series columns and the snapshots.
    """
    cfg = setup.cfg
    op = assemble_linear_operator(
        setup.grid, setup.chi1, setup.chi2, setup.rho, cfg.dt, setup.flux
    )
    recorder = DiagnosticsRecorder(setup)
    modes = rfft_pair(setup.data0 - setup.equilibrium.state)
    recorder.observe(0.0, modes, None, None)
    for n in range(1, round(cfg.t_final / cfg.dt) + 1):
        op.solve_modes(modes)
        recorder.observe(n * cfg.dt, modes, cfg.dt, None)
    return recorder.series, recorder.snapshots


def undropped_linear_modes(setup):
    """The modes of the data, then of each step, of the runner's linear march if it dropped none.

    Every mode is stepped and flushed: the reference for the modes the march
    hands its recorder.
    """
    cfg = setup.cfg
    op = assemble_linear_operator(
        setup.grid, setup.chi1, setup.chi2, setup.rho, cfg.dt, setup.flux
    )
    modes = rfft_pair(setup.data0 - setup.equilibrium.state)
    entries = modes.view(float)
    yield modes.copy()
    for _ in range(round(cfg.t_final / cfg.dt)):
        op.solve_modes(modes)
        entries[np.abs(entries) < UNDERFLOW] = 0.0
        yield modes.copy()


def recomputed_nonlinear_march(setup):
    """The runner's nonlinear march, transforming and reducing every step: its reference.

    The march hands the recorder no modes for a step without Newton
    iteration, whose state is its predecessor's, and the recorder repeats
    that step's row and bounds verdict.  Here every step's deviation is
    transformed and observed as it is; returns the time-series columns and
    the snapshots.
    """
    cfg = setup.cfg
    equilibrium = setup.equilibrium.state
    stepper = NonlinearStepper(
        setup.grid,
        setup.chi1,
        setup.chi2,
        setup.flux,
        envelope=setup.envelope if cfg.truncated else None,
    )
    recorder = DiagnosticsRecorder(setup)
    state, t, next_dt = setup.data0, 0.0, cfg.dt
    recorder.observe(0.0, rfft_pair(state - equilibrium), None, None, state)
    while t < cfg.t_final - 1e-12:
        result = adaptive_advance(state, min(next_dt, cfg.t_final - t), cfg, stepper)
        state, next_dt = result.state, result.next_dt
        t += result.dt_used
        recorder.observe(
            t, rfft_pair(state - equilibrium), result.dt_used, result.newton_iterations, state
        )
    return recorder.series, recorder.snapshots


def snapshot_csv(snapshot, grid) -> str:
    """The text write_outputs gives a snapshot file."""
    return "".join(snapshot_chunks(snapshot, grid, snapshot_templates(grid)))


def cellwise_timeseries_csv(series) -> str:
    """Time-series text formatted one cell at a time, the writer's reference."""
    lines = [TIMESERIES_HEADER]
    for row in range(len(series["t"])):
        r = {column: values[row] for column, values in series.items()}
        bounds = "" if r["bounds_pass"] is None else ("1" if r["bounds_pass"] else "0")
        newton = "" if r["newton_iters"] is None else str(r["newton_iters"])
        cells = (r["t"], r["weighted_norm"], r["rho_f_l2"], r["rho_g_l2"], r["entropy"],
                 r["mass_difference"])
        lines.append(
            ",".join([_fmt(c) for c in cells] + [bounds, _fmt(r["dt_used"]), newton])
        )
    return "\n".join(lines) + "\n"


def cellwise_snapshot_csv(snapshot, grid) -> str:
    """Snapshot text formatted one cell at a time, the writer's reference."""
    lines = ["# t=%s" % _fmt(snapshot.actual_t), "# N=%d L=%d" % (grid.nx, grid.nv), "i,j,x,v,f,g"]
    f, g = snapshot.state
    for i in range(grid.nx):
        for j in range(grid.n_vel):
            lines.append(
                "%d,%d,%s,%s,%s,%s"
                % (i, j, _fmt(grid.x_centers[i]), _fmt(grid.v_centers[j]), _fmt(f[i, j]), _fmt(g[i, j]))
            )
    return "\n".join(lines) + "\n"


def transport_quadratic_form(
    state: np.ndarray,
    flux: Flux,
    chi1: VelocityProfile,
    chi2: VelocityProfile,
    rho: float,
    grid: GridSpec,
) -> float:
    """Weighted inner product of the transport update with the state itself.

    Zero for the centered flux (skew transport), nonnegative for LF; the
    difference between the LF and centered forms is the explicit gradient
    dissipation returned by lax_friedrichs_dissipation.
    """
    return weighted_inner(flux_divergence(state, flux, grid), state, chi1, chi2, rho, grid)


def lax_friedrichs_dissipation(
    state: np.ndarray,
    lam: float,
    chi1: VelocityProfile,
    chi2: VelocityProfile,
    rho: float,
    grid: GridSpec,
) -> float:
    """Gradient dissipation added by the LF interface penalty.

    Equals lam*dx times the weighted square norm of the one-sided spatial
    gradient, which is exactly the difference between the LF and centered
    transport quadratic forms (summation by parts turns the second-difference
    penalty into -||backward gradient||^2; the two one-sided gradients have
    equal norms on the periodic grid).
    """
    gradient = (state - np.roll(state, 1, axis=1)) / grid.dx
    return lam * grid.dx * weighted_inner(gradient, gradient, chi1, chi2, rho, grid)
