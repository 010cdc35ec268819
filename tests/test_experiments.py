"""End-to-end runs: setup resolution, marching, output files, CLI."""

import csv
import io
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings, strategies as st

from conftest import (
    cellwise_snapshot_csv,
    cellwise_timeseries_csv,
    norm2,
    physical_diagnostics,
    physical_linear_march,
)
from kinrec import nonlinear, runner
from kinrec.cli import build_parser, main, overrides_from_args
from kinrec.config import ParseError, RunConfig, ValidationError, load_config
from kinrec.diagnostics import fit_decay_rate
from kinrec.grid import build_grid, centered_gradient, discretize_profile, heavytail_profile
from kinrec.linear import FLUX_NAMES, ImplicitLinearOperator
from kinrec.runner import (
    REPORT_ENVELOPE_FRACTION,
    TIMESERIES_HEADER,
    DiagnosticsRecorder,
    ExperimentAbortedError,
    Snapshot,
    build_setup,
    execute_run,
    initial_data,
    resolve_lambda,
    resolve_profile,
    run_experiment,
    snapshot_csv,
    summary_text,
    timeseries_csv,
    write_outputs,
)
from kinrec.state import (
    SpeciesPair,
    build_equilibrium,
    mass_difference,
    moments_ujs,
    rfft_pair,
)

TINY = dict(nx=7, nv=2, v_star=3.0, torus_length=2.0)


def tiny_config(**overrides):
    merged = dict(TINY)
    merged.update(overrides)
    return load_config(None, merged)


class TestResolution:
    def test_linear_lambda_tracks_the_grid(self):
        cfg = tiny_config(dt=0.1)
        grid = build_grid(cfg.torus_length, cfg.nx, cfg.nv, cfg.v_star)
        assert resolve_lambda(cfg, grid) == pytest.approx(grid.dx / 0.2)

    def test_nonlinear_lambda_respects_monotonicity_threshold(self):
        cfg = tiny_config(model="nonlinear", dt=0.01, v_star=12.0)
        grid = build_grid(cfg.torus_length, cfg.nx, cfg.nv, cfg.v_star)
        assert resolve_lambda(cfg, grid) == pytest.approx(
            max(6.0, grid.dx / 0.02)
        )

    def test_explicit_lambda_wins(self):
        cfg = tiny_config(lam=2.25)
        grid = build_grid(cfg.torus_length, cfg.nx, cfg.nv, cfg.v_star)
        assert resolve_lambda(cfg, grid) == 2.25

    @pytest.mark.parametrize("flux", ["centered", "upwind"])
    def test_non_lf_fluxes_have_no_diffusion(self, flux):
        cfg = tiny_config(flux=flux)
        grid = build_grid(cfg.torus_length, cfg.nx, cfg.nv, cfg.v_star)
        assert resolve_lambda(cfg, grid) == 0.0

    def test_named_profile_resolution(self):
        grid = build_grid(2.0, 7, 4, 3.0)
        prof = resolve_profile("heavytail", grid)
        ref = discretize_profile(heavytail_profile, grid)
        np.testing.assert_array_equal(prof.values, ref.values)

    def test_file_profile_resolution(self, tmp_path):
        grid = build_grid(2.0, 7, 4, 3.0)
        samples = np.exp(-np.abs(grid.v_centers))
        path = tmp_path / "profile.txt"
        np.savetxt(path, samples)
        prof = resolve_profile(f"file:{path}", grid)
        assert grid.dv * np.sum(prof.values) == pytest.approx(1.0, abs=1e-13)
        assert np.all(prof.values == prof.values[::-1])

    def test_unknown_profile_rejected(self):
        grid = build_grid(2.0, 7, 4, 3.0)
        with pytest.raises(ValueError, match="profile"):
            resolve_profile("cauchy", grid)


class TestInitialData:
    def test_smooth_bump_family(self):
        cfg = tiny_config(test=1, t_final=1.0)
        grid = build_grid(cfg.torus_length, cfg.nx, cfg.nv, cfg.v_star)
        data = initial_data(cfg, grid, np.random.default_rng(0))
        x, v = grid.x_centers, grid.v_centers
        bump = np.exp(
            -((x[:, None] - math.pi / 2.0) ** 2 + v[None, :] ** 2 / 2.0) / 0.2
        )
        np.testing.assert_allclose(data.f, 10.0 * bump, rtol=1e-13)
        np.testing.assert_allclose(
            data.g, (1.0 + np.cos(4.0 * x))[:, None] * bump, rtol=1e-13, atol=1e-300
        )

    def test_velocity_ring_family(self):
        cfg = tiny_config(test=3, t_final=1.0)
        grid = build_grid(cfg.torus_length, cfg.nx, cfg.nv, cfg.v_star)
        data = initial_data(cfg, grid, np.random.default_rng(0))
        x, v = grid.x_centers, grid.v_centers
        ring = np.exp(-(v**2) / 2.0) / math.sqrt(2.0 * math.pi) * v**4
        np.testing.assert_allclose(
            data.f, (1.0 + np.cos(2.0 * x))[:, None] * ring[None, :], rtol=1e-13
        )

    def test_model_kind_picks_family_without_test_number(self):
        grid = build_grid(2.0, 7, 2, 3.0)
        rng = np.random.default_rng(0)
        linear = initial_data(tiny_config(), grid, rng)
        preset = initial_data(tiny_config(test=1, t_final=1.0), grid, rng)
        np.testing.assert_array_equal(linear.f, preset.f)
        nonlinear = initial_data(tiny_config(model="nonlinear"), grid, rng)
        ring = initial_data(tiny_config(test=3, t_final=1.0), grid, rng)
        np.testing.assert_array_equal(nonlinear.f, ring.f)

    def test_random_family_is_seed_deterministic(self):
        cfg = tiny_config(test=4, t_final=1.0)
        grid = build_grid(cfg.torus_length, cfg.nx, cfg.nv, cfg.v_star)
        one = initial_data(cfg, grid, np.random.default_rng(42))
        two = initial_data(cfg, grid, np.random.default_rng(42))
        other = initial_data(cfg, grid, np.random.default_rng(43))
        np.testing.assert_array_equal(one.f, two.f)
        np.testing.assert_array_equal(one.g, two.g)
        assert not np.array_equal(one.f, other.f)
        assert np.all(one.f >= 0.0) and np.all(one.f <= 1.0)


class TestBuildSetup:
    def test_equilibrium_matches_data_mass(self):
        setup = build_setup(tiny_config(test=4, t_final=1.0, seed=3))
        m0 = mass_difference(setup.data0, setup.grid)
        residual = setup.grid.torus_length * (setup.rho - 1.0 / setup.rho) - m0
        assert residual == pytest.approx(0.0, abs=1e-12)
        eq = build_equilibrium(setup.rho, setup.chi1, setup.chi2, setup.grid)
        np.testing.assert_array_equal(setup.equilibrium.state.f, eq.state.f)

    def test_envelope_and_ledger_wiring(self):
        setup = build_setup(tiny_config())
        assert setup.envelope.gamma1 == pytest.approx(REPORT_ENVELOPE_FRACTION * setup.rho)
        assert setup.envelope.gamma2 == setup.envelope.gamma1
        assert setup.ledger.lam == setup.flux.lam
        assert setup.ledger.rho == setup.rho
        # Linear runs bound the entropy constants by the fixed step size.
        assert setup.ledger.dt_max == setup.cfg.dt

    def test_nonlinear_ledger_uses_step_ceiling(self):
        setup = build_setup(tiny_config(model="nonlinear", dt=1e-3, dt_max=0.25))
        assert setup.ledger.dt_max == 0.25


class TestMarches:
    def test_zero_horizon_records_only_the_data(self):
        cfg = tiny_config(t_final=0.0, snapshot_times=(0.0,))
        data = execute_run(cfg)
        assert len(data.records) == 1
        assert data.records[0].t == 0.0
        assert data.records[0].dt_used is None
        assert data.summary.n_steps == 0
        assert len(data.snapshots) == 1
        assert data.snapshots[0].actual_t == 0.0

    def test_snapshot_takes_first_state_at_or_after_request(self):
        cfg = tiny_config(t_final=0.5, dt=0.1, snapshot_times=(0.25,))
        data = execute_run(cfg)
        snap = data.snapshots[0]
        assert snap.requested_t == 0.25
        assert snap.actual_t == pytest.approx(0.3)

    def test_linear_records_advance_by_dt(self):
        cfg = tiny_config(t_final=0.5, dt=0.1)
        data = execute_run(cfg)
        times = [r.t for r in data.records]
        np.testing.assert_allclose(times, np.arange(6) * 0.1, atol=1e-12)
        assert all(r.dt_used == 0.1 for r in data.records[1:])
        assert all(r.bounds_pass is None for r in data.records)

    def test_linear_march_factorizes_nothing(self, monkeypatch):
        # The linear step is solved per Fourier mode: a run neither factorizes
        # nor builds the sparse transport pair of Newton's residual and J v.
        def refuse(*args, **kwargs):
            raise AssertionError("the linear march called splu")

        assemble = runner.assemble_linear_operator
        operators = []

        def recording(*args):
            operators.append(assemble(*args))
            return operators[-1]

        def refuse_assembly(*args, **kwargs):
            raise AssertionError("the linear march assembled a sparse matrix")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
        monkeypatch.setattr(nonlinear, "transport_pair", refuse_assembly)
        monkeypatch.setattr(runner, "assemble_linear_operator", recording)
        data = execute_run(tiny_config(t_final=0.5))
        assert data.summary.n_steps == 5
        assert len(operators) == 1

    def test_linear_march_transforms_once_plus_once_per_snapshot(self, monkeypatch):
        # The march stays in Fourier modes: one forward transform of the data,
        # one inverse per snapshot, and no per-step round trip through solve.
        counts = {"rfft": 0, "irfft": 0, "solve": 0}

        def counting(name, fn):
            def call(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)

            return call

        monkeypatch.setattr(np.fft, "rfft", counting("rfft", np.fft.rfft))
        monkeypatch.setattr(np.fft, "irfft", counting("irfft", np.fft.irfft))
        monkeypatch.setattr(
            ImplicitLinearOperator, "solve", counting("solve", ImplicitLinearOperator.solve)
        )
        data = execute_run(tiny_config(t_final=2.0, snapshot_times=(0.0, 0.5, 2.0)))
        assert data.summary.n_steps == 20
        assert len(data.snapshots) == 3
        assert counts == {"rfft": 1, "irfft": 3, "solve": 0}

    @pytest.mark.parametrize("flux", FLUX_NAMES)
    def test_modal_march_matches_the_physical_reference(self, flux):
        # Same steps, snapshot times and values as stepping with solve and
        # computing every diagnostic in physical space, up to rounding.
        cfg = tiny_config(
            nx=11, nv=4, flux=flux, t_final=3.0, snapshot_times=(0.0, 0.25, 1.0, 3.0)
        )
        data = execute_run(cfg)
        records, snapshots = physical_linear_march(data.setup)
        assert len(data.records) == len(records) == 31
        for got, want in zip(data.records, records):
            assert (got.t, got.dt_used, got.bounds_pass, got.newton_iterations) == (
                want.t, want.dt_used, want.bounds_pass, want.newton_iterations
            )
        for column in ("weighted_norm", "rho_f_l2", "rho_g_l2", "entropy"):
            want = np.array([getattr(r, column) for r in records])
            got = np.array([getattr(r, column) for r in data.records])
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))
        # The linear mass difference is rounding noise around 0; its scale is
        # the run's, as in max_mass_drift_rel.
        mass_scale = max(1.0, abs(mass_difference(data.setup.data0, data.setup.grid)))
        np.testing.assert_allclose(
            [r.mass_difference for r in data.records],
            [r.mass_difference for r in records],
            rtol=0.0,
            atol=1e-12 * mass_scale,
        )
        assert [(s.requested_t, s.actual_t) for s in data.snapshots] == [
            (s.requested_t, s.actual_t) for s in snapshots
        ]
        scale = np.max(np.abs(snapshots[0].state.f)) + np.max(np.abs(snapshots[0].state.g))
        for got, want in zip(data.snapshots, snapshots):
            np.testing.assert_allclose(got.state.f, want.state.f, rtol=0.0, atol=1e-12 * scale)
            np.testing.assert_allclose(got.state.g, want.state.g, rtol=0.0, atol=1e-12 * scale)

    def test_nonlinear_march_factorizes_nothing(self, monkeypatch):
        # Newton solves each step by GMRES, preconditioned with the per-mode
        # linear solve, so a nonlinear run never factorizes.
        def refuse(*args, **kwargs):
            raise AssertionError("the nonlinear march called splu")

        monkeypatch.setattr(scipy.sparse.linalg, "splu", refuse)
        data = execute_run(tiny_config(model="nonlinear", test=4, seed=1, t_final=0.3))
        assert data.summary.n_steps >= 1
        assert data.summary.krylov_iterations >= sum(r.newton_iterations for r in data.records[1:])

    def test_nonlinear_march_builds_the_transport_pair_once(self, monkeypatch):
        # The transport pair and its product are the run's only sparse
        # matrices, built once; each Newton iteration only forms its reaction
        # terms.
        assemble = nonlinear.transport_pair
        built = []

        def recording(*args):
            built.append(assemble(*args))
            return built[-1]

        monkeypatch.setattr(nonlinear, "transport_pair", recording)
        data = execute_run(tiny_config(model="nonlinear", test=4, seed=1, t_final=0.3))
        assert sum(r.newton_iterations for r in data.records[1:]) >= 2
        assert len(built) == 1

    def test_nonlinear_march_builds_one_preconditioner_per_step_size(self, monkeypatch):
        # The preconditioner is the linear step at the run's own steady state,
        # whose level the march conserves, so only a new dt rebuilds it.
        built = []

        class Counting(ImplicitLinearOperator):
            def __init__(self, grid, chi1, chi2, rho, dt, flux):
                built.append((dt, rho))
                super().__init__(grid, chi1, chi2, rho, dt, flux)

        monkeypatch.setattr(nonlinear, "ImplicitLinearOperator", Counting)
        data = execute_run(tiny_config(model="nonlinear", test=3, nx=11, nv=4, t_final=10.0))
        assert data.summary.n_steps > len(built) > 1
        assert {rho for _, rho in built} == {data.setup.rho}
        assert len({dt for dt, _ in built}) == len(built)

    @pytest.mark.parametrize(
        "overrides, steps, iterations, stalled",
        [({"test": 3, "nx": 21}, 341, 304, 81)]
        + [({"test": 4, "nx": 51, "t_final": 10.0, "seed": seed}, 41, 107, 0) for seed in range(10)],
        ids=["test3"] + [f"test4-seed{seed}" for seed in range(10)],
    )
    def test_nonlinear_step_sequence_is_pinned(self, overrides, steps, iterations, stalled):
        # The adaptive march of the benchmark's two nonlinear runs: the Newton
        # linear solve's tolerance must not move a single step or iteration.
        data = execute_run(load_config(None, dict(nv=8, **overrides)))
        counts = [r.newton_iterations for r in data.records[1:]]
        assert (len(counts), sum(counts), counts.count(0)) == (steps, iterations, stalled)

    def test_nonlinear_march_reaches_the_horizon(self):
        cfg = tiny_config(
            model="nonlinear", test=4, seed=1, t_final=0.3, dt=0.05, dt_max=0.1,
            snapshot_times=(0.0, 0.1),
        )
        data = execute_run(cfg)
        assert data.records[-1].t == pytest.approx(0.3, abs=1e-12)
        assert all(r.bounds_pass is not None for r in data.records)
        assert all(
            r.newton_iterations is not None and r.newton_iterations >= 1
            for r in data.records[1:]
        )
        assert data.summary.f_ratio_min is not None
        assert data.summary.max_mass_drift_rel <= 1e-9

    def test_nonlinear_march_ends_on_a_piece_below_dt_min(self):
        cfg = tiny_config(
            model="nonlinear", t_final=1.02, dt=0.05, dt_min=0.05, dt_max=0.05
        )
        data = execute_run(cfg)
        assert data.summary.n_steps == 21
        assert data.records[-1].t == pytest.approx(1.02, abs=1e-12)
        assert data.records[-1].dt_used == pytest.approx(0.02)

    def test_linear_march_lands_on_a_horizon_within_rounding(self):
        # 50 - 4e-8 passes validation as 500 steps of 0.1, so the march must
        # take all 500 and record the t_final snapshot.
        t_final = 50.0 - 4e-8
        cfg = tiny_config(t_final=t_final, snapshot_times=(t_final,))
        data = execute_run(cfg)
        assert data.summary.n_steps == 500
        assert data.records[-1].t == pytest.approx(50.0, abs=1e-9)
        assert [s.requested_t for s in data.snapshots] == [t_final]

    def test_unvalidated_horizon_is_refused(self):
        cfg = replace(tiny_config(t_final=0.5), t_final=0.55, snapshot_times=(0.55,))
        with pytest.raises(ValidationError, match=r"time\.t_final"):
            execute_run(cfg)

    def test_auto_horizon_is_the_last_snapshot(self):
        # An unresolved config runs to the horizon load_config would give it.
        data = execute_run(RunConfig(nx=7, nv=2, v_star=3.0, snapshot_times=(0.0, 60.0)))
        assert data.setup.cfg.t_final == 60.0
        assert data.summary.n_steps == 600
        assert [s.requested_t for s in data.snapshots] == [0.0, 60.0]
        assert data.snapshots[-1].actual_t == pytest.approx(60.0, abs=1e-9)

    def test_auto_horizon_off_the_step_grid_is_refused(self):
        cfg = RunConfig(nx=7, nv=2, v_star=3.0, snapshot_times=(0.0, 0.55))
        with pytest.raises(ValidationError, match=r"time\.t_final"):
            execute_run(cfg)

    def test_mid_run_failure_flushes_partial_outputs(self, tmp_path):
        out = tmp_path / "broken"
        cfg = tiny_config(
            model="nonlinear",
            test=4,
            seed=2,
            t_final=1.0,
            dt=0.05,
            dt_min=0.05,
            dt_max=0.05,
            newton_tol=1e-30,
            newton_max_iterations=1,
            output_dir=str(out),
        )
        with pytest.raises(ExperimentAbortedError) as info:
            run_experiment(cfg)
        partial = info.value.partial_data
        assert len(partial.records) == 1
        text = (out / "timeseries.csv").read_text()
        assert text.splitlines()[0] == TIMESERIES_HEADER
        assert len(text.splitlines()) == 2
        assert (out / "summary.txt").exists()


@pytest.fixture(scope="module")
def linear_run():
    cfg = tiny_config(nx=11, nv=4, t_final=6.0, dt=0.1, snapshot_times=(0.0, 0.35))
    return execute_run(cfg)


class TestOutputs:
    def test_timeseries_layout(self, linear_run):
        text = timeseries_csv(linear_run.records)
        lines = text.splitlines()
        assert lines[0] == TIMESERIES_HEADER
        assert len(lines) == len(linear_run.records) + 1
        first = lines[1].split(",")
        assert len(first) == 9
        assert first[0] == "0"
        assert first[6] == "" and first[7] == "" and first[8] == ""
        second = lines[2].split(",")
        assert float(second[7]) == pytest.approx(0.1)

    def test_csv_values_roundtrip_to_full_precision(self, linear_run):
        text = timeseries_csv(linear_run.records)
        rows = list(csv.DictReader(io.StringIO(text)))
        for row, record in zip(rows, linear_run.records):
            assert float(row["weighted_norm"]) == record.weighted_norm
            assert float(row["mass_difference"]) == record.mass_difference

    def test_summary_kappa_matches_fit_of_emitted_series(self, linear_run):
        text = timeseries_csv(linear_run.records)
        rows = list(csv.DictReader(io.StringIO(text)))
        t = np.array([float(r["t"]) for r in rows])
        norms = np.array([float(r["weighted_norm"]) for r in rows])
        refit = fit_decay_rate(t, norms)
        assert linear_run.summary.fit is not None
        assert refit.kappa == pytest.approx(linear_run.summary.fit.kappa, rel=1e-12)

    def test_entropy_stays_within_norm_equivalence(self, linear_run):
        led = linear_run.setup.ledger
        for record in linear_run.records:
            assert record.entropy is not None
            squared = record.weighted_norm**2
            assert record.entropy >= led.c_lower * squared - 1e-13
            assert record.entropy <= led.c_upper * squared + 1e-13

    def test_snapshot_file_layout(self, linear_run):
        grid = linear_run.setup.grid
        snap = linear_run.snapshots[1]
        text = snapshot_csv(snap, grid)
        lines = text.splitlines()
        assert lines[0].startswith("# t=")
        assert lines[1] == f"# N={grid.nx} L={grid.nv}"
        assert lines[2] == "i,j,x,v,f,g"
        assert len(lines) == 3 + grid.nx * grid.n_vel
        cell = lines[3].split(",")
        assert cell[0] == "0" and cell[1] == "0"
        assert float(cell[3]) == grid.v_centers[0]

    def test_rows_match_the_cellwise_text_byte_for_byte(self):
        # One format string per row writes the same bytes as formatting each
        # cell with _fmt, on a random 201x16 state spanning many magnitudes.
        grid = build_grid(2.0, 201, 8, 4.0)
        rng = np.random.default_rng(11)
        shape = (grid.nx, grid.n_vel)
        f, g = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-300, 300, shape) for _ in "fg")
        f[0, :3] = (0.0, -0.0, 1.0)
        snap = Snapshot(0.83, 0.8300000000000001, SpeciesPair(f, g))
        # Compared as line lists: a failure then names the first differing line.
        assert (
            snapshot_csv(snap, grid).split("\n") == cellwise_snapshot_csv(snap, grid).split("\n")
        )
        nonlinear_run = execute_run(tiny_config(model="nonlinear", test=4, seed=1, t_final=0.3))
        for records in (nonlinear_run.records, execute_run(tiny_config(t_final=0.5)).records):
            assert timeseries_csv(records) == cellwise_timeseries_csv(records)

    def test_equilibrium_snapshot_rows_are_uniform(self):
        grid = build_grid(2.0, 5, 2, 3.0)
        chi1 = discretize_profile(heavytail_profile, grid)
        eq = build_equilibrium(1.3, chi1, chi1, grid)
        text = snapshot_csv(Snapshot(0.0, 0.0, eq.state), grid)
        rows = list(csv.DictReader(io.StringIO(text.split("\n", 2)[2])))
        by_velocity = {}
        for row in rows:
            by_velocity.setdefault(row["j"], set()).add((row["f"], row["g"]))
        assert all(len(values) == 1 for values in by_velocity.values())

    def test_summary_text_keys(self, linear_run):
        text = summary_text(linear_run)
        keys = [line.split(" = ")[0] for line in text.splitlines()]
        assert keys[:4] == ["model", "flux", "lambda", "rho_inf"]
        assert "kappa_fit" in keys and "max_mass_drift_rel" in keys
        assert "n_steps" in keys
        values = dict(line.split(" = ") for line in text.splitlines())
        assert values["krylov_iterations"] == values["krylov_iterations_max"] == ""

    def test_nonlinear_summary_reports_krylov_totals(self):
        data = execute_run(tiny_config(model="nonlinear", test=4, seed=1, t_final=0.3))
        values = dict(line.split(" = ") for line in summary_text(data).splitlines())
        assert int(values["krylov_iterations"]) == data.summary.krylov_iterations > 0
        assert 1 <= int(values["krylov_iterations_max"]) <= data.summary.krylov_iterations

    def test_write_outputs_file_set(self, linear_run, tmp_path):
        out = write_outputs(linear_run, tmp_path / "files")
        names = sorted(p.name for p in out.iterdir())
        assert names == [
            "config.ini",
            "snapshot_t0.csv",
            "snapshot_t0p35.csv",
            "summary.txt",
            "timeseries.csv",
        ]

    def test_plot_script_only_on_request(self, tmp_path):
        cfg = tiny_config(t_final=0.0, emit_plot_script=True)
        data = execute_run(cfg)
        out = write_outputs(data, tmp_path / "plots")
        assert (out / "plot.py").exists()
        compile((out / "plot.py").read_text(), "plot.py", "exec")

    def test_written_config_reproduces_the_run(self, linear_run, tmp_path):
        out = write_outputs(linear_run, tmp_path / "echo")
        cfg = load_config(str(out / "config.ini"))
        assert cfg == linear_run.setup.cfg
        again = execute_run(cfg)
        assert timeseries_csv(again.records) == timeseries_csv(linear_run.records)


class TestModalDiagnostics:
    """DiagnosticsRecorder's per-mode quantities against their physical definitions."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        nx=st.one_of(
            st.integers(1, 50).map(lambda k: 2 * k + 1),
            st.sampled_from([37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101]),
        ),
        nv=st.integers(1, 4),
        model=st.sampled_from(["linear", "nonlinear"]),
        amplitude=st.floats(1e-12, 1e3),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_physical_oracles(self, nx, nv, model, amplitude, seed):
        setup = build_setup(tiny_config(nx=nx, nv=nv, model=model))
        grid = setup.grid
        rng = np.random.default_rng(seed)
        recorder = DiagnosticsRecorder(setup)
        pot = None
        for step, dt_used in enumerate((None, 0.07)):
            shape = (grid.nx, grid.n_vel)
            f = amplitude * rng.standard_normal(shape)
            g = amplitude * rng.standard_normal(shape)
            # The potential exists for mean-free density differences only.
            u = moments_ujs(f - g, grid, setup.equilibrium.d0)[0]
            f -= np.mean(u) / (grid.dv * grid.n_vel)
            deviation = SpeciesPair(f, g)
            state = None if model == "linear" else setup.equilibrium.state + deviation
            record = recorder.observe(0.1 * step, rfft_pair(deviation), dt_used, None, state)

            entropy_dt = setup.cfg.dt if dt_used is None else dt_used
            norm, rho_f_l2, rho_g_l2, entropy, pot = physical_diagnostics(
                deviation, pot, entropy_dt, setup
            )
            assert abs(record.weighted_norm - norm) <= 1e-12 * norm
            rho_f_scale = norm2(grid.dv * np.abs(f).sum(axis=1), grid)
            rho_g_scale = norm2(grid.dv * np.abs(g).sum(axis=1), grid)
            assert abs(record.rho_f_l2 - rho_f_l2) <= 1e-12 * rho_f_scale
            assert abs(record.rho_g_l2 - rho_g_l2) <= 1e-12 * rho_g_scale
            # Scale of the entropy: its three terms in absolute value.
            delta = setup.ledger.delta
            _, j, _ = moments_ujs(f - g, grid, setup.equilibrium.d0)
            dphi = centered_gradient(pot.phi, grid)
            entropy_scale = 0.5 * norm**2 + delta * grid.dx * np.sum(np.abs(j * dphi))
            if pot.phi_prev is not None:
                incr = dphi - centered_gradient(pot.phi_prev, grid)
                entropy_scale += delta / (2.0 * entropy_dt) * grid.dx * np.sum(incr**2)
            assert abs(record.entropy - entropy) <= 1e-12 * entropy_scale
            evolved = deviation if state is None else state
            mass_scale = grid.dx * grid.dv * float(np.sum(np.abs(evolved.f) + np.abs(evolved.g)))
            assert abs(record.mass_difference - mass_difference(evolved, grid)) <= 1e-12 * mass_scale


class TestDeterminism:
    def test_repeat_runs_emit_identical_bytes(self):
        cfg = tiny_config(
            model="nonlinear", test=4, seed=9, t_final=0.2, dt=0.05, dt_max=0.1,
            snapshot_times=(0.0, 0.1),
        )
        one, two = execute_run(cfg), execute_run(cfg)
        assert timeseries_csv(one.records) == timeseries_csv(two.records)
        for a, b in zip(one.snapshots, two.snapshots):
            assert snapshot_csv(a, one.setup.grid) == snapshot_csv(b, two.setup.grid)


class TestCli:
    def test_overrides_mapping(self):
        args = build_parser().parse_args(
            ["--test", "1", "--flux", "centered", "--nx", "9", "--vstar", "2.0",
             "--tfinal", "1.5", "--out", "somewhere", "--snapshots", "0.5,0.25"]
        )
        overrides = overrides_from_args(args)
        assert overrides == {
            "test": 1,
            "flux": "centered",
            "nx": 9,
            "v_star": 2.0,
            "t_final": 1.5,
            "output_dir": "somewhere",
            "snapshot_times": (0.25, 0.5),
        }

    def test_successful_run(self, tmp_path, capsys):
        out = tmp_path / "cli"
        code = main(
            ["--nx", "7", "--nv", "2", "--vstar", "3.0", "--dt", "0.1",
             "--tfinal", "0.5", "--out", str(out), "--snapshots", "0.0"]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "outputs in" in captured.out
        assert (out / "timeseries.csv").exists()
        assert (out / "snapshot_t0.csv").exists()

    def test_config_file_plus_flags(self, tmp_path, capsys):
        path = tmp_path / "run.ini"
        path.write_text("[grid]\nnx = 7\nnv = 2\nvstar = 3.0\n\n[time]\nt_final = 0.3\n")
        out = tmp_path / "combo"
        code = main([str(path), "--flux", "upwind", "--out", str(out)])
        assert code == 0
        assert "flux=upwind" in capsys.readouterr().out

    def test_invalid_value_exits_two(self, capsys):
        assert main(["--nx", "100"]) == 2
        assert "grid.nx" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--tfinal", "nan"], "time.t_final"),
            (["--tfinal", "inf"], "time.t_final"),
            (["--dt", "nan"], "time.dt"),
            (["--snapshots", "nan"], "output.snapshots"),
            (["--snapshots", "0,inf"], "output.snapshots"),
            (["--vstar", "nan"], "grid.vstar"),
            (["--model", "nonlinear", "--tfinal", "nan"], "time.t_final"),
            (["--model", "nonlinear", "--dt-max", "inf"], "time.dt_max"),
        ],
    )
    def test_non_finite_number_exits_two_naming_the_field(self, tmp_path, capsys, flags, field):
        out = tmp_path / "never"
        assert main([*flags, "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [["--tfinal", "0.55", "--snapshots", "0,0.3,0.55"], ["--dt", "0.3", "--tfinal", "1.0"]],
    )
    def test_linear_horizon_off_the_step_grid_exits_two(self, tmp_path, capsys, flags):
        # A fixed-step linear march would stop one partial step short.
        out = tmp_path / "short"
        assert main(["--test", "1", "--nx", "11", "--nv", "2", "--out", str(out), *flags]) == 2
        assert "time.t_final" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("snapshots", ["0,x", "0,,1"])
    def test_bad_snapshot_list_exits_two(self, tmp_path, capsys, snapshots):
        # The flag takes exactly what the INI snapshots key takes.
        with pytest.raises(SystemExit) as info:
            main(["--snapshots", snapshots, "--out", str(tmp_path / "never")])
        assert info.value.code == 2
        assert "--snapshots" in capsys.readouterr().err
        path = tmp_path / "snapshots.ini"
        path.write_text(f"[output]\nsnapshots = {snapshots}\n")
        with pytest.raises(ParseError, match=r"output\.snapshots"):
            load_config(str(path))

    def test_missing_file_exits_two(self, tmp_path, capsys):
        assert main([str(tmp_path / "nope.ini")]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "ini,field",
        [
            ("[model]\nkind = nonlinear\n\n[time]\ndt_min = 0\n", "time.dt_min"),
            ("[model]\nchi1 = file:{absent}\n", "model.chi1"),
            ("[model]\nchi2 = file:{five}\n", "model.chi2"),
            ("[model]\nchi1 = file:{huge}\n", "model.chi1"),
            ("[model]\nlambda = nan\n", "model.lambda"),
            ("[model]\nkind = nonlinear\n\n[time]\ndt_min = nan\n", "time.dt_min"),
        ],
        ids=["zero-dt-min", "missing-profile-file", "wrong-sample-count", "infinite-sample",
             "nan-lambda", "nan-dt-min"],
    )
    def test_bad_config_exits_two_naming_the_field(self, tmp_path, capsys, ini, field):
        five = tmp_path / "five.txt"
        five.write_text("1.0 2.0 2.0 1.0 0.5\n")  # nv = 2 takes four samples
        huge = tmp_path / "huge.txt"
        huge.write_text("1.0 1e400 1e400 1.0\n")  # 1e400 reads as inf
        path = tmp_path / "bad.ini"
        path.write_text(ini.format(absent=tmp_path / "absent.txt", five=five, huge=huge))
        out = tmp_path / "never"
        assert main([str(path), "--nx", "7", "--nv", "2", "--tfinal", "0.2", "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_aborted_run_exits_one(self, tmp_path, capsys):
        path = tmp_path / "abort.ini"
        path.write_text(
            "[grid]\nnx = 7\nnv = 2\nvstar = 3.0\n\n"
            "[model]\nkind = nonlinear\n\n"
            "[time]\ndt = 0.05\ndt_min = 0.05\ndt_max = 0.05\nt_final = 1.0\n\n"
            "[newton]\ntol_residual = 1e-30\nmax_iterations = 1\n"
        )
        out = tmp_path / "aborted"
        code = main([str(path), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "partial outputs" in err
        assert (out / "timeseries.csv").exists()

    def test_mass_drift_aborts_on_the_entropy(self, tmp_path, capsys, monkeypatch):
        # A density difference that is not mean-free has no potential, so the
        # entropy cannot be recorded and the run stops with its partial outputs.
        real = runner.poisson_modes
        calls = []

        def drifting(u_hat, symbol, grid):
            calls.append(None)
            shift = np.fft.rfft(np.full(grid.nx, 1.0 if len(calls) > 2 else 0.0))
            return real(u_hat + shift, symbol, grid)

        monkeypatch.setattr(runner, "poisson_modes", drifting)
        out = tmp_path / "drift"
        code = main(["--nx", "7", "--nv", "2", "--vstar", "3.0", "--tfinal", "1.0",
                     "--out", str(out)])
        assert code == 1
        assert "mean-free" in capsys.readouterr().err
        rows = (out / "timeseries.csv").read_text().splitlines()[1:]
        assert len(rows) == 2
        assert all(row.split(",")[4] for row in rows)
