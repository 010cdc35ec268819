"""End-to-end runs: setup resolution, marching, output files, CLI."""

import contextlib
import csv
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from conftest import (
    band_levels,
    cellwise_snapshot_csv,
    cellwise_timeseries_csv,
    moments_ujs,
    norm2,
    physical_diagnostics,
    physical_linear_march,
    recomputed_nonlinear_march,
    snapshot_csv,
    undropped_linear_modes,
    unflushed_linear_march,
)
import kinrec
from kinrec import linear, nonlinear, runner
from kinrec.cli import build_parser, main, overrides_from_args
from kinrec.config import ParseError, RunConfig, ValidationError, load_config, snapshot_name
from kinrec.diagnostics import fit_decay_rate
from kinrec.grid import build_grid, centered_gradient, discretize_profile, heavytail_profile
from kinrec.linear import FLUX_NAMES, ImplicitLinearOperator
from kinrec.nonlinear import check_maximum_principle
from kinrec.runner import (
    DIAGNOSTICS_BLOCK,
    REPORT_ENVELOPE_FRACTION,
    TIMESERIES_COLUMNS,
    TIMESERIES_HEADER,
    UNDERFLOW,
    DiagnosticsRecorder,
    ExperimentAbortedError,
    Snapshot,
    build_setup,
    execute_run,
    initial_data,
    resolve_lambda,
    resolve_profile,
    run_experiment,
    summary_text,
    timeseries_csv,
    write_outputs,
)
from kinrec.state import (
    DENSE_DFT_MAX_NX,
    build_equilibrium,
    irfft_pair,
    mass_difference,
    rfft_pair,
    species_profiles,
)

TINY = dict(nx=7, nv=2, v_star=3.0, torus_length=2.0)


def tiny_config(**overrides):
    merged = dict(TINY)
    merged.update(overrides)
    return load_config(None, merged)


def linear_run_with_its_modes(cfg):
    """A linear run, the number of modes each step solved, and the modes each observe took."""
    stepped, observed = [], []
    solve_modes, observe = ImplicitLinearOperator.solve_modes, DiagnosticsRecorder.observe

    def counting(self, modes):
        stepped.append(len(modes))
        solve_modes(self, modes)

    def recording(self, t, modes, *args):
        observed.append(modes.tobytes())
        observe(self, t, modes, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ImplicitLinearOperator, "solve_modes", counting)
        patch.setattr(DiagnosticsRecorder, "observe", recording)
        data = execute_run(cfg)
    return data, stepped, observed


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
        # resolve_profile looks a name up unchecked: load_config refuses one
        # that is neither a named profile nor file:<path>.
        with pytest.raises(ValidationError, match=r"model\.chi1: must be one of .*'cauchy'"):
            load_config(None, {"chi1": "cauchy"})


class TestInitialData:
    def test_smooth_bump_family(self):
        cfg = tiny_config(test=1, t_final=1.0)
        grid = build_grid(cfg.torus_length, cfg.nx, cfg.nv, cfg.v_star)
        data = initial_data(cfg, grid, np.random.default_rng(0))
        x, v = grid.x_centers, grid.v_centers
        bump = np.exp(
            -((x[:, None] - math.pi / 2.0) ** 2 + v[None, :] ** 2 / 2.0) / 0.2
        )
        np.testing.assert_allclose(data[0], 10.0 * bump, rtol=1e-13)
        np.testing.assert_allclose(
            data[1], (1.0 + np.cos(4.0 * x))[:, None] * bump, rtol=1e-13, atol=1e-300
        )

    def test_velocity_ring_family(self):
        cfg = tiny_config(test=3, t_final=1.0)
        grid = build_grid(cfg.torus_length, cfg.nx, cfg.nv, cfg.v_star)
        data = initial_data(cfg, grid, np.random.default_rng(0))
        x, v = grid.x_centers, grid.v_centers
        ring = np.exp(-(v**2) / 2.0) / math.sqrt(2.0 * math.pi) * v**4
        np.testing.assert_allclose(
            data[0], (1.0 + np.cos(2.0 * x))[:, None] * ring[None, :], rtol=1e-13
        )

    def test_model_kind_picks_family_without_test_number(self):
        grid = build_grid(2.0, 7, 2, 3.0)
        rng = np.random.default_rng(0)
        linear = initial_data(tiny_config(), grid, rng)
        preset = initial_data(tiny_config(test=1, t_final=1.0), grid, rng)
        np.testing.assert_array_equal(linear[0], preset[0])
        nonlinear = initial_data(tiny_config(model="nonlinear"), grid, rng)
        ring = initial_data(tiny_config(test=3, t_final=1.0), grid, rng)
        np.testing.assert_array_equal(nonlinear[0], ring[0])

    def test_random_family_is_seed_deterministic(self):
        cfg = tiny_config(test=4, t_final=1.0)
        grid = build_grid(cfg.torus_length, cfg.nx, cfg.nv, cfg.v_star)
        one = initial_data(cfg, grid, np.random.default_rng(42))
        two = initial_data(cfg, grid, np.random.default_rng(42))
        other = initial_data(cfg, grid, np.random.default_rng(43))
        np.testing.assert_array_equal(one[0], two[0])
        np.testing.assert_array_equal(one[1], two[1])
        assert not np.array_equal(one[0], other[0])
        assert np.all(one[0] >= 0.0) and np.all(one[0] <= 1.0)


class TestBuildSetup:
    def test_equilibrium_matches_data_mass(self):
        setup = build_setup(tiny_config(test=4, t_final=1.0, seed=3))
        m0 = mass_difference(setup.data0, setup.grid)
        residual = setup.grid.torus_length * (setup.rho - 1.0 / setup.rho) - m0
        assert residual == pytest.approx(0.0, abs=1e-12)
        eq = build_equilibrium(setup.rho, setup.chi1, setup.chi2, setup.grid)
        np.testing.assert_array_equal(setup.equilibrium.state[0], eq.state[0])

    def test_envelope_and_ledger_wiring(self):
        nonlinear_setup = build_setup(tiny_config(model="nonlinear"))
        assert nonlinear_setup.envelope.gamma == REPORT_ENVELOPE_FRACTION * nonlinear_setup.rho
        # Linear runs never read the band.
        setup = build_setup(tiny_config())
        assert setup.envelope is None
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
        assert len(data.series["t"]) == 1
        assert data.series["t"][0] == 0.0
        assert data.series["dt_used"][0] is None
        assert data.summary.n_steps == 0
        assert len(data.snapshots) == 1
        assert data.snapshots[0].actual_t == 0.0

    def test_snapshot_takes_first_state_at_or_after_request(self):
        cfg = tiny_config(t_final=0.5, dt=0.1, snapshot_times=(0.25,))
        data = execute_run(cfg)
        snap = data.snapshots[0]
        assert snap.requested_t == 0.25
        assert snap.actual_t == pytest.approx(0.3)

    def test_snapshot_slack_is_relative_to_the_requested_time(self):
        # On a time scale of 1e-9 an absolute slack of that size would take
        # both snapshots from the data at t = 0.
        cfg = tiny_config(dt=1e-10, t_final=1e-9, snapshot_times=(5e-10, 1e-9))
        data = execute_run(cfg)
        assert [s.actual_t for s in data.snapshots] == [5 * 1e-10, 10 * 1e-10]

    def test_unsorted_snapshot_times_write_the_sorted_files(self, tmp_path):
        # The recorder takes snapshots in request order, so a run through the
        # Python API, which no INI or CLI parse sorts, must sort them itself.
        written = {}
        for times in ((0.4, 0.1), (0.1, 0.4)):
            cfg = RunConfig(nx=7, nv=2, dt=0.1, t_final=0.5, snapshot_times=times)
            data = execute_run(cfg)
            assert [(s.requested_t, s.actual_t) for s in data.snapshots] == [(0.1, 0.1), (0.4, 0.4)]
            out = write_outputs(data, tmp_path / str(times))
            written[times] = {p.name: p.read_bytes() for p in out.glob("snapshot_t*.csv")}
        assert sorted(written[(0.1, 0.4)]) == ["snapshot_t0p1.csv", "snapshot_t0p4.csv"]
        assert written[(0.4, 0.1)] == written[(0.1, 0.4)]

    def test_linear_records_advance_by_dt(self):
        cfg = tiny_config(t_final=0.5, dt=0.1)
        data = execute_run(cfg)
        times = data.series["t"]
        np.testing.assert_allclose(times, np.arange(6) * 0.1, atol=1e-12)
        assert all(dt == 0.1 for dt in data.series["dt_used"][1:])
        assert all(bounds is None for bounds in data.series["bounds_pass"])

    def test_linear_march_factorizes_nothing(self, monkeypatch):
        # The linear step is solved per Fourier mode: a run assembles one
        # operator and builds neither Newton's stepper nor its transport
        # stencil.  That no run factorizes, or imports scipy at all, is
        # TestCli::test_runs_leave_scipy_unimported.
        assemble = runner.assemble_linear_operator
        operators = []

        def recording(*args):
            operators.append(assemble(*args))
            return operators[-1]

        def refuse_stepper(*args, **kwargs):
            raise AssertionError("the linear march built a Newton stepper or its stencil")

        monkeypatch.setattr(nonlinear.NonlinearStepper, "__init__", refuse_stepper)
        monkeypatch.setattr(nonlinear, "interface_weights", refuse_stepper)
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

        for module in (linear, runner):  # every module that imports the helpers
            monkeypatch.setattr(module, "rfft_pair", counting("rfft", rfft_pair))
            monkeypatch.setattr(module, "irfft_pair", counting("irfft", irfft_pair))
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
        series, snapshots = physical_linear_march(data.setup)
        assert len(data.series["t"]) == len(series["t"]) == 31
        for column in ("t", "dt_used", "bounds_pass", "newton_iters"):
            assert data.series[column] == series[column]
        for column in ("weighted_norm", "rho_f_l2", "rho_g_l2", "entropy"):
            want = np.array(series[column])
            got = np.array(data.series[column])
            np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12 * np.max(np.abs(want)))
        # The linear mass difference is rounding noise around 0; its scale is
        # the run's, as in max_mass_drift_rel.
        mass_scale = max(1.0, abs(mass_difference(data.setup.data0, data.setup.grid)))
        np.testing.assert_allclose(
            data.series["mass_difference"],
            series["mass_difference"],
            rtol=0.0,
            atol=1e-12 * mass_scale,
        )
        assert [(s.requested_t, s.actual_t) for s in data.snapshots] == [
            (s.requested_t, s.actual_t) for s in snapshots
        ]
        scale = np.max(np.abs(snapshots[0].state[0])) + np.max(np.abs(snapshots[0].state[1]))
        for got, want in zip(data.snapshots, snapshots):
            np.testing.assert_allclose(got.state[0], want.state[0], rtol=0.0, atol=1e-12 * scale)
            np.testing.assert_allclose(got.state[1], want.state[1], rtol=0.0, atol=1e-12 * scale)

    @pytest.mark.parametrize(
        "flux, t_final, first, live",
        [
            ("lax-friedrichs", 50.0, 288, 5),
            ("upwind", 50.0, 284, 5),
            ("centered", 100.0, 874, 9),
        ],
    )
    def test_underflow_flush_changes_no_output_and_engages(
        self, flux, t_final, first, live, monkeypatch
    ):
        # The high modes of test 2 decay below UNDERFLOW from step `first`
        # on; centered transport damps them least, so it runs longer.  The
        # march zeroes those entries, drops the modes they leave all zero
        # until `live` of the 11 are left, and its every column and snapshot
        # keeps the bits of the march that does neither.
        below = []  # per step, the entries solve_modes leaves in (0, UNDERFLOW)
        stepped = []  # per step, the modes solve_modes takes
        left = []  # per observed step, those the recorder sees

        def in_gap(modes):
            entries = np.abs(modes.view(float))
            return int(np.count_nonzero((entries > 0.0) & (entries < UNDERFLOW)))

        solve_modes, observe = ImplicitLinearOperator.solve_modes, DiagnosticsRecorder.observe

        def counting_solve(self, modes):
            solve_modes(self, modes)
            below.append(in_gap(modes))
            stepped.append(len(modes))

        def counting_observe(self, t, modes, *args):
            left.append(in_gap(modes))
            observe(self, t, modes, *args)

        monkeypatch.setattr(ImplicitLinearOperator, "solve_modes", counting_solve)
        monkeypatch.setattr(DiagnosticsRecorder, "observe", counting_observe)
        cfg = load_config(None, dict(test=2, nx=21, nv=4, t_final=t_final, flux=flux))
        data = execute_run(cfg)
        monkeypatch.undo()
        n_steps = round(t_final / cfg.dt)
        assert len(below) == data.summary.n_steps == n_steps
        assert left == [0] * (n_steps + 1)
        assert next(n for n, count in enumerate(below, 1) if count) == first
        # Modes are dropped only after the steps that end a block.
        drops = [n for n in range(1, n_steps) if stepped[n] != stepped[n - 1]]
        assert drops and all(n % DIAGNOSTICS_BLOCK == 0 for n in drops)
        assert (stepped[0], stepped[-1]) == (11, live)
        series, snapshots = unflushed_linear_march(data.setup)
        for column in TIMESERIES_COLUMNS:
            assert list(map(repr, data.series[column])) == list(map(repr, series[column]))
        assert len(data.snapshots) == len(snapshots) > 1
        for got, want in zip(data.snapshots, snapshots):
            assert (got.requested_t, got.actual_t) == (want.requested_t, want.actual_t)
            assert got.state.tobytes() == want.state.tobytes()

    @settings(max_examples=20, deadline=None, derandomize=True, database=None)
    @given(
        nx=st.integers(2, 10).map(lambda k: 2 * k + 1),
        nv=st.integers(1, 2),
        flux=st.sampled_from(FLUX_NAMES),
        dt=st.floats(0.3, 1.0),
    )
    def test_dropping_dead_modes_changes_no_output(self, nx, nv, flux, dt):
        # On these grids a mode of test 2 dies by step 580 at the latest
        # (centered transport on 5x2 at dt = 0.3), so 640 steps drop one.
        n_steps = 20 * DIAGNOSTICS_BLOCK
        t_final = n_steps * dt
        cfg = load_config(
            None,
            dict(test=2, nx=nx, nv=nv, flux=flux, dt=dt, t_final=t_final,
                 snapshot_times=(0.0, t_final / 2, t_final)),
        )
        data, stepped, observed = linear_run_with_its_modes(cfg)
        assert len(stepped) == n_steps and stepped[-1] < nx // 2 + 1
        assert observed == [modes.tobytes() for modes in undropped_linear_modes(data.setup)]
        series, snapshots = unflushed_linear_march(data.setup)
        for column in TIMESERIES_COLUMNS:
            assert list(map(repr, data.series[column])) == list(map(repr, series[column]))
        assert len(data.snapshots) == len(snapshots) == 3
        for got, want in zip(data.snapshots, snapshots):
            assert (got.requested_t, got.actual_t) == (want.requested_t, want.actual_t)
            assert got.state.tobytes() == want.state.tobytes()

    def test_march_goes_on_after_every_mode_has_died(self):
        # On 3x1 cells the deviation of test 1 decays to exactly zero, its
        # mass-difference mode included, and from step 225 on the march
        # steps no mode.  The unflushed march is no reference here: its norm
        # is still 2.1e-153 at step 219, where the flushed one reads 0.
        cfg = load_config(None, dict(test=1, nx=3, nv=1, dt=2.0, t_final=640.0))
        data, stepped, observed = linear_run_with_its_modes(cfg)
        assert data.summary.n_steps == len(stepped) == 320
        assert stepped.index(0) == 224 and data.series["weighted_norm"][-1] == 0.0
        assert observed == [modes.tobytes() for modes in undropped_linear_modes(data.setup)]

    def test_nonlinear_march_factorizes_nothing(self, monkeypatch):
        # Each Newton update is one per-mode solve with the x-averaged
        # Jacobian, so a nonlinear run never factorizes; that it never imports
        # scipy is TestCli::test_runs_leave_scipy_unimported.
        solve = ImplicitLinearOperator.solve
        solves = []

        def counting(self, rhs):
            solves.append(rhs.size)
            return solve(self, rhs)

        monkeypatch.setattr(ImplicitLinearOperator, "solve", counting)
        data = execute_run(tiny_config(model="nonlinear", test=4, seed=1, t_final=0.3))
        assert data.summary.n_steps >= 1 and data.summary.rejected_attempts == 0
        assert len(solves) == data.summary.newton_iterations > 0

    def test_nonlinear_march_builds_the_transport_stencil_once(self, monkeypatch):
        # The stepper, built once per run, builds the transport's stencil from
        # the interface weights; each Newton iteration only forms its reaction
        # terms.
        weights = nonlinear.interface_weights
        init = nonlinear.NonlinearStepper.__init__
        built = {"stepper": 0, "stencil": 0}

        def recording_weights(*args):
            built["stencil"] += 1
            return weights(*args)

        def recording_init(self, *args, **kwargs):
            built["stepper"] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(nonlinear, "interface_weights", recording_weights)
        monkeypatch.setattr(nonlinear.NonlinearStepper, "__init__", recording_init)
        data = execute_run(tiny_config(model="nonlinear", test=4, seed=1, t_final=0.3))
        assert sum(data.series["newton_iters"][1:]) >= 2
        assert built == {"stepper": 1, "stencil": 1}

    def test_nonlinear_march_evaluates_each_accepted_state_once(self, monkeypatch):
        # The residual applies its transport once per Newton iteration; each
        # step then starts from the evaluation of the state it left, which the
        # stepper carries, so only the data are evaluated for a start.
        transport = nonlinear.NonlinearStepper.transport
        applied = []

        def counting(self, u):
            applied.append(u.size)
            return transport(self, u)

        monkeypatch.setattr(nonlinear.NonlinearStepper, "transport", counting)
        data = execute_run(tiny_config(model="nonlinear", test=4, seed=1, t_final=40.0))
        summary = data.summary
        assert summary.rejected_attempts == 0 and summary.n_steps > summary.stalled_steps > 0
        assert len(applied) == summary.newton_iterations + 1

    def test_nonlinear_march_builds_one_averaged_step_per_newton_iteration(self, monkeypatch):
        # Each Newton update solves with the x-average of the Jacobian at its
        # own iterate, built at the attempt's dt; the transport's per-mode
        # symbol it needs is computed once, with the stepper.
        built = []
        symbol = nonlinear.transport_symbol
        symbols = []

        class Counting(ImplicitLinearOperator):
            def __init__(self, grid, tau, dt, *args):
                built.append(dt)
                super().__init__(grid, tau, dt, *args)

        def recording_symbol(*args):
            symbols.append(args)
            return symbol(*args)

        monkeypatch.setattr(nonlinear, "ImplicitLinearOperator", Counting)
        monkeypatch.setattr(nonlinear, "transport_symbol", recording_symbol)
        data = execute_run(tiny_config(model="nonlinear", test=3, nx=11, nv=4, t_final=10.0))
        assert data.summary.rejected_attempts == 0 and len(symbols) == 1
        series = data.series
        expected = [
            dt
            for dt, iterations in zip(series["dt_used"][1:], series["newton_iters"][1:])
            for _ in range(iterations)
        ]
        assert built == expected and len(set(built)) > 1

    @pytest.mark.parametrize(
        "overrides, steps, iterations, stalled, bounds",
        [({"test": 3, "nx": 21, "nv": 8}, 341, 324, 81, (115, 227))]
        + [
            ({"test": 4, "nx": 51, "nv": 8, "t_final": 10.0, "seed": seed},
             41, iterations, 0, (None, 0))
            for seed, iterations in enumerate([134, 133, 136, 132, 135, 132, 131, 135, 134, 132])
        ]
        # The truncated scheme: the clamp of the reaction into the reporting
        # envelope, from build_setup through the march.
        + [
            ({"test": 3, "nx": 21, "nv": 8, "truncated": True}, 341, 564, 0, (None, 0)),
            ({"test": 4, "nx": 51, "nv": 8, "t_final": 10.0, "seed": 0, "truncated": True},
             41, 120, 0, (None, 0)),
        ]
        # The nonlinear presets as users run them, on their 101x16 grids.
        + [
            ({"test": 3}, 345, 389, 84, (117, 229)),
            ({"test": 4}, 174, 203, 69, (69, 106)),
        ],
        ids=["test3"] + [f"test4-seed{seed}" for seed in range(10)]
        + ["test3-truncated", "test4-seed0-truncated", "preset3", "preset4"],
    )
    def test_nonlinear_step_sequence_is_pinned(self, overrides, steps, iterations, stalled, bounds):
        # The adaptive march of the benchmark's two nonlinear runs and of the
        # two nonlinear presets.  Newton converges linearly with the
        # x-averaged Jacobian, so any change to its coefficients, the
        # per-mode solve or the transforms that moves a Newton count, a step
        # or a stall shows here and must re-pin them.
        # bounds is the first row inside the reporting envelope and the
        # number of such rows, which also pins REPORT_ENVELOPE_FRACTION.
        data = execute_run(load_config(None, overrides))
        counts = data.series["newton_iters"][1:]
        values = dict(line.split(" = ") for line in summary_text(data).splitlines())
        stalls = int(values["stalled_steps"])
        assert (len(counts), sum(counts), stalls) == (steps, iterations, stalled)
        assert counts.count(0) == stalled and values["rejected_attempts"] == "0"
        passing = data.series["bounds_pass"]
        first = next((row for row, inside in enumerate(passing) if inside), None)
        assert (first, sum(passing)) == bounds

    def test_nonlinear_march_reaches_the_horizon(self):
        cfg = tiny_config(
            model="nonlinear", test=4, seed=1, t_final=0.3, dt=0.05, dt_max=0.1,
            snapshot_times=(0.0, 0.1),
        )
        data = execute_run(cfg)
        assert data.series["t"][-1] == pytest.approx(0.3, abs=1e-12)
        assert all(bounds is not None for bounds in data.series["bounds_pass"])
        assert all(
            iterations is not None and iterations >= 1
            for iterations in data.series["newton_iters"][1:]
        )
        assert data.summary.f_ratio_min is not None
        assert data.summary.max_mass_drift_rel <= 1e-9

    def test_nonlinear_march_ends_on_a_piece_below_dt_min(self):
        cfg = tiny_config(
            model="nonlinear", t_final=1.02, dt=0.05, dt_min=0.05, dt_max=0.05
        )
        data = execute_run(cfg)
        assert data.summary.n_steps == 21
        assert data.series["t"][-1] == pytest.approx(1.02, abs=1e-12)
        assert data.series["dt_used"][-1] == pytest.approx(0.02)

    def test_linear_march_lands_on_a_horizon_within_rounding(self):
        # 50 - 4e-8 passes validation as 500 steps of 0.1, so the march must
        # take all 500 and record the t_final snapshot.
        t_final = 50.0 - 4e-8
        cfg = tiny_config(t_final=t_final, snapshot_times=(t_final,))
        data = execute_run(cfg)
        assert data.summary.n_steps == 500
        assert data.series["t"][-1] == pytest.approx(50.0, abs=1e-9)
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
        assert len(partial.series["t"]) == 1
        text = (out / "timeseries.csv").read_text()
        assert text.splitlines()[0] == TIMESERIES_HEADER
        assert len(text.splitlines()) == 2
        assert (out / "summary.txt").exists()

    @pytest.mark.parametrize("model", ["linear", "nonlinear"])
    def test_every_column_has_the_length_of_t(self, model):
        # 34 rows of dt = 0.1: one block and part of the next.
        cfg = tiny_config(model=model, test=4, seed=1, dt=0.1, dt_max=0.1, t_final=3.3)
        data = execute_run(cfg)
        assert TIMESERIES_HEADER == ",".join(TIMESERIES_COLUMNS)
        assert tuple(data.series) == TIMESERIES_COLUMNS
        lengths = {column: len(values) for column, values in data.series.items()}
        assert lengths == dict.fromkeys(TIMESERIES_COLUMNS, data.summary.n_steps + 1)
        assert data.summary.n_steps + 1 == DIAGNOSTICS_BLOCK + 2

    @pytest.mark.parametrize("model", ["linear", "nonlinear"])
    def test_mid_block_drift_cuts_every_column_back(self, model, monkeypatch):
        # A step whose density drifts in the middle of a block ends the march
        # there; the partial data end on the step before it, in every column
        # and in the snapshots.
        drift_step = DIAGNOSTICS_BLOCK + DIAGNOSTICS_BLOCK // 2
        steps = []
        if model == "linear":
            solve_modes = ImplicitLinearOperator.solve_modes

            def drifting(self, modes):
                solve_modes(self, modes)
                steps.append(None)
                if len(steps) == drift_step:
                    modes[0, 0] += 1.0  # a uniform change in f's density

            monkeypatch.setattr(ImplicitLinearOperator, "solve_modes", drifting)
        else:
            advance = runner.adaptive_advance

            def drifting(*args):
                result = advance(*args)
                steps.append(None)
                if len(steps) == drift_step:
                    state = result.state.copy()
                    state[0] += 0.01  # f alone gains mass
                    result = replace(result, state=state)
                return result

            monkeypatch.setattr(runner, "adaptive_advance", drifting)
        dt = 0.05
        snapshots = (0.0, (drift_step - 1) * dt, drift_step * dt)
        cfg = tiny_config(
            model=model, dt=dt, dt_min=dt, dt_max=dt, t_final=3 * DIAGNOSTICS_BLOCK * dt,
            snapshot_times=snapshots,
        )
        with pytest.raises(ExperimentAbortedError, match="mean-free") as info:
            execute_run(cfg)
        partial = info.value.partial_data
        lengths = {column: len(values) for column, values in partial.series.items()}
        assert lengths == dict.fromkeys(TIMESERIES_COLUMNS, drift_step)
        np.testing.assert_allclose(partial.series["t"], np.arange(drift_step) * dt, atol=1e-12)
        assert [s.requested_t for s in partial.snapshots] == list(snapshots[:2])
        assert partial.summary.n_steps == drift_step - 1
        assert len(steps) == drift_step


def final_state(**overrides):
    """The state at t_final of a run on the default torus."""
    cfg = load_config(None, dict(snapshot_times=(overrides["t_final"],), **overrides))
    return execute_run(cfg).snapshots[-1].state


def successive_ratios(differences):
    return [coarse / fine for coarse, fine in zip(differences, differences[1:])]


class TestConvergenceOrders:
    """The scheme approximates the PDE at its stated orders (LeVeque, ch. 8).

    Each case refines one step size with the other fixed and takes the max
    norm of the difference between successive final states; their ratio is
    2**p under dt halving and 3**p under 3x refinement for a scheme of
    order p.  The identity tests compare the solver with its own discrete
    scheme, so an error shared by both, such as a wrong dt or dx factor,
    shows only here.  LF keeps a fixed lambda (the automatic dx/(2 dt)
    changes the scheme with dt) and the nonlinear run fixed steps.
    """

    DT_HALVINGS = (0.04, 0.02, 0.01, 0.005)

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(test=1, flux="lax-friedrichs", lam=0.5, t_final=2.0),
            dict(test=2, flux="upwind", t_final=2.0),
            dict(model="nonlinear", test=3, lam=6.0, t_final=1.0),
        ],
        ids=["test1-lf", "test2-upwind", "test3-nonlinear"],
    )
    def test_backward_euler_is_first_order_in_dt(self, overrides):
        states = []
        for dt in self.DT_HALVINGS:
            fixed = dict(dt_min=dt, dt_max=dt) if overrides.get("model") == "nonlinear" else {}
            states.append(final_state(nx=21, nv=4, dt=dt, **fixed, **overrides))
        ratios = successive_ratios([np.abs(a - b).max() for a, b in zip(states, states[1:])])
        print(f"dt orders: {[round(math.log2(r), 3) for r in ratios]} (ratios {ratios})")
        assert all(1.8 <= r <= 2.2 for r in ratios)

    def test_centered_flux_is_second_order_in_dx(self):
        # Nested grids: each coarse cell is the mean of three fine ones.
        states = [
            final_state(test=1, flux="centered", nx=nx, nv=4, dt=2e-3, t_final=0.5)
            for nx in (21, 63, 189, 567)
        ]
        differences = [
            np.abs(coarse - fine.reshape(2, coarse.shape[1], 3, -1).mean(axis=2)).max()
            for coarse, fine in zip(states, states[1:])
        ]
        ratios = successive_ratios(differences)
        print(f"dx orders: {[round(math.log(r, 3), 3) for r in ratios]} (ratios {ratios})")
        assert all(8.5 <= r <= 9.5 for r in ratios)


@pytest.fixture(scope="module")
def linear_run():
    cfg = tiny_config(nx=11, nv=4, t_final=6.0, dt=0.1, snapshot_times=(0.0, 0.35))
    return execute_run(cfg)


class TestOutputs:
    def test_timeseries_layout(self, linear_run):
        text = timeseries_csv(linear_run.series)
        lines = text.splitlines()
        assert lines[0] == TIMESERIES_HEADER
        assert len(lines) == len(linear_run.series["t"]) + 1
        first = lines[1].split(",")
        assert len(first) == 9
        assert first[0] == "0"
        assert first[6] == "" and first[7] == "" and first[8] == ""
        second = lines[2].split(",")
        assert float(second[7]) == pytest.approx(0.1)

    def test_csv_values_roundtrip_to_full_precision(self, linear_run):
        text = timeseries_csv(linear_run.series)
        rows = list(csv.DictReader(io.StringIO(text)))
        series = linear_run.series
        for row, norm, mass in zip(rows, series["weighted_norm"], series["mass_difference"]):
            assert float(row["weighted_norm"]) == norm
            assert float(row["mass_difference"]) == mass

    def test_summary_kappa_matches_fit_of_emitted_series(self, linear_run):
        text = timeseries_csv(linear_run.series)
        rows = list(csv.DictReader(io.StringIO(text)))
        t = np.array([float(r["t"]) for r in rows])
        norms = np.array([float(r["weighted_norm"]) for r in rows])
        refit = fit_decay_rate(t, norms)
        assert linear_run.summary.kappa_fit is not None
        assert refit.kappa == pytest.approx(linear_run.summary.kappa_fit, rel=1e-12)

    def test_entropy_stays_within_norm_equivalence(self, linear_run):
        led = linear_run.setup.ledger
        for entropy, norm in zip(linear_run.series["entropy"], linear_run.series["weighted_norm"]):
            assert entropy is not None
            squared = norm**2
            assert entropy >= led.c_lower * squared - 1e-13
            assert entropy <= led.c_upper * squared + 1e-13

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
        snap = Snapshot(0.83, 0.8300000000000001, np.stack([f, g]))
        # Compared as line lists: a failure then names the first differing line.
        assert (
            snapshot_csv(snap, grid).split("\n") == cellwise_snapshot_csv(snap, grid).split("\n")
        )
        nonlinear_run = execute_run(tiny_config(model="nonlinear", test=4, seed=1, t_final=0.3))
        # Past several blocks, with both bounds verdicts and a stalled tail.
        long_run = execute_run(tiny_config(model="nonlinear", test=4, seed=1, t_final=40.0))
        assert set(long_run.series["bounds_pass"]) == {False, True}
        assert 0 in long_run.series["newton_iters"]
        for run in (nonlinear_run, long_run, execute_run(tiny_config(t_final=0.5))):
            assert timeseries_csv(run.series) == cellwise_timeseries_csv(run.series)

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
        assert keys == [
            "model", "flux", "lambda", "rho_inf", "initial_mass_difference",
            "kappa_fit", "r_squared", "prefactor", "final_weighted_norm",
            "max_mass_drift_abs", "max_mass_drift_rel",
            "f_ratio_min", "f_ratio_max", "g_ratio_min", "g_ratio_max",
            "n_steps", "newton_iterations", "stalled_steps", "rejected_attempts", "wall_clock_s",
        ]
        values = dict(line.split(" = ") for line in text.splitlines())
        assert "krylov_iterations" not in values and "krylov_iterations_max" not in values
        assert values["newton_iterations"] == ""
        assert values["stalled_steps"] == values["rejected_attempts"] == ""

    def test_nonlinear_summary_reports_newton_totals(self):
        # Newton has no inner iteration left to count: the summary reports
        # Newton iterations, stalls and rejections, and no Krylov totals.
        data = execute_run(tiny_config(model="nonlinear", test=4, seed=1, t_final=0.3))
        values = dict(line.split(" = ") for line in summary_text(data).splitlines())
        assert "krylov_iterations" not in values and "krylov_iterations_max" not in values
        newton = sum(data.series["newton_iters"][1:])
        assert int(values["newton_iterations"]) == data.summary.newton_iterations == newton > 0
        stalled = data.series["newton_iters"][1:].count(0)
        assert int(values["stalled_steps"]) == data.summary.stalled_steps == stalled
        assert int(values["rejected_attempts"]) == data.summary.rejected_attempts

    def test_rejected_attempts_count_the_retried_newton_failures(self, monkeypatch):
        attempts = []
        advance = runner.adaptive_advance

        def recording(state, dt, cfg, stepper):
            result = advance(state, dt, cfg, stepper)
            attempts.append(result.rejected_attempts)
            return result

        monkeypatch.setattr(runner, "adaptive_advance", recording)
        # Three Newton iterations are too few for the first steps of dt 3.
        cfg = tiny_config(
            model="nonlinear", test=4, seed=1, t_final=20.0, dt=3.0, dt_max=3.0,
            newton_max_iterations=3,
        )
        data = execute_run(cfg)
        values = dict(line.split(" = ") for line in summary_text(data).splitlines())
        assert int(values["rejected_attempts"]) == data.summary.rejected_attempts
        assert data.summary.rejected_attempts == sum(attempts) > 0

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
        # The files hold the writers' text byte for byte; snapshots are
        # written a cell at a time, so the file is checked as a whole.
        grid = linear_run.setup.grid
        assert (out / "timeseries.csv").read_bytes() == timeseries_csv(linear_run.series).encode()
        for snap, name in zip(linear_run.snapshots, ["snapshot_t0.csv", "snapshot_t0p35.csv"]):
            assert (out / name).read_bytes() == snapshot_csv(snap, grid).encode()

    def test_written_config_reproduces_the_run(self, linear_run, tmp_path):
        out = write_outputs(linear_run, tmp_path / "echo")
        cfg = load_config(str(out / "config.ini"))
        assert cfg == linear_run.setup.cfg
        again = execute_run(cfg)
        assert timeseries_csv(again.series) == timeseries_csv(linear_run.series)


def held_array_bytes(recorder) -> int:
    """Bytes of the arrays a recorder holds, its time series, snapshots and setup aside.

    A view counts as the whole array it looks into.
    """
    owners = {}
    pending = [v for k, v in vars(recorder).items() if k not in ("_series", "snapshots", "_setup")]
    while pending:
        value = pending.pop()
        if isinstance(value, (list, tuple)):
            pending.extend(value)
        elif isinstance(value, np.ndarray):
            while isinstance(value.base, np.ndarray):
                value = value.base
            owners[id(value)] = value.nbytes
    return sum(owners.values())


class TestModalDiagnostics:
    """DiagnosticsRecorder's per-mode time series against their physical definitions.

    The recorder finishes its rows a block of steps at a time, so the
    runs of steps observed end before, at and after block edges.
    """

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(
        nx=st.one_of(
            st.integers(1, 50).map(lambda k: 2 * k + 1),
            # Primes, on both sides of the dense transform's limit.
            st.sampled_from([37, 41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101]),
            st.sampled_from(
                [p for p in range(DENSE_DFT_MAX_NX + 1, 200) if all(p % d for d in range(2, p))]
            ),
        ),
        nv=st.integers(1, 4),
        model=st.sampled_from(["linear", "nonlinear"]),
        amplitude=st.floats(1e-12, 1e3),
        # Steps observed: one, and up to, at and past the end of one and two blocks.
        n_steps=st.sampled_from(
            [1]
            + [DIAGNOSTICS_BLOCK + k for k in (-1, 0, 1)]
            + [2 * DIAGNOSTICS_BLOCK + 1]
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_the_physical_oracles(self, nx, nv, model, amplitude, n_steps, seed):
        setup = build_setup(tiny_config(nx=nx, nv=nv, model=model))
        grid, delta = setup.grid, setup.ledger.delta
        rng = np.random.default_rng(seed)
        recorder = DiagnosticsRecorder(setup)
        expected = []
        phi = None
        for step in range(n_steps):
            # Every step but the first has its own dt.
            dt_used = None if step == 0 else float(rng.uniform(0.01, 2.0))
            shape = (grid.nx, grid.n_vel)
            f = amplitude * rng.standard_normal(shape)
            g = amplitude * rng.standard_normal(shape)
            # The potential exists for mean-free density differences only.
            u = moments_ujs(f - g, grid, setup.ledger.d0)[0]
            f -= np.mean(u) / (grid.dv * grid.n_vel)
            deviation = np.stack([f, g])
            state = None if model == "linear" else setup.equilibrium.state + deviation
            recorder.observe(0.1 * step, rfft_pair(deviation), dt_used, step, state)

            entropy_dt = setup.cfg.dt if dt_used is None else dt_used
            phi_prev = phi
            norm, rho_f_l2, rho_g_l2, entropy, phi = physical_diagnostics(
                deviation, phi_prev, entropy_dt, setup
            )
            # Scale of the entropy: its three terms in absolute value.
            _, j, _ = moments_ujs(f - g, grid, setup.ledger.d0)
            dphi = centered_gradient(phi, grid)
            entropy_scale = 0.5 * norm**2 + delta * grid.dx * np.sum(np.abs(j * dphi))
            if phi_prev is not None:
                incr = dphi - centered_gradient(phi_prev, grid)
                entropy_scale += delta / (2.0 * entropy_dt) * grid.dx * np.sum(incr**2)
            evolved = deviation if state is None else state
            expected.append(
                dict(
                    t=0.1 * step,
                    dt_used=dt_used,
                    norm=norm,
                    rho_f_l2=(rho_f_l2, norm2(grid.dv * np.abs(f).sum(axis=1), grid)),
                    rho_g_l2=(rho_g_l2, norm2(grid.dv * np.abs(g).sum(axis=1), grid)),
                    entropy=(entropy, entropy_scale),
                    mass=(
                        mass_difference(evolved, grid),
                        grid.dx * grid.dv * float(np.sum(np.abs(evolved[0]) + np.abs(evolved[1]))),
                    ),
                )
            )
        series = recorder.series
        assert len(series["t"]) == n_steps
        for step, want in enumerate(expected):
            record = {column: values[step] for column, values in series.items()}
            assert (record["t"], record["dt_used"]) == (want["t"], want["dt_used"])
            assert record["newton_iters"] == step
            assert (record["bounds_pass"] is None) is (model == "linear")
            assert abs(record["weighted_norm"] - want["norm"]) <= 1e-12 * want["norm"]
            for got, (value, scale) in (
                (record["rho_f_l2"], want["rho_f_l2"]),
                (record["rho_g_l2"], want["rho_g_l2"]),
                (record["entropy"], want["entropy"]),
                (record["mass_difference"], want["mass"]),
            ):
                assert abs(got - value) <= 1e-12 * scale

    def test_buffers_hold_at_most_a_block_of_per_mode_sums(self):
        # A step's row is 2 species x (density, current) complex sums and one
        # weighted power per mode.  Whole modes per buffered step would be nv
        # times more; the recorder may hold one step's worth as scratch.
        setup = build_setup(tiny_config(nx=201, nv=8, model="nonlinear"))
        grid = setup.grid
        n_modes = grid.nx // 2 + 1
        modes = rfft_pair(setup.data0 - setup.equilibrium.state)
        recorder = DiagnosticsRecorder(setup)
        allowed = DIAGNOSTICS_BLOCK * n_modes * (2 * 2 * 16 + 8) + 2 * modes.nbytes
        for step in range(2 * DIAGNOSTICS_BLOCK + 1):
            recorder.observe(0.1 * step, modes, 0.1 if step else None, 0, setup.data0)
            assert held_array_bytes(recorder) <= allowed
            assert len(recorder._series["t"]) - len(recorder._series["entropy"]) < DIAGNOSTICS_BLOCK
        assert len(recorder.series["t"]) == 2 * DIAGNOSTICS_BLOCK + 1


class TestStalledSteps:
    """A nonlinear step without Newton iteration reuses its predecessor's row."""

    @pytest.mark.parametrize(
        "overrides, stalled",
        [
            (dict(test=3, nx=7, nv=2, t_final=30.0), 75),
            (dict(test=3, nx=21, nv=8), 81),
            (dict(test=3, nx=21, nv=8, truncated=True), 0),
        ],
        ids=["test3-7x2", "test3-21x8", "test3-21x8-truncated"],
    )
    def test_reused_rows_are_the_recomputed_ones_bit_for_bit(self, overrides, stalled):
        # The march transforms no stalled step and the recorder copies the
        # row before it, also across a block edge; the reference transforms
        # and reduces every step.  %.17g writes every bit of a float and the
        # sign of a zero.
        data = execute_run(load_config(None, overrides))
        series, snapshots = recomputed_nonlinear_march(data.setup)
        counts = data.series["newton_iters"]
        assert data.summary.stalled_steps == counts[1:].count(0) == stalled
        if stalled:  # one begins a block, and its predecessor sits in the last slot
            assert 0 in counts[DIAGNOSTICS_BLOCK::DIAGNOSTICS_BLOCK]
        assert timeseries_csv(data.series) == timeseries_csv(series)
        assert len(data.snapshots) == len(snapshots) > 1
        grid = data.setup.grid
        for got, want in zip(data.snapshots, snapshots):
            assert (got.requested_t, got.actual_t) == (want.requested_t, want.actual_t)
            assert snapshot_csv(got, grid) == snapshot_csv(want, grid)


class TestPerStepBounds:
    """The recorder's per-step bounds_pass against check_maximum_principle."""

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(
        nx=st.integers(1, 10).map(lambda k: 2 * k + 1),
        nv=st.integers(1, 4),
        species=st.sampled_from([0, 1]),
        edge=st.sampled_from(["low", "high"]),
        whole_species=st.booleans(),
        # Outward distance from the edge in units of the check's slack.
        offset=st.sampled_from([0.0, -0.5, 0.5, 2.0, 1e3, -1e3]),
        nan=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_matches_check_maximum_principle(
        self, nx, nv, species, edge, whole_species, offset, nan, seed
    ):
        setup = build_setup(tiny_config(nx=nx, nv=nv, model="nonlinear"))
        grid, envelope, rho = setup.grid, setup.envelope, setup.rho
        lows, highs = band_levels(rho, envelope.gamma)
        low, high = lows[species, 0, 0], highs[species, 0, 0]
        slack = 1e-11 * max(1.0, abs(low), abs(high))
        rng = np.random.default_rng(seed)
        ratios = rng.uniform(lows, highs, (2, grid.nx, grid.n_vel))
        # One cell, or the whole species, scaled onto the edge and moved by offset.
        target = ratios[species] if whole_species else ratios[species, 0, :1]
        target[...] = low - offset * slack if edge == "low" else high + offset * slack
        state = ratios * species_profiles(setup.chi1, setup.chi2)
        if nan:
            state[tuple(rng.integers(0, n) for n in state.shape)] = np.nan
        n_modes = grid.nx // 2 + 1
        recorder = DiagnosticsRecorder(setup)
        recorder.observe(0.0, np.zeros((n_modes, 2, grid.n_vel), complex), None, None, state)
        (bounds_pass,) = recorder.series["bounds_pass"]
        report = check_maximum_principle(state, envelope)
        assert bounds_pass is report.passed
        # Division by the profile moves a ratio by a rounding only.
        assert report.passed is (not nan and offset <= 0.5)


class TestStateAliasing:
    @pytest.mark.parametrize(
        "overrides",
        [
            # Snapshots 0.25 and 0.3 both come from the step that lands on 0.3.
            dict(t_final=0.5, snapshot_times=(0.0, 0.25, 0.3, 0.5)),
            # The step that first passes 0.1 serves both 0.1 and 0.1001.
            dict(
                model="nonlinear", test=4, seed=1, t_final=0.3,
                snapshot_times=(0.0, 0.1, 0.1001, 0.3),
            ),
        ],
        ids=["linear", "nonlinear"],
    )
    def test_run_leaves_its_setup_alone_and_snapshots_own_their_arrays(
        self, overrides, monkeypatch
    ):
        # States are mutable arrays: a march must not write into the data or
        # the equilibrium, and no snapshot may share memory with another one
        # or with the state the march carries on (the modes of a linear run).
        observed = []
        observe = DiagnosticsRecorder.observe

        def recording(self, t, modes, dt_used, newton_iterations, state=None):
            observed.append(modes if state is None else state)
            return observe(self, t, modes, dt_used, newton_iterations, state)

        monkeypatch.setattr(DiagnosticsRecorder, "observe", recording)
        cfg = tiny_config(**overrides)
        data = execute_run(cfg)
        fresh = build_setup(data.setup.cfg)
        np.testing.assert_array_equal(data.setup.data0, fresh.data0)
        np.testing.assert_array_equal(data.setup.equilibrium.state, fresh.equilibrium.state)
        snapshots = [s.state for s in data.snapshots]
        assert len(snapshots) == 4 and len({s.actual_t for s in data.snapshots}) == 3
        for k, snapshot in enumerate(snapshots):
            others = snapshots[:k] + snapshots[k + 1 :] + observed
            others += [data.setup.data0, data.setup.equilibrium.state]
            assert not any(np.shares_memory(snapshot, other) for other in others)


class TestDeterminism:
    def test_repeat_runs_emit_identical_bytes(self):
        cfg = tiny_config(
            model="nonlinear", test=4, seed=9, t_final=0.2, dt=0.05, dt_max=0.1,
            snapshot_times=(0.0, 0.1),
        )
        one, two = execute_run(cfg), execute_run(cfg)
        assert timeseries_csv(one.series) == timeseries_csv(two.series)
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

    @pytest.mark.parametrize("snapshots", ["0.5,0.50000001,1", "0.5,1,0.5"])
    def test_snapshots_sharing_a_file_exit_two(self, tmp_path, capsys, snapshots):
        # Both times would write snapshot_t0p5.csv, the second over the first.
        out = tmp_path / "never"
        argv = ["--test", "1", "--nx", "11", "--nv", "2", "--tfinal", "1"]
        assert main([*argv, "--snapshots", snapshots, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "output.snapshots" in err and "snapshot_t0p5.csv" in err
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

    @pytest.mark.parametrize(
        "ini, flags, message",
        [
            ("", ["--test", "2", "--dt", "1e-300", "--tfinal", "1e-299"],
             "time.dt: the estimate's constants overflow or divide by zero "
             "at lambda = 2.24399e+299,"),
            ("[model]\ntest = 3\nlambda = 1e160\n", [],
             "model.lambda: the estimate's constants overflow or divide by zero at lambda = 1e+160,"),
            ("[model]\ntest = 1\nflux = centered\n\n[grid]\ntorus_length = 1e160\n", [],
             "grid.torus_length: dx**2 is not a normal double at dx = 1.42857e+159"),
        ],
        ids=["auto-lambda-of-a-tiny-dt", "huge-lambda", "huge-torus"],
    )
    def test_overflowing_estimate_constants_exit_two(self, tmp_path, capsys, ini, flags, message):
        # The constants ledger squares them with float **, which raises
        # OverflowError past the largest double instead of returning inf, and
        # the Poisson symbol divides by dx**2; build_setup names the input.
        path = tmp_path / "huge.ini"
        path.write_text(ini)
        out = tmp_path / "never"
        assert main([str(path), "--nx", "7", "--nv", "2", *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}")
        assert not out.exists()

    @pytest.mark.parametrize("out", ["file/run", "file"], ids=["under-a-file", "a-file"])
    def test_uncreatable_output_dir_exits_two_before_the_run(
        self, tmp_path, capsys, monkeypatch, out
    ):
        def refuse(cfg):
            raise AssertionError("the run started without an output directory")

        (tmp_path / "file").write_text("not a directory\n")
        monkeypatch.setattr(runner, "execute_run", refuse)
        assert main(["--nx", "7", "--nv", "2", "--out", str(tmp_path / out)]) == 2
        assert "error: output.dir: " in capsys.readouterr().err
        assert (tmp_path / "file").read_text() == "not a directory\n"

    def test_runs_import_no_random_module(self, tmp_path):
        # build_setup's generator comes from a module-level import, so a run's
        # wall_clock_s holds no module import: after importing the CLI, a run
        # adds no numpy.random module.
        script = (
            "import sys\n"
            "import kinrec.cli\n"
            "from kinrec.config import load_config\n"
            "from kinrec.runner import execute_run\n"
            "before = set(sys.modules)\n"
            "execute_run(load_config(None, dict(nx=7, nv=2, t_final=0.3)))\n"
            "added = set(sys.modules) - before\n"
            "print(sorted(name for name in added if name.startswith('numpy.random')))\n"
        )
        path = [str(Path(kinrec.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"

    def test_runs_leave_scipy_unimported(self, tmp_path):
        # scipy is only a test dependency: a fresh process that runs a tiny
        # linear and a tiny nonlinear model never imports it.
        script = (
            "import sys\n"
            "from kinrec.cli import main\n"
            "tiny = ['--nx', '7', '--nv', '2', '--tfinal', '0.3']\n"
            f"assert main(tiny + ['--out', {str(tmp_path / 'linear')!r}]) == 0\n"
            "assert main(tiny + ['--model', 'nonlinear', '--test', '4', '--seed', '1',\n"
            f"                   '--out', {str(tmp_path / 'nonlinear')!r}]) == 0\n"
            "print(sorted(name for name in sys.modules if name.split('.')[0] == 'scipy'))\n"
        )
        path = [str(Path(kinrec.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        result = subprocess.run(
            [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.splitlines()[-1] == "[]"
        assert (tmp_path / "nonlinear" / "summary.txt").exists()

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
        # entropy cannot be recorded.  A drift in the middle of a block must
        # stop the run at once, with the steps before it and with no snapshot
        # of it or of a later step.
        self.check_drift_in_mid_block(tmp_path, capsys, monkeypatch, then_fails=False)

    def test_mass_drift_before_a_failure_aborts_on_the_entropy(
        self, tmp_path, capsys, monkeypatch
    ):
        # The march would fail on a later step of the drifting step's block:
        # the drift comes first, so the run reports it and ends where it did.
        self.check_drift_in_mid_block(tmp_path, capsys, monkeypatch, then_fails=True)

    @staticmethod
    def check_drift_in_mid_block(tmp_path, capsys, monkeypatch, then_fails):
        drift_step = DIAGNOSTICS_BLOCK + DIAGNOSTICS_BLOCK // 2
        solve_modes = ImplicitLinearOperator.solve_modes
        steps = []

        def drifting(self, modes):
            solve_modes(self, modes)
            steps.append(None)
            if len(steps) == drift_step:
                modes[0, 0] += 1.0  # a uniform change in f's density
            if then_fails and len(steps) == drift_step + 2:
                raise RuntimeError("the step after next fails")

        monkeypatch.setattr(ImplicitLinearOperator, "solve_modes", drifting)
        dt = 0.05
        snapshots = [0.0, (drift_step - 1) * dt, drift_step * dt, (drift_step + 3) * dt]
        out = tmp_path / "drift"
        code = main(["--nx", "7", "--nv", "2", "--vstar", "3.0", "--dt", str(dt),
                     "--tfinal", str(3 * DIAGNOSTICS_BLOCK * dt),
                     "--snapshots", ",".join(map(str, snapshots)), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert "mean-free" in err
        rows = [row.split(",") for row in (out / "timeseries.csv").read_text().splitlines()[1:]]
        assert [float(row[0]) for row in rows] == [n * dt for n in range(drift_step)]
        assert all(row[4] for row in rows)
        assert f"aborted at t={float(rows[-1][0]):.6g}:" in err
        written = sorted(path.name for path in out.glob("snapshot_t*.csv"))
        assert written == sorted(snapshot_name(t) for t in snapshots[:2])
        assert len(steps) == drift_step


# Values the exit-code property draws from: odd and even, too small and
# negative cell counts, scales from the smallest to the largest doubles, and
# times that are not positive, not finite, or far below a step.
EXIT_NX = [-3, 0, 1, 3, 4, 5, 7, 9, 11]
EXIT_SCALES = [1e-308, 1e-3, 1.0, 3.0, 12.0, 1e6, 1e12, 1e308]
EXIT_TIMES = [0.0, -1.0, math.nan, math.inf, 1e-9, 5e-13, 1e-3, 0.1, 0.3]
# Longest linear march a draw may ask for; longer draws are skipped, as the
# property is about how a run ends, not how long it takes.
EXIT_MAX_LINEAR_STEPS = 2000

exit_flags = st.fixed_dictionaries(
    {},
    optional={
        "--test": st.sampled_from([1, 2, 3, 4]),
        "--model": st.sampled_from(["linear", "nonlinear"]),
        "--flux": st.sampled_from(FLUX_NAMES),
        "--nx": st.sampled_from(EXIT_NX),
        "--nv": st.integers(0, 4),
        "--vstar": st.sampled_from(EXIT_SCALES),
        "--dt": st.sampled_from(EXIT_TIMES),
        "--tfinal": st.sampled_from(EXIT_TIMES),
        "--seed": st.sampled_from([-1, 0, 2, 3]),
    },
)
# (section, key) -> value of an INI file; the file always sets a horizon.
exit_ini = st.fixed_dictionaries(
    {("time", "t_final"): st.sampled_from(EXIT_TIMES)},
    optional={
        ("grid", "torus_length"): st.sampled_from(EXIT_SCALES),
        ("grid", "nx"): st.sampled_from(EXIT_NX),
        ("grid", "nv"): st.integers(0, 4),
        ("grid", "vstar"): st.sampled_from(EXIT_SCALES),
        ("model", "kind"): st.sampled_from(["linear", "nonlinear"]),
        ("model", "flux"): st.sampled_from(FLUX_NAMES),
        ("model", "lambda"): st.sampled_from([-2.0, 0.5, 6.0, 1e160]),
        ("model", "test"): st.sampled_from([1, 2, 3, 4]),
        ("model", "truncated"): st.sampled_from(["yes", "no"]),
        ("time", "dt"): st.sampled_from(EXIT_TIMES),
        ("time", "dt_min"): st.sampled_from([0.0, 1e-12, 1e-3]),
        ("newton", "tol_residual"): st.sampled_from([-1.0, 1e-30, 1e-8]),
        ("newton", "max_iterations"): st.sampled_from([0, 1, 3]),
        ("output", "seed"): st.sampled_from([-1, 0, 2, 3]),
    },
)


class TestExitCodes:
    """The CLI's contract: every configuration ends in exit 0, 1 or 2.

    Exit 2 names the field at fault and leaves no output directory; exit 1
    leaves the partial outputs.  The set-ups below passed validate_config
    and crashed with a traceback, or printed no key (tiny-dt), before
    build_setup refused them.
    """

    SETUP_REFUSALS = [
        (["--nx", "5", "--nv", "1", "--tfinal", "1", "--vstar", "1e-308"], "", "grid.vstar"),
        (["--test", "4", "--nx", "5", "--nv", "1", "--tfinal", "0.3", "--vstar", "1e12",
          "--seed", "2"], "", "grid.vstar"),
        ([], "[grid]\ntorus_length = 1e308\nnx = 5\nnv = 1\n[time]\nt_final = 1\n",
         "grid.torus_length"),
        (["--dt", "1e-300"], "", "time.dt"),
        # rho keeps 7 digits, and the initial deviation has a cell mean of -1.6e-3.
        (["--test", "4", "--nx", "5", "--tfinal", "0", "--vstar", "1e6"], "", "grid.vstar"),
        # Profile samples and initial data that overflow.
        (["--test", "4", "--nx", "5", "--nv", "1", "--vstar", "1e100"], "", "model.chi1"),
        ([], "[grid]\ntorus_length = 1e160\nnx = 5\nnv = 1\n[time]\nt_final = 1\n",
         "grid.torus_length"),
    ]
    SETUP_REFUSAL_IDS = [
        "tiny-vstar", "rho-rounds-to-zero", "huge-torus", "tiny-dt", "rho-loses-the-mass",
        "overflowing-profile", "overflowing-data",
    ]

    @staticmethod
    def run_cli(base, flags, ini_text):
        """main on flags and an INI file, writing to base/runs/out; returns (code, stderr)."""
        path = base / "run.ini"
        path.write_text(ini_text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                code = main([str(path), *flags, "--out", str(base / "runs" / "out")])
        return code, err.getvalue()

    @pytest.mark.parametrize("flags, ini, field", SETUP_REFUSALS, ids=SETUP_REFUSAL_IDS)
    def test_setup_refusals_exit_two(self, tmp_path, flags, ini, field):
        code, err = self.run_cli(tmp_path, flags, ini)
        assert code == 2
        assert err.startswith(f"error: {field}: ")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("flags, ini, field", SETUP_REFUSALS, ids=SETUP_REFUSAL_IDS)
    def test_setup_refusals_print_only_their_error_line(self, tmp_path, capsys, flags, ini, field):
        # build_setup's own checks decide on these set-ups, so no NumPy
        # warning may print before the error line.
        path = tmp_path / "run.ini"
        path.write_text(ini)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = main([str(path), *flags, "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: {field}: ") and err.count("\n") == 1

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(flags=exit_flags, ini=exit_ini)
    @example(flags={"--nx": 5, "--nv": 1, "--tfinal": 1.0, "--vstar": 1e-308}, ini={})
    @example(
        flags={"--test": 4, "--nx": 5, "--nv": 1, "--tfinal": 0.3, "--vstar": 1e12, "--seed": 2},
        ini={},
    )
    @example(
        flags={},
        ini={("grid", "torus_length"): 1e308, ("grid", "nx"): 5, ("grid", "nv"): 1,
             ("time", "t_final"): 1.0},
    )
    @example(flags={"--dt": 1e-300}, ini={})
    # Found by fresh draws: rho losing digits of the data's mass difference,
    # and a torus long enough that the cell-sum of a rounding-level mean
    # failed the mean-free check, each before the first row.
    @example(flags={"--test": 4, "--nx": 5, "--tfinal": 0.0, "--vstar": 1e6}, ini={})
    @example(
        flags={"--test": 3, "--nx": 3, "--nv": 1, "--vstar": 3.0},
        ini={("grid", "torus_length"): 1e6, ("time", "t_final"): 0.2},
    )
    def test_every_configuration_exits_zero_one_or_two(self, flags, ini):
        def text(value):
            return value if isinstance(value, str) else repr(value)

        argv = [arg for option, value in flags.items() for arg in (option, text(value))]
        sections: dict[str, list[str]] = {}
        for (section, key), value in ini.items():
            sections.setdefault(section, []).append(f"{key} = {text(value)}")
        ini_text = "".join(
            f"[{section}]\n" + "".join(line + "\n" for line in lines)
            for section, lines in sections.items()
        )
        assume(not self.marches_long(argv, ini_text))
        with tempfile.TemporaryDirectory() as tmp:
            base = Path(tmp)
            code, err = self.run_cli(base, argv, ini_text)
            assert code in (0, 1, 2)
            out = base / "runs" / "out"
            if code == 2:
                assert re.search(r"^error: [a-z_]+\.[a-z_0-9]+: ", err, re.MULTILINE), err
                assert not (base / "runs").exists()
            else:
                assert (out / "timeseries.csv").exists() and (out / "summary.txt").exists()

    @staticmethod
    def marches_long(argv, ini_text):
        """Whether the run is linear and its set-up passes but it would take too many steps."""
        with tempfile.NamedTemporaryFile("w", suffix=".ini") as handle:
            handle.write(ini_text)
            handle.flush()
            args = build_parser().parse_args([handle.name, *argv])
            try:
                cfg = load_config(args.config, overrides_from_args(args))
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    build_setup(cfg)
            except (ParseError, ValidationError):
                return False
        return cfg.model == "linear" and cfg.t_final / cfg.dt > EXIT_MAX_LINEAR_STEPS
