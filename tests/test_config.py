"""Configuration loading: presets, file parsing, precedence, round-trips."""

import configparser
import importlib.util
import math
import re
from pathlib import Path

import pytest

from kinrec.config import (
    _SCHEMA,
    ParseError,
    RunConfig,
    TEST_PRESETS,
    ValidationError,
    effective_config_text,
    load_config,
    snapshot_name,
    validate_config,
)


def write(tmp_path, text):
    path = tmp_path / "run.ini"
    path.write_text(text)
    return str(path)


class TestDefaults:
    def test_bare_load_fills_defaults(self):
        cfg = load_config()
        assert cfg.torus_length == pytest.approx(math.pi)
        assert (cfg.nx, cfg.nv, cfg.v_star) == (101, 16, 12.0)
        assert cfg.model == "linear"
        assert cfg.flux == "lax-friedrichs"
        assert cfg.lam is None
        assert cfg.t_final == 50.0
        assert cfg.snapshot_times == ()

    def test_t_final_defaults_to_last_snapshot(self):
        cfg = load_config(None, {"snapshot_times": (1.0, 4.5, 2.0)})
        assert cfg.t_final == 4.5


class TestPresets:
    @pytest.mark.parametrize("number", sorted(TEST_PRESETS))
    def test_preset_fields_apply(self, number):
        cfg = load_config(None, {"test": number})
        preset = TEST_PRESETS[number]
        assert cfg.test == number
        assert cfg.model == preset["model"]
        assert cfg.chi1 == preset["chi1"]
        assert cfg.chi2 == preset["chi2"]
        assert cfg.dt == preset["dt"]
        assert cfg.t_final == preset["t_final"]
        assert cfg.snapshot_times == preset["snapshot_times"]
        # Grid fields stay at the shared defaults.
        assert (cfg.nx, cfg.nv, cfg.v_star) == (101, 16, 12.0)

    def test_first_preset_is_linear_relaxation(self):
        cfg = load_config(None, {"test": 1})
        assert cfg.model == "linear" and cfg.chi1 == cfg.chi2 == "heavytail"
        assert cfg.dt == 0.1 and cfg.t_final == 50.0

    def test_third_preset_is_nonlinear(self):
        cfg = load_config(None, {"test": 3})
        assert cfg.model == "nonlinear"
        assert cfg.dt == pytest.approx(1e-3)
        assert cfg.dt_max == pytest.approx(0.3)

    def test_unknown_preset_rejected(self):
        with pytest.raises(ValidationError, match="test"):
            load_config(None, {"test": 9})


class TestFileParsing:
    def test_file_values_override_preset(self, tmp_path):
        path = write(tmp_path, "[model]\ntest = 1\n\n[time]\ndt = 0.05\n")
        cfg = load_config(path)
        assert cfg.test == 1
        assert cfg.dt == 0.05
        assert cfg.t_final == 50.0

    def test_overrides_beat_file(self, tmp_path):
        path = write(tmp_path, "[time]\ndt = 0.05\n")
        cfg = load_config(path, {"dt": 0.2})
        assert cfg.dt == 0.2

    def test_override_test_beats_file_test(self, tmp_path):
        path = write(tmp_path, "[model]\ntest = 1\n")
        cfg = load_config(path, {"test": 3})
        assert cfg.test == 3 and cfg.model == "nonlinear"

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = write(tmp_path, "[grid]\nbogus = 3\n")
        with pytest.raises(ValidationError, match="grid.bogus"):
            load_config(path)

    def test_unknown_section_rejected(self, tmp_path):
        path = write(tmp_path, "[banana]\nx = 1\n")
        with pytest.raises(ValidationError, match="banana.x"):
            load_config(path)

    def test_unknown_override_field_rejected(self):
        with pytest.raises(ValidationError, match="override"):
            load_config(None, {"cheese": 1})

    def test_bad_number_is_a_parse_error(self, tmp_path):
        path = write(tmp_path, "[grid]\nnx = plenty\n")
        with pytest.raises(ParseError, match="grid.nx"):
            load_config(path)

    def test_malformed_file_is_a_parse_error(self, tmp_path):
        path = write(tmp_path, "dt = 0.1\n")  # key before any section header
        with pytest.raises(ParseError, match="malformed"):
            load_config(path)

    def test_missing_file_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError, match="cannot read"):
            load_config(str(tmp_path / "absent.ini"))

    def test_snapshots_parse_sorted(self, tmp_path):
        path = write(tmp_path, "[output]\nsnapshots = 2.5, 0, 1.2\n")
        cfg = load_config(path)
        assert cfg.snapshot_times == (0.0, 1.2, 2.5)

    def test_sentinel_spellings(self, tmp_path):
        path = write(
            tmp_path,
            "[model]\nlambda = auto\ntest = none\n\n"
            "[time]\nt_final = auto\n",
        )
        cfg = load_config(path)
        assert cfg.lam is None
        assert cfg.test is None
        assert cfg.t_final == 50.0

    def test_explicit_lambda_and_drift(self, tmp_path):
        path = write(tmp_path, "[model]\nlambda = 2.5\n")
        cfg = load_config(path)
        assert cfg.lam == 2.5

    def test_boolean_spellings(self, tmp_path):
        path = write(tmp_path, "[model]\nkind = nonlinear\ntruncated = yes\n")
        cfg = load_config(path)
        assert cfg.truncated is True
        bad = write(tmp_path, "[model]\ntruncated = maybe\n")
        with pytest.raises(ParseError, match="boolean"):
            load_config(bad)


class TestValidation:
    @pytest.mark.parametrize(
        "overrides,path",
        [
            ({"nx": 100}, "grid.nx"),
            ({"nx": 1}, "grid.nx"),
            ({"nv": 0}, "grid.nv"),
            ({"v_star": 0.0}, "grid.vstar"),
            ({"torus_length": -1.0}, "grid.torus_length"),
            ({"model": "quadratic"}, "model.kind"),
            ({"flux": "magic"}, "model.flux"),
            ({"lam": -2.0}, "model.lambda"),
            ({"chi1": "cauchy"}, "model.chi1"),
            ({"truncated": True}, "model.truncated"),
            ({"dt": 0.0}, "time.dt"),
            ({"model": "nonlinear", "dt": 0.5, "dt_max": 0.3}, "time.dt"),
            ({"t_final": -1.0}, "time.t_final"),
            ({"t_final": 0.55}, "time.t_final"),
            ({"newton_tol": 0.0}, "newton.tol_residual"),
            ({"newton_max_iterations": 0}, "newton.max_iterations"),
            ({"model": "nonlinear", "dt": 0.01, "dt_min": 0.05}, "time.dt"),
            ({"chi2": "cauchy"}, "model.chi2"),
            ({"snapshot_times": (-1.0,)}, "output.snapshots"),
            ({"seed": -1}, "output.seed"),
            ({"flux": "upwind", "lam": 2.5}, "model.lambda"),
            # Three steps of 3e-10 end at 9e-10: the whole-step slack is relative.
            ({"dt": 3e-10, "t_final": 1e-9}, "time.t_final"),
            # The Newton solve and the step rule read these from RunConfig
            # unchecked; validate_config is their only guard.
            ({"newton_tol": -1e-3}, "newton.tol_residual"),
            ({"model": "nonlinear", "dt_min": 0.0}, "time.dt_min"),
            ({"model": "nonlinear", "dt_min": -1e-6}, "time.dt_min"),
            ({"model": "nonlinear", "dt_min": 0.5}, "time.dt"),
            # The inputs that the layers below take unchecked; each restates
            # a guard test of build_grid, Flux or the Newton residual.
            ({"nx": 4}, "grid.nx"),
            ({"torus_length": 0.0}, "grid.torus_length"),
            ({"lam": 0.0}, "model.lambda"),
            ({"flux": "centered", "lam": 1.0}, "model.lambda"),
            ({"model": "nonlinear", "dt": 0.0}, "time.dt"),
            ({"model": "nonlinear", "dt_max": 0.0}, "time.dt"),
            # t_final/dt overflows, so no whole number of steps reaches t_final.
            ({"dt": 1e-320, "t_final": 50.0}, "time.dt"),
        ],
    )
    def test_invalid_values_name_their_field(self, overrides, path):
        with pytest.raises(ValidationError, match=path.replace(".", r"\.")):
            load_config(None, overrides)

    @pytest.mark.parametrize(
        "times", [(0.5, 0.50000001), (2.0, 2.0), (1e-7, 1.0000001e-7, 3.0)]
    )
    def test_snapshot_times_sharing_a_file_name_rejected(self, times):
        message = r"output\.snapshots.*" + re.escape(snapshot_name(times[0]))
        with pytest.raises(ValidationError, match=message):
            load_config(None, {"snapshot_times": times})

    def test_even_cell_count_message_mentions_odd(self):
        with pytest.raises(ValidationError, match="odd"):
            load_config(None, {"nx": 100})

    def test_validate_accepts_defaults(self):
        validate_config(load_config())


class TestRoundTrip:
    @pytest.mark.parametrize(
        "overrides",
        [
            {},
            {"test": 3},
            {
                "test": 4,
                "lam": 2.5,
                "newton_max_iterations": 40,
                "snapshot_times": (0.0, 0.125, 3.0),
                "output_dir": "elsewhere",
                "seed": 7,
            },
        ],
    )
    def test_effective_text_reloads_byte_identically(self, tmp_path, overrides):
        cfg = load_config(None, overrides)
        text = effective_config_text(cfg)
        path = tmp_path / "echo.ini"
        path.write_text(text)
        again = load_config(str(path))
        assert again == cfg
        assert effective_config_text(again) == text

    def test_effective_text_has_fixed_section_order(self):
        text = effective_config_text(RunConfig(t_final=1.0))
        sections = [line for line in text.splitlines() if line.startswith("[")]
        assert sections == ["[grid]", "[model]", "[time]", "[newton]", "[output]"]


def test_snapshot_names_match_the_benchmark_check():
    # The benchmark's output check names the snapshot files it expects on its
    # own; both must agree on every preset time.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "check.py"
    spec = importlib.util.spec_from_file_location("perfbench_check", path)
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    times = [t for preset in TEST_PRESETS.values() for t in preset["snapshot_times"]]
    assert len(times) == 24
    for t in times:
        assert snapshot_name(t) == check.snapshot_name(t)


def test_readme_config_block_lists_every_key():
    # The README's INI reference must name exactly the keys the loader accepts.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.DOTALL)
    assert len(blocks) == 1
    parser = configparser.ConfigParser(interpolation=None)
    parser.read_string(blocks[0])
    documented = {(section, key) for section in parser.sections() for key in parser[section]}
    assert documented == set(_SCHEMA)
