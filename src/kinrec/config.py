"""Run configuration: declarative INI file, test presets, CLI overrides."""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, fields, replace
from typing import Any, Mapping

from .grid import NAMED_PROFILES
from .linear import FLUX_NAMES, LAX_FRIEDRICHS

MODEL_NAMES = ("linear", "nonlinear")


class ParseError(ValueError):
    """Config file could not be read as key = value sections."""


class ValidationError(ValueError):
    """A config field has an inadmissible value; message names the field."""


@dataclass(frozen=True)
class RunConfig:
    torus_length: float = math.pi
    nx: int = 101
    nv: int = 16
    v_star: float = 12.0
    model: str = "linear"
    flux: str = "lax-friedrichs"
    # LF diffusion strength; None resolves at run time from model and dt.
    lam: float | None = None
    chi1: str = "heavytail"
    chi2: str = "heavytail"
    truncated: bool = False
    test: int | None = None
    dt: float = 0.1
    dt_min: float = 1e-8
    dt_max: float = 0.3
    t_final: float | None = None
    newton_tol: float = 1e-11
    newton_max_iterations: int = 25
    output_dir: str = "run"
    snapshot_times: tuple[float, ...] = ()
    seed: int = 0
    emit_plot_script: bool = False


TEST_PRESETS: dict[int, dict[str, Any]] = {
    1: {
        "model": "linear",
        "chi1": "heavytail",
        "chi2": "heavytail",
        "dt": 0.1,
        "t_final": 50.0,
        "snapshot_times": (0.0, 0.8, 1.2, 1.6, 2.5, 50.0),
    },
    2: {
        "model": "linear",
        "chi1": "heavytail",
        "chi2": "oscillating",
        "dt": 0.1,
        "t_final": 50.0,
        "snapshot_times": (0.0, 0.8, 1.2, 1.6, 2.5, 50.0),
    },
    3: {
        "model": "nonlinear",
        "chi1": "gaussian",
        "chi2": "gaussian",
        "dt": 1e-3,
        "dt_max": 0.3,
        "t_final": 100.0,
        "snapshot_times": (0.0, 0.83, 2.25, 3.35, 9.67, 100.0),
    },
    4: {
        "model": "nonlinear",
        "chi1": "heavytail",
        "chi2": "oscillating",
        "dt": 1e-3,
        "dt_max": 0.3,
        "t_final": 49.9,
        "snapshot_times": (0.0, 0.16, 0.38, 0.77, 1.66, 49.9),
    },
}


def _parse_float(text: str) -> float:
    try:
        return float(text)
    except ValueError as exc:
        raise ParseError(f"not a number: {text!r}") from exc

def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise ParseError(f"not an integer: {text!r}") from exc

def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t in ("true", "1", "yes", "on"):
        return True
    if t in ("false", "0", "no", "off"):
        return False
    raise ParseError(f"not a boolean: {text!r}")

def _parse_optional_float(text: str) -> float | None:
    return None if text.strip().lower() == "auto" else _parse_float(text)

def _parse_optional_test(text: str) -> int | None:
    return None if text.strip().lower() == "none" else _parse_int(text)

def parse_snapshots(text: str) -> tuple[float, ...]:
    """Comma-separated snapshot times, sorted; the empty string gives none."""
    text = text.strip()
    if not text:
        return ()
    return tuple(sorted(_parse_float(part) for part in text.split(",")))


# (section, key) -> (config field, parser)
_SCHEMA: dict[tuple[str, str], tuple[str, Any]] = {
    ("grid", "torus_length"): ("torus_length", _parse_float),
    ("grid", "nx"): ("nx", _parse_int),
    ("grid", "nv"): ("nv", _parse_int),
    ("grid", "vstar"): ("v_star", _parse_float),
    ("model", "kind"): ("model", str),
    ("model", "flux"): ("flux", str),
    ("model", "lambda"): ("lam", _parse_optional_float),
    ("model", "chi1"): ("chi1", str),
    ("model", "chi2"): ("chi2", str),
    ("model", "truncated"): ("truncated", _parse_bool),
    ("model", "test"): ("test", _parse_optional_test),
    ("time", "dt"): ("dt", _parse_float),
    ("time", "dt_min"): ("dt_min", _parse_float),
    ("time", "dt_max"): ("dt_max", _parse_float),
    ("time", "t_final"): ("t_final", _parse_optional_float),
    ("newton", "tol_residual"): ("newton_tol", _parse_float),
    ("newton", "max_iterations"): ("newton_max_iterations", _parse_int),
    ("output", "dir"): ("output_dir", str),
    ("output", "snapshots"): ("snapshot_times", parse_snapshots),
    ("output", "seed"): ("seed", _parse_int),
    ("output", "emit_plot_script"): ("emit_plot_script", _parse_bool),
}

_FIELD_TO_SECTION_KEY = {field: sk for sk, (field, _) in _SCHEMA.items()}


def _read_file(path: str) -> dict[str, Any]:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path, "r", encoding="utf-8") as handle:
            parser.read_file(handle)
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    except configparser.Error as exc:
        raise ParseError(f"malformed config file {path}: {exc}") from exc
    values: dict[str, Any] = {}
    for section in parser.sections():
        for key, text in parser.items(section):
            if (section, key) not in _SCHEMA:
                raise ValidationError(f"unknown config key {section}.{key}")
            field, parse = _SCHEMA[(section, key)]
            try:
                values[field] = parse(text)
            except ParseError as exc:
                raise ParseError(f"{section}.{key}: {exc}") from exc
    return values


def _field_path(field: str) -> str:
    section, key = _FIELD_TO_SECTION_KEY[field]
    return f"{section}.{key}"


def validate_config(cfg: RunConfig) -> None:
    def bad(field: str, why: str) -> ValidationError:
        return ValidationError(f"{_field_path(field)}: {why}")

    if not all(map(math.isfinite, cfg.snapshot_times)):
        raise bad("snapshot_times", f"times must be finite, got {cfg.snapshot_times}")
    for field in ("torus_length", "v_star", "lam", "dt", "dt_min", "dt_max", "t_final", "newton_tol"):
        value = getattr(cfg, field)
        if value is not None and not math.isfinite(value):
            raise bad(field, f"must be finite, got {value}")
    if cfg.torus_length <= 0:
        raise bad("torus_length", f"must be positive, got {cfg.torus_length}")
    if cfg.nx < 3 or cfg.nx % 2 == 0:
        raise bad("nx", f"must be odd and >= 3, got {cfg.nx}")
    if cfg.nv < 1:
        raise bad("nv", f"must be >= 1, got {cfg.nv}")
    if cfg.v_star <= 0:
        raise bad("v_star", f"must be positive, got {cfg.v_star}")
    if cfg.model not in MODEL_NAMES:
        raise bad("model", f"must be one of {MODEL_NAMES}, got {cfg.model!r}")
    if cfg.flux not in FLUX_NAMES:
        raise bad("flux", f"must be one of {FLUX_NAMES}, got {cfg.flux!r}")
    if cfg.lam is not None and cfg.lam <= 0:
        raise bad("lam", f"must be positive or auto, got {cfg.lam}")
    if cfg.lam is not None and cfg.flux != LAX_FRIEDRICHS:
        raise bad("lam", f"only the {LAX_FRIEDRICHS} flux takes lambda, got {cfg.flux!r}")
    for field, name in (("chi1", cfg.chi1), ("chi2", cfg.chi2)):
        if name not in NAMED_PROFILES and not name.startswith("file:"):
            raise bad(
                field,
                f"must be one of {tuple(NAMED_PROFILES)} or file:<path>, got {name!r}",
            )
    if cfg.truncated and cfg.model != "nonlinear":
        raise bad("truncated", "only the nonlinear model supports truncation")
    if cfg.test is not None and cfg.test not in TEST_PRESETS:
        raise bad("test", f"must be one of {sorted(TEST_PRESETS)}, got {cfg.test}")
    if cfg.dt <= 0:
        raise bad("dt", f"must be positive, got {cfg.dt}")
    if cfg.model == "nonlinear":
        if cfg.dt_min <= 0:
            raise bad("dt_min", f"must be positive, got {cfg.dt_min}")
        if not cfg.dt_min <= cfg.dt <= cfg.dt_max:
            raise bad("dt", f"need dt_min <= dt <= dt_max, got {cfg.dt_min}, {cfg.dt}, {cfg.dt_max}")
    if any(t < 0 for t in cfg.snapshot_times):
        raise bad("snapshot_times", f"times must be non-negative, got {cfg.snapshot_times}")
    if cfg.t_final is not None and cfg.t_final < 0:
        raise bad("t_final", f"must be non-negative, got {cfg.t_final}")
    if cfg.model == "linear" and cfg.t_final is not None:
        # The linear march takes fixed steps of dt and must land on t_final.
        steps = round(cfg.t_final / cfg.dt)
        if abs(steps * cfg.dt - cfg.t_final) > 1e-9 * max(1.0, cfg.t_final):
            raise bad("t_final", f"must be a whole number of dt={cfg.dt} steps, got {cfg.t_final}")
    if cfg.newton_tol <= 0:
        raise bad("newton_tol", f"must be positive, got {cfg.newton_tol}")
    if cfg.newton_max_iterations < 1:
        raise bad("newton_max_iterations", f"must be >= 1, got {cfg.newton_max_iterations}")
    if cfg.seed < 0:
        raise bad("seed", f"must be non-negative, got {cfg.seed}")


def load_config(path: str | None = None, overrides: Mapping[str, Any] | None = None) -> RunConfig:
    """Build the effective configuration.

    Precedence, lowest to highest: dataclass defaults, the preset selected by
    the test number, file values, overrides (CLI flags).  The test number
    itself is taken from overrides first, then the file.
    """
    file_values = _read_file(path) if path else {}
    override_values = dict(overrides or {})
    unknown = set(override_values) - {f.name for f in fields(RunConfig)}
    if unknown:
        raise ValidationError(f"unknown override fields: {sorted(unknown)}")

    test = override_values.get("test", file_values.get("test"))
    merged: dict[str, Any] = {}
    if test is not None:
        if test not in TEST_PRESETS:
            raise ValidationError(f"model.test: must be one of {sorted(TEST_PRESETS)}, got {test}")
        merged.update(TEST_PRESETS[test])
        merged["test"] = test
    merged.update(file_values)
    merged.update(override_values)
    if test is not None:
        merged["test"] = test

    return resolve_config(replace(RunConfig(), **merged))


def resolve_config(cfg: RunConfig) -> RunConfig:
    """The config a run uses: t_final = auto set to the last snapshot time, else 50."""
    if cfg.t_final is None:
        cfg = replace(cfg, t_final=max(cfg.snapshot_times, default=50.0))
    validate_config(cfg)
    return cfg


def _format_value(value: Any) -> str:
    if value is None:
        return "auto"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(repr(float(t)) for t in value)
    return str(value)


def effective_config_text(cfg: RunConfig) -> str:
    """Render the fully-resolved configuration; reloading it reproduces cfg."""
    lines: list[str] = []
    for section in dict.fromkeys(sec for sec, _ in _SCHEMA):
        lines.append(f"[{section}]")
        for (sec, key), (field, _) in _SCHEMA.items():
            if sec != section:
                continue
            value = getattr(cfg, field)
            if field == "test" and value is None:
                text = "none"
            else:
                text = _format_value(value)
            lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)
