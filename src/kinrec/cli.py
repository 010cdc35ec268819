"""Command-line front end: config file plus overrides, one run per invocation."""

from __future__ import annotations

import argparse
import sys
from typing import Any, Sequence

from .config import (
    FLUX_NAMES,
    MODEL_NAMES,
    TEST_PRESETS,
    ParseError,
    ValidationError,
    load_config,
    parse_snapshots,
)
from .runner import ExperimentAbortedError, run_experiment


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="kinrec",
        description=(
            "Implicit finite-volume solver for a two-species kinetic "
            "generation-recombination system on a periodic interval."
        ),
    )
    parser.add_argument("config", nargs="?", default=None, help="INI config file (optional)")
    parser.add_argument("--test", type=int, choices=sorted(TEST_PRESETS), help="experiment preset")
    parser.add_argument("--flux", choices=FLUX_NAMES)
    parser.add_argument("--model", choices=MODEL_NAMES)
    parser.add_argument("--nx", type=int, help="spatial cells (odd)")
    parser.add_argument("--nv", type=int, help="velocity cells per half-axis")
    parser.add_argument(
        "--vstar", dest="v_star", type=float, metavar="VSTAR", help="velocity cutoff"
    )
    parser.add_argument("--dt", type=float, help="time step (initial step when adaptive)")
    parser.add_argument("--dt-max", type=float, help="adaptive step ceiling")
    parser.add_argument(
        "--tfinal", dest="t_final", type=float, metavar="TFINAL", help="final time"
    )
    parser.add_argument("--seed", type=int, help="RNG seed for random initial data")
    parser.add_argument("--out", dest="output_dir", metavar="OUT", help="output directory")
    parser.add_argument(
        "--snapshots",
        dest="snapshot_times",
        type=parse_snapshots,
        metavar="t1,t2,...",
        help="comma-separated snapshot times",
    )
    return parser


def overrides_from_args(args: argparse.Namespace) -> dict[str, Any]:
    """RunConfig overrides: every option given on the command line.

    Option destinations are named after the RunConfig fields they set.
    """
    return {
        field: value
        for field, value in vars(args).items()
        if field != "config" and value is not None
    }


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, overrides_from_args(args))
        data = run_experiment(cfg)
    except (ParseError, ValidationError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ExperimentAbortedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        print(f"partial outputs written to {cfg.output_dir}", file=sys.stderr)
        return 1
    s = data.summary
    kappa = "n/a" if s.kappa_fit is None else f"{s.kappa_fit:.6g} (r^2={s.r_squared:.6f})"
    print(f"model={s.model} flux={s.flux} lambda={s.lambda_:.6g} rho_inf={s.rho_inf:.12g}")
    print(f"steps={s.n_steps} final_weighted_norm={s.final_weighted_norm:.6e}")
    print(f"fitted_decay_rate={kappa}")
    print(f"max_mass_drift={s.max_mass_drift_abs:.3e} (rel {s.max_mass_drift_rel:.3e})")
    print(f"outputs in {cfg.output_dir}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
