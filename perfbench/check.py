"""Output check behind fail_ratio.

It is built from the solver's invariants and from reference results of the
commit that introduced the benchmark, never from timing.  r^2 of the decay
fit is not checked: nl-relax fits at r^2 = 0.94 because its solver floor
lies inside the fit window.
"""

from __future__ import annotations

import csv
import hashlib
from pathlib import Path

REQUIRED_FILES = ("timeseries.csv", "summary.txt", "config.ini")
# The solver's own per-step conservation guard.
MAX_MASS_DRIFT_REL = 1e-10
# A floor workload may end lower than its reference (a more converged solve)
# but not above this multiple of it; a looser Newton tolerance lifts the
# floor by orders of magnitude.  Transient workloads end on a value set by
# the discretisation and must match it to this relative tolerance.
FLOOR_FACTOR = 2.0
TRANSIENT_RTOL = 1e-6


def snapshot_name(t: float) -> str:
    return "snapshot_t%s.csv" % ("%g" % t).replace(".", "p").replace("-", "m")


def read_summary(path: Path) -> dict[str, str]:
    pairs = {}
    for line in path.read_text(encoding="utf-8").splitlines():
        key, sep, value = line.partition(" = ")
        if sep:
            pairs[key] = value
    return pairs


def check_outputs(
    out: Path,
    snapshot_times: tuple[float, ...],
    t_final: float,
    reference: float | None,
    floor: bool,
) -> list[str]:
    """Problems found in one run's output directory; empty when it passes.

    `reference` is the expected final weighted norm, or None to skip that
    comparison (grids the reference was not computed on).
    """
    expected = list(REQUIRED_FILES) + [snapshot_name(t) for t in snapshot_times if t <= t_final]
    missing = [name for name in expected if not (out / name).is_file()]
    if missing:
        return [f"missing outputs: {', '.join(missing)}"]
    try:
        summary = read_summary(out / "summary.txt")
        drift = float(summary["max_mass_drift_rel"])
        kappa = float(summary["kappa_fit"] or "nan")
        norm = float(summary["final_weighted_norm"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable summary.txt: {exc!r}"]
    problems = []
    if not drift <= MAX_MASS_DRIFT_REL:
        problems.append(f"max_mass_drift_rel {drift:.3e} above {MAX_MASS_DRIFT_REL:.0e}")
    if not kappa > 0.0:
        problems.append(f"fitted decay rate {kappa} is not positive")
    if reference is not None:
        if floor:
            if not norm <= FLOOR_FACTOR * reference:
                problems.append(
                    f"final_weighted_norm {norm:.6e} above {FLOOR_FACTOR:g}x the reference {reference:.6e}"
                )
        elif not abs(norm - reference) <= TRANSIENT_RTOL * reference:
            problems.append(
                f"final_weighted_norm {norm:.17g} differs from the reference {reference:.17g} "
                f"by more than {TRANSIENT_RTOL:g} relative"
            )
    return problems


def csv_digests(out: Path) -> dict[str, str]:
    """SHA-256 of every CSV output, to compare repeats byte for byte."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.glob("*.csv"))
    }


def csv_bytes(out: Path) -> int:
    """Size of the CSV outputs; summary.txt is left out, as its wall-clock line varies."""
    return sum(path.stat().st_size for path in out.glob("*.csv"))


def march_counts(out: Path) -> dict[str, int]:
    """Accepted Newton steps, their iterations and stalled (zero-iteration) steps.

    Taken from the newton_iters column of timeseries.csv, which is empty on
    the initial row and on linear runs.
    """
    with (out / "timeseries.csv").open(newline="", encoding="utf-8") as fh:
        iterations = [int(row["newton_iters"]) for row in csv.DictReader(fh) if row["newton_iters"]]
    return {
        "steps": len(iterations),
        "newton_iters": sum(iterations),
        "stalled_steps": iterations.count(0),
    }
