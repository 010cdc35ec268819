"""Benchmark of the kinrec solver through its public entry point `kinrec.cli.main`.

Each run starts a fresh worker process with the BLAS thread count pinned.  The
worker warms up on a tiny grid, times the solver's set-up, then calls the
workload again and again for --seconds and checks every call's outputs.  A
machine-speed probe (calibrate.py) runs between the calls, and the end-to-end
times are normalised by it, because a shared host's speed swings.  With
--trace 1 a second fresh process makes one traced call, and the per-layer
metrics are reported instead of the end-to-end ones.

    python3 perfbench/run.py --workload nl-relax --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all    # every workload in one report

Metric names and units come from BENCHMARK.json at the root of the checkout.
Every metric is printed with its unit and sample count, with the machine
facts above them; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any

from calibrate import REFERENCE_S
from spans import SELF_METRICS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# One BLAS thread was both faster and steadier than two on a 2-core machine.
BLAS_THREADS = "1"
# A worker still running this long after its measuring time is killed, so a
# hung solver ends the run well within the 180 s one run may take.
TIMED_SLACK_S = 45
TRACED_TIMEOUT_S = 60
# Per-layer self times must add up to the traced wall time within this share.
ATTRIBUTION_TOLERANCE = 0.03


class BenchmarkError(RuntimeError):
    """The benchmark could not measure; no result is printed."""


def run_worker(mode: str, args: argparse.Namespace, workload: str, scratch: Path) -> dict[str, Any]:
    result = scratch / f"{mode}.json"
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--root", str(ROOT),
        "--workload", workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--mode", mode,
        "--work", str(scratch / mode),
        "--result", str(result),
    ] + (["--tiny"] if args.tiny else [])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    timeout = args.seconds + TIMED_SLACK_S if mode == "timed" else TRACED_TIMEOUT_S
    try:
        proc = subprocess.run(
            command, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} worker for {workload} ran over {timeout} s") from exc
    if proc.returncode != 0 or not result.is_file():
        raise BenchmarkError(
            f"{mode} worker for {workload} exited with {proc.returncode}:\n{proc.stderr[-3000:]}"
        )
    return json.loads(result.read_text(encoding="utf-8"))


def end_to_end(timed: dict[str, Any]) -> dict[str, tuple[float, int]]:
    """(value, sample count) of each end-to-end metric.

    Times are normalised by the machine-speed probes that bracket each call
    (calibrate.py), so they read as seconds at the probe's reference speed.
    """
    probes = timed["probes"]
    scales = [REFERENCE_S / ((before + after) / 2) for before, after in zip(probes, probes[1:])]
    walls = [wall * scale for wall, scale in zip(timed["walls"], scales)]
    setup = [sample * scale for samples, scale in zip(timed["setup"], scales) for sample in samples]
    return {
        "wall_norm_s": (statistics.median(walls), len(walls)),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (timed["peak_rss_mb"], 1),
    }


def per_layer(timed: dict[str, Any], traced: dict[str, Any]) -> dict[str, tuple[float, int]]:
    """(value, sample count) of each per-layer metric; counts are exact, n=1."""
    layers = dict(traced["layers"])
    samples = traced["samples"]
    counts = timed["counts"] or {"steps": 0, "newton_iters": 0, "stalled_steps": 0}
    newton_calls = layers.pop("nonlinear.newton_calls")
    steps = counts["steps"]
    wall = traced["wall"]
    layers.update(
        {
            "nonlinear.steps": steps,
            "nonlinear.newton_iters": counts["newton_iters"],
            "nonlinear.stalled_steps": counts["stalled_steps"],
            "nonlinear.rejected": newton_calls - steps,
            "nonlinear.accept_ratio": steps / newton_calls if newton_calls else 0.0,
            "runner.bytes_written": timed["bytes_written"],
            "trace.wall_s": wall,
            "trace.overhead_s": wall - statistics.median(timed["walls"]),
            "trace.attributed_ratio": sum(layers[m] for m in SELF_METRICS) / wall,
        }
    )
    return {name: (value, samples.get(name, 1)) for name, value in layers.items()}


def measure(name: str, args: argparse.Namespace, spec: dict[str, Any]) -> dict[str, Any]:
    """Run one workload; returns its metrics, failures and machine facts."""
    scratch = ROOT / ".perfbench" / f"{name}-{os.getpid()}"
    try:
        timed = run_worker("timed", args, name, scratch)
        traced = run_worker("traced", args, name, scratch) if args.trace else None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
        with contextlib.suppress(OSError):  # left in place while another run uses it
            scratch.parent.rmdir()

    failures = list(timed["failures"])
    attempted = timed["attempted"]
    if traced is None:
        metrics = end_to_end(timed)
        declared = spec["end_to_end"]
    else:
        metrics = per_layer(timed, traced)
        declared = spec["per_layer"]
        attempted += traced["attempted"]
        failures += traced["failures"]
        share = metrics["trace.attributed_ratio"][0]
        # One failure per call: these two only count when the call passed.
        if not traced["failures"] and traced["digests"] != timed["digests"]:
            failures.append("traced call: CSV outputs differ from the timed calls'")
        elif not traced["failures"] and abs(share - 1.0) > ATTRIBUTION_TOLERANCE:
            failures.append(f"traced call: per-layer self times cover {share:.3f} of its wall time")
    if set(metrics) != {m["name"] for m in declared}:
        raise BenchmarkError(
            f"metrics {sorted(set(metrics) ^ {m['name'] for m in declared})} differ from BENCHMARK.json"
        )
    return {
        "metrics": {m["name"]: (*metrics[m["name"]], m["unit"]) for m in declared},
        "walls": timed["walls"],
        "probes": timed["probes"],
        "attempted": attempted,
        "failures": failures,
        "machine": timed["machine"],
    }


def report(name: str, args: argparse.Namespace, result: dict[str, Any]) -> None:
    workload = WORKLOADS[name]
    kinrec_seed = workload.kinrec_seed(args.seed) if workload.seeded else "-"
    print(
        f"# workload={name} seed={args.seed} kinrec_seed={kinrec_seed} "
        f"seconds={args.seconds:g} trace={args.trace} tiny={int(args.tiny)}"
    )
    print("# machine " + " ".join(f"{k}={v}" for k, v in result["machine"].items()))
    print("# timed calls (s): " + " ".join(f"{wall:.3f}" for wall in result["walls"]))
    print("# speed probes (s): " + " ".join(f"{probe:.3f}" for probe in result["probes"]))
    for metric, (value, n, unit) in result["metrics"].items():
        print(f"{metric:<30} {value:<16.8g} {unit:<6} n={n}")
    attempted, failed = result["attempted"], len(result["failures"])
    print(f"{'fail_ratio':<30} {failed / attempted:<16.8g} {'ratio':<6} n={attempted} ({failed} failed)")
    for failure in result["failures"]:
        print(f"FAILED {name}: {failure}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="21x8 grid to t=2, no reference norm (smoke test)")
    args = parser.parse_args()

    if not (ROOT / "src" / "kinrec" / "__init__.py").is_file():
        print(f"error: no kinrec sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics: dict[str, dict[str, Any]] = {}
    attempted = failed = 0
    try:
        for name in names:
            result = measure(name, args, spec)
            report(name, args, result)
            prefix = f"{name}." if args.workload == "all" else ""
            for metric, (value, _, unit) in result["metrics"].items():
                metrics[prefix + metric] = {"value": value, "unit": unit}
            attempted += result["attempted"]
            failed += len(result["failures"])
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
