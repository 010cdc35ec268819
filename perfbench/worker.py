"""One workload in a fresh process: timed calls of `kinrec.cli.main`, or one traced call.

run.py starts this script with the BLAS thread count pinned in the
environment and reads the JSON it writes to --result.  kinrec is imported
from the checkout's `src` directory and nowhere else.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Callable

from calibrate import Probe
from check import check_outputs, csv_bytes, csv_digests, march_counts
from spans import Tracer
from workloads import WORKLOADS, Workload

# Set-up takes well under a millisecond, so it is repeated this many times
# before every timed call, spreading its samples over the whole run.
SETUP_REPEATS = 25
# Fewest timed calls per run, however short --seconds is.
MIN_CALLS = 3


def import_kinrec(root: Path) -> None:
    src = (root / "src").resolve()
    sys.path.insert(0, str(src))
    import kinrec

    if Path(kinrec.__file__).resolve().parent != src / "kinrec":
        raise SystemExit(f"kinrec imported from {kinrec.__file__}, not from {src}")


class Caller:
    """Calls the solver's entry point and checks every run's output directory."""

    def __init__(self, workload: Workload, seed: int, tiny: bool, work: Path) -> None:
        from kinrec.cli import build_parser, load_config, overrides_from_args

        self.argv = workload.cli_argv(seed, tiny)
        self.overrides = overrides_from_args(build_parser().parse_args(self.argv))
        self.cfg = load_config(None, self.overrides)
        self.reference = None if tiny else workload.reference_norm(seed)
        self.floor = workload.floor
        self.work = work
        self.digests: dict[str, str] | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def call(self, main: Callable[[list[str]], int]) -> tuple[float, Path]:
        """One checked call; returns its wall time and output directory."""
        out = self.work / f"call{self.attempted}"
        self.attempted += 1
        start = time.perf_counter()
        try:
            code = main(self.argv + ["--out", str(out)])
        except Exception:  # the program under test crashed: a failed run
            wall = time.perf_counter() - start
            self.failures.append(f"call {self.attempted}: " + traceback.format_exc(limit=3))
            return wall, out
        wall = time.perf_counter() - start
        problems = [] if code == 0 else [f"exit code {code}"]
        if code == 0:
            problems += check_outputs(
                out, self.cfg.snapshot_times, self.cfg.t_final, self.reference, self.floor
            )
        if not problems:
            digests = csv_digests(out)
            if self.digests is None:
                self.digests = digests
            elif digests != self.digests:
                problems.append("CSV outputs differ from the first call's")
        if problems:
            self.failures.append(f"call {self.attempted}: " + "; ".join(problems))
        return wall, out

    def setup_seconds(self) -> list[float]:
        """Wall time of load_config + build_setup, the solver's set-up."""
        from kinrec.cli import load_config
        from kinrec.runner import build_setup

        samples = []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            build_setup(load_config(None, self.overrides))
            samples.append(time.perf_counter() - start)
        return samples

    def result(self) -> dict[str, Any]:
        return {"attempted": self.attempted, "failures": self.failures, "digests": self.digests}


def warm_up(workload: Workload, seed: int, work: Path) -> None:
    """Run the workload's code paths once on the tiny grid, untimed and unchecked."""
    from kinrec.cli import main

    main(workload.cli_argv(seed, tiny=True) + ["--out", str(work / "warmup")])
    shutil.rmtree(work / "warmup", ignore_errors=True)


def timed(caller: Caller, seconds: float) -> dict[str, Any]:
    from kinrec.cli import main

    probe = Probe()
    setup: list[list[float]] = []
    walls: list[float] = []
    # probes[i] and probes[i + 1] bracket call i and the set-up samples before it.
    probes = [probe.seconds()]
    counts = None
    written = 0
    start = time.perf_counter()
    while len(walls) < MIN_CALLS or time.perf_counter() - start + statistics.median(walls) <= seconds:
        setup.append(caller.setup_seconds())
        wall, out = caller.call(main)
        walls.append(wall)
        probes.append(probe.seconds())
        if counts is None and not caller.failures:
            counts = march_counts(out)
            written = csv_bytes(out)
        shutil.rmtree(out, ignore_errors=True)
    return {
        **caller.result(),
        "walls": walls,
        "setup": setup,
        "probes": probes,
        # ru_maxrss is in KiB on Linux.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counts": counts,
        "bytes_written": written,
    }


def traced(caller: Caller) -> dict[str, Any]:
    import kinrec.cli

    tracer = Tracer()
    tracer.install()
    try:
        wall, out = caller.call(tracer.traced("cli.main", kinrec.cli.main))
    finally:
        tracer.uninstall()
    shutil.rmtree(out, ignore_errors=True)
    metrics, samples = tracer.layer_metrics()
    return {**caller.result(), "wall": wall, "layers": metrics, "samples": samples}


def machine_facts(root: Path) -> dict[str, Any]:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        **_cache_sizes(),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": _git_commit(root),
    }


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _cache_sizes() -> dict[str, str | None]:
    sizes: dict[str, str | None] = {"l2": None, "l3": None}
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            level = (index / "level").read_text().strip()
            if f"l{level}" in sizes:
                sizes[f"l{level}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    return sizes


def _git_commit(root: Path) -> str | None:
    if not (root / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "-C", str(root), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() or None


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "traced"), required=True)
    parser.add_argument("--tiny", action="store_true")
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--result", type=Path, required=True)
    args = parser.parse_args()

    import_kinrec(args.root)
    workload = WORKLOADS[args.workload]
    args.work.mkdir(parents=True, exist_ok=True)
    warm_up(workload, args.seed, args.work)
    caller = Caller(workload, args.seed, args.tiny, args.work)
    if args.mode == "timed":
        result = timed(caller, args.seconds)
        result["machine"] = machine_facts(args.root)
    else:
        result = traced(caller)
    args.result.write_text(json.dumps(result), encoding="utf-8")


if __name__ == "__main__":
    main()
