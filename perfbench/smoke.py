"""Smoke test of the benchmark on the tiny grid (21x8 cells to t=2).

    python3 perfbench/smoke.py

Drives every workload through run.py with --tiny, untraced and traced, and
asserts that each metric of BENCHMARK.json prints with its unit and sample
count, that fail_ratio prints, and that the last line is the result object.
Then it corrupts a real output directory in several ways and asserts that
the output check rejects each.  Exits 0 when everything passes.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from check import check_outputs, read_summary  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, result.keys()
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert result["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        assert result["metrics"][name]["unit"] == unit
        row = re.compile(rf"^{re.escape(name)}\s+\S+\s+{re.escape(unit)}\s+n=\d+$")
        assert any(row.match(line) for line in lines), f"{workload}: no line for {name}"
    assert any(re.match(r"^fail_ratio\s+0\s+ratio\s+n=\d+", line) for line in lines)
    assert any(line.startswith("# machine nproc=") for line in lines)
    return {name: m["value"] for name, m in result["metrics"].items()}


def check_layers() -> None:
    for name in WORKLOADS:
        bench(name, trace=0)
        layers = bench(name, trace=1)
        if name.startswith("nl-"):
            assert layers["nonlinear.factorizations"] > 0 and layers["linear.solves"] == 0
            assert layers["nonlinear.factor_s"] > 0 and layers["nonlinear.lu_nnz"] > 0
        else:
            assert layers["linear.solves"] > 0 and layers["nonlinear.factorizations"] == 0
            assert layers["linear.factor_s"] > 0 and layers["linear.lu_nnz"] > 0
        print(f"smoke: {name} reports every metric")


def rewrite_summary(out: Path, key: str, value: str) -> None:
    summary = read_summary(out / "summary.txt")
    summary[key] = value
    text = "".join(f"{k} = {v}\n" for k, v in summary.items())
    (out / "summary.txt").write_text(text, encoding="utf-8")


def check_corruption() -> None:
    from kinrec.cli import build_parser, load_config, main, overrides_from_args

    argv = WORKLOADS["nl-relax"].cli_argv(0, tiny=True)
    cfg = load_config(None, overrides_from_args(build_parser().parse_args(argv)))
    scratch = ROOT / ".perfbench" / f"smoke-{os.getpid()}"
    clean = scratch / "clean"
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(argv + ["--out", str(clean)]) == 0
        norm = float(read_summary(clean / "summary.txt")["final_weighted_norm"])
        args = (cfg.snapshot_times, cfg.t_final)
        assert check_outputs(clean, *args, norm, floor=True) == []
        assert check_outputs(clean, *args, norm, floor=False) == []

        corruptions = {
            "missing snapshot": lambda out: (out / "snapshot_t0p83.csv").unlink(),
            "missing summary": lambda out: (out / "summary.txt").unlink(),
            "mass drift": lambda out: rewrite_summary(out, "max_mass_drift_rel", "1e-6"),
            "negative decay rate": lambda out: rewrite_summary(out, "kappa_fit", "-0.5"),
            "no decay fit": lambda out: rewrite_summary(out, "kappa_fit", ""),
            "floor raised": lambda out: rewrite_summary(out, "final_weighted_norm", repr(3 * norm)),
        }
        for label, corrupt in corruptions.items():
            out = scratch / "corrupt"
            shutil.copytree(clean, out)
            corrupt(out)
            assert check_outputs(out, *args, norm, floor=True), f"check passed with {label}"
            shutil.rmtree(out)
        # A transient workload must match its reference in both directions.
        for factor in (1 - 1e-5, 1 + 1e-5):
            assert check_outputs(clean, *args, norm * factor, floor=False)
        print(f"smoke: the output check rejects {len(corruptions) + 2} corrupted outputs")
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


if __name__ == "__main__":
    check_corruption()
    check_layers()
    print("smoke: ok")
