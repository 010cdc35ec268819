"""The benchmark's workloads: CLI arguments, seed handling and reference results.

Every workload is a closed loop with one caller: the solver is a batch
program, so the next run starts only after the previous one returned.  The
full-length presets cannot be repeated often enough (test 3 at 101x32 to
t=100 takes about 95 s on a 2-core Xeon VM), so the workloads run the same
presets and code paths on smaller grids or shorter horizons.
"""

from __future__ import annotations

from dataclasses import dataclass

# Extra arguments of the warm-up call and of --tiny (the smoke test's size).
TINY_ARGV = ("--nx", "21", "--nv", "8", "--tfinal", "2")


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    # final_weighted_norm in summary.txt at the commit that introduced the
    # benchmark, one per kinrec seed the workload cycles through.
    references: tuple[float, ...]
    seeded: bool = False
    # The run ends on the Newton solver floor rather than in the transient.
    floor: bool = False

    def kinrec_seed(self, seed: int) -> int:
        return seed % len(self.references)

    def reference_norm(self, seed: int) -> float:
        return self.references[self.kinrec_seed(seed)]

    def cli_argv(self, seed: int, tiny: bool = False) -> list[str]:
        """Arguments for `kinrec.cli.main`, without `--out`."""
        argv = list(self.argv)
        if self.seeded:
            argv += ["--seed", str(self.kinrec_seed(seed))]
        if tiny:
            argv += TINY_ARGV
        return argv


WORKLOADS = {
    w.name: w
    for w in (
        # The paper's nonlinear relaxation run to the solver floor: 341 steps,
        # 304 Newton iterations, and the only stalled tail (81 steps with no
        # iteration), so stopping-rule changes show here and nowhere else.
        # On 21 cells a call takes about 3 s, so a run holds ten or more
        # calls; with 51 cells (7-10 s a call) the median of three or four
        # calls spread past its bound.  The step structure is the same.
        Workload(
            name="nl-relax",
            argv=("--test", "3", "--nx", "21", "--nv", "8"),
            references=(3.550652902072591e-10,),
            floor=True,
        ),
        # An iteration-heavy transient on more than twice the cells, so LU
        # fill grows and gains that grow with the grid show here.  The only
        # workload the seed changes; all ten kinrec seeds take 41 steps and
        # 107 iterations.  101 cells took 5-7 s a call, too few per run.
        Workload(
            name="nl-random",
            argv=("--test", "4", "--nx", "51", "--nv", "8", "--tfinal", "10"),
            references=(
                0.059590804576532971,
                0.085780435017250314,
                0.24646489319445034,
                0.44303080701979231,
                0.10925095045745978,
                0.55281111077957779,
                0.61027772421553494,
                0.064001160604395965,
                0.10278188843243513,
                0.16694886826554678,
            ),
            seeded=True,
        ),
        # The linear model: one factorization (LU fill 0.84M), 500 triangular
        # solves (about 40% of a call), 501 dense Poisson solves (about 30%)
        # and 1.6 MB of CSV, with the nonlinear module idle.  A change to
        # shared assembly that fattens the triangular solve shows here as a
        # regression.  With the preset's nv=16 the LU (3.4M nonzeros, 40 MB)
        # made every solve stream main memory, and its wall time swung with
        # the other tenants of a shared VM far more than the other workloads'.
        Workload(
            name="lin-refine",
            argv=("--test", "2", "--nx", "201", "--nv", "8"),
            references=(1.8624771351340086e-09,),
        ),
    )
}
