"""Machine-speed probe timed next to every solver call.

On a shared host the speed of a core swings by tens of percent over minutes,
and a solver call slows by about as much as any other code run at the same
time.  The probe runs a fixed mix of the kinds of work the solver does, on
inputs built here and not by kinrec, so a change to the solver never changes
the probe:

- sparse LU factorization of a fixed 2-D transport-like operator (SuperLU,
  through scipy), which dominates the nonlinear workloads;
- triangular solves with that factorization, the linear workload's inner loop;
- a dense LAPACK solve of the size of the diagnostics' Poisson system;
- interpreted Python with small numpy arrays, the per-step bookkeeping.

A call's normalised time is its wall time divided by the mean of the probes
just before and just after it, times REFERENCE_S: seconds on a machine on
which the probe takes REFERENCE_S.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as sla

# About the probe's time on a 2-core Intel Xeon VM.  A fixed constant, so
# normalised times keep the unit and roughly the size of wall seconds.
REFERENCE_S = 0.25

_N = 48  # grid side of the sparse operator: 2,304 rows


def _operator() -> sp.csc_matrix:
    line = sp.diags([-1.3, 2.6, -0.7], [-1, 0, 1], shape=(_N, _N))
    eye = sp.identity(_N)
    coupling = sp.diags([0.2, 0.2], [-3, 3], shape=(_N, _N))
    return (sp.kron(eye, line) + sp.kron(line, eye) + sp.kron(coupling, eye)).tocsc()


class Probe:
    """The fixed inputs, built once; `seconds()` times one pass of the mix."""

    def __init__(self) -> None:
        self.matrix = _operator()
        self.rhs = np.linspace(0.0, 1.0, self.matrix.shape[0])
        rng = np.random.default_rng(0)
        self.dense = rng.standard_normal((202, 202)) + 202.0 * np.eye(202)
        self.small = np.linspace(0.0, 1.0, 64)

    def _work(self) -> float:
        total = 0.0
        for _ in range(12):
            lu = sla.splu(self.matrix)
            for _ in range(20):
                total += float(lu.solve(self.rhs)[0])
        for _ in range(12):
            total += float(np.linalg.solve(self.dense, self.small[:1].repeat(202))[0])
        for i in range(9000):
            total += float(np.exp(-self.small * (i % 7)).sum()) + i % 3
        return total

    def seconds(self) -> float:
        start = time.perf_counter()
        self._work()
        return time.perf_counter() - start
