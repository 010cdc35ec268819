"""Span tracer installed from outside the solver, one span per call into a layer.

The layers are the modules of kinrec.  The tracer replaces, for the length of
one run, the names the solver looks up at call time:

- module globals of kinrec.cli and kinrec.runner, which import the public
  functions of the other modules and call them through those globals;
- methods of the solver's classes;
- scipy.sparse.linalg.splu, which both solver modules call through the
  module attribute, so factorization time is split from assembly and Newton.

Spans stay in memory; `layer_metrics` turns them into per-layer self times
(a span's duration minus its children's), per-call percentiles and counts.
"""

from __future__ import annotations

import functools
import statistics
import time
from typing import Any, Callable

# Layer metric that receives the self time of each span.
SELF_METRIC = {
    "cli.main": "cli.self_s",
    "cli.load_config": "config.load_s",
    "runner.build_grid": "grid.build_s",
    "runner.resolve_profile": "grid.build_s",
    "runner.equilibrium_rho": "state.setup_s",
    "runner.build_equilibrium": "state.setup_s",
    "runner.constants_ledger": "state.setup_s",
    "runner.weighted_norm": "state.norm_s",
    "runner.macroscopic_densities": "state.norm_s",
    "runner.assemble_linear_operator": "linear.assemble_s",
    "ImplicitLinearOperator.solve": "linear.solve_s",
    "NonlinearStepper.__init__": "nonlinear.jacobian_s",
    "NonlinearStepper.jacobian": "nonlinear.jacobian_s",
    "runner.adaptive_advance": "nonlinear.newton_self_s",
    "NonlinearStepper.newton": "nonlinear.newton_self_s",
    "NonlinearStepper.residual": "nonlinear.residual_s",
    "runner.check_maximum_principle": "nonlinear.bounds_s",
    "runner.solve_discrete_poisson": "diagnostics.poisson_s",
    "runner.modified_entropy": "diagnostics.entropy_s",
    "runner.fit_decay_rate": "diagnostics.fit_s",
    "cli.run_experiment": "runner.self_s",
    "DiagnosticsRecorder.observe": "runner.observe_s",
    "runner.write_outputs": "runner.write_s",
}
# splu is attributed to the layer that called it.
FACTOR_OWNER = {
    "runner.assemble_linear_operator": "linear",
    "NonlinearStepper.newton": "nonlinear",
}
SELF_METRICS = tuple(dict.fromkeys(SELF_METRIC.values())) + (
    "linear.factor_s",
    "nonlinear.factor_s",
)


class Tracer:
    def __init__(self) -> None:
        # [name, start, end, parent index or -1]
        self.spans: list[list[Any]] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        # (span index, matrix nnz) per splu call, and the first factor
        # object per owning layer for its L and U fill.
        self._factorizations: list[tuple[int, int]] = []
        self._first_lu: dict[str, Any] = {}

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def traced(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def call(*args: Any, **kwargs: Any) -> Any:
            index = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(index)

        return call

    def _traced_splu(self, fn: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(fn)
        def call(matrix: Any, *args: Any, **kwargs: Any) -> Any:
            index = self._open("splu")
            try:
                lu = fn(matrix, *args, **kwargs)
            finally:
                self._close(index)
            self._factorizations.append((index, matrix.nnz))
            self._first_lu.setdefault(self._metric_of(index).split(".")[0], lu)
            return lu

        return call

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        original = owner.__dict__[attr]
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def install(self) -> None:
        import scipy.sparse.linalg as spla

        from kinrec import cli, runner
        from kinrec.linear import ImplicitLinearOperator
        from kinrec.nonlinear import NonlinearStepper

        owners = {
            "cli": cli,
            "runner": runner,
            "ImplicitLinearOperator": ImplicitLinearOperator,
            "NonlinearStepper": NonlinearStepper,
            "DiagnosticsRecorder": runner.DiagnosticsRecorder,
        }
        for name in SELF_METRIC:
            owner_name, attr = name.split(".", 1)
            if name == "cli.main":
                continue  # the benchmark calls main through `traced` itself
            owner = owners[owner_name]
            self._patch(owner, attr, self.traced(name, owner.__dict__[attr]))
        self._patch(spla, "splu", self._traced_splu(spla.splu))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def _metric_of(self, index: int) -> str:
        """Metric receiving a span's self time.

        A factorization goes to the layer of its nearest ancestor that owns
        one, else to the self time of its caller.
        """
        name, _, _, parent = self.spans[index]
        if name != "splu":
            return SELF_METRIC[name]
        ancestor = parent
        while ancestor >= 0:
            owner = FACTOR_OWNER.get(self.spans[ancestor][0])
            if owner is not None:
                return owner + ".factor_s"
            ancestor = self.spans[ancestor][3]
        return SELF_METRIC[self.spans[parent][0]]

    def layer_metrics(self) -> tuple[dict[str, float], dict[str, int]]:
        """Per-layer self times, per-call percentiles, counts and fill.

        Returns the metrics and, for each self-time metric, the number of
        spans behind it.
        """
        durations = [end - start for _, start, end, _ in self.spans]
        child_time = [0.0] * len(self.spans)
        for (_, _, _, parent), duration in zip(self.spans, durations):
            if parent >= 0:
                child_time[parent] += duration
        metrics: dict[str, float] = {name: 0.0 for name in SELF_METRICS}
        samples = {name: 0 for name in SELF_METRICS}
        calls: dict[str, list[float]] = {}
        for index, name in enumerate(span[0] for span in self.spans):
            metric = self._metric_of(index)
            metrics[metric] += durations[index] - child_time[index]
            samples[metric] += 1
            calls.setdefault(name, []).append(durations[index] * 1e3)

        solve_ms = calls.get("ImplicitLinearOperator.solve", [])
        step_ms = calls.get("runner.adaptive_advance", [])
        poisson_ms = calls.get("runner.solve_discrete_poisson", [])
        metrics["linear.solve_ms_p50"] = _percentile(solve_ms, 50)
        metrics["linear.solve_ms_p90"] = _percentile(solve_ms, 90)
        metrics["nonlinear.step_ms_p50"] = _percentile(step_ms, 50)
        metrics["nonlinear.step_ms_p90"] = _percentile(step_ms, 90)
        metrics["diagnostics.poisson_ms_p50"] = _percentile(poisson_ms, 50)
        samples["linear.solve_ms_p50"] = samples["linear.solve_ms_p90"] = len(solve_ms)
        samples["nonlinear.step_ms_p50"] = samples["nonlinear.step_ms_p90"] = len(step_ms)
        samples["diagnostics.poisson_ms_p50"] = len(poisson_ms)
        metrics["linear.solves"] = len(solve_ms)
        metrics["nonlinear.newton_calls"] = len(calls.get("NonlinearStepper.newton", []))

        for layer, matrix_metric in (("linear", "matrix_nnz"), ("nonlinear", "jac_nnz")):
            nnz = [n for i, n in self._factorizations if self._metric_of(i) == layer + ".factor_s"]
            metrics[f"{layer}.factorizations"] = len(nnz)
            metrics[f"{layer}.{matrix_metric}"] = max(nnz, default=0)
            lu = self._first_lu.get(layer)
            metrics[f"{layer}.lu_nnz"] = 0 if lu is None else lu.L.nnz + lu.U.nnz
        return metrics, samples


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]
