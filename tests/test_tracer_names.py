"""The benchmark tracer patches solver names by string; each must still exist."""

import importlib.util
from pathlib import Path

import pytest

from kinrec import cli, runner
from kinrec.linear import ImplicitLinearOperator
from kinrec.nonlinear import NonlinearStepper

SPANS_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
OWNERS = {
    "cli": cli,
    "runner": runner,
    "ImplicitLinearOperator": ImplicitLinearOperator,
    "NonlinearStepper": NonlinearStepper,
    "DiagnosticsRecorder": runner.DiagnosticsRecorder,
}


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    # The benchmark wraps cli.main itself rather than patching it.
    return [name for name in spans.SELF_METRIC if name != "cli.main"]


@pytest.mark.parametrize("name", traced_names())
def test_traced_name_is_defined_on_its_owner(name):
    owner_name, attr = name.split(".", 1)
    assert attr in vars(OWNERS[owner_name])
