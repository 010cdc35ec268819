"""Names the benchmark tracer patches by string: each must exist, and a run calls the stepper's."""

import importlib.util
from pathlib import Path

import pytest

from kinrec import cli, runner
from kinrec.config import load_config
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


def test_a_nonlinear_run_calls_the_traced_stepper_names(monkeypatch):
    # A name that exists but is no longer called would read 0 in its layer's
    # metric without failing the test above.  The dense Jacobian, which only
    # the tests read, is the one traced stepper name a run does not call; its
    # metric, nonlinear.jacobian_s, also takes the constructor.
    names = [name for name in traced_names() if name.startswith("NonlinearStepper.")]
    names.append("runner.adaptive_advance")
    calls = dict.fromkeys(names, 0)
    for name in names:
        owner_name, attr = name.split(".", 1)
        owner = OWNERS[owner_name]
        original = vars(owner)[attr]

        def counting(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counting)
    overrides = dict(model="nonlinear", test=4, seed=1, nx=7, nv=2, t_final=0.3)
    runner.execute_run(load_config(None, overrides))
    assert {name for name, count in calls.items() if count == 0} == {"NonlinearStepper.jacobian"}
