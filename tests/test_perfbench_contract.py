"""The benchmark's tracer reaches into specband by name; pin those names.

``perfbench/spans.py`` patches each ``(module, attribute)`` of its ``PATCHES``
table where the calling module looks it up, and ``perfbench/child.py`` builds
models and kernels through ``ExperimentPlan.model``/``.kernel``. A rename in
the package would otherwise only show as a blind or failing traced run.
"""

import importlib
import importlib.util
from pathlib import Path

from specband.mc import ExperimentPlan

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    patches = _spans_module().PATCHES
    assert patches
    for module_name, attr, _layer, _work in patches:
        target = importlib.import_module(module_name)
        for part in attr.split("."):
            assert hasattr(target, part), f"{module_name}.{attr}"
            target = getattr(target, part)
        assert callable(target), f"{module_name}.{attr}"


def test_plan_model_and_kernel_factories_exist():
    plan = ExperimentPlan("coverage", model_spec="var1:default", reps=100)
    assert plan.model().n_dim == 2
    assert plan.kernel().name == "bartlett"
