"""The benchmark's tracer reaches into specband by name; pin those names.

``perfbench/spans.py`` patches each ``(module, attribute)`` of its ``PATCHES``
table where the calling module looks it up, and ``perfbench/child.py`` builds
models and kernels through ``ExperimentPlan.model``/``.kernel``. A rename in
the package, or a name it stops calling, would otherwise only show as a blind
or failing traced run.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

from specband import mc
from specband.cli import main
from specband.mc import ExperimentPlan

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name, monkeypatch=None):
    path = PERFBENCH / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    if monkeypatch is not None:  # dataclasses look their module up in sys.modules
        monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    patches = _load("spans").PATCHES
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


def test_every_traced_mc_function_runs_in_the_benchmark_verify_plans(monkeypatch, tmp_path):
    # the benchmark's verify plans at T = 512, 1024, serial as in a traced run
    run = _load("run", monkeypatch)
    rows = [attr for module, attr, _layer, _work in _load("spans").PATCHES
            if module == "specband.mc" and "." not in attr]
    assert rows
    calls = dict.fromkeys(rows, 0)

    def counting(attr, fn):
        def counted(*args, **kwargs):
            calls[attr] += 1
            return fn(*args, **kwargs)

        return counted

    for attr in rows:
        monkeypatch.setattr(mc, attr, counting(attr, getattr(mc, attr)))
    sizes = {**run.SIZES["full"], "wide_grid": "512,1024", "var_grid": "512,1024",
             "threads": 1, "seed": 1, "dir": tmp_path}
    plans = [template.format(**sizes) for workload in run.WORKLOADS.values()
             if workload.is_mc for _step, template in workload.steps]
    assert len(plans) == 2
    for plan in plans:
        assert main(plan.split()) == 0
    assert [attr for attr, count in calls.items() if count == 0] == []
