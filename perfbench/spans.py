"""In-memory span recorder around the public functions of each specband module.

Nothing inside the package changes: each wrapped name is patched where the
calling module looks it up (``specband.mc`` and ``specband.cli`` import the
layer functions into their own namespaces), and model methods are patched on
every class that defines them. A span is (layer, name, parent, start, end,
work); a call into a layer that is already the innermost open span is folded
into that span, so a layer's calls and time are counted once. Spans stay in
memory and are written out when the process ends.
"""

from __future__ import annotations

import functools
import importlib
import os
import time


def _array_size(args, result):
    return int(result.size)


def _series_size(args, result):
    return int(result.values.size)


def _acov_terms(args, result):
    # (L + 1) lags x T time points x n^2 entries
    lags, n = result.shape[0], result.shape[1]
    return lags * int(args[0].shape[0]) * n * n


def _series_acov_terms(args, result):
    return result.matrices.shape[0] * result.t_len * result.n_dim**2


def _estimate_terms(args, result):
    # F frequencies x (L + 1) lags x n^2 entries
    stack, b_val = args[0], args[2]
    lags = min(stack.shape[0] - 1, b_val) + 1
    return result.shape[0] * lags * result.shape[1] ** 2


def _spectrum_terms(args, result):
    acov, bandwidth = args[0], args[2]
    lags = min(acov.max_lag, bandwidth.value) + 1
    return result.freqs.size * lags * result.n_dim**2


def _plan_reps(args, result):
    plan = args[0]
    return plan.reps * len(plan.t_grid) if plan.experiment != "bias_rate" else 0


def _file_bytes(index):
    def work(args, result):
        path = args[index]
        return os.path.getsize(path) if path else 0

    return work


def _text_bytes(args, result):
    return len(result.encode("utf-8"))


# (module, attribute, layer, work counter); counters read sizes, never data.
PATCHES = (
    ("specband.models", "ProcessModel.simulate_values", "models", _array_size),
    ("specband.cli", "simulate", "models", _series_size),
    ("specband.mc", "autocov_matrices", "acov", _acov_terms),
    ("specband.cli", "sample_autocov", "acov", _series_acov_terms),
    ("specband.mc", "estimate_matrices", "spectral.estimate", _estimate_terms),
    ("specband.cli", "estimate_spectrum", "spectral.estimate", _spectrum_terms),
    ("specband.mc", "expected_spectrum", "spectral.oracle", None),
    ("specband.mc", "true_spectrum", "spectral.oracle", None),
    ("specband.mc", "max_deviation", "inference", None),
    ("specband.mc", "uniform_band", "inference", None),
    ("specband.cli", "uniform_band", "inference", None),
    ("specband.cli", "pointwise_ci", "inference", None),
    ("specband.cli", "run_experiment", "mc", _plan_reps),
    ("specband.cli", "load_csv", "series.load", _file_bytes(0)),
    ("specband.cli", "write_csv", "series.write", _file_bytes(1)),
    ("specband.cli", "center", "series.center", None),
    ("specband.cli", "profile", "dependence.profile", None),
    ("specband.cli", "check_conditions", "dependence.check", None),
    ("specband.cli", "_emit", "cli.emit", _file_bytes(1)),
    ("specband.mc", "ExperimentReport.to_json", "cli.emit", _text_bytes),
)


class Recorder:
    """Collects spans of one process in call order."""

    def __init__(self):
        self.spans = []
        self._open = []

    def wrap(self, layer, fn, work=None):
        spans, open_ = self.spans, self._open
        name = fn.__qualname__

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if open_ and spans[open_[-1]]["layer"] == layer:
                return fn(*args, **kwargs)
            span = {"layer": layer, "name": name, "parent": open_[-1] if open_ else None}
            open_.append(len(spans))
            spans.append(span)
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                open_.pop()
            span["work"] = work(args, result) if work else 0
            return result

        return traced

    def install(self):
        """Patch every entry of PATCHES."""
        for module_name, attr, layer, work in PATCHES:
            module = importlib.import_module(module_name)
            if "." not in attr:
                setattr(module, attr, self.wrap(layer, getattr(module, attr), work))
                continue
            cls_name, method = attr.split(".")
            for cls in _class_tree(getattr(module, cls_name)):
                if method in vars(cls):
                    setattr(cls, method, self.wrap(layer, vars(cls)[method], work))


def _class_tree(cls):
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def layer_totals(spans):
    """{layer: [self seconds, calls, work]}; self = span minus its child spans."""
    child_time = [0.0] * len(spans)
    for span in spans:
        if span["parent"] is not None:
            child_time[span["parent"]] += span["end"] - span["start"]
    totals = {}
    for idx, span in enumerate(spans):
        entry = totals.setdefault(span["layer"], [0.0, 0, 0])
        entry[0] += span["end"] - span["start"] - child_time[idx]
        entry[1] += 1
        entry[2] += span["work"]
    return totals
