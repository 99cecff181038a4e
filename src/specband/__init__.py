"""Spectral density matrix estimation with uniform and pointwise bands.

Lag-window estimation of multivariate spectral density matrices, extreme-
value simultaneous confidence bands and normal pointwise intervals, coupled
simulation of functional dependence measures, and a Monte Carlo harness that
verifies the supporting limit theory.

The names below load their submodule on first use (PEP 562), so
``import specband`` alone loads no numpy; ``specband.cli`` relies on that to
set numpy's BLAS thread count before numpy loads.
"""

import importlib

_EXPORTS = {
    "acov": ("AutocovSequence", "expected_autocov", "sample_autocov"),
    "dependence": (
        "ConditionReport",
        "DependenceProfile",
        "check_conditions",
        "coupled_delta",
        "profile",
    ),
    "errors": (),
    "inference": (
        "BandResult",
        "gumbel_cdf",
        "gumbel_quantile",
        "max_deviation",
        "omega_factor",
        "pointwise_ci",
        "uniform_band",
    ),
    "kernels": ("Kernel", "get_kernel", "kernel_names", "tabulated_kernel"),
    "mc": ("ExperimentPlan", "ExperimentReport", "run_experiment"),
    "models": (
        "AR1Scalar",
        "ProcessModel",
        "ThresholdAR1",
        "VAR1",
        "VMA",
        "WhiteNoise",
        "default_var1",
        "parse_model",
        "simulate",
    ),
    "series": ("MultivariateSeries", "center", "load_csv", "write_csv"),
    "spectral": (
        "Bandwidth",
        "SpectralGrid",
        "estimate_spectrum",
        "expected_spectrum",
        "theorem_grid",
        "true_spectrum",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name):
    """An exported name, or a submodule the package used to import eagerly."""
    if name in _EXPORTS:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    """The module's globals with every export and submodule, loaded or not."""
    return sorted({*globals(), *__all__, *_EXPORTS})
