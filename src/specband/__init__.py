"""Spectral density matrix estimation with uniform and pointwise bands.

Lag-window estimation of multivariate spectral density matrices, extreme-
value simultaneous confidence bands and normal pointwise intervals, coupled
simulation of functional dependence measures, and a Monte Carlo harness that
verifies the supporting limit theory.
"""

from .acov import AutocovSequence, expected_autocov, sample_autocov
from .dependence import (
    ConditionReport,
    DependenceProfile,
    check_conditions,
    coupled_delta,
    profile,
)
from .inference import (
    BandResult,
    MaxDeviationStat,
    gumbel_cdf,
    gumbel_quantile,
    max_deviation,
    omega_factor,
    pointwise_ci,
    uniform_band,
)
from .kernels import Kernel, get_kernel, kernel_names, tabulated_kernel
from .mc import ExperimentPlan, ExperimentReport, run_experiment
from .models import (
    AR1Scalar,
    ProcessModel,
    ThresholdAR1,
    VAR1,
    VMA,
    WhiteNoise,
    default_var1,
    parse_model,
    simulate,
)
from .series import MultivariateSeries, center, load_csv, write_csv
from .spectral import (
    Bandwidth,
    SpectralGrid,
    estimate_spectrum,
    expected_spectrum,
    theorem_grid,
    true_spectrum,
)

__version__ = "0.1.0"
