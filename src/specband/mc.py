"""Monte Carlo experiments that check the limit theorems at desk scale.

Each experiment compares distributional summaries of the estimator on a
known mean-zero model against the theory: the pointwise normal limit, the
extreme-value limit of the maximum deviation, moment convergence, the
uniform moment rate, smoothing-bias decay, and simultaneous band coverage.

One cell loop in ``run_experiment`` serves all six experiments. A cell is
one (T, B): B by the plan's bandwidth rule at each T in its grid, or, for
``bias_rate``, each ``_B_GRID`` bandwidth at the grid's largest T. The loop
logs its schedule at INFO (reps, workers, pool processes, seed), then for
each cell builds one ``_Cell``, runs the replications, stores the cell's row
and per-replication statistics, and logs its seconds at INFO. The cell holds
the bandwidth and its oracles on the experiment's frequency grid, each
evaluated once per cell: the exact centering E fhat and, where the
experiment reads it (clt, gumbel, moments, bias_rate), the exact density f;
an oracle that leaves the float range raises InvalidModel before any
replication runs. Runs are an even split of a cell's replications into
consecutive ranges of at most 64, as many per pool process. A run estimates
its replications by one ``estimate_matrices`` call on their stacked
autocovariances, which gives one ``SpectralGrid`` stacked on a leading
replication axis, and reduces that grid at once to a few numbers per
replication through the same code that ``bands`` uses (``max_deviation``,
``uniform_band``): a centered maximum, a sup deviation, coverage flags or
scaled deviations. So no estimates outlive their run, and a cell holds its
runs' reductions, concatenated in replication order, which the experiment's
summary turns into the cell's row. ``bias_rate`` has no reduction: it draws
nothing, and its summary reads the exact bias |E fhat - f| off the oracles.
With ``workers`` >= 2, one process pool serves every cell of a drawing
experiment, each run a task for whichever process is free that sends back
only its reductions, and is shut down after the last cell; on closing it
logs its processes, tasks and seconds open. ``bias_rate`` and serial plans
start no pool. What differs is kept in the ``EXPERIMENTS`` table: the
frequency grid, whether the cell evaluates f, the per-run reduction, the
cell summary, the raw key, the verdicts and the plan fields it reads.

Centering is by the exact finite-sample mean (closed form under the model),
and autocovariances are taken on the raw simulated values without sample-mean
removal: the models are mean-zero by construction, which keeps the oracle
centering exact instead of O(1/T) off.

Determinism: replication r at grid position k uses the RNG stream seeded by
(seed, k, r), every per-run reduction is elementwise in the replications,
and summaries read the values in replication order, so reports are
byte-identical regardless of worker count and of where runs are cut.
"""

from __future__ import annotations

import logging
import math
import numbers
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .acov import autocov_matrices
from .errors import DegenerateSpectrum, InvalidArgument, InvalidModel
from .inference import (
    _check_entries, _check_level, _denominators, gumbel_cdf, max_deviation, omega_factor,
    uniform_band,
)
from .kernels import Kernel, get_kernel
from .models import _check_seed, parse_model
from .series import _fields, _json_text
from .spectral import (
    Bandwidth,
    SpectralGrid,
    estimate_matrices,
    expected_spectrum,
    theorem_grid,
    true_spectrum,
)

log = logging.getLogger("specband")

# replications per estimator call: a run's estimates and the estimator's work
# arrays (a few times their size) are the cell's whole working set, since only
# a few numbers per replication outlive the run
_RUN_REPS = 64
# largest moment order: the limit law's quadrature reaches x = e^6.9, where
# x**nu overflows past nu = 102
_MAX_NU = 100.0
_B_GRID = (8, 16, 32, 64, 128)  # bias_rate's bandwidths, at the plan's largest T
_SHARED = ("experiment", "model_spec", "kernel_name", "t_grid")  # all read these and workers
_DRAWS = ("reps", "seed", "b_exponent", "c_const")  # read by every drawing experiment


def _int_sequence(value) -> bool:
    """A tuple, list or 1-D array of integers; numpy integers count."""
    seq = value.tolist() if isinstance(value, np.ndarray) and value.ndim == 1 else value
    return isinstance(seq, (tuple, list)) and all(isinstance(v, numbers.Integral) for v in seq)


# what a plan field of each annotated type takes, and how an error names it
_TAKES = {"str": (lambda v: isinstance(v, str), "a string"),
          "int": (lambda v: isinstance(v, numbers.Integral), "integers only"),
          "float": (lambda v: isinstance(v, numbers.Real), "a real number"),
          "tuple": (_int_sequence, "integers only")}


@dataclass(frozen=True)
class ExperimentPlan:
    experiment: str
    model_spec: str = "white"
    kernel_name: str = "bartlett"
    t_grid: tuple = (4096, 16384, 65536)
    b_exponent: float = 0.4
    c_const: float = 1.0
    reps: int = 500
    seed: int = 1
    entry: tuple = (0, 0)
    level: float = 0.95
    nu_star: float = 1.0
    nu: float = 2.0
    workers: int = 1

    def __post_init__(self):
        for f in fields(self):  # f.type is the annotation's text, such as "float"
            takes, what = _TAKES[f.type]
            value = getattr(self, f.name)
            if not takes(value):
                raise InvalidArgument(f"{f.name} takes {what}, got {value!r}")
        if self.experiment not in EXPERIMENTS:
            raise InvalidArgument(f"unknown experiment {self.experiment!r}")
        t_grid = tuple(map(int, self.t_grid))
        object.__setattr__(self, "t_grid", t_grid)
        object.__setattr__(self, "entry", tuple(map(int, self.entry)))
        reads = (*_SHARED, "workers", *EXPERIMENTS[self.experiment].reads)
        for f in fields(self):  # a field the experiment does not read keeps its default
            if f.name not in reads and getattr(self, f.name) != f.default:
                raise InvalidArgument(f"{self.experiment} does not read {f.name}; leave it unset")
        if self.workers < 1:
            raise InvalidArgument(f"workers must be >= 1, got {self.workers}")
        _check_seed(self.seed)
        if self.reps < 100:
            raise InvalidArgument(f"reps must be >= 100, got {self.reps}")
        if not t_grid or t_grid[0] < 3 or any(b >= a for a, b in zip(t_grid[1:], t_grid)):
            raise InvalidArgument("t_grid must be strictly increasing, with entries >= 3")
        Bandwidth(t_grid[0], self.b_exponent, self.c_const)  # checks b_exponent and c_const
        _check_level(self.level)
        if not (1.0 <= self.nu_star <= _MAX_NU and 1.0 <= self.nu <= _MAX_NU):
            raise InvalidArgument(f"nu_star and nu must lie in [1, {_MAX_NU:g}]")
        if self.experiment == "bias_rate" and t_grid[-1] <= _B_GRID[-1]:
            # a bandwidth lies in [2, T-1]
            raise InvalidArgument(
                f"bias_rate evaluates B up to {_B_GRID[-1]} at the largest T, which "
                f"must exceed {_B_GRID[-1]}; got T = {t_grid[-1]}"
            )

    def model(self):
        return parse_model(self.model_spec)

    def kernel(self):
        return get_kernel(self.kernel_name)

    def to_dict(self) -> dict:
        """The fields the experiment reads but ``workers``, which never changes a report."""
        reads = _SHARED + EXPERIMENTS[self.experiment].reads
        out = {name: value for name, value in _fields(self).items() if name in reads}
        out["model"] = out.pop("model_spec")
        out["kernel"] = out.pop("kernel_name")
        return out


@dataclass(frozen=True)
class ExperimentReport:
    plan: ExperimentPlan
    rows: tuple  # one summary dict per grid cell
    verdicts: dict
    raw: dict = field(default_factory=dict)  # per-cell replication statistics

    @property
    def passed(self) -> bool:
        return all(self.verdicts.values())

    def to_dict(self, include_raw: bool = True) -> dict:
        out = {**_fields(self), "passed": self.passed}
        if not (include_raw and self.raw):
            del out["raw"]
        return out

    def to_json(self, include_raw: bool = True) -> str:
        return _json_text(self.to_dict(include_raw))

    def plot_rows(self):
        """Tidy (experiment, T, statistic, value, se) tuples."""
        return [
            (self.plan.experiment, row["t_len"], key, value, row.get(f"{key}_se"))
            for row in self.rows for key, value in row.items()
            if key != "t_len" and isinstance(value, (int, float))
        ]


class _Cell(NamedTuple):
    """One T of the shared loop, as its runs and summary see it."""

    plan: ExperimentPlan
    model: object
    kernel: Kernel
    index: int  # the cell's position: replication r draws from (seed, index, r)
    t_len: int
    b_val: int
    center: SpectralGrid  # exact mean E fhat on the experiment's grid
    truth: SpectralGrid | None  # exact f on that grid, if the experiment needs it


def _run_estimates(cell: _Cell, reps: range) -> np.ndarray:
    """A run's per-replication values: one estimator call on its replications'
    autocovariance stacks gives their (len(reps), F, n, n) estimates, which
    the experiment's reduction turns into a few numbers each. Each
    replication draws from its own stream and is dropped once its stack is
    taken. A stack that overflows raises InvalidModel."""
    stacks = []
    with np.errstate(over="ignore", invalid="ignore"):  # checked below
        for rep in reps:
            rng = np.random.default_rng([cell.plan.seed, cell.index, rep])
            values = cell.model.simulate_values(cell.t_len, rng)
            stacks.append(autocov_matrices(values, cell.b_val))
    del values  # the last replication's, before the estimator's work arrays
    stacks = np.stack(stacks)
    if not np.all(np.isfinite(stacks)):
        raise InvalidModel(
            f"model {cell.plan.model_spec!r}: the autocovariance overflows at "
            f"T = {cell.t_len}: its values are too large"
        )
    est = estimate_matrices(stacks, cell.kernel, cell.b_val, cell.center.freqs)
    del stacks  # before the reduction's temporaries, which can rival the estimator's
    reduce = EXPERIMENTS[cell.plan.experiment].reduce
    return reduce(cell, replace(cell.center, matrices=est))


def pool_size(workers: int) -> int:
    """Processes the pool starts: at most os.cpu_count(), and 0 (serial) below 2."""
    size = min(workers, os.cpu_count() or 1)
    return size if size > 1 else 0


def _runs(reps: int, size: int) -> list:
    """Consecutive ranges of replications, split evenly into the fewest runs of
    at most _RUN_REPS that number a multiple of ``size`` (one when serial),
    capped at ``reps``; the pool gives each run to whichever process is free."""
    procs = max(1, size)
    count = min(reps, procs * -(-reps // (_RUN_REPS * procs)))
    return [range(reps * k // count, reps * (k + 1) // count) for k in range(count)]


@contextmanager
def _pool(size: int, tasks: int):
    """The experiment's worker processes, shared by every cell, or None when
    ``size`` is 0. On close it logs its processes, tasks and seconds open."""
    if not size:
        yield None
        return
    # here, not at the top: the module costs 2 MB in every process that forks none
    from concurrent.futures import ProcessPoolExecutor

    opened = time.perf_counter()
    with ProcessPoolExecutor(max_workers=size) as pool:
        yield pool
    log.info(
        "pool: %d processes, %d tasks, open %.3f s",
        size, tasks, time.perf_counter() - opened,
    )


def _limit_expectation(g) -> float:
    """E g(G) under the limit law with cdf exp(-exp(-x/2)), g vectorized, by
    the exp-sinh trapezoid on each half-line (Takahasi & Mori 1974, Publ.
    RIMS 9): nodes x = exp((pi/2) sinh t) for t in [-4, 2.2) with step 1/64,
    so x < e^7, weighted by dx times the density 0.5 exp(-y/2 - exp(-y/2)) at
    y = x and at y = -x."""
    t = np.arange(-256, 141) / 64.0
    x = np.exp(0.5 * np.pi * np.sinh(t))
    dx = x * (0.5 * np.pi / 64.0) * np.cosh(t)
    w_pos, w_neg = (0.5 * np.exp(-y / 2 - np.exp(-y / 2)) * dx for y in (x, -x))
    return math.fsum(g(x) * w_pos + g(-x) * w_neg)


def gumbel_abs_norm(nu: float) -> float:
    """nu-norm E|G|^nu ^(1/nu) of the limit law, by quadrature."""
    return _limit_expectation(lambda x: abs(x) ** nu) ** (1.0 / nu)


def gumbel_mean() -> float:
    """Mean of the limit law (equals twice the Euler constant)."""
    return _limit_expectation(lambda x: x)


def _ks_statistic(x, cdf) -> float:
    """Two-sided one-sample KS distance, with the arithmetic of scipy's ks_1samp."""
    cdf_vals = cdf(np.sort(x))
    n = cdf_vals.size
    d_plus = np.max(np.arange(1.0, n + 1) / n - cdf_vals)
    return float(max(d_plus, np.max(cdf_vals - np.arange(0.0, n) / n)))


def _median(x: np.ndarray) -> float:
    """np.median of a 1-D array, bit for bit, without the numpy.ma import it makes."""
    ordered = np.sort(x)
    mid = ordered.size // 2
    if np.isnan(ordered[-1]):  # NaN sorts last, and np.median returns NaN
        return math.nan
    if ordered.size % 2:
        return float(ordered[mid])
    return float((ordered[mid - 1] + ordered[mid]) / 2)


def _normal_cdf(x: np.ndarray) -> np.ndarray:
    """Standard normal cdf as 0.5 erfc(-x/sqrt 2), which keeps its relative
    accuracy in the lower tail (1 + erf(x/sqrt 2) cancels there)."""
    return np.array([0.5 * math.erfc(-v * math.sqrt(0.5)) for v in x])


def _clt_grid(b_val: int) -> np.ndarray:
    return np.array([0.0, np.pi / 2.0])


def _clt_deviations(c: _Cell, ests: SpectralGrid) -> np.ndarray:
    """Per replication, sqrt(T/B)(fhat - E fhat) at 0 and pi/2: (run, 2)."""
    i, j = c.plan.entry
    return np.sqrt(c.t_len / c.b_val) * (ests.entry(i, j) - c.center.entry(i, j))


def _clt_cell(c: _Cell, devs: np.ndarray):
    """Normal limit of the deviations standardized by sqrt(omega kappa f_ii
    f_jj) at 0 and pi/2; the variance ratio of the deviations scaled by
    sqrt(kappa f_ii f_jj) alone exhibits the boundary factor omega = 2 vs 1.
    """
    i, j = c.plan.entry
    reps = c.plan.reps
    # raises DegenerateSpectrum where f_ii or f_jj <= 0; denom keeps its own
    # order of products, which the reports' bytes depend on
    _denominators(c.truth, i, j)
    denom = c.kernel.kappa * c.truth.entry(i, i).real * c.truth.entry(j, j).real
    std = devs / np.sqrt(omega_factor(c.truth.freqs) * denom)
    scaled = devs / np.sqrt(denom)
    row = {
        "ks_freq0": _ks_statistic(std[:, 0].real, _normal_cdf),
        "ks_pi_half": _ks_statistic(std[:, 1].real, _normal_cdf),
        "var_ratio_0_vs_pi_half": float(
            np.var(scaled[:, 0].real) / np.var(scaled[:, 1].real)
        ),
        "ks_se": 0.5 / math.sqrt(reps),
    }
    if i != j:
        imag = std[:, 1].imag
        row["imag_mean_pi_half"] = float(imag.mean())
        row["imag_mean_pi_half_se"] = float(imag.std(ddof=1) / math.sqrt(reps))
    return row, std[:, 1].real


def _clt_verdicts(c: _Cell, rows):
    last = rows[-1]
    return {
        "ks_pi_half_le_0.05": last["ks_pi_half"] <= 0.05,
        "var_ratio_in_1.6_2.4": 1.6 <= last["var_ratio_0_vs_pi_half"] <= 2.4,
    }


def _centered_max(c: _Cell, ests: SpectralGrid) -> np.ndarray:
    """The centered maximum-deviation statistic, one per replication."""
    return max_deviation(ests, c.center, c.truth, c.kernel, c.plan.entry)


def _gumbel_cell(c: _Cell, stats: np.ndarray):
    """Extreme-value limit of the centered maximum deviation."""
    row = {
        "ks_gumbel": _ks_statistic(stats, gumbel_cdf),
        "mean_centered": float(stats.mean()),
        "mean_centered_se": float(stats.std(ddof=1) / math.sqrt(c.plan.reps)),
        "median_centered": _median(stats),
    }
    return row, stats


def _gumbel_verdicts(c: _Cell, rows):
    ks_values = [row["ks_gumbel"] for row in rows]
    verdicts = {"ks_final_le_0.20": ks_values[-1] <= 0.20}
    if len(rows) > 1:
        verdicts["ks_decreasing_in_T"] = all(
            b < a for a, b in zip(ks_values, ks_values[1:])
        )
    return verdicts


def _moments_cell(c: _Cell, stats: np.ndarray):
    """Moment convergence of the centered maximum toward the limit law."""
    nu = c.plan.nu_star
    limit_norm = gumbel_abs_norm(nu)
    limit_mean = gumbel_mean()
    emp_norm = float(np.mean(np.abs(stats) ** nu) ** (1.0 / nu))
    row = {
        "empirical_norm": emp_norm,
        "limit_norm": limit_norm,
        "norm_gap": abs(emp_norm - limit_norm),
        "mean_centered": float(stats.mean()),
        "limit_mean": limit_mean,
        "mean_gap": abs(float(stats.mean()) - limit_mean),
    }
    return row, stats


def _moments_verdicts(c: _Cell, rows):
    gaps = [row["norm_gap"] for row in rows]
    verdicts = {"norm_within_30pct_final": gaps[-1] <= 0.30 * rows[-1]["limit_norm"]}
    if len(rows) > 1:
        verdicts["norm_gap_shrinks"] = gaps[-1] < gaps[0]
        verdicts["mean_gap_shrinks"] = rows[-1]["mean_gap"] < rows[0]["mean_gap"]
    return verdicts


def _dense_grid(b_val: int) -> np.ndarray:
    # theorem grid refined 4x: trig-polynomial structure makes a finite
    # grid control the continuum supremum
    return theorem_grid(4 * b_val)


def _sup_deviation(c: _Cell, ests: SpectralGrid) -> np.ndarray:
    """sup over the grid of |fhat - E fhat|, one per replication."""
    i, j = c.plan.entry
    return np.abs(ests.entry(i, j) - c.center.entry(i, j)).max(axis=1)


def _uniform_rate_cell(c: _Cell, sup: np.ndarray):
    """||sup-deviation||_nu against the rate (B log B / T)^(1/2). sup is divided
    by its largest value before the power, so that the mean cannot overflow or
    underflow, and the norm is multiplied back."""
    top = float(sup.max())
    if top < np.finfo(float).tiny:
        raise DegenerateSpectrum("the spectral scale underflows; rescale the series or model")
    norm_val = top * float(np.mean((sup / top) ** c.plan.nu) ** (1.0 / c.plan.nu))
    rate = math.sqrt(c.b_val * math.log(c.b_val) / c.t_len)
    row = {"sup_norm": norm_val, "rate": rate, "ratio": norm_val / rate}
    return row, sup


def _uniform_rate_verdicts(c: _Cell, rows):
    ratios = [row["ratio"] for row in rows]
    verdicts = {}
    if len(rows) > 1:
        verdicts["ratio_spread_le_2"] = max(ratios) / min(ratios) <= 2.0
    verdicts["ratio_positive"] = min(ratios) > 0.0
    return verdicts


def _entries(c: _Cell) -> list:
    """The distinct entries (i <= j) that coverage bands."""
    n = c.model.n_dim
    return [(a, b) for a in range(n) for b in range(a, n)]


def _covered(c: _Cell, ests: SpectralGrid) -> np.ndarray:
    """(run, entries) flags: the plug-in uniform band of each distinct entry,
    Bonferroni-adjusted over them, covers the exact finite-sample mean E fhat
    at every grid frequency."""
    band = uniform_band(ests, c.kernel, c.plan.level, _entries(c), bonferroni=True)
    return np.column_stack(
        [
            np.all(np.abs(e.estimate - c.center.entry(e.i, e.j)) <= e.half_width, 1)
            for e in band.entries
        ]
    )


def _coverage_cell(c: _Cell, covered: np.ndarray):
    """Simultaneous coverage of the plug-in uniform band, jointly and per entry."""
    joint = covered.all(axis=1)
    cov = float(joint.mean())
    row = {
        "joint_coverage": cov,
        "joint_coverage_se": math.sqrt(max(cov * (1.0 - cov), 1e-12) / c.plan.reps),
    }
    for (i, j), flags in zip(_entries(c), covered.T):
        row[f"coverage_{i + 1}{j + 1}"] = float(flags.mean())
    return row, joint.astype(int)


def _coverage_verdicts(c: _Cell, rows):
    final, level = rows[-1]["joint_coverage"], c.plan.level
    if level >= 0.9:
        # slack for the logarithmic extreme-value convergence rate
        verdicts = {"joint_coverage_floor": final >= level - 0.05}
    else:
        verdicts = {"joint_coverage_band": level - 0.15 <= final <= level + 0.20}
    if len(rows) > 1:
        verdicts["coverage_nondecreasing"] = all(
            b["joint_coverage"] >= a["joint_coverage"] - 0.02
            for a, b in zip(rows, rows[1:])
        )
    return verdicts


def _pi_half_grid(b_val: int) -> np.ndarray:
    return np.array([np.pi / 2.0])


def _bias_cell(c: _Cell, values: None):
    """Exact smoothing bias |E fhat - f| at pi/2, from the cell's oracles alone."""
    i, j = c.plan.entry
    f_true = c.truth.matrices[0, i, j]
    bias = float(abs(c.center.matrices[0, i, j] - f_true))
    return {"bias": bias, "f_true": float(abs(f_true))}, None


def _bias_verdicts(c: _Cell, rows):
    """Fit the log-log slope of the bias in B, and close ``rows`` with it.

    A model with smoothing bias at fewer than two bandwidths (a flat
    spectrum, such as white noise, has none) has no rate to fit and raises
    ``InvalidArgument``.
    """
    biases = np.array([row["bias"] for row in rows])
    positive = biases > 0.0
    if positive.sum() < 2:
        raise InvalidArgument(
            f"model {c.plan.model_spec!r} gives the {c.kernel.name} kernel no smoothing "
            f"bias at pi/2 at {len(biases) - positive.sum()} of {len(biases)} "
            "bandwidths, so there is no decay rate to measure"
        )
    log_b = np.log(_B_GRID)
    slope = float(np.polyfit(log_b[positive], np.log(biases[positive]), 1)[0])
    if c.kernel.name == "truncated":
        at_64 = rows[_B_GRID.index(64)]
        verdicts = {"bias_at_64_le_1e-6_f": at_64["bias"] <= 1e-6 * at_64["f_true"]}
    else:
        verdicts = {
            "slope_le_-0.7": slope <= -0.7,
            "bias_decreasing": bool(np.all(np.diff(biases) < 0.0)),
        }
    # an infinite or unknown order is a string, which plot_rows leaves out
    rows.append({"t_len": c.t_len, "fitted_slope": slope, "kernel_q_claim": c.kernel.q})
    return verdicts


class _Experiment(NamedTuple):
    """What one experiment adds to the shared cell loop."""

    freqs: Callable  # B -> frequency grid
    truth: bool  # whether the cell evaluates the exact f on that grid
    # (_Cell, one run's stacked ests) -> per-replication values; None draws nothing
    reduce: Callable | None
    summary: Callable  # (_Cell, the cell's values) -> (row fields, per-rep raw values)
    raw_key: str | None  # raw values are stored under f"{raw_key}_T{T}"
    verdicts: Callable  # (last _Cell, rows) -> {name: bool}
    reads: tuple  # the plan fields it reads beyond _SHARED and workers


EXPERIMENTS = {
    "clt": _Experiment(
        _clt_grid, True, _clt_deviations, _clt_cell, "std_pi_half", _clt_verdicts,
        _DRAWS + ("entry",),
    ),
    "gumbel": _Experiment(
        theorem_grid, True, _centered_max, _gumbel_cell, "centered_max", _gumbel_verdicts,
        _DRAWS + ("entry",),
    ),
    "moments": _Experiment(
        theorem_grid, True, _centered_max, _moments_cell, "centered_max",
        _moments_verdicts, _DRAWS + ("entry", "nu_star"),
    ),
    "uniform_rate": _Experiment(
        _dense_grid, False, _sup_deviation, _uniform_rate_cell, "sup",
        _uniform_rate_verdicts, _DRAWS + ("entry", "nu"),
    ),
    "coverage": _Experiment(
        theorem_grid, False, _covered, _coverage_cell, "joint", _coverage_verdicts,
        _DRAWS + ("level",),
    ),
    "bias_rate": _Experiment(
        _pi_half_grid, True, None, _bias_cell, None, _bias_verdicts, ("entry",)
    ),
}


def run_experiment(plan: ExperimentPlan) -> ExperimentReport:
    """Run a plan and collect its rows, verdicts and raw statistics.

    Every experiment goes through the one loop below; its ``EXPERIMENTS``
    entry supplies the grid, per-run reduction, cell summary and verdicts.
    """
    spec = EXPERIMENTS[plan.experiment]
    draws = "seed" in spec.reads  # bias_rate draws nothing
    size = pool_size(plan.workers) if draws else 0
    runs = _runs(plan.reps, size) if draws else []
    log.info(
        "verify %s: numpy %s, reps=%d, workers=%d, pool=%d processes%s", plan.experiment,
        np.__version__, sum(map(len, runs)), plan.workers, size,
        f", seed={plan.seed}, streams default_rng([seed, cell, rep])" if draws else "",
    )
    model = plan.model()
    _check_entries([plan.entry], model.n_dim)
    kernel = plan.kernel()
    if draws:
        cells = [(t, Bandwidth(t, plan.b_exponent, plan.c_const).value) for t in plan.t_grid]
    else:  # each _B_GRID bandwidth at the largest T
        cells = [(plan.t_grid[-1], b) for b in _B_GRID]
    rows, raw = [], {}
    with _pool(size, len(runs) * len(cells)) as pool:
        mapper = map if pool is None else pool.map  # both yield in run order
        for index, (t_len, b_val) in enumerate(cells):
            start = time.perf_counter()
            freqs = spec.freqs(b_val)
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                center = expected_spectrum(model, kernel, b_val, t_len, freqs)
                truth = true_spectrum(model, freqs) if spec.truth else None
            if not all(np.isfinite(g.matrices).all() for g in (center, truth) if g):
                raise InvalidModel(
                    f"model {plan.model_spec!r}: the exact spectra overflow at "
                    f"T = {t_len}: its values are too large"
                )
            cell = _Cell(plan, model, kernel, index, t_len, b_val, center, truth)
            centered = time.perf_counter()
            values = list(mapper(partial(_run_estimates, cell), runs))
            simulated = time.perf_counter()
            row, stats = spec.summary(cell, np.concatenate(values) if runs else None)
            if spec.raw_key:
                raw[f"{spec.raw_key}_T{t_len}"] = stats
            end = time.perf_counter()
            rows.append({"t_len": t_len, "bandwidth": b_val, **row})
            # "reps" covers the runs and their reductions, "statistic" the summary
            log.info(
                "cell T=%d B=%d: %.3f s (center %.3f s, reps %.3f s, statistic %.3f s)",
                t_len, b_val, end - start, centered - start, simulated - centered,
                end - simulated,
            )
    verdicts = spec.verdicts(cell, rows)  # before tuple(rows): bias_rate appends one
    return ExperimentReport(plan=plan, rows=tuple(rows), verdicts=verdicts, raw=raw)
