"""Monte Carlo experiments that check the limit theorems at desk scale.

Each experiment simulates a known mean-zero model, estimates the spectral
matrix per replication, and compares distributional summaries against the
theory: the pointwise normal limit, the extreme-value limit of the maximum
deviation, moment convergence, the uniform moment rate, smoothing-bias decay,
and simultaneous band coverage.

All simulating experiments share one cell loop in ``run_experiment``: for
each T in the plan's grid it builds one ``_Cell`` (bandwidth and the exact
centering E fhat on the experiment's frequency grid), runs the replications,
and stores the cell's row and per-replication statistics. Each replication
contributes its autocovariance stack, and a run of replications is estimated
by one ``estimate_matrices`` call on the stacked autocovariances. Runs are
consecutive ranges of at most 64 replications, shorter in a pool so that
each worker gets several. With ``workers`` >= 2, one process pool serves
every cell of the experiment, one run per task, and is shut down after the
last cell; on closing it logs its processes, tasks and seconds open.
``bias_rate`` and serial plans start no pool. A run simulates its
replications and takes their autocovariances through one workspace (see
``series._buffer``), so the draws and the large work arrays of the scan and
of ``autocov_matrices`` are allocated once per run, not returned to the
allocator and faulted back in by every replication. The workspace is freed
before the run's estimator call. Each run's estimates are written into the
cell's preallocated array in replication order, so the cell holds its
result plus one run's work arrays. The estimates come back as one
``SpectralGrid`` stacked on a leading replication axis, so each statistic
(``max_deviation``, ``uniform_band``) runs once per cell on the whole stack,
through the same code that ``bands`` uses. What differs is kept in the
``_EXPERIMENTS`` table: the frequency grid, the per-cell statistic and the
verdicts. ``bias_rate`` is simulation-free and loops over bandwidths
instead, so it has its own short loop.

Centering is by the exact finite-sample mean (closed form under the model),
and autocovariances are taken on the raw simulated values without sample-mean
removal: the models are mean-zero by construction, which keeps the oracle
centering exact instead of O(1/T) off.

Determinism: replication r at grid position k uses the RNG stream seeded by
(seed, k, r), and reductions run in replication order, so reports are
byte-identical regardless of worker count.
"""

from __future__ import annotations

import logging
import math
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .acov import autocov_matrices
from .errors import InvalidPlan
from .inference import gumbel_cdf, max_deviation, omega_factor, uniform_band
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

# replications per estimator call: a call's work arrays are a few times the
# size of its estimates, so this bounds them beside the cell's result
_RUN_REPS = 64

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
    b_grid: tuple = (8, 16, 32, 64, 128)
    workers: int = 1

    def __post_init__(self):
        if self.experiment not in EXPERIMENTS:
            raise InvalidPlan(f"unknown experiment {self.experiment!r}")
        if self.workers < 1:
            raise InvalidPlan(f"workers must be >= 1, got {self.workers}")
        _check_seed(self.seed, InvalidPlan)
        if self.experiment != "bias_rate" and self.reps < 100:
            raise InvalidPlan(f"reps must be >= 100, got {self.reps}")
        t_grid = tuple(int(t) for t in self.t_grid)
        if not t_grid or t_grid[0] < 3 or any(
            b >= a for a, b in zip(t_grid[1:], t_grid)
        ):
            raise InvalidPlan("t_grid must be strictly increasing, with entries >= 3")
        if not 0.0 < self.b_exponent < 1.0:
            raise InvalidPlan("b_exponent must lie in (0, 1)")
        if not (math.isfinite(self.c_const) and self.c_const > 0.0):
            raise InvalidPlan("c_const must be finite and positive")
        if not 0.0 < self.level < 1.0:
            raise InvalidPlan("level must lie in (0, 1)")
        if not (1.0 <= self.nu_star < math.inf and 1.0 <= self.nu < math.inf):
            raise InvalidPlan("nu_star and nu must be finite and >= 1")
        b_grid = tuple(int(v) for v in self.b_grid)
        # bias_rate pins B to each entry, and a bandwidth lies in [2, T-1]; a
        # slope and a trend need two bandwidths, in increasing order
        if self.experiment == "bias_rate" and (
            len(b_grid) < 2
            or not all(2 <= b < t_grid[-1] for b in b_grid)
            or any(b >= a for a, b in zip(b_grid[1:], b_grid))
        ):
            raise InvalidPlan(
                "b_grid must be strictly increasing, with two or more entries in "
                f"[2, {t_grid[-1] - 1}]"
            )
        object.__setattr__(self, "t_grid", t_grid)
        object.__setattr__(self, "entry", tuple(int(v) for v in self.entry))
        object.__setattr__(self, "b_grid", b_grid)

    def model(self):
        return parse_model(self.model_spec)

    def kernel(self):
        return get_kernel(self.kernel_name)

    def to_dict(self) -> dict:
        """The plan's fields but ``workers``, which never changes a report."""
        out = _fields(self)
        del out["workers"]
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
        out = []
        for row in self.rows:
            t_val = row.get("t_len", row.get("bandwidth", 0))
            for key, value in row.items():
                if key in ("t_len",) or not isinstance(value, (int, float)):
                    continue
                se = row.get(f"{key}_se")
                out.append((self.plan.experiment, t_val, key, value, se))
        return out


class _Cell(NamedTuple):
    """One T of the shared loop, as its replications and statistic see it."""

    plan: ExperimentPlan
    model: object
    kernel: Kernel
    index: int  # position in t_grid: replication r draws from (seed, index, r)
    t_len: int
    b_val: int
    center: SpectralGrid  # exact mean E fhat on the experiment's grid


def _run_acovs(cell: _Cell, reps: range) -> np.ndarray:
    """A run's (len(reps), B+1, n, n) autocovariance stacks, each replication
    from its own stream, all through one workspace that dies on return."""
    workspace, stacks = {}, []
    for rep in reps:
        rng = np.random.default_rng([cell.plan.seed, cell.index, rep])
        values = cell.model.simulate_values(cell.t_len, rng, workspace=workspace)
        stacks.append(autocov_matrices(values, cell.b_val, workspace=workspace))
    return np.stack(stacks)


def _run_estimates(cell: _Cell, reps: range) -> np.ndarray:
    """The (len(reps), F, n, n) estimates of a run of replications, in one call."""
    stacks = _run_acovs(cell, reps)
    return estimate_matrices(stacks, cell.kernel, cell.b_val, cell.center.freqs)


def pool_size(workers: int) -> int:
    """Processes the pool starts: at most os.cpu_count(), and 0 (serial) below 2."""
    size = min(workers, os.cpu_count() or 1)
    return size if size > 1 else 0


def _runs(reps: int, size: int) -> list:
    """Consecutive ranges of replications: at most _RUN_REPS, and on a pool of
    ``size`` processes short enough that each gets several."""
    run = min(_RUN_REPS, max(1, reps // (size * 8))) if size else _RUN_REPS
    return [range(start, min(start + run, reps)) for start in range(0, reps, run)]


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


def _run_reps(cell: _Cell, runs: list, pool) -> SpectralGrid:
    """The cell's replication estimates, stacked as one (reps, F, n, n) grid."""
    ests = np.empty((cell.plan.reps, *cell.center.matrices.shape), dtype=complex)
    run = partial(_run_estimates, cell)
    for r, est in zip(runs, map(run, runs) if pool is None else pool.map(run, runs)):
        ests[r.start : r.stop] = est
    return replace(cell.center, matrices=ests)


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


def _clt_cell(c: _Cell, ests: SpectralGrid):
    """Standardized deviation sqrt(T/B)(fhat - E fhat)/sqrt(omega kappa
    f_ii f_jj) at 0 and pi/2; the variance ratio of the f-normalized
    deviations between them exhibits the boundary factor omega = 2 vs 1.
    """
    i, j = c.plan.entry
    reps = c.plan.reps
    freqs = c.center.freqs
    truth = c.model.spectral_density(freqs)
    dev = np.sqrt(c.t_len / c.b_val) * (ests.entry(i, j) - c.center.entry(i, j))
    denom = c.kernel.kappa * truth[:, i, i].real * truth[:, j, j].real
    std = dev / np.sqrt(omega_factor(freqs) * denom)
    scaled = dev / np.sqrt(denom)[None, :]
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


def _clt_verdicts(plan, rows):
    last = rows[-1]
    return {
        "ks_pi_half_le_0.05": last["ks_pi_half"] <= 0.05,
        "var_ratio_in_1.6_2.4": 1.6 <= last["var_ratio_0_vs_pi_half"] <= 2.4,
    }


def _centered_max(c: _Cell, ests: SpectralGrid) -> np.ndarray:
    """The centered maximum-deviation statistic, one per replication."""
    denom = true_spectrum(c.model, c.center.freqs)
    return max_deviation(ests, c.center, denom, c.kernel, c.plan.entry)


def _gumbel_cell(c: _Cell, ests: SpectralGrid):
    """Extreme-value limit of the centered maximum deviation."""
    stats = _centered_max(c, ests)
    row = {
        "ks_gumbel": _ks_statistic(stats, gumbel_cdf),
        "mean_centered": float(stats.mean()),
        "mean_centered_se": float(stats.std(ddof=1) / math.sqrt(c.plan.reps)),
        "median_centered": _median(stats),
    }
    return row, stats


def _gumbel_verdicts(plan, rows):
    ks_values = [row["ks_gumbel"] for row in rows]
    verdicts = {"ks_final_le_0.20": ks_values[-1] <= 0.20}
    if len(rows) > 1:
        verdicts["ks_decreasing_in_T"] = all(
            b < a for a, b in zip(ks_values, ks_values[1:])
        )
    return verdicts


def _moments_cell(c: _Cell, ests: SpectralGrid):
    """Moment convergence of the centered maximum toward the limit law."""
    nu = c.plan.nu_star
    stats = _centered_max(c, ests)
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


def _moments_verdicts(plan, rows):
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


def _uniform_rate_cell(c: _Cell, ests: SpectralGrid):
    """||sup-deviation||_nu against the rate (B log B / T)^(1/2)."""
    i, j = c.plan.entry
    nu = c.plan.nu
    sup = np.abs(ests.entry(i, j) - c.center.entry(i, j)).max(axis=1)
    norm_val = float(np.mean(sup**nu) ** (1.0 / nu))
    rate = math.sqrt(c.b_val * math.log(c.b_val) / c.t_len)
    row = {"sup_norm": norm_val, "rate": rate, "ratio": norm_val / rate}
    return row, sup


def _uniform_rate_verdicts(plan, rows):
    ratios = [row["ratio"] for row in rows]
    verdicts = {}
    if len(rows) > 1:
        verdicts["ratio_spread_le_2"] = max(ratios) / min(ratios) <= 2.0
    verdicts["ratio_positive"] = min(ratios) > 0.0
    return verdicts


def _coverage_cell(c: _Cell, ests: SpectralGrid):
    """Simultaneous coverage of the plug-in uniform band.

    Bands are Bonferroni-adjusted over all distinct entries (i <= j); the
    target is the exact finite-sample mean E fhat.
    """
    n = c.model.n_dim
    reps = c.plan.reps
    entries = [(a, b) for a in range(n) for b in range(a, n)]
    band = uniform_band(ests, c.kernel, c.plan.level, entries, bonferroni=True)
    covered = np.column_stack(
        [
            np.all(np.abs(e.estimate - c.center.entry(e.i, e.j)) <= e.half_width, 1)
            for e in band.entries
        ]
    )  # (reps, entries)
    joint = covered.all(axis=1)
    cov = float(joint.mean())
    row = {
        "joint_coverage": cov,
        "joint_coverage_se": math.sqrt(max(cov * (1.0 - cov), 1e-12) / reps),
    }
    for (i, j), flags in zip(entries, covered.T):
        row[f"coverage_{i + 1}{j + 1}"] = float(flags.mean())
    return row, joint.astype(int)


def _coverage_verdicts(plan, rows):
    final = rows[-1]["joint_coverage"]
    if plan.level >= 0.9:
        # slack for the logarithmic extreme-value convergence rate
        verdicts = {"joint_coverage_floor": final >= plan.level - 0.05}
    else:
        verdicts = {
            "joint_coverage_band": plan.level - 0.15 <= final <= plan.level + 0.20
        }
    if len(rows) > 1:
        verdicts["coverage_nondecreasing"] = all(
            b["joint_coverage"] >= a["joint_coverage"] - 0.02
            for a, b in zip(rows, rows[1:])
        )
    return verdicts


class _Experiment(NamedTuple):
    """What one simulating experiment adds to the shared cell loop."""

    freqs: Callable  # B -> frequency grid
    statistic: Callable  # (_Cell, stacked ests) -> (row fields, per-rep raw values)
    raw_key: str  # raw values are stored under f"{raw_key}_T{T}"
    verdicts: Callable  # (plan, rows) -> {name: bool}


_EXPERIMENTS = {
    "clt": _Experiment(_clt_grid, _clt_cell, "std_pi_half", _clt_verdicts),
    "gumbel": _Experiment(theorem_grid, _gumbel_cell, "centered_max", _gumbel_verdicts),
    "moments": _Experiment(
        theorem_grid, _moments_cell, "centered_max", _moments_verdicts
    ),
    "uniform_rate": _Experiment(
        _dense_grid, _uniform_rate_cell, "sup", _uniform_rate_verdicts
    ),
    "coverage": _Experiment(theorem_grid, _coverage_cell, "joint", _coverage_verdicts),
}
EXPERIMENTS = (*_EXPERIMENTS, "bias_rate")  # bias_rate simulates nothing


def _bias_rate(plan: ExperimentPlan, model, kernel: Kernel) -> ExperimentReport:
    """Exact (simulation-free) smoothing-bias decay in the bandwidth.

    Evaluates |E fhat - f| at pi/2 for each bandwidth in ``b_grid`` with T
    fixed at the largest grid value, and fits the log-log slope. A model
    with smoothing bias at fewer than two bandwidths (a flat spectrum, such
    as white noise, has none) has no rate to fit and raises ``InvalidPlan``.
    """
    i, j = plan.entry
    t_len = plan.t_grid[-1]
    freq = np.array([np.pi / 2.0])
    f_true = model.spectral_density(freq)[0, i, j]
    rows = []
    for b_val in plan.b_grid:
        exp_mat = expected_spectrum(model, kernel, b_val, t_len, freq).matrices[0, i, j]
        rows.append(
            {
                "t_len": t_len,
                "bandwidth": b_val,
                "bias": float(abs(exp_mat - f_true)),
                "f_true": float(abs(f_true)),
            }
        )
    biases = np.array([row["bias"] for row in rows])
    positive = biases > 0.0
    if positive.sum() < 2:
        raise InvalidPlan(
            f"model {plan.model_spec!r} gives the {kernel.name} kernel no smoothing "
            f"bias at pi/2 at {len(biases) - positive.sum()} of {len(biases)} "
            "bandwidths, so there is no decay rate to measure"
        )
    log_b = np.log([row["bandwidth"] for row in rows])
    slope = float(np.polyfit(log_b[positive], np.log(biases[positive]), 1)[0])
    verdicts = {}
    if kernel.name == "truncated":
        idx = plan.b_grid.index(64) if 64 in plan.b_grid else len(plan.b_grid) - 1
        verdicts["bias_at_64_le_1e-6_f"] = rows[idx]["bias"] <= 1e-6 * rows[idx]["f_true"]
    else:
        verdicts["slope_le_-0.7"] = slope <= -0.7
        verdicts["bias_decreasing"] = bool(np.all(np.diff(biases) < 0.0))
    rows_out = tuple(rows) + (
        {
            "t_len": t_len,
            "fitted_slope": slope,
            # an infinite or unknown order is a string, which plot_rows leaves out
            "kernel_q_claim": kernel.q,
        },
    )
    return ExperimentReport(plan=plan, rows=rows_out, verdicts=verdicts)


def run_experiment(plan: ExperimentPlan) -> ExperimentReport:
    """Run a plan and collect its rows, verdicts and raw statistics.

    Every simulating experiment goes through the one loop below; its
    ``_EXPERIMENTS`` entry supplies the grid, cell statistic and verdicts.
    """
    model = plan.model()
    if len(plan.entry) != 2 or not all(0 <= k < model.n_dim for k in plan.entry):
        raise InvalidPlan(
            f"entry {plan.entry} (0-based) is outside a {model.n_dim}-dimensional model"
        )
    kernel = plan.kernel()
    if plan.experiment == "bias_rate":
        return _bias_rate(plan, model, kernel)
    spec = _EXPERIMENTS[plan.experiment]
    size = pool_size(plan.workers)
    runs = _runs(plan.reps, size)
    rows, raw = [], {}
    with _pool(size, len(runs) * len(plan.t_grid)) as pool:
        for index, t_len in enumerate(plan.t_grid):
            start = time.perf_counter()
            b_val = Bandwidth(t_len, plan.b_exponent, plan.c_const).value
            center = expected_spectrum(model, kernel, b_val, t_len, spec.freqs(b_val))
            cell = _Cell(plan, model, kernel, index, t_len, b_val, center)
            centered = time.perf_counter()
            ests = _run_reps(cell, runs, pool)
            simulated = time.perf_counter()
            row, values = spec.statistic(cell, ests)
            end = time.perf_counter()
            rows.append({"t_len": t_len, "bandwidth": b_val, **row})
            raw[f"{spec.raw_key}_T{t_len}"] = values
            log.info(
                "cell T=%d B=%d: %.3f s (center %.3f s, reps %.3f s, statistic %.3f s)",
                t_len, b_val, end - start, centered - start, simulated - centered,
                end - simulated,
            )
    return ExperimentReport(
        plan=plan, rows=tuple(rows), verdicts=spec.verdicts(plan, rows), raw=raw
    )
