"""Functional dependence measures via coupled simulation.

For a causal model Z_t = R(..., eps_{t-1}, eps_t), the coupled copy replaces
the time-0 innovation with an independent redraw; the L^p distance between
Z_t and its coupled version (per coordinate) is the dependence measure
delta_{t,p}. Tail aggregates:

    Theta_{m,p} = sum_{t>=m} delta_{t,p}
    Psi_{m,p}   = (sum_{t>=m} delta_{t,p}^{p'})^{1/p'},  p' = min(2, p)
    d_{m,p}     = sum_{t>=0} min(Psi_{m,p}, delta_{t,p})

with the coordinate maximum taken last. The infinite sums are truncated at a
horizon H and extended with a geometric tail fitted to the observed decay;
the fitted (A, rho) and the truncation remainder are part of the profile.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DecayFitWarning
from .models import ProcessModel

__all__ = [
    "DependenceProfile",
    "ConditionReport",
    "coupled_delta",
    "profile",
    "check_conditions",
]

_ZERO_TOL = 1e-300


def _coupled_differences(model: ProcessModel, horizon: int, reps: int, seed):
    """|Z_t - Z_t,{0}| samples, shape (reps, horizon + 1, n)."""
    lead = model.decay_horizon()
    steps = lead + horizon + 1
    rng = np.random.default_rng([int(seed), 0x5D])
    eps = rng.standard_normal((reps, steps, model.innov_dim))
    eps_star = eps.copy()
    eps_star[:, lead, :] = rng.standard_normal((reps, model.innov_dim))
    base = model.path(eps)[:, lead:, :]
    coupled = model.path(eps_star)[:, lead:, :]
    return np.abs(base - coupled)


def _delta_from_samples(diff_p: np.ndarray, p: float):
    """delta = mean(|D|^p)^(1/p) with a delta-method standard error."""
    reps = diff_p.shape[0]
    mean_p = diff_p.mean(axis=0)
    se_mean = diff_p.std(axis=0, ddof=1) / math.sqrt(reps)
    delta = mean_p ** (1.0 / p)
    se = np.where(
        mean_p > _ZERO_TOL,
        se_mean / p * np.maximum(mean_p, _ZERO_TOL) ** (1.0 / p - 1.0),
        0.0,
    )
    return delta, se


def coupled_delta(model: ProcessModel, t: int, p: float, reps: int, seed):
    """Monte Carlo estimate of delta_{t,p} per coordinate.

    Returns (estimate, se), each an array of length n_dim.
    """
    if t < 0:
        raise ValueError("t must be nonnegative")
    if p < 1:
        raise ValueError("p must be >= 1")
    if reps < 100:
        raise ValueError("need at least 100 replications")
    diffs = _coupled_differences(model, t, reps, seed)[:, t, :]
    return _delta_from_samples(diffs**p, p)


def _fit_geometric(delta: np.ndarray):
    """Least squares of log delta_t ~ log A + t log rho on positive entries.

    Returns (log_a, log_rho) or None when no decaying fit exists.
    """
    t = np.nonzero(delta > _ZERO_TOL)[0]
    if t.size < 2:
        return None
    y = np.log(delta[t])
    slope, intercept = np.polyfit(t.astype(float), y, 1)
    # a slope this close to zero (rho ~ 1) gives a meaningless tail sum;
    # treat it as non-decaying rather than divide by 1 - rho ~ 0
    if slope >= -1e-6:
        return None
    return float(intercept), float(slope)


@dataclass(frozen=True)
class DependenceProfile:
    """delta_{t,p} for t = 0..H with aggregates and a fitted geometric tail."""

    p: float
    horizon: int
    delta: np.ndarray  # (H + 1, n) per-coordinate delta_{t,p}
    delta_se: np.ndarray
    theta: np.ndarray  # (H + 1,) Theta_{m,p}, coordinate max
    psi: np.ndarray  # (H + 1,) Psi_{m,p}
    d_seq: np.ndarray  # (H + 1,) d_{m,p}
    theta_se: float
    decay_fit: tuple | None  # (log A, log rho) on the coordinate-max sequence
    tail_remainder: float | None  # geometric bound on the part beyond H
    reps: int

    @property
    def delta_max(self) -> np.ndarray:
        return self.delta.max(axis=1)

    @property
    def fitted_rho(self) -> float | None:
        return math.exp(self.decay_fit[1]) if self.decay_fit else None

    def to_dict(self) -> dict:
        return {
            "p": self.p,
            "horizon": self.horizon,
            "reps": self.reps,
            "delta": [[float(v) for v in row] for row in self.delta],
            "delta_se": [[float(v) for v in row] for row in self.delta_se],
            "theta": [float(v) for v in self.theta],
            "psi": [float(v) for v in self.psi],
            "d_seq": [float(v) for v in self.d_seq],
            "theta_se": float(self.theta_se),
            "decay_fit": list(self.decay_fit) if self.decay_fit else None,
            "fitted_rho": self.fitted_rho,
            "tail_remainder": self.tail_remainder,
        }


def _geom_tail(log_a: float, log_rho: float, start: int) -> float:
    """sum_{t >= start} A rho^t."""
    rho = math.exp(log_rho)
    return math.exp(log_a + start * log_rho) / (1.0 - rho)


def _geom_tail_pow(log_a: float, log_rho: float, start: int, power: float) -> float:
    """sum_{t >= start} (A rho^t)^power."""
    return _geom_tail(power * log_a, power * log_rho, start)


def _aggregate(delta_i: np.ndarray, p_prime: float, fit):
    """Theta_m, Psi_m^{p'}, for one coordinate, m = 0..H, with geometric tail."""
    h = delta_i.size - 1
    tail1 = _geom_tail(*fit, h + 1) if fit else 0.0
    tailp = _geom_tail_pow(*fit, h + 1, p_prime) if fit else 0.0
    rev = delta_i[::-1]
    theta = np.cumsum(rev)[::-1] + tail1
    psi_pow = np.cumsum(rev**p_prime)[::-1] + tailp
    return theta, psi_pow


def _d_tail(psi_m: float, fit, start: int) -> float:
    """sum_{t >= start} min(psi_m, A rho^t)."""
    if fit is None:
        return 0.0
    log_a, log_rho = fit
    if psi_m <= 0.0:
        return 0.0
    # first t >= start with A rho^t <= psi_m
    t_cross = start
    if math.exp(log_a + start * log_rho) > psi_m:
        t_cross = math.ceil((math.log(psi_m) - log_a) / log_rho)
        t_cross = max(t_cross, start)
    return (t_cross - start) * psi_m + _geom_tail(log_a, log_rho, t_cross)


def profile(
    model: ProcessModel, p: float, horizon: int, reps: int, seed
) -> DependenceProfile:
    """Estimate the dependence profile up to a horizon with tail extrapolation."""
    if horizon < 4:
        raise ValueError("horizon must be at least 4")
    if reps < 100:
        raise ValueError("need at least 100 replications")
    if p < 1:
        raise ValueError("p must be >= 1")
    diffs = _coupled_differences(model, horizon, reps, seed)
    delta, delta_se = _delta_from_samples(diffs**p, p)  # (H+1, n)
    p_prime = min(2.0, p)
    n = delta.shape[1]
    delta_max = delta.max(axis=1)
    fit_max = _fit_geometric(delta_max)
    if fit_max is None and np.any(delta_max[1:] > _ZERO_TOL):
        warnings.warn(
            "geometric decay fit failed; tail sums truncated at the horizon "
            "and the remainder is unknown",
            DecayFitWarning,
            stacklevel=2,
        )
    fits = [_fit_geometric(delta[:, i]) for i in range(n)]
    theta_i = np.empty((horizon + 1, n))
    psi_pow_i = np.empty((horizon + 1, n))
    for i in range(n):
        theta_i[:, i], psi_pow_i[:, i] = _aggregate(delta[:, i], p_prime, fits[i])
    theta = theta_i.max(axis=1)
    psi = psi_pow_i.max(axis=1) ** (1.0 / p_prime)
    d_seq = np.empty(horizon + 1)
    for m in range(horizon + 1):
        per_coord = np.empty(n)
        for i in range(n):
            psi_m_i = psi_pow_i[m, i] ** (1.0 / p_prime)
            head = np.minimum(psi_m_i, delta[:, i]).sum()
            per_coord[i] = head + _d_tail(psi_m_i, fits[i], horizon + 1)
        d_seq[m] = per_coord.max()
    tail_remainder = _geom_tail(*fit_max, horizon + 1) if fit_max else (
        0.0 if not np.any(delta_max[1:] > _ZERO_TOL) else None
    )
    theta_se = float(delta_se.max(axis=1).sum())
    return DependenceProfile(
        p=p,
        horizon=horizon,
        delta=delta,
        delta_se=delta_se,
        theta=theta,
        psi=psi,
        d_seq=d_seq,
        theta_se=theta_se,
        decay_fit=fit_max,
        tail_remainder=tail_remainder,
        reps=reps,
    )


@dataclass(frozen=True)
class ConditionReport:
    """Decay-precondition diagnostics for the limit theorems."""

    geometric_pass: bool | None
    fitted_rho: float | None
    rho_ci: tuple | None
    alpha1_fit: float | None
    alpha1_threshold: float
    alpha1_pass: bool | None
    alpha2_fit: float | None
    alpha2_threshold: float
    alpha2_pass: bool | None
    bandwidth_window_ok: bool
    p: float
    delta_param: float
    independent_components: bool
    notes: tuple = field(default_factory=tuple)

    def to_dict(self) -> dict:
        return {
            "geometric_pass": self.geometric_pass,
            "fitted_rho": self.fitted_rho,
            "rho_ci": list(self.rho_ci) if self.rho_ci else None,
            "alpha1_fit": self.alpha1_fit,
            "alpha1_threshold": self.alpha1_threshold,
            "alpha1_pass": self.alpha1_pass,
            "alpha2_fit": self.alpha2_fit,
            "alpha2_threshold": self.alpha2_threshold,
            "alpha2_pass": self.alpha2_pass,
            "bandwidth_window_ok": self.bandwidth_window_ok,
            "p": self.p,
            "delta_param": self.delta_param,
            "independent_components": self.independent_components,
            "notes": list(self.notes),
        }


def _lin_rss(x: np.ndarray, y: np.ndarray) -> float:
    """Residual sum of squares of the least-squares line y ~ x."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return float(resid @ resid)


def _slope_ci(t: np.ndarray, y: np.ndarray):
    """OLS slope with a 95% normal-theory confidence interval."""
    t = t.astype(float)
    n = t.size
    slope, intercept = np.polyfit(t, y, 1)
    resid = y - (slope * t + intercept)
    if n <= 2:
        return float(slope), (float(slope), float(slope))
    s2 = float(resid @ resid) / (n - 2)
    se = math.sqrt(s2 / float(((t - t.mean()) ** 2).sum()))
    from scipy.special import stdtrit

    q = stdtrit(n - 2, 0.975)
    return float(slope), (float(slope - q * se), float(slope + q * se))


def _power_exponent(values: np.ndarray):
    """-slope of log values vs log m over m >= 1; inf when all zero."""
    m = np.arange(1, values.size)
    pos = values[1:] > _ZERO_TOL
    if not np.any(pos):
        return math.inf
    if pos.sum() < 2:
        return None
    slope, _ = np.polyfit(np.log(m[pos].astype(float)), np.log(values[1:][pos]), 1)
    return float(-slope)


def check_conditions(
    prof: DependenceProfile,
    p: float,
    b: float,
    b_lower: float,
    delta_param: float,
    independent_components: bool = False,
) -> ConditionReport:
    """Check the decay preconditions behind the limit theorems.

    The exponent thresholds for the weakened (power-law) condition are

        alpha_1 > max[1/2 - (p-4)/(2 delta p), 2 delta / p]
        alpha_2 > max[1 - (p-4)/(2 delta p), 0]

    with ``delta_param`` supplied by the caller (the threshold's auxiliary
    exponent; it is an input here, not something the profile determines).
    ``independent_components`` applies the relaxation p -> p/2 available when
    the series components are mutually independent.
    """
    notes = []
    p_eff = p / 2.0 if independent_components else p
    if independent_components:
        notes.append("thresholds evaluated with p replaced by p/2")
    dp = delta_param
    alpha1_threshold = max(0.5 - (p_eff - 4.0) / (2.0 * dp * p_eff), 2.0 * dp / p_eff)
    alpha2_threshold = max(1.0 - (p_eff - 4.0) / (2.0 * dp * p_eff), 0.0)

    delta_max = prof.delta_max
    positive = delta_max > _ZERO_TOL
    geometric_pass: bool | None
    fitted_rho = None
    rho_ci = None
    if not np.any(positive[1:]):
        # dependence dies after finitely many lags: geometric decay is trivial
        geometric_pass = True
        fitted_rho = 0.0
        notes.append("delta vanishes beyond t=0; geometric decay holds trivially")
    else:
        t_pos = np.nonzero(positive)[0]
        if t_pos.size < 3:
            geometric_pass = None
            notes.append("too few positive delta entries for a decay fit")
        else:
            y = np.log(delta_max[t_pos])
            slope, ci = _slope_ci(t_pos, y)
            fitted_rho = math.exp(slope)
            rho_ci = (math.exp(ci[0]), math.exp(ci[1]))
            # a power-law profile also shows a negative slope against t, so
            # additionally require the log-linear model to describe the decay
            # at least as well as a log-log (power-law) model
            rss_geom = _lin_rss(t_pos.astype(float), y)
            rss_pow = _lin_rss(np.log(t_pos + 1.0), y)
            geometric_pass = bool(ci[1] < 0.0 and rss_geom <= rss_pow)
            if ci[1] < 0.0 and rss_geom > rss_pow:
                notes.append(
                    "decay profile is better described by a power law than "
                    "by a geometric rate"
                )

    alpha1_fit = _power_exponent(prof.d_seq)
    alpha2_fit = _power_exponent(prof.theta)
    alpha1_pass = None if alpha1_fit is None else bool(alpha1_fit > alpha1_threshold)
    alpha2_pass = None if alpha2_fit is None else bool(alpha2_fit > alpha2_threshold)
    bandwidth_ok = 0.0 < b_lower < b < 1.0
    return ConditionReport(
        geometric_pass=geometric_pass,
        fitted_rho=fitted_rho,
        rho_ci=rho_ci,
        alpha1_fit=None if alpha1_fit is None else float(alpha1_fit),
        alpha1_threshold=alpha1_threshold,
        alpha1_pass=alpha1_pass,
        alpha2_fit=None if alpha2_fit is None else float(alpha2_fit),
        alpha2_threshold=alpha2_threshold,
        alpha2_pass=alpha2_pass,
        bandwidth_window_ok=bandwidth_ok,
        p=p,
        delta_param=delta_param,
        independent_components=independent_components,
        notes=tuple(notes),
    )
