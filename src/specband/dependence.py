"""Functional dependence measures via coupled simulation.

For a causal model Z_t = R(..., eps_{t-1}, eps_t), the coupled copy replaces
the time-0 innovation with an independent redraw; the L^p distance between
Z_t and its coupled version (per coordinate) is the dependence measure
delta_{t,p}. Tail aggregates:

    Theta_{m,p} = sum_{t>=m} delta_{t,p}
    Psi_{m,p}   = (sum_{t>=m} delta_{t,p}^{p'})^{1/p'},  p' = min(2, p)
    d_{m,p}     = sum_{t>=0} min(Psi_{m,p}, delta_{t,p})

with the coordinate maximum taken last. The infinite sums are truncated at a
horizon H and extended with a geometric tail A rho^t fitted to each
coordinate's decay; the fit to the coordinate maximum and its truncation
remainder are part of the profile. d's tail beyond H is Theta's for every m
(unless Psi_m underflows to 0): Psi_m^{p'} contains the fitted tail
sum_{t>H} (A rho^t)^{p'} >= (A rho^{H+1})^{p'}, so min(Psi_m, A rho^t) = A rho^t.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import DecayFitWarning, InvalidArgument, InvalidModel
from .inference import _bisect
from .models import ProcessModel, _check_seed
from .series import _fields

_ZERO_TOL = 1e-300


def _coupled_differences(model: ProcessModel, horizon: int, reps: int, seed):
    """|Z_t - Z_t,{0}| samples, shape (reps, horizon + 1, n)."""
    lead = model.decay_horizon()
    steps = lead + horizon + 1
    rng = np.random.default_rng([_check_seed(seed), 0x5D])
    eps = rng.standard_normal((reps, steps, model.n_dim))
    base = model.path(eps)[:, lead:, :]  # a new array: eps is left as it was
    eps[:, lead, :] = rng.standard_normal((reps, model.n_dim))  # now eps*
    coupled = model.path(eps, overwrite=True)[:, lead:, :]  # may run in place on eps
    base -= coupled
    return np.abs(base, out=base)


def _delta_from_samples(diffs: np.ndarray, p: float):
    """delta = mean(|D|^p)^(1/p) and its delta-method standard error, from |D|
    (replications first), divided in place by each column's largest sample
    before the power, so that it cannot overflow or underflow to all zeros."""
    reps = diffs.shape[0]
    scale = np.maximum(diffs.max(axis=0), _ZERO_TOL)  # a zero column stays zero
    diffs /= scale
    diffs **= p
    mean_p = diffs.mean(axis=0)  # in [1/reps, 1] but for a zero column
    se_mean = diffs.std(axis=0, ddof=1) / math.sqrt(reps)
    delta = scale * mean_p ** (1.0 / p)
    se = scale * se_mean / p * np.maximum(mean_p, _ZERO_TOL) ** (1.0 / p - 1.0)
    return delta, se


def _check_p_reps(p: float, reps: int):
    if not 1.0 <= p < math.inf:
        raise InvalidArgument("p must be finite and >= 1")
    if reps < 100:
        raise InvalidArgument("need at least 100 replications")


def coupled_delta(model: ProcessModel, t: int, p: float, reps: int, seed):
    """Monte Carlo estimate of delta_{t,p} per coordinate.

    Returns (estimate, se), each an array of length n_dim.
    """
    if t < 0:
        raise InvalidArgument("t must be nonnegative")
    _check_p_reps(p, reps)
    diffs = _coupled_differences(model, t, reps, seed)[:, t, :]
    return _delta_from_samples(diffs, p)


def _line(x: np.ndarray, y: np.ndarray):
    """Least-squares line y ~ slope x + intercept: (slope, intercept, rss)."""
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    return float(slope), float(intercept), float(resid @ resid)


def _fit_geometric(delta: np.ndarray):
    """Least squares of log delta_t ~ log A + t log rho on positive entries.

    Returns (log_a, log_rho) or None when no decaying fit exists.
    """
    t = np.nonzero(delta > _ZERO_TOL)[0]
    if t.size < 2:
        return None
    slope, intercept, _ = _line(t.astype(float), np.log(delta[t]))
    # a slope this close to zero (rho ~ 1) gives a meaningless tail sum;
    # treat it as non-decaying rather than divide by 1 - rho ~ 0
    if slope >= -1e-6:
        return None
    return intercept, slope


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
        return {**_fields(self), "fitted_rho": self.fitted_rho}


def _geom_tail(log_a: float, log_rho: float, start: int) -> float:
    """sum_{t >= start} A rho^t; inf once A rho^start passes e^709.78, the float range."""
    log_head = log_a + start * log_rho
    return math.exp(log_head) / (1.0 - math.exp(log_rho)) if log_head < 709.78 else math.inf


def profile(
    model: ProcessModel, p: float, horizon: int, reps: int, seed
) -> DependenceProfile:
    """Estimate the dependence profile up to a horizon with tail extrapolation."""
    if horizon < 4:
        raise InvalidArgument("horizon must be at least 4")
    _check_p_reps(p, reps)
    diffs = _coupled_differences(model, horizon, reps, seed)
    delta, delta_se = _delta_from_samples(diffs, p)  # (H+1, n)
    p_prime = min(2.0, p)
    delta_max = delta.max(axis=1)
    fit_max = _fit_geometric(delta_max)
    fits = [_fit_geometric(col) for col in delta.T]
    start = horizon + 1
    with np.errstate(over="ignore"):  # checked below
        tail = np.array([_geom_tail(*fit, start) if fit else 0.0 for fit in fits])
        tail_pow = np.array(
            [_geom_tail(p_prime * fit[0], p_prime * fit[1], start) if fit else 0.0
             for fit in fits]
        )
        rev = delta[::-1]
        theta_i = np.cumsum(rev, axis=0)[::-1] + tail  # (H+1, n), row m
        psi_pow_i = np.cumsum(rev**p_prime, axis=0)[::-1] + tail_pow
        theta = theta_i.max(axis=1)
        psi = psi_pow_i.max(axis=1) ** (1.0 / p_prime)
        # head[i, m] = sum_t min(Psi_{m,i}, delta_{t,i}); C order keeps numpy's
        # pairwise sum along t
        psi_i = psi_pow_i.T ** (1.0 / p_prime)
        head = np.minimum(psi_i[:, :, None], delta.T[:, None, :], order="C").sum(axis=2)
        # Psi^{p'} underflows to 0 where delta and the fitted tail are below
        # about 2e-162 (p' = 2); d's tail is min(0, A rho^t) = 0 there
        d_seq = (head + np.where(psi_i > 0.0, tail[:, None], 0.0)).max(axis=0)
    tail_remainder = _geom_tail(*fit_max, start) if fit_max else (
        0.0 if not np.any(delta_max[1:] > _ZERO_TOL) else None
    )
    aggregates = (delta_se, theta, psi, d_seq, tail_remainder or 0.0)
    if not all(np.all(np.isfinite(v)) for v in aggregates):
        raise InvalidModel(f"its dependence overflows at p = {p:g}")
    if fit_max is None and np.any(delta_max[1:] > _ZERO_TOL):
        warnings.warn(
            "geometric decay fit failed; tail sums truncated at the horizon "
            "and the remainder is unknown",
            DecayFitWarning,
            stacklevel=2,
        )
    return DependenceProfile(
        p=p, horizon=horizon, delta=delta, delta_se=delta_se, theta=theta,
        psi=psi, d_seq=d_seq, theta_se=float(delta_se.max(axis=1).sum()),
        decay_fit=fit_max, tail_remainder=tail_remainder, reps=reps,
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
    b: float
    b_lower: float
    delta_param: float
    independent_components: bool
    notes: tuple = field(default_factory=tuple)


def _t_two_sided(df: int, level: float) -> float:
    """The t with P(|T| <= t) = level for Student's T on integer df: bisection
    on theta in t = sqrt(df) tan(theta) of the exact cdf (Abramowitz & Stegun
    26.7.3-4), a finite series in cos(theta)."""
    ratios = [j / (j + 1.0) for j in range(1 + df % 2, df - 2, 2)]

    def prob(theta):
        c, s = math.cos(theta), math.sin(theta)
        term = total = c * (df > 1) if df % 2 else 1.0
        for r in ratios:
            term *= r * c * c
            total += term
        return (theta + s * total) * 2.0 / math.pi if df % 2 else s * total

    return math.sqrt(df) * math.tan(_bisect(lambda theta: prob(theta) < level, math.pi / 2))


def _slope_ci(t: np.ndarray, y: np.ndarray):
    """OLS slope, its 95% normal-theory confidence interval and the residual
    sum of squares, over n >= 3 points."""
    t = t.astype(float)
    n = t.size
    slope, _, rss = _line(t, y)
    se = math.sqrt(rss / (n - 2) / float(((t - t.mean()) ** 2).sum()))
    q = _t_two_sided(n - 2, 0.95)
    return slope, (float(slope - q * se), float(slope + q * se)), rss


def _flat(values: np.ndarray) -> bool:
    """Whether the positive values over m >= 1 are two or more, all equal."""
    pos = values[1:][values[1:] > _ZERO_TOL]
    return pos.size >= 2 and bool(np.all(pos == pos[0]))


def _power_exponent(values: np.ndarray):
    """-slope of log values vs log m over m >= 1; inf when all zero, None when
    fewer than two are positive or they are all equal (no slope to fit)."""
    m = np.arange(1, values.size)
    pos = values[1:] > _ZERO_TOL
    if not np.any(pos):
        return math.inf
    if pos.sum() < 2 or _flat(values):
        return None
    slope, _, _ = _line(np.log(m[pos].astype(float)), np.log(values[1:][pos]))
    return -slope


def check_conditions(
    prof: DependenceProfile,
    b: float,
    b_lower: float,
    delta_param: float,
    independent_components: bool = False,
) -> ConditionReport:
    """Check the decay preconditions behind the limit theorems.

    The exponent thresholds for the weakened (power-law) condition are

        alpha_1 > max[1/2 - (p-4)/(2 delta p), 2 delta / p]
        alpha_2 > max[1 - (p-4)/(2 delta p), 0]

    at the moment p = ``prof.p`` that delta was measured at, and with
    ``delta_param`` supplied by the caller (the threshold's auxiliary
    exponent; it is an input here, not something the profile determines).
    ``independent_components`` applies the relaxation p -> p/2 available when
    the series components are mutually independent. Geometric decay implies
    both power-law conditions, so a geometric pass makes both alpha verdicts
    true, with a note for each that the power-law fit alone would not give.
    A profile that is constant over m = 1..H has no power-law fit: its
    exponent and, without a geometric pass, its verdict are None, with a
    note that the horizon is too short.
    """
    if not 0.0 < delta_param < math.inf:
        raise InvalidArgument("delta_param must be finite and positive")
    notes = []
    p_eff = prof.p / 2.0 if independent_components else prof.p
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
            slope, ci, rss_geom = _slope_ci(t_pos, y)
            fitted_rho = math.exp(slope)
            rho_ci = (math.exp(ci[0]), math.exp(ci[1]))
            # a power-law profile also shows a negative slope against t, so
            # additionally require the log-linear model to describe the decay
            # at least as well as a log-log (power-law) model
            rss_pow = _line(np.log(t_pos + 1.0), y)[2]
            geometric_pass = bool(ci[1] < 0.0 and rss_geom <= rss_pow)
            if ci[1] < 0.0 and rss_geom > rss_pow:
                notes.append(
                    "decay profile is better described by a power law than "
                    "by a geometric rate"
                )

    alpha1_fit = _power_exponent(prof.d_seq)
    alpha2_fit = _power_exponent(prof.theta)
    for name, values in (("d_m", prof.d_seq), ("Theta_m", prof.theta)):
        if _flat(values):
            notes.append(
                f"{name} is constant over m <= {prof.horizon}: the horizon is too "
                "short for a power-law fit"
            )
    alpha1_pass = None if alpha1_fit is None else bool(alpha1_fit > alpha1_threshold)
    alpha2_pass = None if alpha2_fit is None else bool(alpha2_fit > alpha2_threshold)
    if geometric_pass:  # a power-law fit over t <= H may not show this decay
        for name, verdict in (("alpha1", alpha1_pass), ("alpha2", alpha2_pass)):
            if not verdict:
                fit = "no fit" if verdict is None else "a fit below the threshold"
                notes.append(
                    f"{name}_pass is true because geometric decay implies it; "
                    f"the power-law fit alone gave {fit}"
                )
        alpha1_pass = alpha2_pass = True
    bandwidth_ok = 0.0 < b_lower < b < 1.0
    return ConditionReport(
        geometric_pass=geometric_pass,
        fitted_rho=fitted_rho,
        rho_ci=rho_ci,
        alpha1_fit=alpha1_fit,
        alpha1_threshold=alpha1_threshold,
        alpha1_pass=alpha1_pass,
        alpha2_fit=alpha2_fit,
        alpha2_threshold=alpha2_threshold,
        alpha2_pass=alpha2_pass,
        bandwidth_window_ok=bandwidth_ok,
        p=prof.p,
        b=b,
        b_lower=b_lower,
        delta_param=delta_param,
        independent_components=independent_components,
        notes=tuple(notes),
    )
