"""Maximum-deviation statistics and confidence bands.

The centered maximum deviation of the lag-window estimator over the grid
pi*l/B converges to the law with cdf exp(-exp(-x/2)); the centering constants
are 2 log B - log(pi log B) with natural logarithms throughout (the limit law
fixes the scale). The max statistic normalizes every grid point by
kappa * f_ii * f_jj with no omega factor, including l = 0 and l = B.

Both bands have one form, estimate +- sqrt((B/T) kappa fhat_ii fhat_jj c),
and differ only in the critical value c: the simultaneous band inverts the
extreme-value limit, c = q + 2 log B - log(pi log B) with q the limit-law
quantile; the pointwise band uses the normal limit, c = z^2 omega with the
boundary variance factor omega = 2 at multiples of pi and 1 elsewhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import BandUndefined, DegenerateSpectrum, InvalidArgument
from .kernels import Kernel
from .spectral import SpectralGrid



def gumbel_cdf(x):
    """cdf exp(-exp(-x/2)) of the limiting law (twice a standard Gumbel)."""
    return np.exp(-np.exp(-np.asarray(x, dtype=float) / 2.0))


def _check_level(level: float):
    if not 0.0 < level < 1.0:
        raise InvalidArgument(f"level must lie in (0, 1), got {level}")


def gumbel_quantile(level: float) -> float:
    """Inverse of :func:`gumbel_cdf`: -2 log(-log(level))."""
    _check_level(level)
    return -2.0 * math.log(-math.log(level))


def omega_factor(freq):
    """Boundary variance factor: 2 when freq is a multiple of pi, else 1."""
    ratio = np.asarray(freq, dtype=float) / np.pi
    out = np.where(np.abs(ratio - np.round(ratio)) < 1e-12, 2.0, 1.0)
    return out if out.ndim else float(out)


def _centering(grid_b: int) -> float:
    return 2.0 * math.log(grid_b) - math.log(math.pi * math.log(grid_b))


@dataclass(frozen=True)
class BandEntry:
    i: int
    j: int
    freqs: np.ndarray
    estimate: np.ndarray  # complex
    half_width: np.ndarray

    def to_dict(self) -> dict:
        """The entry with 1-based indices and its band's lower and upper edges."""
        return {
            "i": self.i + 1,
            "j": self.j + 1,
            "freqs": self.freqs,
            "estimate_re": self.estimate.real,
            "estimate_im": self.estimate.imag,
            "half_width": self.half_width,
            "lower": self.estimate.real - self.half_width,
            "upper": self.estimate.real + self.half_width,
        }


@dataclass(frozen=True)
class BandResult:
    level: float
    method: str
    bonferroni_m: int
    entries: tuple
    metadata: dict = field(default_factory=dict)


def _check_entries(entries, n_dim: int) -> list:
    """``entries`` as a nonempty list of 0-based (i, j) pairs, each index in
    0..n_dim-1; anything else raises InvalidArgument."""
    pairs = [tuple(e) for e in entries]
    if not pairs:
        raise InvalidArgument("no entries given")
    for pair in pairs:
        if len(pair) != 2:
            raise InvalidArgument(f"entry {pair} is not an (i, j) pair")
        if not all(isinstance(k, (int, np.integer)) and 0 <= k < n_dim for k in pair):
            raise InvalidArgument(
                f"entry {pair} (0-based) is outside a {n_dim}-dimensional grid"
            )
    return pairs


def _denominators(denom: SpectralGrid, i: int, j: int) -> np.ndarray:
    f_ii = denom.entry(i, i).real
    f_jj = denom.entry(j, j).real
    bad = (f_ii <= 0.0) | (f_jj <= 0.0)
    if np.any(bad):
        # the first bad point in row-major order: stacked grids name the
        # first bad frequency of the first bad replication
        freq = float(denom.freqs[np.nonzero(bad)[-1][0]])
        raise DegenerateSpectrum(
            f"nonpositive spectral diagonal at frequency {freq:.6f}", freq=freq
        )
    scale = f_ii * f_jj
    if np.any(scale < np.finfo(float).tiny):
        raise DegenerateSpectrum("the spectral scale underflows; rescale the series or model")
    return scale


def _finite(half: np.ndarray) -> np.ndarray:
    """``half`` if finite; its callers compute it under errstate(over="ignore")."""
    if not np.all(np.isfinite(half)):
        raise BandUndefined("band half-width overflows; rescale the series values")
    return half


def max_deviation(
    est: SpectralGrid,
    center: SpectralGrid,
    denom: SpectralGrid,
    kernel: Kernel,
    entry: tuple,
) -> np.ndarray | float:
    """Max over the grid of (T/B) |dev|^2 / (kappa f_ii f_jj), centered by
    2 log B - log(pi log B).

    ``est``, ``center`` and ``denom`` must share the same frequency grid;
    ``est`` may stack replications on leading axes, and the maximum is taken
    over the last (frequency) axis: the result is an array over the leading
    axes, or a float for a single grid. The squared deviation is the complex
    modulus, which covers cross-spectra.
    """
    i, j = _check_entries([entry], est.n_dim)[0]
    for other, name in ((center, "center"), (denom, "denominator")):
        if other.freqs.shape != est.freqs.shape or not np.allclose(est.freqs, other.freqs):
            raise InvalidArgument(f"estimate and {name} grids differ")
    dev2 = np.abs(est.entry(i, j) - center.entry(i, j)) ** 2
    scale = kernel.kappa * _denominators(denom, i, j)
    ratio = (est.t_len / est.bandwidth) * dev2 / scale
    return ratio.max(axis=-1) - _centering(est.bandwidth)


def _bisect(below, hi: float) -> float:
    """Bisect (0, hi) down to the adjacent floats where ``below`` turns false."""
    lo, x = 0.0, 0.5 * hi
    while lo < x < hi:
        lo, hi = (x, hi) if below(x) else (lo, x)
        x = 0.5 * (lo + hi)
    return x


def _band(
    est: SpectralGrid, kernel: Kernel, level: float, entries, crit, method: str, m: int
) -> BandResult:
    """Half-widths sqrt((B/T) kappa fhat_ii fhat_jj crit) of each entry.

    ``crit`` is a scalar or an array over the frequency axis. A stacked
    ``est`` gives each entry's estimate and half-width with its leading axes.
    """
    ratio = est.bandwidth / est.t_len
    out = []
    for i, j in entries:
        with np.errstate(over="ignore"):
            scale = kernel.kappa * _denominators(est, i, j)
            half = _finite(np.sqrt(ratio * scale * crit))
        out.append(BandEntry(i, j, est.freqs, est.entry(i, j), half))
    metadata = {
        "per_entry_level": 1.0 - (1.0 - level) / m,
        "bandwidth": est.bandwidth,
        "t_len": est.t_len,
        "kernel": kernel.name,
    }
    return BandResult(level, method, m, tuple(out), metadata=metadata)


def uniform_band(
    est: SpectralGrid, kernel: Kernel, level: float, entries, bonferroni: bool = False
) -> BandResult:
    """Simultaneous band from the extreme-value limit, over plug-in diagonals.

    The critical value is q + 2 log B - log(pi log B), with q the limit-law
    quantile at the (possibly Bonferroni-split) level.
    """
    _check_level(level)
    entries = _check_entries(entries, est.n_dim)
    m = len(entries) if bonferroni else 1
    threshold = gumbel_quantile(1.0 - (1.0 - level) / m) + _centering(est.bandwidth)
    if threshold < 0.0:
        raise BandUndefined(
            "band threshold negative at this bandwidth; increase B (larger "
            "series or larger bandwidth constant)"
        )
    return _band(est, kernel, level, entries, threshold, "gumbel_uniform", m)


def pointwise_ci(
    est: SpectralGrid, kernel: Kernel, level: float, entries
) -> BandResult:
    """Normal-limit band, valid at each grid frequency separately.

    The critical value is z^2 omega(freq), z the standard normal quantile at
    (1 + level) / 2. For cross-spectra the real and imaginary parts get the
    same (conservative per-component) half-width.
    """
    _check_level(level)
    entries = _check_entries(entries, est.n_dim)
    tail = 1.0 - 0.5 * (1.0 + level)  # P(Z > z): exact, as 0.5 * (1 + level) >= 0.5
    z = _bisect(lambda x: 0.5 * math.erfc(x * math.sqrt(0.5)) > tail, 40.0)
    crit = z**2 * omega_factor(est.freqs)
    return _band(est, kernel, level, entries, crit, "clt_pointwise", 1)
