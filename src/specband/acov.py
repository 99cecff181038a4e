"""Sample autocovariance matrices and their exact model means.

The sample autocovariance uses the divisor-T convention

    C(u) = (1/T) * sum_{t=1}^{T-u} Z_t Z_{t+u}',   u >= 0,

with C(-u) = C(u)' filled by transpose rather than recomputed. Divisor T
(not T - u) keeps the Toeplitz nonnegative-definiteness behind PSD spectral
estimates; the matching finite-sample mean under a known model carries the
(T - |u|)/T factor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    InvalidSeries,
    LagOutOfRange,
    MalformedArray,
    NotCentered,
    UnsupportedModel,
)
from .series import MultivariateSeries

__all__ = ["AutocovSequence", "sample_autocov", "expected_autocov", "autocov_matrices"]


@dataclass(frozen=True)
class AutocovSequence:
    """C(u) for u = 0..max_lag, negative lags available via transpose."""

    matrices: np.ndarray  # (max_lag + 1, n, n)
    t_len: int

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=float)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise MalformedArray("autocovariance stack must have shape (L+1, n, n)")
        if not np.all(np.isfinite(m)):
            raise MalformedArray("autocovariance contains non-finite entries")
        m.setflags(write=False)
        object.__setattr__(self, "matrices", m)

    @property
    def max_lag(self) -> int:
        return self.matrices.shape[0] - 1

    @property
    def n_dim(self) -> int:
        return self.matrices.shape[1]

    def lag(self, u: int) -> np.ndarray:
        """C(u); negative u returns the exact transpose of C(-u)."""
        if abs(u) > self.max_lag:
            raise LagOutOfRange(f"lag {u} beyond computed horizon {self.max_lag}")
        if u >= 0:
            return self.matrices[u]
        return self.matrices[-u].T


def autocov_matrices(values: np.ndarray, max_lag: int) -> np.ndarray:
    """Divisor-T autocovariance stack of a raw (T, n) array, lags 0..max_lag."""
    values = np.asarray(values, dtype=float)
    t_len = values.shape[0]
    out = np.empty((max_lag + 1, values.shape[1], values.shape[1]))
    for u in range(max_lag + 1):
        out[u] = values[: t_len - u].T @ values[u:] / t_len
    return out


def sample_autocov(series: MultivariateSeries, max_lag: int) -> AutocovSequence:
    """Sample C(u) of a centered series for u = 0..max_lag."""
    if not series.centered:
        raise NotCentered("center the series (or simulate a mean-zero model) first")
    if not 0 <= max_lag <= series.t_len - 1:
        raise LagOutOfRange(
            f"max_lag must lie in [0, T-1] = [0, {series.t_len - 1}], got {max_lag}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        stack = autocov_matrices(series.values, max_lag)
    if not np.all(np.isfinite(stack)):
        raise InvalidSeries("autocovariance overflows: series values are too large")
    return AutocovSequence(stack, series.t_len)


def expected_autocov(model, u: int, t_len: int) -> np.ndarray:
    """Exact mean of the divisor-T sample autocovariance under a known model.

    Equals ((T - |u|)/T) * Gamma(u) for |u| < T and the zero matrix beyond,
    where Gamma is the model autocovariance. Requires a model with closed-form
    Gamma (white noise, VAR(1), VMA).
    """
    if not model.has_closed_form:
        raise UnsupportedModel(
            f"model {model.kind!r} has no closed-form autocovariance"
        )
    if abs(u) >= t_len:
        return np.zeros((model.n_dim, model.n_dim))
    return (t_len - abs(u)) / t_len * model.gamma(u)
