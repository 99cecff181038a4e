"""Lag-window spectral density matrix estimation.

The estimator is the finite weighted Fourier sum of sample autocovariances,

    fhat(lambda) = (1/2pi) sum_{|u| <= B} K(u/B) e^{-i u lambda} C(u),

evaluated by direct summation (desk-scale series, arbitrary frequency grids;
an FFT path is a possible later optimization). Negative lags enter as exact
transposes, which makes every output matrix Hermitian by construction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .acov import AutocovSequence, expected_autocov
from .errors import BandwidthTooLarge, InsufficientData, UnsupportedModel
from .kernels import Kernel

__all__ = [
    "Bandwidth",
    "SpectralGrid",
    "estimate_spectrum",
    "theorem_grid",
    "expected_spectrum",
    "true_spectrum",
    "spectrum_from_gamma",
]

_TWO_PI = 2.0 * np.pi


@dataclass(frozen=True)
class Bandwidth:
    """Lag-window size B = round(c * T^b), clamped to [2, T-1]."""

    t_len: int
    b_exponent: float = 0.4
    c_const: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.b_exponent < 1.0:
            raise ValueError("bandwidth exponent must lie in (0, 1)")
        if self.c_const <= 0.0:
            raise ValueError("bandwidth constant must be positive")
        if self.t_len < 3:
            raise InsufficientData("bandwidth needs T >= 3")

    @property
    def value(self) -> int:
        raw = int(round(self.c_const * self.t_len**self.b_exponent))
        return min(max(raw, 2), self.t_len - 1)


@dataclass(frozen=True)
class SpectralGrid:
    """Hermitian n x n complex matrices on an ordered frequency grid."""

    freqs: np.ndarray
    matrices: np.ndarray  # (len(freqs), n, n) complex
    bandwidth: int
    kernel_name: str
    t_len: int

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        matrices = np.asarray(self.matrices, dtype=complex)
        if matrices.shape != (freqs.size, matrices.shape[1], matrices.shape[1]):
            raise ValueError("matrices must be (n_freqs, n, n)")
        freqs.setflags(write=False)
        matrices.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "matrices", matrices)

    @property
    def n_dim(self) -> int:
        return self.matrices.shape[1]

    def entry(self, i: int, j: int) -> np.ndarray:
        """The (i, j) entry across the grid (0-based indices)."""
        return self.matrices[:, i, j]

    def diagonal(self) -> np.ndarray:
        """Real diagonal entries across the grid, shape (n_freqs, n)."""
        return np.real(np.einsum("fii->fi", self.matrices))

    def to_dict(self) -> dict:
        return {
            "freqs": [float(f) for f in self.freqs],
            "bandwidth": int(self.bandwidth),
            "kernel": self.kernel_name,
            "t_len": int(self.t_len),
            "matrices": [
                [[[float(z.real), float(z.imag)] for z in row] for row in mat]
                for mat in self.matrices
            ],
        }


def theorem_grid(bandwidth: Bandwidth | int) -> np.ndarray:
    """The B + 1 frequencies pi*l/B, l = 0..B, over which maxima are taken."""
    b_val = bandwidth.value if isinstance(bandwidth, Bandwidth) else int(bandwidth)
    if b_val < 2:
        raise ValueError("grid needs bandwidth >= 2")
    return np.pi * np.arange(b_val + 1) / b_val


def _check_freqs(freqs) -> np.ndarray:
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if np.any(freqs < 0.0) or np.any(freqs > np.pi + 1e-12):
        raise ValueError("frequencies must lie in [0, pi]")
    return freqs


def _fourier_sum(gammas: np.ndarray, weights: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """(1/2pi) * sum_u w_u e^{-iu lambda} G_u with G_{-u} = G_u' implied.

    gammas: (L+1, n, n) for lags 0..L; weights: (L+1,).
    """
    lags = np.arange(1, gammas.shape[0])
    phases = np.exp(-1j * np.outer(freqs, lags))  # (F, L)
    weighted = weights[1:, None, None] * gammas[1:]
    pos = np.einsum("fl,lij->fij", phases, weighted)
    neg = np.einsum("fl,lji->fij", phases.conj(), weighted)
    out = (weights[0] * gammas[0] + pos + neg) / _TWO_PI
    return out


def estimate_matrices(
    acov_stack: np.ndarray, kernel: Kernel, b_value: int, freqs: np.ndarray
) -> np.ndarray:
    """Core estimator on a raw autocovariance stack (lags 0..max_lag)."""
    max_lag = min(acov_stack.shape[0] - 1, b_value)
    weights = kernel(np.arange(max_lag + 1) / b_value)
    return _fourier_sum(acov_stack[: max_lag + 1], np.atleast_1d(weights), freqs)


def estimate_spectrum(
    acov: AutocovSequence, kernel: Kernel, bandwidth: Bandwidth, freqs
) -> SpectralGrid:
    """Evaluate the lag-window estimator on the given frequencies."""
    freqs = _check_freqs(freqs)
    b_val = bandwidth.value
    if b_val >= acov.t_len:
        raise BandwidthTooLarge(f"bandwidth {b_val} >= series length {acov.t_len}")
    needed = min(b_val, acov.t_len - 1)
    if acov.max_lag < needed:
        raise ValueError(
            f"autocovariances cover lags up to {acov.max_lag}, need {needed}"
        )
    matrices = estimate_matrices(acov.matrices, kernel, b_val, freqs)
    return SpectralGrid(
        freqs=freqs,
        matrices=matrices,
        bandwidth=b_val,
        kernel_name=kernel.name,
        t_len=acov.t_len,
    )


def expected_spectrum(
    model, kernel: Kernel, bandwidth: Bandwidth, freqs, t_len: int | None = None
) -> SpectralGrid:
    """Exact finite-sample mean of the estimator under a known model.

    Uses E C(u) = ((T - |u|)/T) Gamma(u); serves as the centering oracle for
    Monte Carlo verification.
    """
    freqs = _check_freqs(freqs)
    t_len = bandwidth.t_len if t_len is None else t_len
    b_val = bandwidth.value
    if not model.has_closed_form:
        raise UnsupportedModel(f"model {model.kind!r} has no closed-form Gamma(u)")
    max_lag = min(b_val, t_len - 1)
    gammas = np.stack(
        [expected_autocov(model, u, t_len) for u in range(max_lag + 1)]
    )
    weights = np.atleast_1d(kernel(np.arange(max_lag + 1) / b_val))
    matrices = _fourier_sum(gammas, weights, freqs)
    return SpectralGrid(
        freqs=freqs,
        matrices=matrices,
        bandwidth=b_val,
        kernel_name=kernel.name,
        t_len=t_len,
    )


def spectrum_from_gamma(model, freqs, tail: int = 2000) -> np.ndarray:
    """Reference spectrum by direct Fourier summation of Gamma(u) (oracle path)."""
    freqs = _check_freqs(freqs)
    gammas = np.stack([model.gamma(u) for u in range(tail + 1)])
    weights = np.ones(tail + 1)
    return _fourier_sum(gammas, weights, freqs)


def true_spectrum(model, freqs) -> SpectralGrid:
    """Closed-form spectral density matrix of a known model on [0, pi]."""
    freqs = _check_freqs(freqs)
    matrices = model.spectral_density(freqs)
    return SpectralGrid(
        freqs=freqs,
        matrices=matrices,
        bandwidth=0,
        kernel_name="none",
        t_len=0,
    )
