"""Lag-window spectral density matrix estimation.

The estimator is the finite weighted Fourier sum of sample autocovariances,

    fhat(lambda) = (1/2pi) sum_{|u| <= B} K(u/B) e^{-i u lambda} C(u).

Every grid the package evaluates has the form lambda_l = pi*l/M: the
theorem grid (M = B), ``uniform:<count>`` (M = count - 1), the 4x dense grid
(M = 4B) and the CLT pair {0, pi/2} (M = 2). ``estimate_matrices`` takes M
from the smallest step among 0 and the requested frequencies and raises
``InvalidArgument`` when a frequency lies more than 1e-12 from pi*l/M. On
such a grid the sum over positive lags is one real FFT of length 2M: since
e^{-i u pi l/M} has period 2M in u, the weighted lags w_u C(u), u = 1..L, are
folded into bins u mod 2M (this matters when L > 2M), transformed, and the
rows l of the requested frequencies kept. Negative lags enter as exact
transposes, P^H, which makes every output matrix Hermitian by construction.
The stack may carry leading axes (lags on axis -3), such as the replications
of one Monte Carlo run: the fold and the FFT then cover them all in one call,
and each estimate is bit for bit what a call on its own stack returns.

The direct sum ``_fourier_sum`` is the oracle only: ``expected_spectrum``
uses it at arbitrary frequencies, with the window size B and length T given
as integers, so the Monte Carlo centering stays independent of the
production FFT path it checks. Its phase matrix covers a block of
frequencies at a time: memory stays bounded, and every row is the same sum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .acov import AutocovSequence, expected_autocov
from .errors import InsufficientData, InvalidArgument, InvalidBandwidth
from .kernels import Kernel

_TWO_PI = 2.0 * np.pi
_ORACLE_BLOCK = 16  # frequencies per phase matrix in the direct sum: 130 KB at B = 507


@dataclass(frozen=True)
class Bandwidth:
    """Lag-window size B = round(c * T^b), clamped to [2, T-1]."""

    t_len: int
    b_exponent: float = 0.4
    c_const: float = 1.0

    def __post_init__(self):
        if not 0.0 < self.b_exponent < 1.0:
            raise InvalidBandwidth("bandwidth exponent must lie in (0, 1)")
        if not (math.isfinite(self.c_const) and self.c_const > 0.0):
            raise InvalidBandwidth("bandwidth constant must be finite and positive")
        if self.t_len < 3:
            raise InsufficientData("bandwidth needs T >= 3")

    @property
    def value(self) -> int:
        # clamp before rounding: c * T^b may overflow to inf for a huge c
        raw = min(self.c_const * self.t_len**self.b_exponent, self.t_len - 1)
        return max(round(raw), 2)


@dataclass(frozen=True)
class SpectralGrid:
    """Hermitian n x n complex matrices on an ordered frequency grid.

    ``matrices`` has shape (..., n_freqs, n, n). Leading axes stack estimates
    that share the grid, bandwidth and T, such as the replications of one
    Monte Carlo cell, so a statistic takes them in one call; ``entry`` keeps
    those axes. ``to_dict`` gives each matrix entry as a [real, imag] pair.
    """

    freqs: np.ndarray
    matrices: np.ndarray  # (..., len(freqs), n, n) complex
    bandwidth: int
    kernel_name: str
    t_len: int

    def __post_init__(self):
        freqs = np.asarray(self.freqs, dtype=float)
        matrices = np.asarray(self.matrices, dtype=complex)
        shape = matrices.shape
        if len(shape) < 3 or shape[-3:] != (freqs.size, shape[-1], shape[-1]):
            raise InvalidArgument("matrices must be (..., n_freqs, n, n)")
        freqs.setflags(write=False)
        matrices.setflags(write=False)
        object.__setattr__(self, "freqs", freqs)
        object.__setattr__(self, "matrices", matrices)

    @property
    def n_dim(self) -> int:
        return self.matrices.shape[-1]

    def entry(self, i: int, j: int) -> np.ndarray:
        """The (i, j) entry across the grid (0-based indices), shape (..., n_freqs)."""
        return self.matrices[..., i, j]

    def to_dict(self) -> dict:
        return {
            "freqs": self.freqs,
            "bandwidth": self.bandwidth,
            "kernel": self.kernel_name,
            "t_len": self.t_len,
            "matrices": np.stack([self.matrices.real, self.matrices.imag], axis=-1),
        }


def theorem_grid(bandwidth: Bandwidth | int) -> np.ndarray:
    """The B + 1 frequencies pi*l/B, l = 0..B, over which maxima are taken."""
    b_val = bandwidth.value if isinstance(bandwidth, Bandwidth) else int(bandwidth)
    if b_val < 2:
        raise InvalidArgument("grid needs bandwidth >= 2")
    return np.pi * np.arange(b_val + 1) / b_val


def _check_freqs(freqs) -> np.ndarray:
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    if not np.all((freqs >= 0.0) & (freqs <= np.pi + 1e-12)):  # NaN fails too
        raise InvalidArgument("frequencies must lie in [0, pi]")
    return freqs


def _fourier_sum(gammas: np.ndarray, weights: np.ndarray, freqs: np.ndarray) -> np.ndarray:
    """(1/2pi) * sum_u w_u e^{-iu lambda} G_u with G_{-u} = G_u' implied.

    gammas: (L+1, n, n) for lags 0..L; weights: (L+1,).
    """
    lags = np.arange(1, gammas.shape[0])
    weighted = weights[1:, None, None] * gammas[1:]
    lag0 = weights[0] * gammas[0]
    out = np.empty((freqs.size, *gammas.shape[1:]), dtype=complex)
    for start in range(0, freqs.size, _ORACLE_BLOCK):
        block = slice(start, start + _ORACLE_BLOCK)
        phases = np.exp(-1j * np.outer(freqs[block], lags))  # (block, L)
        pos = np.einsum("fl,lij->fij", phases, weighted)
        neg = np.einsum("fl,lji->fij", phases.conj(), weighted)
        out[block] = (lag0 + pos + neg) / _TWO_PI
    return out


def _grid_rows(freqs: np.ndarray) -> tuple:
    """(M, l) with freqs = pi*l/M, where pi/M is the smallest step of 0 and freqs."""
    gaps = np.diff(np.sort(np.concatenate(([0.0], freqs))))
    gaps = gaps[gaps > 0]  # np.unique would import numpy.ma
    # the FFT has M + 1 bins: capping M by the request makes frequencies on a
    # finer step fall off the grid instead of allocating without limit
    max_m = 4 * freqs.size + 4096
    step = np.fmax(gaps.min(), np.pi / max_m) if gaps.size else np.pi
    m = int(round(np.pi / step))
    rows = np.rint(freqs * (m / np.pi))
    off = ~(np.abs(freqs - np.pi * rows / m) <= 1e-12) | (rows < 0) | (rows > m)
    if np.any(off):
        raise InvalidArgument(
            f"frequency {float(freqs[np.argmax(off)])!r} is not on the grid pi*l/{m}, "
            f"l = 0..{m}"
        )
    return m, rows.astype(int)


def estimate_matrices(
    acov_stack: np.ndarray, kernel: Kernel, b_value: int, freqs: np.ndarray
) -> np.ndarray:
    """Core estimator on a raw autocovariance stack (..., lags 0..max_lag, n, n).

    ``freqs`` must lie on a grid pi*l/M (module docstring); returns the
    (..., F, n, n) complex estimates by one real FFT of length 2M per stack.
    """
    freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
    m, rows = _grid_rows(freqs)
    max_lag = min(acov_stack.shape[-3] - 1, b_value)
    weights = kernel(np.arange(max_lag + 1) / b_value)
    weighted = weights[:, None, None] * acov_stack[..., : max_lag + 1, :, :]
    # e^{-i u pi l/M} has period 2M in u: lag u goes to bin u mod 2M
    folded = np.zeros((*weighted.shape[:-3], 2 * m, *weighted.shape[-2:]))
    bins = np.arange(1, max_lag + 1) % (2 * m)
    np.add.at(folded, (..., bins, slice(None), slice(None)), weighted[..., 1:, :, :])
    pos = np.fft.rfft(folded, axis=-3)
    del folded  # lowers the call's peak memory on a stack of replications
    pos = pos[..., rows, :, :]
    # in place, in the order of the sum (w_0 C(0) + P) + P^H
    herm = pos.conj().swapaxes(-1, -2)
    pos += weighted[..., :1, :, :]
    pos += herm
    pos /= _TWO_PI
    return pos


def estimate_spectrum(
    acov: AutocovSequence, kernel: Kernel, bandwidth: Bandwidth, freqs
) -> SpectralGrid:
    """Evaluate the lag-window estimator on the given frequencies."""
    freqs = _check_freqs(freqs)
    b_val = bandwidth.value
    if acov.max_lag < b_val:
        raise InvalidArgument(
            f"autocovariances cover lags up to {acov.max_lag}, need {b_val}"
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
    model, kernel: Kernel, b_val: int, t_len: int, freqs
) -> SpectralGrid:
    """Exact finite-sample mean of the estimator under a known model.

    With B = b_val and T = t_len, uses E C(u) = ((T - |u|)/T) Gamma(u); it is
    the centering oracle for Monte Carlo verification.
    """
    freqs = _check_freqs(freqs)
    if not 1 <= b_val < t_len:
        raise InvalidArgument(f"window size {b_val} must lie in [1, {t_len - 1}]")
    gammas = np.stack(
        [expected_autocov(model, u, t_len) for u in range(b_val + 1)]
    )
    weights = np.atleast_1d(kernel(np.arange(b_val + 1) / b_val))
    matrices = _fourier_sum(gammas, weights, freqs)
    return SpectralGrid(
        freqs=freqs,
        matrices=matrices,
        bandwidth=b_val,
        kernel_name=kernel.name,
        t_len=t_len,
    )


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
