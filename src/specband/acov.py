"""Sample autocovariance matrices and their exact model means.

The sample autocovariance uses the divisor-T convention

    C(u) = (1/T) * sum_{t=1}^{T-u} Z_t Z_{t+u}',   u >= 0,

with C(-u) = C(u)' filled by transpose rather than recomputed. Divisor T
(not T - u) keeps the Toeplitz nonnegative-definiteness behind PSD spectral
estimates; the matching finite-sample mean under a known model carries the
(T - |u|)/T factor.

``autocov_matrices`` computes every lag with a few matrix products instead of
one product per lag. The zero-padded series is cut into rows A_b of s time
points (s * n columns), and for each block offset k = 0..ceil(L/s)

    G_k = sum_b A_b' A_{b+k},   G_k[(p, i), (q, j)] = sum_b Z_{bs+p,i} Z_{(b+k)s+q,j},

so that C(u)[i, j] = (1/T) * sum_p G[(p, i), (p + u, j)] over the column
blocks [G_0 | ... | G_K], a strided diagonal sum read in place. The rows
A_b are never all held at once: the sums over b run a chunk of rows at a
time, through a window of the chunk's rows plus the K that the last offset
reaches past them, so the working set beyond the input is bounded whatever
T is. Only the chunks and the ceil(L/s) + 1 offsets are a Python loop.

Every BLAS call is sized to run on one thread: s * n <= 32 columns and 64
block rows per product, stacked into batched ``matmul`` calls of at most 64
products per offset, so each dgemm or syrk has m * n * k <= 2**16. On a
2-vCPU machine, OpenBLAS 0.3.31 ran dgemms of m * n * k = 2**19 on one
thread and of 2**20 on two, and a 128-column syrk (the k = 0 product) of
2**19 on two. On one thread the batching is faster too: one product per
offset over all rows took 2.7 ms against 1.6 ms at T = 65536, n = 1, L =
507, and 35 ms against 19.5 ms at T = 5 * 10**5, n = 2, L = 190; it won
only at T <= 16384 with n = 1. Threaded, it also left each Monte Carlo pool
worker running multi-threaded dgemms on cores the other worker needs: on
the 2-worker VAR(1) coverage plan (perfbench mc-var1) it took 4.3-5.3 s of
CPU and 3.0-3.3 s of wall time per operation, against 2.6-2.7 s and
2.0-2.2 s with the sizing above. The VAR(1) scan in ``models`` sizes its
dgemms by the same ``_BLOCK_COLS`` and ``_GEMM_SIZE``. Since no call needs a
second thread, ``cli`` starts numpy's OpenBLAS on one. The result differs
from the per-lag loop only in summation order: by at most 6e-16 normwise
relative for T up to 70001 and L up to 999.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import InvalidArgument, InvalidSeries
from .series import MultivariateSeries

_BLOCK_COLS = 32  # at most s * n columns per block row
_GEMM_SIZE = 2**16  # largest m * n * k of one dgemm: one BLAS thread
_BATCH_ROWS = _GEMM_SIZE // _BLOCK_COLS**2  # block rows summed by one dgemm (64)
_CHUNK_BATCHES = 64  # batch products held at once per offset


@dataclass(frozen=True)
class AutocovSequence:
    """C(u) for u = 0..max_lag <= T - 1, negative lags available via transpose."""

    matrices: np.ndarray  # (max_lag + 1, n, n)
    t_len: int

    def __post_init__(self):
        m = np.asarray(self.matrices, dtype=float)
        if m.ndim != 3 or m.shape[1] != m.shape[2]:
            raise InvalidArgument("autocovariance stack must have shape (L+1, n, n)")
        if not np.all(np.isfinite(m)):
            raise InvalidArgument("autocovariance contains non-finite entries")
        if m.shape[0] > self.t_len:
            raise InvalidArgument(f"{m.shape[0]} autocovariance lags exceed T = {self.t_len}")
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
            raise InvalidArgument(f"lag {u} beyond computed horizon {self.max_lag}")
        if u >= 0:
            return self.matrices[u]
        return self.matrices[-u].T


def autocov_matrices(values: np.ndarray, max_lag: int) -> np.ndarray:
    """Divisor-T autocovariance stack of a raw (T, n) array, lags 0..max_lag.

    Raises InvalidArgument unless 0 <= max_lag <= T - 1. The block rows are
    read through a window of ``_CHUNK_BATCHES`` batches plus the ceil(L/s)
    rows that the last offset reaches past them, filled from ``values`` (and
    zeros past T) one chunk of batches at a time, so the working set does
    not grow with T: at n = 2 and L = 190, a 1.05 MB window, a 512 KB
    product of the chunk's batch products, and the (s n, K + 1, s n) grams.
    Each offset's running sum, zero before the first chunk, is added to the
    chunk's first product: numpy sums axis 0 one row after another and
    0 + x = x, so the total is the same bit for bit as one sum over every
    batch.
    """
    values = np.asarray(values, dtype=float)
    t_len, n_dim = values.shape
    if not 0 <= max_lag <= t_len - 1:
        raise InvalidArgument(
            f"max_lag must lie in [0, T-1] = [0, {t_len - 1}], got {max_lag}"
        )
    span = max(1, min(max_lag + 1, _BLOCK_COLS // n_dim))  # s time points per row
    width = span * n_dim
    offsets = -(-max_lag // span) + 1  # block offsets k = 0..ceil(L/s)
    n_rows = -(-t_len // span)
    batch = min(_BATCH_ROWS, n_rows)
    n_batches = -(-n_rows // batch)  # whole batches; the padding is zeros
    chunk = min(n_batches, _CHUNK_BATCHES)
    window = np.empty((chunk * batch + offsets - 1, width))
    product = np.empty((chunk, width, width))
    grams = np.zeros((width, offsets, width))  # [(p, i), k, (q, j)]
    for first in range(0, n_batches, chunk):
        count = min(chunk, n_batches - first)  # batches in this chunk
        rows = count * batch
        points = window[: rows + offsets - 1].reshape(-1, n_dim)  # a row per time point
        start = first * batch * span
        filled = min(t_len - start, points.shape[0])
        points[:filled] = values[start : start + filled]
        points[filled:] = 0.0
        left = window[:rows].reshape(count, batch, width).transpose(0, 2, 1)
        part = product[:count]
        for k in range(offsets):
            total = grams[:, k, :]
            right = window[k : k + rows].reshape(count, batch, width)
            np.matmul(left, right, out=part)
            part[0] += total
            np.sum(part, axis=0, out=total)
    row, _, col = grams.strides
    diag = as_strided(  # diag[u, p, i, j] = grams[(p, i), (p + u, j)]
        grams,
        shape=(max_lag + 1, span, n_dim, n_dim),
        strides=(n_dim * col, n_dim * (row + col), row, col),
        writeable=False,
    )
    return diag.sum(axis=1) / t_len


def sample_autocov(series: MultivariateSeries, max_lag: int) -> AutocovSequence:
    """Sample C(u) of a centered series for u = 0..max_lag."""
    if not series.centered:
        raise InvalidArgument(
            "the series is not centered: pass it through center(), or read it "
            "with load_csv(..., centered=True)"
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
    Gamma (VAR(1) or VMA).
    """
    if abs(u) >= t_len:
        return np.zeros((model.n_dim, model.n_dim))
    return (t_len - abs(u)) / t_len * model.gamma(u)
