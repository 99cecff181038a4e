"""Independent reference computations for the benchmark's correctness checks.

Nothing here calls the package's estimator, statistic or kernel code: the
lag-window sum is evaluated as explicit real cosine/sine sums over lags, the
autocovariances as one dot product per (lag, i, j), and the kernel weights,
kappa values and extreme-value constants from their textbook formulas. The
package is used only for what the checks are about to compare against: the
documented replication stream (``ProcessModel.simulate_values`` on
``default_rng([seed, cell, rep])``), the public ``simulate``, and the models'
closed-form Gamma(u) and spectral density (the oracles the experiments centre
and normalise by).
"""

from __future__ import annotations

import math

import numpy as np

# Kernel metadata by formula: K(a) on a = |u|/B in [0, 1], and kappa = int K^2.
KERNEL_WEIGHTS = {
    "bartlett": lambda a: 1.0 - a,
    "truncated": lambda a: np.ones_like(a),
}
KAPPA = {"bartlett": 2.0 / 3.0, "truncated": 2.0}

# Normwise relative tolerance for estimates and band half-widths.
REL_TOL = 1e-12
# Absolute-plus-relative tolerance for recomputed Monte Carlo statistics.
STAT_TOL = 1e-8


def bandwidth(t_len: int, b_exponent: float, c_const: float) -> int:
    """B = round(c T^b), clamped to [2, T - 1]."""
    return min(max(int(round(c_const * t_len**b_exponent)), 2), t_len - 1)


def theorem_freqs(b_val: int) -> np.ndarray:
    return np.pi * np.arange(b_val + 1) / b_val


def autocov_direct(x: np.ndarray, max_lag: int) -> np.ndarray:
    """C(u)[i, j] = (1/T) sum_t x[t, i] x[t + u, j], one dot product each."""
    t_len, n = x.shape
    cols = [np.ascontiguousarray(x[:, i]) for i in range(n)]
    out = np.empty((max_lag + 1, n, n))
    for u in range(max_lag + 1):
        for i in range(n):
            head = cols[i][: t_len - u]
            for j in range(n):
                out[u, i, j] = np.dot(head, cols[j][u:]) / t_len
    return out


def lag_window(acov: np.ndarray, kernel: str, b_val: int, freqs) -> np.ndarray:
    """(1/2pi) sum_{|u|<=L} K(u/B) e^{-iu lam} C(u), C(-u) = C(u)', as real sums.

    Pairing lags u and -u gives cos(u lam) (C_u + C_u') for the real part and
    sin(u lam) (C_u' - C_u) for the imaginary part.
    """
    freqs = np.asarray(freqs, dtype=float)
    lags = np.arange(acov.shape[0])
    w = KERNEL_WEIGHTS[kernel](lags / b_val)
    c_pos = acov[1:]
    c_t = np.transpose(c_pos, (0, 2, 1))
    angle = np.outer(freqs, lags[1:])
    wc = np.cos(angle) * w[1:]
    ws = np.sin(angle) * w[1:]
    real = w[0] * acov[0][None] + np.tensordot(wc, c_pos + c_t, axes=(1, 0))
    imag = np.tensordot(ws, c_t - c_pos, axes=(1, 0))
    return (real + 1j * imag) / (2.0 * np.pi)


def estimate_from_values(values, kernel: str, b_exponent: float, c_const: float):
    """Reference theorem-grid estimate of a raw series, after mean removal."""
    x = values - values.mean(axis=0)
    t_len = x.shape[0]
    b_val = bandwidth(t_len, b_exponent, c_const)
    freqs = theorem_freqs(b_val)
    acov = autocov_direct(x, min(b_val, t_len - 1))
    return b_val, freqs, lag_window(acov, kernel, b_val, freqs)


def rel_error(value, ref) -> float:
    """max |value - ref| / max |ref| over the whole array."""
    value = np.asarray(value)
    ref = np.asarray(ref)
    if value.shape != ref.shape:
        return math.inf
    scale = float(np.max(np.abs(ref)))
    return float(np.max(np.abs(value - ref))) / (scale if scale > 0.0 else 1.0)


def estimate_json_error(payload: dict, b_val: int, freqs, ref) -> float:
    """Relative error of a ``specband estimate`` JSON against the reference."""
    if payload.get("bandwidth") != b_val:
        return math.inf
    if rel_error(np.array(payload["freqs"]), freqs) > REL_TOL:
        return math.inf
    mats = np.array(payload["matrices"], dtype=float)  # (F, n, n, 2)
    return rel_error(mats[..., 0] + 1j * mats[..., 1], ref)


def centering(b_val: int) -> float:
    return 2.0 * math.log(b_val) - math.log(math.pi * math.log(b_val))


def gumbel_quantile(level: float) -> float:
    return -2.0 * math.log(-math.log(level))


def band_half_widths(ref, kernel: str, b_val: int, t_len: int, level: float, entries):
    """Bonferroni uniform-band half-widths from the plug-in diagonals."""
    split = 1.0 - (1.0 - level) / len(entries)
    threshold = gumbel_quantile(split) + centering(b_val)
    diag = np.real(np.einsum("fii->fi", ref))
    return {
        (i, j): np.sqrt(b_val / t_len * KAPPA[kernel] * diag[:, i] * diag[:, j] * threshold)
        for i, j in entries
    }


def bands_json_error(payload: dict, ref, kernel: str, b_val: int, t_len: int) -> float:
    """Worst relative error of a ``specband bands`` JSON (estimates and widths)."""
    entries = [(e["i"] - 1, e["j"] - 1) for e in payload["entries"]]
    halves = band_half_widths(ref, kernel, b_val, t_len, payload["level"], entries)
    worst = 0.0
    for entry in payload["entries"]:
        i, j = entry["i"] - 1, entry["j"] - 1
        est = np.array(entry["estimate_re"]) + 1j * np.array(entry["estimate_im"])
        worst = max(
            worst,
            rel_error(est, ref[:, i, j]),
            rel_error(np.array(entry["half_width"]), halves[(i, j)]),
        )
    return worst


def expected_estimate(model, kernel: str, b_val: int, t_len: int, freqs):
    """Exact mean of the estimator: lag window over ((T - u)/T) Gamma(u)."""
    max_lag = min(b_val, t_len - 1)
    gammas = np.stack([(t_len - u) / t_len * model.gamma(u) for u in range(max_lag + 1)])
    return lag_window(gammas, kernel, b_val, freqs)


def replication(model, plan: dict, cell: int, rep: int):
    """Recompute one Monte Carlo replication of a report from its RNG stream.

    Returns (B, freqs, estimate, expected estimate) for grid cell ``cell``.
    Replication ``rep`` of cell ``cell`` draws from default_rng([seed, cell, rep])
    and is estimated on the raw (mean-zero model) values.
    """
    t_len = plan["t_grid"][cell]
    b_val = bandwidth(t_len, plan["b_exponent"], plan["c_const"])
    freqs = theorem_freqs(b_val)
    rng = np.random.default_rng([plan["seed"], cell, rep])
    values = model.simulate_values(t_len, rng)
    acov = autocov_direct(values, min(b_val, t_len - 1))
    est = lag_window(acov, plan["kernel"], b_val, freqs)
    center = expected_estimate(model, plan["kernel"], b_val, t_len, freqs)
    return b_val, freqs, est, center


def gumbel_stat(model, plan: dict, cell: int, rep: int) -> float:
    """Centered max of (T/B) |fhat_ij - E fhat_ij|^2 / (kappa f_ii f_jj)."""
    t_len = plan["t_grid"][cell]
    i, j = plan["entry"]
    b_val, freqs, est, center = replication(model, plan, cell, rep)
    truth = model.spectral_density(freqs)
    dev2 = np.abs(est[:, i, j] - center[:, i, j]) ** 2
    scale = KAPPA[plan["kernel"]] * truth[:, i, i].real * truth[:, j, j].real
    return float(np.max(t_len / b_val * dev2 / scale)) - centering(b_val)


def coverage_flag(model, plan: dict, cell: int, rep: int):
    """(joint coverage flag, smallest relative margin) for one replication."""
    t_len = plan["t_grid"][cell]
    n = model.n_dim
    entries = [(a, b) for a in range(n) for b in range(a, n)]
    b_val, freqs, est, center = replication(model, plan, cell, rep)
    halves = band_half_widths(est, plan["kernel"], b_val, t_len, plan["level"], entries)
    margin = math.inf
    covered = True
    for (i, j), half in halves.items():
        dev = np.abs(est[:, i, j] - center[:, i, j])
        covered = covered and bool(np.all(dev <= half))
        margin = min(margin, float(np.min(np.abs(dev - half) / half)))
    return covered, margin
