import math
from dataclasses import replace

import numpy as np
import pytest

from specband.errors import BandUndefined, DegenerateSpectrum, InvalidLevel
from specband.inference import (
    gumbel_cdf,
    gumbel_quantile,
    max_deviation,
    omega_factor,
    pointwise_ci,
    uniform_band,
)
from specband.kernels import get_kernel
from specband.series import _jsonable
from specband.spectral import SpectralGrid, theorem_grid

BART = get_kernel("bartlett")
TWO_PI = 2.0 * np.pi


def _flat_grid(b_val, t_len, value=1.0 / TWO_PI, n=1):
    freqs = theorem_grid(b_val)
    mats = np.broadcast_to(
        value * np.eye(n, dtype=complex), (freqs.size, n, n)
    ).copy()
    return SpectralGrid(freqs, mats, b_val, "bartlett", t_len)


def test_gumbel_cdf_values():
    assert gumbel_cdf(0.0) == pytest.approx(math.exp(-1.0), rel=1e-15, abs=0.0)
    assert gumbel_cdf(200.0) == pytest.approx(1.0)
    assert gumbel_cdf(-50.0) == pytest.approx(0.0, abs=1e-12)


def test_gumbel_cdf_mean_is_twice_euler():
    # numeric integration of x against the law: 2 * Euler-Mascheroni
    xs = np.linspace(-15.0, 60.0, 400001)
    cdf = gumbel_cdf(xs)
    mean = float(np.sum((xs[:-1] + np.diff(xs) / 2) * np.diff(cdf)))
    assert mean == pytest.approx(2.0 * np.euler_gamma, abs=1e-4)
    assert mean == pytest.approx(1.154431, abs=1e-3)


def test_gumbel_quantile_values():
    assert gumbel_quantile(math.exp(-1.0)) == pytest.approx(0.0, abs=1e-12)
    # -2 log(-log 0.95), confirmed by the cdf round-trip below
    assert gumbel_quantile(0.95) == pytest.approx(5.94039, abs=1e-5)
    for p in (0.01, 0.5, 0.99):
        assert gumbel_cdf(gumbel_quantile(p)) == pytest.approx(p, abs=1e-12)


def test_gumbel_quantile_rejects_bad_level():
    for level in (0.0, 1.0, -0.2, 1.5):
        with pytest.raises(InvalidLevel):
            gumbel_quantile(level)


def test_omega_factor():
    assert omega_factor(0.0) == 2.0
    assert omega_factor(np.pi) == 2.0
    assert omega_factor(2 * np.pi) == 2.0
    assert omega_factor(np.pi / 2) == 1.0
    assert omega_factor(1.0) == 1.0


def _raw(stat, b_val):
    """The uncentered maximum: stat + 2 log B - log(pi log B)."""
    return stat + 2.0 * math.log(b_val) - math.log(math.pi * math.log(b_val))


def test_max_deviation_center_equals_estimate():
    est = _flat_grid(10, 1000)
    stat = max_deviation(est, est, est, BART, (0, 0))
    assert _raw(stat, 10) == pytest.approx(0.0, abs=1e-15)
    # -(2 ln 10 - ln(pi ln 10)) by direct arithmetic
    assert stat == pytest.approx(-2.6264079, abs=1e-6)


def test_max_deviation_single_spike():
    t_len, b_val = 1000, 10  # T/B = 100
    est = _flat_grid(b_val, t_len)
    center = _flat_grid(b_val, t_len)
    d = 0.01
    mats = est.matrices.copy()
    mats[3, 0, 0] += d
    est2 = SpectralGrid(est.freqs, mats, b_val, "bartlett", t_len)
    stat = max_deviation(est2, center, center, BART, (0, 0))
    expected = 100.0 * d**2 / ((2.0 / 3.0) * (1.0 / TWO_PI) ** 2)
    assert _raw(stat, b_val) == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_max_deviation_imaginary_spike_same_value():
    t_len, b_val = 1000, 10
    base = _flat_grid(b_val, t_len, n=2)
    d = 0.02
    re_m = base.matrices.copy()
    re_m[4, 0, 1] += d
    re_m[4, 1, 0] += d
    im_m = base.matrices.copy()
    im_m[4, 0, 1] += 1j * d
    im_m[4, 1, 0] -= 1j * d
    re_stat = max_deviation(
        SpectralGrid(base.freqs, re_m, b_val, "bartlett", t_len),
        base, base, BART, (0, 1),
    )
    im_stat = max_deviation(
        SpectralGrid(base.freqs, im_m, b_val, "bartlett", t_len),
        base, base, BART, (0, 1),
    )
    assert _raw(re_stat, b_val) == pytest.approx(
        _raw(im_stat, b_val), rel=1e-12, abs=0.0
    )


def test_max_deviation_grid_mismatch():
    a = _flat_grid(10, 1000)
    b = _flat_grid(8, 1000)
    with pytest.raises(ValueError):
        max_deviation(a, b, a, BART, (0, 0))


def test_max_deviation_degenerate_spectrum():
    est = _flat_grid(10, 1000)
    bad = SpectralGrid(est.freqs, np.zeros_like(est.matrices), 10, "bartlett", 1000)
    with pytest.raises(DegenerateSpectrum):
        max_deviation(est, est, bad, BART, (0, 0))


def _random_stack(rng, reps, n, b_val=16, t_len=1024):
    """``reps`` random Hermitian positive definite grids stacked on axis 0."""
    freqs = theorem_grid(b_val)
    shape = (reps, freqs.size, n, n)
    a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mats = a @ a.conj().transpose(0, 1, 3, 2) + 0.1 * np.eye(n)
    return SpectralGrid(freqs, mats, b_val, "bartlett", t_len)


@pytest.mark.parametrize("n, entry", [(1, (0, 0)), (2, (1, 1)), (2, (0, 1))])
def test_stacked_statistics_equal_single_grid_calls(n, entry):
    # oracle: one call per replication, as the Monte Carlo loop once made
    rng = np.random.default_rng(40 + n)
    ests = _random_stack(rng, 24, n)
    center = replace(ests, matrices=ests.matrices.mean(axis=0))
    denom = _random_stack(rng, 1, n)
    denom = replace(denom, matrices=denom.matrices[0])
    entries = [(i, j) for i in range(n) for j in range(i, n)]
    stat = max_deviation(ests, center, denom, BART, entry)
    band = uniform_band(ests, BART, 0.9, entries, bonferroni=True)
    assert stat.shape == (24,)
    for r in range(24):
        one = replace(ests, matrices=ests.matrices[r])
        single = max_deviation(one, center, denom, BART, entry)
        assert isinstance(single, float)
        assert single == stat[r]
        single_band = uniform_band(one, BART, 0.9, entries, bonferroni=True)
        for stacked_e, single_e in zip(band.entries, single_band.entries):
            np.testing.assert_array_equal(stacked_e.half_width[r], single_e.half_width)
            np.testing.assert_array_equal(stacked_e.estimate[r], single_e.estimate)
    assert band.metadata == single_band.metadata


def test_stacked_degenerate_spectrum_names_first_bad_frequency():
    ests = _random_stack(np.random.default_rng(9), 20, 2)
    mats = ests.matrices.copy()
    k = 5
    mats[13, k, 1, 1] = -1.0  # the only bad replication, bad at k and later
    mats[13, k + 3, 1, 1] = 0.0
    bad = replace(ests, matrices=mats)
    for band in (uniform_band, pointwise_ci):
        with pytest.raises(DegenerateSpectrum) as exc:
            band(bad, BART, 0.95, [(0, 0), (0, 1), (1, 1)])
        assert exc.value.freq == bad.freqs[k]
        assert str(exc.value) == (
            f"nonpositive spectral diagonal at frequency {bad.freqs[k]:.6f}"
        )


def test_uniform_band_flat_oracle():
    # m=1, level=0.95, B=32, T=4096, kappa=2/3, flat fhat = 1/(2 pi)
    est = _flat_grid(32, 4096)
    band = uniform_band(est, BART, 0.95, [(0, 0)])
    threshold = -2.0 * math.log(-math.log(0.95)) + 2.0 * math.log(32.0) - math.log(
        math.pi * math.log(32.0)
    )
    expected = math.sqrt(
        (32.0 / 4096.0) * (2.0 / 3.0) * (1.0 / TWO_PI) ** 2 * threshold
    )
    np.testing.assert_allclose(band.entries[0].half_width, expected, rtol=1e-10)
    assert band.bonferroni_m == 1
    assert band.metadata["per_entry_level"] == 0.95


def test_uniform_band_bonferroni_split():
    est = _flat_grid(32, 4096, n=2)
    entries = [(0, 0), (0, 1), (1, 1)]
    band = uniform_band(est, BART, 0.95, entries, bonferroni=True)
    assert band.bonferroni_m == 3
    assert band.metadata["per_entry_level"] == pytest.approx(1.0 - 0.05 / 3.0)
    plain = uniform_band(est, BART, 0.95, entries, bonferroni=False)
    # Bonferroni split widens every entry
    for split, single in zip(band.entries, plain.entries):
        assert np.all(split.half_width > single.half_width)


def test_uniform_band_monotone_in_level():
    est = _flat_grid(32, 4096)
    widths = [
        uniform_band(est, BART, lvl, [(0, 0)]).entries[0].half_width[0]
        for lvl in (0.80, 0.90, 0.95, 0.99)
    ]
    assert all(a < b for a, b in zip(widths, widths[1:]))


def test_uniform_band_scale_equivariance():
    est = _flat_grid(32, 4096)
    scaled = SpectralGrid(est.freqs, 9.0 * est.matrices, 32, "bartlett", 4096)
    a = uniform_band(est, BART, 0.95, [(0, 0)]).entries[0].half_width
    b = uniform_band(scaled, BART, 0.95, [(0, 0)]).entries[0].half_width
    np.testing.assert_allclose(b, 9.0 * a, rtol=1e-12)


def test_uniform_band_undefined_at_tiny_bandwidth():
    est = _flat_grid(2, 1000)
    with pytest.raises(BandUndefined):
        uniform_band(est, BART, 0.05, [(0, 0)])


def test_uniform_band_rejects_bad_level():
    est = _flat_grid(32, 4096)
    with pytest.raises(InvalidLevel):
        uniform_band(est, BART, 1.5, [(0, 0)])


def test_band_to_dict_one_based():
    est = _flat_grid(16, 1024, n=2)
    band = uniform_band(est, BART, 0.9, [(0, 1)])
    d = _jsonable(band)
    assert d["entries"][0]["i"] == 1 and d["entries"][0]["j"] == 2
    e = d["entries"][0]
    np.testing.assert_allclose(
        np.array(e["upper"]) - np.array(e["lower"]),
        2.0 * np.array(e["half_width"]),
        rtol=1e-12,
    )


def test_pointwise_ci_z_value_and_omega():
    est = _flat_grid(32, 4096)
    band = pointwise_ci(est, BART, 0.95, [(0, 0)])
    half = band.entries[0].half_width
    expected_mid = 1.959964 * math.sqrt(
        (32.0 / 4096.0) * (2.0 / 3.0) * (1.0 / TWO_PI) ** 2
    )
    assert half[16] == pytest.approx(expected_mid, abs=1e-6)
    # boundary variance doubling: width ratio sqrt(2)
    assert half[0] / half[16] == pytest.approx(math.sqrt(2.0), rel=1e-12, abs=0.0)
    assert band.method == "clt_pointwise" and band.bonferroni_m == 1
    assert band.metadata["per_entry_level"] == 0.95


def test_pointwise_z_matches_ndtri():
    # (B/T) kappa f^2 = 1 exactly, so the half-width away from 0 and pi is z
    from scipy.special import ndtri

    est = _flat_grid(32, 64, value=1.0)
    levels = np.linspace(0.001, 0.999, 999)
    trunc = get_kernel("truncated")
    z = [pointwise_ci(est, trunc, lv, [(0, 0)]).entries[0].half_width[1] for lv in levels]
    ref = ndtri(0.5 * (1.0 + levels))
    # the bisection on the upper tail loses relative accuracy as z -> 0
    np.testing.assert_allclose(z, ref, rtol=1e-13, atol=0.0)
    np.testing.assert_allclose(np.array(z)[levels >= 0.5], ref[levels >= 0.5], rtol=1e-15, atol=0)


@pytest.mark.parametrize("n, entry", [(1, (0, 0)), (2, (1, 1)), (2, (0, 1))])
def test_pointwise_ci_matches_closed_form(n, entry):
    # oracle: z sqrt((B/T) omega kappa fhat_ii fhat_jj), one frequency at a time
    from scipy.special import ndtri

    rng = np.random.default_rng(70 + n)
    i, j = entry
    for _ in range(20):
        b_val = int(rng.integers(4, 64))
        t_len = int(rng.integers(4 * b_val, 100 * b_val))
        level = float(rng.uniform(0.5, 0.999))
        est = _random_stack(rng, 1, n, b_val, t_len)
        est = replace(est, matrices=est.matrices[0])
        band = pointwise_ci(est, BART, level, [entry])
        z = ndtri(0.5 * (1.0 + level))
        expected = [
            z * math.sqrt(
                (b_val / t_len) * float(omega_factor(freq)) * BART.kappa
                * est.matrices[k, i, i].real * est.matrices[k, j, j].real
            )
            for k, freq in enumerate(est.freqs)
        ]
        np.testing.assert_allclose(band.entries[0].half_width, expected, rtol=1e-14)
        np.testing.assert_array_equal(band.entries[0].estimate, est.entry(i, j))


_BANDS = pytest.mark.parametrize(
    "band", [uniform_band, pointwise_ci], ids=lambda f: f.__name__
)


@_BANDS
@pytest.mark.parametrize("level", [0.0, 1.0, 1.5, -0.2, math.nan])
def test_band_rejects_bad_level_before_arithmetic(band, level):
    # the grid is degenerate too: the level check must come first
    est = _flat_grid(32, 4096, value=0.0)
    with pytest.raises(InvalidLevel) as exc:
        band(est, BART, level, [(0, 0)])
    assert str(exc.value) == f"level must lie in (0, 1), got {level}"


@_BANDS
def test_band_overflowing_half_width_undefined(band):
    # finite diagonals of about 1e200 whose product overflows
    est = _flat_grid(32, 4096, value=1e200, n=2)
    with np.errstate(all="raise"), pytest.raises(BandUndefined) as exc:
        band(est, BART, 0.95, [(0, 1)])
    assert "rescale" in str(exc.value)
