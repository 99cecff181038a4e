import math

import numpy as np
import pytest

from specband.acov import AutocovSequence, sample_autocov
from specband.errors import InvalidArgument, InvalidModel, SpecbandError
from specband.kernels import get_kernel, kernel_names, tabulated_kernel
from specband.models import ThresholdAR1, VMA, default_var1, parse_model, simulate
from specband.series import _jsonable, center
from specband.spectral import (
    Bandwidth,
    SpectralGrid,
    _fourier_sum,
    estimate_matrices,
    estimate_spectrum,
    expected_spectrum,
    theorem_grid,
    true_spectrum,
)

BART = get_kernel("bartlett")
PARZEN = get_kernel("parzen")
TWO_PI = 2.0 * np.pi


def _acov(stack, t_len):
    return AutocovSequence(np.asarray(stack, dtype=float), t_len=t_len)


def test_bandwidth_values():
    assert Bandwidth(4096, 0.4).value == 28
    assert Bandwidth(64, 0.5).value == 8
    assert Bandwidth(100, 0.4, c_const=0.001).value == 2  # clamped below
    assert Bandwidth(10, 0.99, c_const=50.0).value == 9  # clamped to T-1
    with pytest.raises(ValueError):
        Bandwidth(100, 1.5)
    with pytest.raises(ValueError):
        Bandwidth(100, 0.4, c_const=-1.0)


@pytest.mark.parametrize(
    "b_exponent, c_const",
    [(0.4, math.inf), (0.4, math.nan), (0.4, 0.0), (0.4, -math.inf), (math.nan, 1.0)],
)
def test_bandwidth_rejects_nonfinite_or_nonpositive_settings(b_exponent, c_const):
    with pytest.raises(InvalidArgument) as exc:
        Bandwidth(100, b_exponent, c_const)
    assert str(exc.value) == (
        "bandwidth exponent must lie in (0, 1)" if math.isnan(b_exponent)
        else "bandwidth constant must be finite and positive"
    )
    assert isinstance(exc.value, SpecbandError)
    assert isinstance(exc.value, ValueError)


def test_bandwidth_huge_constant_clamps_without_overflow():
    # c * T^b overflows to inf; the value is still clamped to T - 1
    assert Bandwidth(100, 0.4, c_const=1e308).value == 99


def test_theorem_grid():
    np.testing.assert_allclose(theorem_grid(4), [0.0, np.pi / 4, np.pi / 2, 3 * np.pi / 4, np.pi])
    np.testing.assert_allclose(theorem_grid(2), [0.0, np.pi / 2, np.pi])
    grid = theorem_grid(Bandwidth(4096, 0.4))
    assert grid[0] == 0.0 and grid[-1] == pytest.approx(np.pi)
    assert np.allclose(np.diff(grid), np.pi / 28)
    with pytest.raises(InvalidArgument, match="bandwidth >= 2"):
        theorem_grid(1)


def test_flat_from_single_lag():
    # C(0)=1, no other lags: fhat = 1/(2 pi) at every frequency
    stack = np.array([[[1.0]]])
    out = estimate_matrices(stack, BART, 5, np.array([0.0, np.pi / 2, np.pi]))
    np.testing.assert_allclose(out[:, 0, 0], 1.0 / TWO_PI)


def test_three_term_hand_value():
    # C(0)=1, C(+-1)=0.5, Bartlett B=2, lambda=0: (1/2pi)(1 + 2*K(1/2)*0.5)
    stack = np.array([[[1.0]], [[0.5]]])
    out = estimate_matrices(stack, BART, 2, np.array([0.0]))
    assert out[0, 0, 0].real == pytest.approx(1.5 / TWO_PI, rel=1e-12, abs=0.0)
    assert out[0, 0, 0].real == pytest.approx(0.238732, abs=1e-6)


def test_hermitian_by_construction():
    rng = np.random.default_rng(0)
    s = center(simulate(default_var1(), 512, seed=1))
    acov = sample_autocov(s, 40)
    grid = estimate_spectrum(acov, BART, Bandwidth(512, 0.4), theorem_grid(8))
    for mat in grid.matrices:
        np.testing.assert_allclose(mat, mat.conj().T, atol=1e-14)
    np.testing.assert_allclose(
        grid.entry(0, 1), grid.entry(1, 0).conj(), atol=1e-14
    )


def _tabulated_bartlett(tmp_path):
    path = tmp_path / "kernel.csv"
    grid = np.linspace(-1.0, 1.0, 201)
    np.savetxt(path, np.column_stack([grid, 1.0 - np.abs(grid)]), delimiter=",")
    return tabulated_kernel(path)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kernel_name", [*kernel_names(), "tabulated"])
def test_fft_matches_direct_sum(n, kernel_name, tmp_path):
    # the production FFT against the oracle's direct sum on every grid kind
    kernel = (
        _tabulated_bartlett(tmp_path)
        if kernel_name == "tabulated"
        else get_kernel(kernel_name)
    )
    rng = np.random.default_rng(n)
    b_val = 37
    grids = {
        "theorem": theorem_grid(b_val),
        "uniform": np.linspace(0.0, np.pi, 11),
        "dense": np.pi * np.arange(4 * b_val + 1) / (4 * b_val),
        # L = 37 lags on a period of 2M = 4 exercises the fold
        "clt": np.array([0.0, np.pi / 2]),
    }
    for name, freqs in grids.items():
        stack = rng.standard_normal((b_val + 1, n, n))
        stack[0] = stack[0] @ stack[0].T
        weights = kernel(np.arange(b_val + 1) / b_val)
        want = _fourier_sum(stack, weights, freqs)
        got = estimate_matrices(stack, kernel, b_val, freqs)
        gap = np.linalg.norm(got - want) / np.linalg.norm(want)
        assert gap <= 1e-12, name


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("kernel_name", kernel_names())
def test_stacked_estimates_equal_one_call_per_stack(n, kernel_name):
    # leading replication axes change no bit of any estimate
    kernel = get_kernel(kernel_name)
    rng = np.random.default_rng(10 + n)
    b_val = 37
    grids = {
        "theorem": theorem_grid(b_val),
        "dense": np.pi * np.arange(4 * b_val + 1) / (4 * b_val),
        # L = 37 lags on a period of 2M = 4 exercises the fold
        "clt": np.array([0.0, np.pi / 2]),
    }
    for name, freqs in grids.items():
        stacks = rng.standard_normal((2, 5, b_val + 1, n, n))
        got = estimate_matrices(stacks, kernel, b_val, freqs)
        assert got.shape == (2, 5, freqs.size, n, n), name
        for idx in np.ndindex(2, 5):
            want = estimate_matrices(stacks[idx], kernel, b_val, freqs)
            assert np.array_equal(got[idx], want), (name, idx)


def test_expected_spectrum_blocks_equal_one_frequency_at_a_time():
    # a grid of several oracle blocks gives each row as a lone frequency does
    model, bw = default_var1(), Bandwidth(4096, 0.5)
    freqs = np.pi * np.arange(4 * bw.value + 1) / (4 * bw.value)
    assert freqs.size > 2 * 64
    got = expected_spectrum(model, PARZEN, bw.value, bw.t_len, freqs).matrices
    for k, freq in enumerate(freqs):
        want = expected_spectrum(model, PARZEN, bw.value, bw.t_len, [freq]).matrices[0]
        assert np.array_equal(got[k], want), k


def test_off_grid_frequency_raises():
    stack = np.array([[[1.0]], [[0.5]]])
    off_grid = r"frequency 0.7 is not on the grid pi\*l/4, l = 0..4"
    with pytest.raises(InvalidArgument, match=off_grid):
        estimate_matrices(stack, BART, 2, np.array([0.0, 0.7]))
    with pytest.raises(InvalidArgument, match=off_grid):
        estimate_matrices(stack, BART, 2, np.array([0.7]))
    # a step of 1e-9 would need an FFT of length 2*pi/1e-9: M is capped
    with pytest.raises(InvalidArgument, match=r"frequency 1e-09 is not on the grid pi\*l/4104,"):
        estimate_matrices(stack, BART, 2, np.array([0.0, 1e-9]))


def test_bandwidth_too_large():
    s = center(simulate(parse_model("white"), 16, seed=0))
    acov = sample_autocov(s, 15)
    with pytest.raises(InvalidArgument, match="lags up to 15, need 39"):
        estimate_spectrum(acov, BART, Bandwidth(40, 0.99, c_const=1.0), [0.0])


def test_autocov_lags_stop_at_t_minus_1():
    assert _acov(np.zeros((16, 1, 1)), t_len=16).max_lag == 15
    with pytest.raises(InvalidArgument, match="17 autocovariance lags exceed T = 16"):
        _acov(np.zeros((17, 1, 1)), t_len=16)


def test_lag_coverage_check():
    s = center(simulate(parse_model("white"), 512, seed=0))
    acov = sample_autocov(s, 3)  # too few lags for B=28
    with pytest.raises(ValueError, match="lags"):
        estimate_spectrum(acov, BART, Bandwidth(512, 0.4), [0.0])


def test_frequencies_restricted_to_0_pi():
    s = center(simulate(parse_model("white"), 64, seed=0))
    acov = sample_autocov(s, 10)
    with pytest.raises(ValueError):
        estimate_spectrum(acov, BART, Bandwidth(64, 0.4), [-0.1])
    with pytest.raises(ValueError):
        estimate_spectrum(acov, BART, Bandwidth(64, 0.4), [3.5])
    with pytest.raises(ValueError):
        estimate_spectrum(acov, BART, Bandwidth(64, 0.4), [np.nan])
    with pytest.raises(ValueError):
        expected_spectrum(parse_model("white"), BART, 5, 64, [np.nan])


def test_scale_equivariance():
    # scaling the series by c scales the spectral matrix by c^2
    s = center(simulate(parse_model("white"), 256, seed=3))
    acov = sample_autocov(s, 30)
    acov_scaled = AutocovSequence(4.0 * acov.matrices, acov.t_len)
    bw = Bandwidth(256, 0.4)
    a = estimate_spectrum(acov, BART, bw, theorem_grid(bw)).matrices
    b = estimate_spectrum(acov_scaled, BART, bw, theorem_grid(bw)).matrices
    np.testing.assert_allclose(b, 4.0 * a, rtol=1e-12)


@pytest.mark.parametrize("b_val", [0, 64])
def test_expected_spectrum_rejects_window_outside_series(b_val):
    with pytest.raises(InvalidArgument, match=r"\[1, 63\]"):
        expected_spectrum(parse_model("white"), BART, b_val, 64, [0.0])


def test_expected_spectrum_white_noise_flat():
    grid = expected_spectrum(parse_model("white"), BART, 8, 64, [0.0, 1.0, np.pi])
    np.testing.assert_allclose(grid.entry(0, 0).real, 1.0 / TWO_PI, rtol=1e-14)


def test_expected_spectrum_ma1_hand_value():
    # MA(1) theta=0.5: Gamma(0)=1.25, Gamma(1)=0.5; B=8, T=64 at lambda=0
    model = VMA((np.eye(1), np.array([[0.5]])))
    bw = Bandwidth(64, 0.5)
    assert bw.value == 8
    grid = expected_spectrum(model, BART, bw.value, bw.t_len, [0.0])
    expected = (1.25 + 2.0 * BART(1.0 / 8.0) * (63.0 / 64.0) * 0.5) / TWO_PI
    assert grid.entry(0, 0)[0].real == pytest.approx(expected, rel=1e-12, abs=0.0)


def test_expected_spectrum_approaches_truth():
    model = parse_model("ar1:phi=0.5")
    lam = np.array([0.9])
    truth = true_spectrum(model, lam).entry(0, 0)[0].real
    gaps = []
    for t_len in (2**10, 2**13, 2**16):
        grid = expected_spectrum(model, BART, Bandwidth(t_len, 0.4).value, t_len, lam)
        gaps.append(abs(grid.entry(0, 0)[0].real - truth))
    assert gaps[0] > gaps[1] > gaps[2]
    assert gaps[-1] < 1e-2


def test_expected_spectrum_rejects_nonclosed_form():
    with pytest.raises(InvalidModel, match=r"^model 'threshold_ar1' has no closed-form Gamma\(u\)$"):
        expected_spectrum(ThresholdAR1(0.3, 0.3), BART, 8, 64, [0.0])


def test_psd_for_bartlett_and_parzen():
    rng = np.random.default_rng(7)
    for kernel in (BART, get_kernel("parzen")):
        for trial in range(5):
            s = center(
                simulate(default_var1(), 256, seed=int(rng.integers(1 << 30)))
            )
            bw = Bandwidth(256, 0.4)
            acov = sample_autocov(s, bw.value)
            grid = estimate_spectrum(acov, kernel, bw, theorem_grid(bw))
            for mat in grid.matrices:
                eigs = np.linalg.eigvalsh(mat)
                assert eigs.min() >= -1e-10 * np.trace(mat).real


def test_spectral_grid_accessors():
    s = center(simulate(default_var1(), 128, seed=4))
    bw = Bandwidth(128, 0.4)
    acov = sample_autocov(s, bw.value)
    grid = estimate_spectrum(acov, BART, bw, theorem_grid(bw))
    assert grid.n_dim == 2
    d = _jsonable(grid)
    assert d["kernel"] == "bartlett"
    assert len(d["matrices"]) == grid.freqs.size
    assert d["matrices"][0][0][1] == [
        pytest.approx(grid.matrices[0][0, 1].real),
        pytest.approx(grid.matrices[0][0, 1].imag),
    ]


@pytest.mark.parametrize(
    "freqs, matrices",
    [
        ([0.0, 1.0], np.zeros(2)),  # 1-D matrices
        ([0.0, 1.0], np.zeros((2, 2))),  # 2-D matrices
        ([0.0, 1.0], np.zeros((3, 2, 2))),  # one matrix per frequency
        ([0.0, 1.0], np.zeros((2, 2, 3))),  # not square
        ([0.0], np.zeros(())),  # 0-D matrices
        ([0.0, 1.0], np.zeros((4, 3, 2, 2))),  # stacked, one matrix per frequency
    ],
)
def test_malformed_grid_is_a_specband_value_error(freqs, matrices):
    with pytest.raises(InvalidArgument, match=r"matrices must be \(\.\.\., n_freqs, n, n\)") as exc:
        SpectralGrid(freqs, matrices, bandwidth=2, kernel_name="bartlett", t_len=10)
    assert isinstance(exc.value, SpecbandError)
    assert isinstance(exc.value, ValueError)
