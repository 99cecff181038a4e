import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import traced_peak
from specband import acov
from specband.acov import AutocovSequence, autocov_matrices, expected_autocov, sample_autocov
from specband.errors import (
    LagOutOfRange,
    MalformedArray,
    NotCentered,
    SpecbandError,
    UnsupportedModel,
)
from specband.models import AR1Scalar, ThresholdAR1, WhiteNoise, simulate
from specband.series import MultivariateSeries, center


def _series(values):
    return MultivariateSeries(np.asarray(values, dtype=float), centered=True)


def test_hand_values_scalar():
    s = _series([[1.0], [-1.0], [2.0], [-2.0]])
    acov = sample_autocov(s, 2)
    assert acov.lag(0)[0, 0] == pytest.approx(2.5, abs=1e-15)
    assert acov.lag(1)[0, 0] == pytest.approx(-7.0 / 4.0, abs=1e-15)


def test_negative_lag_is_exact_transpose():
    rng = np.random.default_rng(0)
    s = center(MultivariateSeries(rng.standard_normal((50, 3))))
    acov = sample_autocov(s, 5)
    for u in range(1, 6):
        np.testing.assert_array_equal(acov.lag(-u), acov.lag(u).T)


def test_requires_centered():
    s = MultivariateSeries(np.array([[1.0], [2.0]]))
    with pytest.raises(NotCentered):
        sample_autocov(s, 1)


def test_lag_out_of_range():
    s = _series([[1.0], [-1.0], [2.0], [-2.0]])
    with pytest.raises(LagOutOfRange):
        sample_autocov(s, 4)  # max_lag beyond T-1
    for max_lag in (-1, 4):
        with pytest.raises(LagOutOfRange):
            autocov_matrices(s.values, max_lag)
    acov = sample_autocov(s, 2)
    with pytest.raises(LagOutOfRange):
        acov.lag(3)


def test_autocov_matrices_matches_definition():
    rng = np.random.default_rng(1)
    values = rng.standard_normal((31, 2))
    stack = autocov_matrices(values, 3)
    t_len = values.shape[0]
    for u in range(4):
        manual = sum(
            np.outer(values[t], values[t + u]) for t in range(t_len - u)
        ) / t_len
        np.testing.assert_allclose(stack[u], manual, atol=1e-12)


def _per_lag_autocov(values, max_lag):
    """Oracle: one (T-u, n)' @ (T-u, n) product per lag."""
    t_len = values.shape[0]
    out = np.empty((max_lag + 1, values.shape[1], values.shape[1]))
    for u in range(max_lag + 1):
        out[u] = values[: t_len - u].T @ values[u:] / t_len
    return out


def _assert_matches_per_lag(values, max_lag):
    got = autocov_matrices(values, max_lag)
    want = _per_lag_autocov(values, max_lag)
    assert got.shape == want.shape
    # normwise relative gap; only the summation order differs
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


@pytest.mark.parametrize("n_dim", [1, 2, 3])
@pytest.mark.parametrize(
    "t_len, max_lag",
    [
        (3, 0),
        (3, 2),
        (17, 16),
        (129, 128),
        (1000, 999),
        (4096, 28),
        (4096, 167),
        (16384, 49),
        (16384, 291),
        (65536, 507),
        (70001, 300),
    ],
)
def test_autocov_matrices_matches_per_lag_oracle(t_len, max_lag, n_dim):
    rng = np.random.default_rng([t_len, max_lag, n_dim])
    _assert_matches_per_lag(rng.standard_normal((t_len, n_dim)), max_lag)


@settings(max_examples=60, deadline=None)
@given(
    t_len=st.integers(1, 400),
    n_dim=st.integers(1, 40),
    lag_frac=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_autocov_matrices_matches_per_lag_oracle_over_shapes(t_len, n_dim, lag_frac, seed):
    values = np.random.default_rng(seed).standard_normal((t_len, n_dim))
    _assert_matches_per_lag(values, round(lag_frac * (t_len - 1)))


@pytest.mark.parametrize("n_dim", [1, 2, 3])
@pytest.mark.parametrize("t_len, max_lag", [(129, 128), (4096, 167), (70001, 300)])
def test_autocov_matrices_ignores_memory_layout(t_len, max_lag, n_dim):
    wide = np.random.default_rng(2).standard_normal((t_len, n_dim + 2))
    sliced = wide[:, 1 : n_dim + 1]
    want = autocov_matrices(np.ascontiguousarray(sliced), max_lag)
    for values in (np.asfortranarray(sliced), sliced):
        np.testing.assert_array_equal(autocov_matrices(values, max_lag), want)


@pytest.mark.parametrize("use_workspace", [False, True], ids=["fresh", "workspace"])
def test_chunked_products_sum_as_one_sum_bit_for_bit(use_workspace, monkeypatch):
    # T = 500000, n = 2: 489 batches of 64 block rows, 8 chunks
    values = np.random.default_rng(4).standard_normal((500_000, 2))
    workspace = {} if use_workspace else None
    got = [autocov_matrices(values, max_lag, workspace) for max_lag in (190, 15)]
    assert workspace is None or workspace["acov_product"].shape[0] == 65
    monkeypatch.setattr(acov, "_CHUNK_BATCHES", 489)  # one sum over every batch
    for stack, max_lag in zip(got, (190, 15)):
        assert stack.tobytes() == autocov_matrices(values, max_lag).tobytes()


@pytest.mark.parametrize("use_workspace", [False, True], ids=["fresh", "workspace"])
@pytest.mark.parametrize(
    "t_len, n_dim, max_lag, chunk_batches",
    [
        (300_001, 1, 507, None),  # 147 batches: chunks of 64, 64 and 19
        (262_147, 3, 100, None),  # 410 batches, the last padded: chunks of 64 and 26
        (70_001, 2, 300, 4),  # 69 batches: 17 chunks of 4 and one of 1
        (5000, 1, 4990, 2),  # L close to T: the window reaches past the last row
        (3001, 3, 3000, 2),  # L = T - 1
    ],
)
def test_windowed_products_match_one_chunk_bit_for_bit(
    t_len, n_dim, max_lag, chunk_batches, use_workspace, monkeypatch
):
    values = np.random.default_rng([t_len, n_dim]).standard_normal((t_len, n_dim))
    if chunk_batches is not None:
        monkeypatch.setattr(acov, "_CHUNK_BATCHES", chunk_batches)
    workspace = {} if use_workspace else None
    got = autocov_matrices(values, max_lag, workspace)
    if use_workspace:  # a reused window and product give the same bytes
        assert autocov_matrices(values, max_lag, workspace).tobytes() == got.tobytes()
    monkeypatch.setattr(acov, "_CHUNK_BATCHES", 10**6)  # every batch in one chunk
    assert got.tobytes() == autocov_matrices(values, max_lag).tobytes()
    want = _per_lag_autocov(values, max_lag)
    assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()


def test_sample_autocov_holds_its_input_and_a_bounded_window():
    # T = 2**20, n = 2 (16 MiB), B = T**0.4: the window, product and grams only
    series = center(MultivariateSeries(np.random.default_rng(8).standard_normal((2**20, 2))))
    peak = traced_peak(lambda: series, lambda s: sample_autocov(s, 256))
    assert peak <= 2 * 2**20


def test_sample_autocov_holds_the_input_and_one_block_copy():
    raw = np.random.default_rng(9).standard_normal((2**18, 2))  # S = 4 MiB
    peak = traced_peak(
        lambda: center(MultivariateSeries(raw)), lambda s: sample_autocov(s, 132)
    )
    assert peak <= 2.2 * raw.nbytes


def test_expected_autocov_white_noise():
    model = WhiteNoise(sigma=np.eye(2))
    np.testing.assert_array_equal(expected_autocov(model, 0, 10), np.eye(2))
    np.testing.assert_array_equal(expected_autocov(model, 1, 10), np.zeros((2, 2)))


def test_expected_autocov_ar1():
    model = AR1Scalar(0.5)
    # (T-|u|)/T * phi^u / (1 - phi^2) at u=2, T=8
    val = expected_autocov(model, 2, 8)[0, 0]
    assert val == pytest.approx((6.0 / 8.0) * 0.25 / 0.75, rel=1e-12, abs=0.0)
    np.testing.assert_allclose(
        expected_autocov(model, -2, 8), expected_autocov(model, 2, 8).T
    )


def test_expected_autocov_beyond_series_length():
    model = AR1Scalar(0.5)
    np.testing.assert_array_equal(expected_autocov(model, 8, 8), np.zeros((1, 1)))


def test_expected_autocov_rejects_nonclosed_form():
    with pytest.raises(UnsupportedModel):
        expected_autocov(ThresholdAR1(0.4, 0.2), 1, 100)


def test_sample_mean_matches_expected_autocov():
    # long-run Monte Carlo average of C(u) approaches ((T-u)/T) Gamma(u)
    model = AR1Scalar(0.5)
    t_len, reps = 256, 400
    total = np.zeros((3, 1, 1))
    for rep in range(reps):
        values = model.simulate_values(t_len, np.random.default_rng([9, rep]))
        total += autocov_matrices(values, 2)
    mean = total / reps
    for u in range(3):
        target = expected_autocov(model, u, t_len)[0, 0]
        se = 4.0 / np.sqrt(reps * t_len / 10.0)
        assert abs(mean[u][0, 0] - target) < se


def test_stack_validation():
    with pytest.raises(ValueError):
        AutocovSequence(np.zeros((3, 2, 1)), t_len=10)
    with pytest.raises(ValueError):
        AutocovSequence(np.full((2, 1, 1), np.nan), t_len=10)


@pytest.mark.parametrize(
    "stack",
    [
        np.zeros(3),  # 1-D
        np.zeros((3, 2)),  # 2-D
        np.zeros((3, 2, 1)),  # not square
        np.zeros((2, 2, 2, 2)),  # 4-D
        np.array([[[np.inf]], [[0.0]]]),
        np.array([[[1.0]], [[-np.inf]]]),
    ],
)
def test_malformed_stack_is_a_specband_value_error(stack):
    with pytest.raises(MalformedArray) as exc:
        AutocovSequence(stack, t_len=10)
    assert isinstance(exc.value, SpecbandError)
    assert isinstance(exc.value, ValueError)
