import numpy as np
import pytest

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


def test_expected_autocov_white_noise():
    model = WhiteNoise(sigma=np.eye(2))
    np.testing.assert_array_equal(expected_autocov(model, 0, 10), np.eye(2))
    np.testing.assert_array_equal(expected_autocov(model, 1, 10), np.zeros((2, 2)))


def test_expected_autocov_ar1():
    model = AR1Scalar(0.5)
    # (T-|u|)/T * phi^u / (1 - phi^2) at u=2, T=8
    val = expected_autocov(model, 2, 8)[0, 0]
    assert val == pytest.approx((6.0 / 8.0) * 0.25 / 0.75, rel=1e-12)
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
