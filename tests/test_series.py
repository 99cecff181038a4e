import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specband.errors import InsufficientData, InvalidSeries, ParseError
from specband.series import MultivariateSeries, center, load_csv, write_csv


def test_load_csv_basic(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1,2\n3,4\n5,6\n7,8\n")
    s = load_csv(path)
    assert s.t_len == 4
    assert s.n_dim == 2
    assert s.values[1][1] == 4.0
    assert not s.centered


def test_load_csv_header(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b\n1,2\n3,4\n")
    s = load_csv(path, has_header=True)
    assert s.t_len == 2
    assert s.values[0][0] == 1.0


def test_load_csv_non_numeric_cell(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1,x\n3,4\n")
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert exc.value.row == 1
    assert exc.value.col == 2


def test_load_csv_ragged_row(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1,2\n3\n")
    with pytest.raises(ParseError) as exc:
        load_csv(path)
    assert exc.value.row == 2


def test_load_csv_single_row(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1,2\n")
    with pytest.raises(InsufficientData):
        load_csv(path)


def test_load_csv_non_finite(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1,inf\n3,4\n")
    with pytest.raises(ParseError):
        load_csv(path)


def test_series_validation():
    with pytest.raises(ValueError):
        MultivariateSeries(np.array([1.0, 2.0]))  # 1-D
    with pytest.raises(InsufficientData):
        MultivariateSeries(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        MultivariateSeries(np.array([[1.0], [np.nan]]))


def test_series_values_read_only():
    s = MultivariateSeries(np.array([[1.0], [2.0]]))
    with pytest.raises(ValueError):
        s.values[0, 0] = 5.0


def test_centered_flag_checked():
    with pytest.raises(ValueError):
        MultivariateSeries(np.array([[1.0], [2.0]]), centered=True)
    MultivariateSeries(np.array([[-1.0], [1.0]]), centered=True)  # fine


def test_center_examples():
    s = center(MultivariateSeries(np.array([[1.0], [3.0]])))
    np.testing.assert_array_equal(s.values[:, 0], [-1.0, 1.0])
    s2 = center(MultivariateSeries(np.array([[2.0], [2.0], [2.0], [2.0]])))
    np.testing.assert_array_equal(s2.values[:, 0], [0.0, 0.0, 0.0, 0.0])


def test_center_idempotent():
    s = center(MultivariateSeries(np.array([[-1.0], [1.0]])))
    assert center(s) is s
    np.testing.assert_array_equal(s.values[:, 0], [-1.0, 1.0])


@settings(max_examples=50)
@given(
    arrays(
        np.float64,
        st.tuples(st.integers(2, 12), st.integers(1, 3)),
        elements=st.floats(-1e6, 1e6, allow_nan=False, width=64),
    )
)
def test_center_property(values):
    s = center(MultivariateSeries(values))
    assert s.centered
    # flagged series short-circuit: no recomputation, same object
    assert center(s) is s
    # column sums negligible relative to the data scale
    scale = np.maximum(np.max(np.abs(values), axis=0), 1.0)
    assert np.all(np.abs(s.values.sum(axis=0)) <= 1e-9 * values.shape[0] * scale)


def test_write_read_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    s = MultivariateSeries(rng.standard_normal((17, 3)))
    path = tmp_path / "x.csv"
    write_csv(s, path)
    back = load_csv(path)
    np.testing.assert_array_equal(back.values, s.values)


def test_overflowing_values_raise_invalid_series():
    values = np.array([[1e308, 1.0], [1e308, 2.0], [-1e308, 3.0], [1e308, 4.0]])
    # the column sum overflows to +inf and -inf in separate partial sums: NaN
    nan_sum = np.zeros((16, 1))
    nan_sum[[0, 8], 0] = 1e308
    nan_sum[[1, 9], 0] = -1e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSeries):
            center(MultivariateSeries(values))
        with pytest.raises(InvalidSeries):
            MultivariateSeries(nan_sum, centered=True)
