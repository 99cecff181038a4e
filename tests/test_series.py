import csv
import io
import json
import math
import logging
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from specband.errors import InvalidSeries, ParseError, SpecbandError
from conftest import traced_peak
from specband.acov import sample_autocov
from specband.series import (
    _WRITE_BLOCK_CELLS,
    MultivariateSeries,
    _bulk_parse,
    _json_text,
    _jsonable,
    _parse_cells,
    center,
    load_csv,
    write_csv,
)


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
    with pytest.raises(
        InvalidSeries, match=r"^need at least 2 data rows, got 1 \(data starts at row 1\)$"
    ):
        load_csv(path)


def test_load_csv_non_finite(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("1,inf\n3,4\n")
    with pytest.raises(ParseError):
        load_csv(path)


def test_series_validation():
    with pytest.raises(ValueError):
        MultivariateSeries(np.array([1.0, 2.0]))  # 1-D
    with pytest.raises(InvalidSeries, match="^need at least 2 time points, got 1$"):
        MultivariateSeries(np.array([[1.0, 2.0]]))
    with pytest.raises(ValueError):
        MultivariateSeries(np.array([[1.0], [np.nan]]))
    with pytest.raises(InvalidSeries, match="at least one component column"):
        MultivariateSeries(np.zeros((3, 0)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("n_dim", [1, 40])
def test_non_finite_entry_is_caught_in_any_column(bad, n_dim, tmp_path):
    for col in sorted({0, n_dim // 2, n_dim - 1}):
        values = np.random.default_rng(col).standard_normal((6, n_dim))
        values[3, col] = bad
        with pytest.raises(InvalidSeries, match="NaN or infinite"):
            MultivariateSeries(values)
        path = tmp_path / "x.csv"
        np.savetxt(path, values, delimiter=",")  # writes nan, inf and -inf
        assert _bulk_parse(path, False) is None
        with pytest.raises(ParseError) as exc:
            load_csv(path)
        assert (exc.value.row, exc.value.col) == (4, col + 1)


def test_series_values_read_only():
    s = MultivariateSeries(np.array([[1.0], [2.0]]))
    with pytest.raises(ValueError):
        s.values[0, 0] = 5.0


def test_centered_flag_checked():
    with pytest.raises(ValueError):
        MultivariateSeries(np.array([[1.0], [2.0]]), centered=True)
    MultivariateSeries(np.array([[-1.0], [1.0]]), centered=True)  # fine


@pytest.mark.parametrize("n_dim", [1, 2])
def test_centered_flag_tolerance(n_dim):
    def columns(*rows):
        return np.array(rows)[:, None].repeat(n_dim, axis=1)

    with pytest.raises(ValueError):
        MultivariateSeries(columns(1.0, 2.0), centered=True)
    MultivariateSeries(columns(-1.0, 1.0), centered=True)  # fine
    # the tolerance is 1e-10 * T * max |x|, here 3e-4 from the column minimum
    MultivariateSeries(columns(-1e6, 5e5, 5e5 + 2e-4), centered=True)
    with pytest.raises(ValueError):
        MultivariateSeries(columns(-1e6, 5e5, 5e5 + 4e-4), centered=True)


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


def test_center_leaves_its_input_untouched():
    raw = _raw((1001, 3))
    series = MultivariateSeries(raw.copy())
    centered = center(series)
    assert series.values.tobytes() == raw.tobytes() and not series.centered
    assert not np.shares_memory(centered.values, series.values)


def _write_for_parse(path, values, how):
    """``values`` as a CSV that load_csv reads by the named parse."""
    text = "\n".join(",".join(map(repr, row)) for row in values.tolist()) + "\n"
    if how == "header":
        text = ",".join(f"c{j}" for j in range(values.shape[1])) + "\n" + text
    elif how == "per-cell":
        text = '"' + text.replace(",", '",', 1)  # a quoted cell: loadtxt rejects it
    path.write_text(text)
    has_header = how == "header"
    assert (_bulk_parse(path, has_header) is None) == (how == "per-cell")
    return has_header


@pytest.mark.parametrize("how", ["bulk", "header", "per-cell"])
def test_load_csv_centered_is_center_of_load_csv_bit_for_bit(how, tmp_path):
    values = np.random.default_rng(6).standard_normal((257, 3)) * [1.0, 1e3, 1e-3] + 7.0
    path = tmp_path / "x.csv"
    has_header = _write_for_parse(path, values, how)
    got = load_csv(path, has_header=has_header, centered=True)
    want = center(load_csv(path, has_header=has_header))
    assert got.centered and center(got) is got
    assert got.values.tobytes() == want.values.tobytes()


@pytest.mark.parametrize("how", ["bulk", "per-cell"])
def test_load_csv_centered_raises_the_overflow_of_center(how, tmp_path):
    values = np.array([[1e308, 1.0], [1e308, 2.0], [-1e308, 3.0], [1e308, 4.0]])
    path = tmp_path / "x.csv"
    _write_for_parse(path, values, how)
    with pytest.raises(InvalidSeries) as want:
        center(load_csv(path))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidSeries) as got:
            load_csv(path, centered=True)
    assert str(got.value) == str(want.value)
    assert str(got.value).startswith("centering overflows")


def test_center_is_two_mean_subtractions_bit_for_bit():
    rng = np.random.default_rng(5)
    for values in (rng.standard_normal((1001, 3)) * 1e3 + 7.0, rng.random((64, 1)) - 0.25):
        want = values - values.mean(axis=0, keepdims=True)
        want = want - want.mean(axis=0, keepdims=True)
        got = center(MultivariateSeries(values)).values
        assert got.tobytes() == want.tobytes()


# Working memory on a T = 2**18 by 2 series of S bytes (4 MiB), input included.

_MEM_SHAPE = (2**18, 2)


def _raw(shape=_MEM_SHAPE):
    values = np.random.default_rng(9).standard_normal(shape)
    values += 3.0
    return values


def test_center_holds_the_input_and_one_copy():
    raw = _raw()
    peak = traced_peak(lambda: MultivariateSeries(raw.copy()), center)
    assert peak <= 2.2 * raw.nbytes


def test_cli_input_path_holds_one_copy_of_the_series(tmp_path):
    # load -> center -> sample_autocov, as estimate and bands run it (B = T**0.4);
    # the parsed array is centered in place, and acov holds a bounded window
    raw = _raw()
    path = tmp_path / "x.csv"
    write_csv(MultivariateSeries(raw), path)
    peak = traced_peak(
        lambda: center(load_csv(path, centered=True)), lambda s: sample_autocov(s, 147)
    )
    assert peak <= 1.6 * raw.nbytes


# tracemalloc traces every string the writer makes, so these series are small;
# each still spans 8 or more blocks of about _WRITE_BLOCK_CELLS cells
@pytest.mark.parametrize("shape", [(2**15, 2), (200, 500)], ids=["long", "wide"])
def test_write_csv_holds_the_input_and_a_bounded_block(shape, tmp_path):
    raw = _raw(shape)
    peak = traced_peak(
        lambda: MultivariateSeries(raw.copy()), lambda s: write_csv(s, tmp_path / "x.csv")
    )
    assert peak <= raw.nbytes + 2 * 2**20


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


# Parity of load_csv (bulk parse first) with the per-cell reader it falls back to.


def _outcome(read):
    """Values as (shape, bytes), or the exception class with its row and col."""
    try:
        values = read()
    except (SpecbandError, ValueError) as exc:
        return type(exc), getattr(exc, "row", None), getattr(exc, "col", None)
    return values.shape, values.tobytes()


def _assert_parity(path, has_header):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # an empty file must not warn either
        got = _outcome(lambda: load_csv(path, has_header=has_header).values)
    assert got == _outcome(lambda: _parse_cells(path, has_header))
    return got


PARITY_CASES = [
    # (id, file bytes, has_header, expected: "ok" or (class, row, col))
    ("spaces", b" 1 , 2 \n3,4\n", False, "ok"),
    ("underscore", b"1_000,2\n3,4\n", False, "ok"),
    ("whitespace-line", b"1,2\n \t \n3,4\n", False, "ok"),
    ("quoted", b'"1",2\n3,4\n', False, "ok"),
    ("header", b"a,b\n1,2\n3,4\n", True, "ok"),
    ("header-wider", b"a,b,c\n1,2\n3,4\n", True, (ParseError, 2, None)),
    ("header-blank", b"\n1,2\n3,4\n", True, (ParseError, 2, None)),
    ("header-multiline", b'"a\n",b\n1,2\n3,4\n', True, "ok"),
    ("header-unclosed", b'"\r0\r0', True, (InvalidSeries, None, None)),
    ("tab", b"1\t,2\n3,\t4\n", False, "ok"),
    ("mixed-newlines", b"1,2\r\n3,4\n5,6\r\n", False, "ok"),
    ("cr-newlines", b"1,2\r3,4\r", False, "ok"),
    ("trailing-blank-lines", b"1,2\n3,4\n\n\n", False, "ok"),
    ("hex", b"0x1,2\n3,4\n", False, (ParseError, 1, 1)),
    ("inf", b"1,inf\n3,4\n", False, (ParseError, 1, 2)),
    ("nan", b"1,2\n3,nan\n", False, (ParseError, 2, 2)),
    ("overflow", b"1,2\n1e309,4\n", False, (ParseError, 2, 1)),
    ("bom", "\ufeff1,2\n3,4\n".encode(), False, (ParseError, 1, 1)),
    ("not-utf8", b"1,2\n\xff,4\n", False, (ParseError, 2, None)),
    ("not-utf8-header", b"a\xff,b\n1,2\n3,4\n", True, (ParseError, 1, None)),
    # past the text decoder's first chunk: the row is still the bad one
    ("not-utf8-late", b"1,2\n" * 5000 + b"3,\xfe4\n", False, (ParseError, 5001, None)),
    ("ragged", b"1,2\n3\n", False, (ParseError, 2, None)),
    ("trailing-comma", b"1,2,\n3,4,\n", False, (ParseError, 1, 3)),
    ("comment", b"1,2\n# c\n3,4\n", False, (ParseError, 2, None)),
    ("single-column", b"1\n2\n3\n", False, "ok"),
    ("empty", b"", False, (InvalidSeries, None, None)),
    ("header-only", b"a,b\n", True, (InvalidSeries, None, None)),
    ("one-row", b"1,2\n", False, (InvalidSeries, None, None)),
    ("extremes", b"-0.0,5e-324\n1.7976931348623157e308,1e16\n", False, "ok"),
]


@pytest.mark.parametrize(
    "data, has_header, expected",
    [case[1:] for case in PARITY_CASES],
    ids=[case[0] for case in PARITY_CASES],
)
def test_load_csv_matches_per_cell_reader(data, has_header, expected, tmp_path):
    path = tmp_path / "x.csv"
    path.write_bytes(data)
    got = _assert_parity(path, has_header)
    if expected == "ok":
        assert isinstance(got[0], tuple)
    else:
        assert got == expected


def test_header_width_is_checked_beyond_a_bulk_parse(tmp_path):
    path = tmp_path / "x.csv"
    path.write_text("a,b,c\n1,2\n3,4\n")
    naive = np.loadtxt(path, delimiter=",", ndmin=2, comments=None, skiprows=1)
    assert naive.shape == (2, 2)  # a bulk parse alone accepts the file
    with pytest.raises(ParseError) as exc:
        load_csv(path, has_header=True)
    assert exc.value.row == 2


_ALPHABET = "0123456789.e+-, \t\r\n_#\"inf"


@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.text(alphabet=_ALPHABET, max_size=40), st.booleans())
def test_load_csv_parity_fuzz(tmp_path, text, has_header):
    path = tmp_path / "fuzz.csv"
    path.write_bytes(text.encode())
    _assert_parity(path, has_header)


def test_load_csv_logs_which_parse_ran(tmp_path, caplog):
    clean, odd = tmp_path / "clean.csv", tmp_path / "odd.csv"
    clean.write_text("1,2\n3,4\n5,6\n")
    odd.write_text("1_0,2\n3,4\n5,6\n")
    with caplog.at_level(logging.INFO, logger="specband.series"):
        load_csv(clean)
        load_csv(odd)
    bulk, per_cell = caplog.messages
    assert "3 rows x 2 columns" in bulk and "12 bytes" in bulk and "(bulk parse)" in bulk
    assert "(per-cell parse)" in per_cell


# write_csv: the bytes of csv.writer on repr of each value, written in blocks.

_SPECIAL = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 1e-05, 1e16]


def _csv_writer_bytes(values):
    buf = io.StringIO(newline="")
    writer = csv.writer(buf)
    for row in values:
        writer.writerow([repr(float(v)) for v in row])
    return buf.getvalue().encode("utf-8")


@pytest.mark.parametrize("n_dim", [1, 2, 3, 8193])
def test_write_csv_bytes_match_csv_writer(n_dim, tmp_path):
    block = max(1, _WRITE_BLOCK_CELLS // n_dim)  # rows per block
    t_len = block + 3  # one full block and a short one
    rng = np.random.default_rng(n_dim)
    values = rng.standard_normal((t_len, n_dim)) * 10.0 ** rng.integers(-300, 300, (t_len, n_dim))
    for at in (0, block - 1, block, t_len - 1):  # both ends of each block
        values[at] = np.resize(_SPECIAL[at % 3 :], n_dim)
    path = tmp_path / "x.csv"
    write_csv(MultivariateSeries(values), path)
    assert path.read_bytes() == _csv_writer_bytes(values)
    assert load_csv(path).values.tobytes() == values.tobytes()


def test_write_csv_logs_size(tmp_path, caplog):
    path = tmp_path / "x.csv"
    with caplog.at_level(logging.INFO, logger="specband.series"):
        write_csv(MultivariateSeries(np.array([[1.0, -0.0], [2.5, 3.0]])), path)
    assert path.read_bytes() == b"1.0,-0.0\r\n2.5,3.0\r\n"
    assert "2 rows x 2 columns, 19 bytes" in caplog.messages[0]


@dataclass(frozen=True)
class _Pair:
    name: str
    values: np.ndarray
    extra: tuple = ()


class _Renamed:
    def to_dict(self):
        return {"renamed": np.int64(3)}


def test_jsonable_encodes_fields_to_dict_numpy_and_non_finite():
    payload = {
        "pair": _Pair("a", np.array([[1.5, np.inf], [-np.inf, np.nan]]), (np.float64(2.0),)),
        "obj": _Renamed(),
        "flags": np.array([True, False]),
        "scalar": np.float64(0.25),
        "tuple": (1, -math.inf),
    }
    out = _jsonable(payload)
    assert out == {
        "pair": {"name": "a", "values": [[1.5, "inf"], ["-inf", "nan"]], "extra": [2.0]},
        "obj": {"renamed": 3},
        "flags": [True, False],
        "scalar": 0.25,
        "tuple": [1, "-inf"],
    }
    assert type(out["obj"]["renamed"]) is int and type(out["scalar"]) is float
    json.dumps(out, allow_nan=False)  # plain JSON values only


def test_json_text_adds_schema_version_and_sorts_keys():
    text = _json_text({"b": np.arange(2), "a": _Pair("x", np.zeros(1))})
    assert text.endswith("}\n") and text.count("\n") == 1
    assert text == (
        '{"a": {"extra": [], "name": "x", "values": [0.0]}, "b": [0, 1], '
        '"schema_version": 1}\n'
    )
