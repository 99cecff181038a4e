import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from specband.errors import InvalidArgument
from specband.kernels import get_kernel, kernel_names, tabulated_kernel

ALL = ["bartlett", "parzen", "tukey_hanning", "truncated"]


def test_catalog_names():
    assert kernel_names() == sorted(ALL)


def test_point_values():
    bart = get_kernel("bartlett")
    assert bart(0.5) == 0.5
    assert bart(0.0) == 1.0
    trunc = get_kernel("truncated")
    assert trunc(0.999) == 1.0
    assert trunc(1.001) == 0.0


def test_aliases():
    assert get_kernel("tukey").name == "tukey_hanning"
    assert get_kernel("boxcar").name == "truncated"
    assert get_kernel("rect").name == "truncated"


def test_unknown_kernel():
    with pytest.raises(KeyError):
        get_kernel("nope")


@pytest.mark.parametrize("name", ALL)
def test_kappa_against_quadrature(name):
    k = get_kernel(name)
    val, err = quad(lambda x: float(k(x)) ** 2, -1.0, 1.0, limit=200)
    assert abs(k.kappa - val) <= max(1e-10, 10 * err)


def test_kappa_closed_forms():
    assert get_kernel("bartlett").kappa == pytest.approx(2.0 / 3.0, abs=1e-15)
    assert get_kernel("parzen").kappa == pytest.approx(0.5392857142857143, abs=1e-15)
    assert get_kernel("tukey_hanning").kappa == pytest.approx(0.75, abs=1e-15)
    assert get_kernel("truncated").kappa == 2.0


def test_bias_order_constants():
    parzen = get_kernel("parzen")
    assert parzen.q_exponent == 2.0 and parzen.k_q == 6.0
    tukey = get_kernel("tukey_hanning")
    assert tukey.q_exponent == 2.0
    assert tukey.k_q == pytest.approx(np.pi**2 / 4.0, abs=1e-15)
    trunc = get_kernel("truncated")
    assert np.isinf(trunc.q_exponent) and trunc.k_q is None
    # Bartlett is first order: 1 - K(x) = |x| exactly
    bart = get_kernel("bartlett")
    assert bart.q_exponent == 1.0 and bart.k_q == 1.0
    assert "first-order" in bart.note


@pytest.mark.parametrize("name,smallest", [("parzen", 5), ("tukey_hanning", 3)])
def test_k_q_limit_decreasing_error(name, smallest):
    # tukey stops at 1e-3: below that, cancellation in 1-cos(pi x) drowns
    # the O(x^2) remainder in float64 rounding noise
    k = get_kernel(name)
    q, k_q = k.q_exponent, k.k_q
    errs = [
        abs((1.0 - float(k(x))) / x**q - k_q)
        for x in 10.0 ** -np.arange(1, smallest + 1)
    ]
    assert all(a > b for a, b in zip(errs, errs[1:]))


@pytest.mark.parametrize("name", ALL)
def test_support_and_unit_peak(name):
    k = get_kernel(name)
    assert k(0.0) == 1.0
    assert k(1.5) == 0.0
    assert k(-2.0) == 0.0


@settings(max_examples=100)
@given(st.floats(-3.0, 3.0, allow_nan=False), st.sampled_from(ALL))
def test_evenness_property(u, name):
    k = get_kernel(name)
    assert k(u) == k(-u)


@settings(max_examples=100)
@given(st.floats(-1.0, 1.0, allow_nan=False), st.sampled_from(ALL))
def test_bounded_by_one(u, name):
    k = get_kernel(name)
    assert -1.0 <= k(u) <= 1.0


def test_vectorized_eval():
    k = get_kernel("bartlett")
    out = k(np.array([-0.5, 0.0, 0.25, 2.0]))
    np.testing.assert_allclose(out, [0.5, 1.0, 0.75, 0.0])


def test_tabulated_kernel(tmp_path):
    u = np.linspace(-1.0, 1.0, 2001)
    k = 1.0 - np.abs(u)  # Bartlett sampled on a fine grid
    path = tmp_path / "k.csv"
    path.write_text("\n".join(f"{a},{b}" for a, b in zip(u, k)))
    tab = tabulated_kernel(path)
    assert tab.name == "tabulated"
    assert tab(0.5) == pytest.approx(0.5, abs=1e-9)
    assert tab(1.2) == 0.0
    assert tab.kappa == pytest.approx(2.0 / 3.0, abs=1e-5)


def test_tabulated_kernel_rejects_asymmetric(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("-1,0\n0,1\n1,0.5\n")
    with pytest.raises(ValueError):
        tabulated_kernel(path)


def test_tabulated_kernel_requires_unit_peak(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("-1,0\n0,0.9\n1,0\n")
    with pytest.raises(ValueError):
        tabulated_kernel(path)


def test_tabulated_kernel_grid_must_reach_one(tmp_path):
    # np.interp would hold K(0.5) = 0.5 out to |u| = 1, then jump to 0
    path = tmp_path / "k.csv"
    path.write_text("-0.5,0.5\n0,1\n0.5,0.5\n")
    for build in (tabulated_kernel, lambda p: get_kernel(f"file:{p}")):
        with pytest.raises(InvalidArgument, match=r"reach \|u\| = 1, it stops at 0.5"):
            build(path)


def _write_bartlett_table(path, points=201):
    u = np.linspace(-1.0, 1.0, points)
    np.savetxt(path, np.column_stack([u, 1.0 - np.abs(u)]), delimiter=",")


def test_get_kernel_resolves_a_table_that_pickles(tmp_path):
    path = tmp_path / "k.csv"
    _write_bartlett_table(path)
    tab = get_kernel(f"file:{path}")
    assert tab.name == "tabulated"
    # a worker pool pickles the kernel with each task
    clone = pickle.loads(pickle.dumps(tab))
    u = np.linspace(-1.2, 1.2, 49)
    assert np.array_equal(clone(u), tab(u))
    assert clone.kappa == tab.kappa


def test_q_encoding_and_undersmoothing_check(tmp_path):
    path = tmp_path / "k.csv"
    _write_bartlett_table(path)
    tab = tabulated_kernel(path)
    assert [get_kernel(name).q for name in ALL] == [1.0, 2.0, 2.0, "inf"]
    assert tab.q == "unknown"
    # b (q + 1) > 1 at b = 0.4: first order fails, second order and above pass
    checks = [get_kernel(name).undersmooths(0.4) for name in ALL]
    assert checks == [False, True, True, True]
    assert tab.undersmooths(0.4) is None


def test_kernel_info_payload():
    assert get_kernel("truncated").to_dict() == {
        "name": "truncated",
        "kappa": 2.0,
        "q": "inf",
        "k_q": None,
        "psd_guarantee": False,
        "note": "",
    }


def test_tabulated_kernel_needs_two_columns(tmp_path):
    path = tmp_path / "k.csv"
    path.write_text("-1,0,0\n0,1,0\n1,0,0\n")
    with pytest.raises(InvalidArgument, match="2 columns"):
        tabulated_kernel(path)
