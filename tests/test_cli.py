import argparse
import dataclasses
import logging
import warnings

import numpy as np
import pytest

from conftest import strict_json
from specband import cli, errors
from specband.cli import _parse_entry, build_parser, main
from specband.mc import EXPERIMENTS, ExperimentPlan
from specband.models import parse_model, simulate
from specband.series import write_csv


@pytest.fixture
def wn_csv(tmp_path):
    path = tmp_path / "wn.csv"
    write_csv(simulate(parse_model("white:dim=2"), 512, seed=1), path)
    return str(path)


def _run_json(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, strict_json(out)


def test_estimate_happy_path(wn_csv, capsys):
    code, payload = _run_json(capsys, ["estimate", "--input", wn_csv])
    assert code == 0
    assert payload["schema_version"] == 1
    assert payload["kernel"] == "bartlett"
    assert payload["config"] == {
        "input": wn_csv, "has_header": False, "kernel": "bartlett", "b_exponent": 0.4,
        "c_const": 1.0, "grid": "theorem", "centered": True,
    }
    mats = np.array(payload["matrices"])  # (F, n, n, 2) re/im pairs
    herm_re = mats[:, 0, 1, 0] - mats[:, 1, 0, 0]
    herm_im = mats[:, 0, 1, 1] + mats[:, 1, 0, 1]
    assert np.max(np.abs(herm_re)) < 1e-12
    assert np.max(np.abs(herm_im)) < 1e-12


def test_estimate_output_file(wn_csv, tmp_path, capsys):
    out = tmp_path / "spec.json"
    code = main(["estimate", "--input", wn_csv, "--output", str(out)])
    assert code == 0
    payload = strict_json(out.read_text())
    assert payload["t_len"] == 512


def test_estimate_uniform_grid(wn_csv, capsys):
    code, payload = _run_json(
        capsys, ["estimate", "--input", wn_csv, "--grid", "uniform:11"]
    )
    assert code == 0
    assert len(payload["freqs"]) == 11
    assert payload["freqs"][0] == 0.0
    assert payload["freqs"][-1] == pytest.approx(np.pi)


def test_estimate_missing_file(capsys):
    assert main(["estimate", "--input", "/nonexistent/x.csv"]) == 1


def test_estimate_bad_data_exit_1(tmp_path, capsys):
    path = tmp_path / "bad.csv"
    path.write_text("1,x\n2,3\n")
    assert main(["estimate", "--input", str(path)]) == 1


@pytest.mark.parametrize("command", ["estimate", "bands"])
@pytest.mark.parametrize(
    "text, flags, message",
    [
        ("", [], "InsufficientData: need at least 2 data rows, got 0 (data starts at row 1)"),
        (
            "a,b\n",
            ["--has-header"],
            "InsufficientData: need at least 2 data rows, got 0 (data starts at row 2)",
        ),
        ("1,2\n3,x\n5,6\n", [], "ParseError: non-numeric cell 'x' at row 2, col 2"),
        (
            "h" * 140_000 + ",b\n1,2\n3,4\n",
            ["--has-header"],
            "ParseError: row 1 is not readable CSV: field larger than field limit (131072)",
        ),
        (
            "1,2\n" + "x" * 140_000 + ",3\n5,6\n",
            [],
            "ParseError: row 2 is not readable CSV: field larger than field limit (131072)",
        ),
    ],
    ids=["empty", "header-only", "non-numeric", "oversized-header", "oversized-cell"],
)
def test_rejected_csv_exit_1_with_one_error_line(command, text, flags, message, tmp_path, capsys):
    path = tmp_path / "x.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would reach the user's stderr
        code = main([command, "--input", str(path), *flags])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == [f"error: {message}"]


@pytest.mark.parametrize(
    "argv",
    [
        ["estimate", "--input", "{path}"],
        ["bands", "--input", "{path}"],
        ["kernel-info", "--kernel", "file:{path}"],
        ["simulate", "--model", "var1:file={path}", "--t-len", "64", "--out", "{out}"],
    ],
    ids=["estimate", "bands", "kernel-info", "var1-file"],
)
def test_non_utf8_csv_exit_1_naming_the_row(argv, tmp_path, capsys):
    path, out = tmp_path / "bad.csv", tmp_path / "out.csv"
    path.write_bytes(b"1.0,2.0\n\xff\xfe3.0,4.0\n")
    code = main([arg.format(path=path, out=out) for arg in argv])
    assert code == 1
    assert capsys.readouterr().err.splitlines() == ["error: ParseError: row 2 is not UTF-8 text"]
    assert not out.exists()


@pytest.mark.parametrize("command", ["estimate", "bands"])
@pytest.mark.parametrize(
    "rows",
    [
        "1e308,1\n1e308,2\n-1e308,3\n1e308,4\n",  # the column mean overflows
        "1e200,1\n-1e200,2\n1e200,3\n-1e200,4\n1e200,4\n",  # C(u) overflows
    ],
    ids=["mean", "acov"],
)
def test_overflowing_data_exit_1(command, rows, tmp_path, capsys):
    # every cell is finite, but centering or the autocovariance overflows
    path = tmp_path / "huge.csv"
    path.write_text(rows)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--input", str(path)])
    assert code == 1
    assert caught == []
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: InvalidSeries: ")


@pytest.mark.parametrize("method", ["uniform", "pointwise"])
def test_bands_overflowing_half_width_exit_1(method, tmp_path, capsys):
    # the estimate is finite (about 1.5e304), but f_11 * f_22 is not
    path = tmp_path / "large.csv"
    values = 3e152 * np.random.default_rng(0).standard_normal((600, 2))
    np.savetxt(path, values, delimiter=",")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["bands", "--input", str(path), "--method", method])
    assert code == 1
    assert caught == []
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith("error: BandUndefined: ")
    assert "rescale" in err[0]


@pytest.mark.parametrize("method", ["uniform", "pointwise"])
@pytest.mark.parametrize("scale", [1e-80, 1e-160])
def test_bands_underflowing_spectral_scale_exit_1(scale, method, tmp_path, capsys):
    # the variance scale**2 makes f_11 * f_22 subnormal (1e-80) or 0 (1e-160):
    # the half-widths would lose their digits or be 0
    path = tmp_path / "small.csv"
    np.savetxt(path, scale * np.random.default_rng(0).standard_normal((600, 2)), delimiter=",")
    out = tmp_path / "bands.json"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["bands", "--input", str(path), "--method", method, "--output", str(out)])
    assert code == 1
    assert caught == []
    assert capsys.readouterr().err.splitlines() == [
        "error: DegenerateSpectrum: the spectral scale underflows; rescale the series or model"
    ]
    assert not out.exists()


def test_bands_invalid_level_exit_2(wn_csv, capsys):
    code = main(["bands", "--input", wn_csv, "--level", "1.5"])
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: InvalidArgument: level must lie in (0, 1), got 1.5\n"


def test_bands_uniform_bonferroni(wn_csv, capsys):
    code, payload = _run_json(
        capsys,
        ["bands", "--input", wn_csv, "--entries", "all", "--bonferroni"],
    )
    assert code == 0
    assert payload["method"] == "gumbel_uniform"
    assert payload["bonferroni_m"] == 3
    assert payload["target"] == "expected_smoothed_spectrum"
    assert len(payload["entries"]) == 3
    entry = payload["entries"][0]
    assert entry["i"] == 1 and entry["j"] == 1


def test_bands_pointwise_and_assume_smooth(wn_csv, capsys):
    code, payload = _run_json(
        capsys,
        [
            "bands", "--input", wn_csv, "--method", "pointwise",
            "--entries", "diag", "--assume-smooth",
        ],
    )
    assert code == 0
    assert payload["method"] == "clt_pointwise"
    assert payload["bonferroni_m"] == 1
    assert payload["metadata"]["per_entry_level"] == 0.95
    assert payload["target"] == "true_spectrum"
    assert "undersmoothing_check" in payload
    for entry in payload["entries"]:
        np.testing.assert_allclose(
            np.array(entry["upper"]) - np.array(entry["lower"]),
            2.0 * np.array(entry["half_width"]),
            rtol=1e-12,
        )


def test_bands_assume_smooth_bartlett_is_first_order(wn_csv, capsys):
    # Bartlett has q = 1, so the default b = 0.4 gives b (q + 1) = 0.8 < 1
    code = main(["bands", "--input", wn_csv, "--assume-smooth"])
    captured = capsys.readouterr()
    assert code == 0
    check = strict_json(captured.out)["undersmoothing_check"]
    assert check["b_exponent_times_q_plus_1_gt_1"] is False
    assert check["q"] == 1.0
    assert "VIOLATED" in captured.err


def test_estimate_two_rows_exit_1(tmp_path, capsys):
    path = tmp_path / "short.csv"
    path.write_text("1,2\n3,4\n")
    assert main(["estimate", "--input", str(path)]) == 1
    assert "InsufficientData" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["estimate", "bands", "verify", "kernel-info"])
def test_unknown_kernel_exit_2(command, wn_csv, capsys):
    argv = [command, "--kernel", "nope"]
    if command in ("estimate", "bands"):
        argv += ["--input", wn_csv]
    if command == "verify":
        argv += ["--experiment", "gumbel", "--t-grid", "512", "--reps", "100"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: UnknownKernel: unknown kernel 'nope'")
    assert err.count("\n") == 1


def test_bands_bad_entries_exit_2(wn_csv, capsys):
    assert main(["bands", "--input", wn_csv, "--entries", "9,9"]) == 2


def test_bands_explicit_entries_echo_one_based(wn_csv, capsys):
    code, payload = _run_json(capsys, ["bands", "--input", wn_csv, "--entries", "1,1;2,2"])
    assert code == 0
    assert [(e["i"], e["j"]) for e in payload["entries"]] == [(1, 1), (2, 2)]
    assert payload["config"] == {
        "input": wn_csv, "has_header": False, "kernel": "bartlett", "level": 0.95,
        "entries": "1,1;2,2",
        "method": "uniform", "bonferroni": False, "assume_smooth": False,
        "b_exponent": 0.4, "c_const": 1.0,
    }


@pytest.mark.parametrize(
    "entries, message",
    [
        ("1", "--entries takes 1-based i,j; '1' is not two integers"),
        ("3,1", "entry '3,1' outside 1..2"),
        (";", "no entries"),
        ("1,1;1,1", "entry '1,1' repeats '1,1'"),
        ("1,2; 2,1", "entry '2,1' repeats '1,2': f_ji is the conjugate of f_ij"),
    ],
)
def test_bands_malformed_entries_exit_2_with_one_error_line(entries, message, wn_csv, capsys):
    assert main(["bands", "--input", wn_csv, "--entries", entries]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: UsageError: ") and message in captured.err
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("grid", ["uniform:1", "foo"])
def test_estimate_bad_grid_exit_2(grid, wn_csv, capsys):
    assert main(["estimate", "--input", wn_csv, "--grid", grid]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: UsageError: ") and err.count("\n") == 1


_EXIT_CODES = [
    (errors.UsageError, 2),
    (errors.InvalidArgument, 2),
    (errors.InvalidBandwidth, 2),
    (errors.InvalidModel, 2),
    (errors.InvalidPlan, 2),
    (errors.UnknownKernel, 2),
    (errors.InvalidSeries, 1),
    (errors.ParseError, 1),
    (errors.UnsupportedModel, 1),
    (errors.InsufficientData, 1),
    (errors.NonStationaryModel, 1),
    (errors.DegenerateSpectrum, 1),
    (errors.BandUndefined, 1),
]


@pytest.mark.parametrize("error, code", _EXIT_CODES)
def test_error_classes_carry_their_exit_code(error, code):
    assert issubclass(error, errors.SpecbandError)
    assert error.exit_code == code


def test_exit_code_table_names_every_error_class():
    # a class added to or folded out of errors must declare its exit code here
    defined = {
        cls for cls in vars(errors).values()
        if isinstance(cls, type) and issubclass(cls, errors.SpecbandError)
    }
    assert {error for error, _ in _EXIT_CODES} == defined - {errors.SpecbandError}


def test_simulate_estimate_round_trip(tmp_path, capsys):
    series_path = tmp_path / "x.csv"
    meta_path = tmp_path / "meta.json"
    code = main(
        [
            "simulate", "--model", "ar1:phi=0.5", "--t-len", "256",
            "--seed", "11", "--out", str(series_path), "--meta", str(meta_path),
        ]
    )
    assert code == 0
    meta = strict_json(meta_path.read_text())
    assert meta == {
        "schema_version": 1, "model": "ar1:phi=0.5", "t_len": 256, "seed": 11,
        "out": str(series_path), "n_dim": 1,
    }
    code, payload = _run_json(capsys, ["estimate", "--input", str(series_path)])
    assert code == 0
    assert payload["t_len"] == 256


def test_simulate_bad_model_exit_2(tmp_path, capsys):
    code = main(
        ["simulate", "--model", "nope:z=1", "--t-len", "64",
         "--out", str(tmp_path / "x.csv")]
    )
    assert code == 2


_BAD_MODELS = [
    ("white:sigma2=0", "positive definite"),
    ("white:sigma2=-1", "positive definite"),
    ("white:sigma2=nan", "finite"),
    ("white:dim=0", "dim >= 1"),
    ("ar1:phi=0.5,sigma2=0", "positive definite"),
    # ar1 is a 1x1 VAR(1), so VAR1's check words the error; the id names the fault
    pytest.param("ar1:phi=nan", "VAR(1) coefficient must be a finite square matrix",
                 id="ar1:phi=nan-finite phi"),
    ("tar:a=0.5,b=nan", "finite a, b"),
    ("tar:a=0.5,b=0.2,sigma2=0", "0 < sigma2"),
    ("ar1:phi=abc", "could not convert"),
    ("white:dim=1.5", "invalid literal"),
    ("ar1:phi=0.5,sigma=4", "ar1 model: unknown key 'sigma'; it takes phi, sigma2"),
    ("white:dim=2,dim=3", "white model: repeated key 'dim'; it takes dim, sigma2"),
    ("ar1:sigma2=2", "ar1 model needs phi=, e.g. ar1:phi=0.5"),
    ("var1:sigma=S.csv", "var1 model needs file=A.csv (or var1:default)"),
    ("vma:sigma=S.csv", "vma model needs file=B0.csv;B1.csv;..."),
    ("tar:a=0.5", "tar model needs a= and b="),
]


@pytest.mark.parametrize("command", ["simulate", "verify", "depmeasure"])
@pytest.mark.parametrize("model, message", _BAD_MODELS)
def test_invalid_model_exit_2_with_one_error_line(command, model, message, tmp_path, capsys):
    argv = {
        "simulate": ["simulate", "--t-len", "64", "--out", str(tmp_path / "x.csv")],
        "verify": ["verify", "--experiment", "gumbel", "--t-grid", "64", "--reps", "100"],
        "depmeasure": ["depmeasure", "--horizon", "4", "--reps", "50"],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would reach the user's stderr
        code = main([*argv, "--model", model])
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: InvalidModel: ") and message in err[0]
    assert not (tmp_path / "x.csv").exists()


@pytest.mark.parametrize("threads", ["0", "-1"])
def test_verify_threads_below_one_exit_2(threads, capsys):
    code = main(
        ["verify", "--experiment", "gumbel", "--t-grid", "64", "--reps", "100",
         "--threads", threads]
    )
    assert code == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: InvalidPlan: workers must be >= 1, got {threads}"]


def test_verify_bias_rate_on_flat_spectrum_exit_2(capsys):
    code = main(["verify", "--experiment", "bias-rate", "--kernel", "bartlett",
                 "--t-grid", "1024,4096"])
    assert code == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: InvalidPlan: ")
    assert "no smoothing bias" in err[0]
    assert captured.out == ""


@pytest.mark.parametrize("command", ["estimate", "bands", "verify"])
@pytest.mark.parametrize("c_const", ["inf", "nan", "0", "-1"])
def test_bad_bandwidth_constant_exit_2_with_one_error_line(command, c_const, wn_csv, capsys):
    argv, name = {
        "estimate": (["estimate", "--input", wn_csv], "InvalidBandwidth"),
        "bands": (["bands", "--input", wn_csv], "InvalidBandwidth"),
        "verify": (
            ["verify", "--experiment", "gumbel", "--t-grid", "64", "--reps", "100"],
            "InvalidPlan",
        ),
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would reach the user's stderr
        code = main([*argv, f"--c-const={c_const}"])
    assert code == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {name}: ")
    assert "finite and positive" in err[0]
    assert captured.out == ""


def test_depmeasure(capsys):
    code, payload = _run_json(
        capsys,
        [
            "depmeasure", "--model", "ar1:phi=0.5", "--p", "2",
            "--horizon", "8", "--reps", "400", "--seed", "7",
            "--check-conditions",
        ],
    )
    assert code == 0
    assert payload["p"] == 2
    assert len(payload["delta"]) == 9
    assert payload["conditions"]["bandwidth_window_ok"] is True


def _conditions(capsys, *flags):
    code, payload = _run_json(
        capsys,
        ["depmeasure", "--model", "ar1:phi=0.5", "--horizon", "8", "--reps", "400",
         "--seed", "7", "--check-conditions", *flags],
    )
    assert code == 0
    return payload["conditions"]


def test_depmeasure_independent_components_evaluates_thresholds_at_half_p(capsys):
    # p/2 = 4 puts alpha1 at max(1/2 - 0, 2/4) and alpha2 at max(1 - 0, 0)
    report = _conditions(capsys, "--p", "8", "--independent-components")
    assert report["independent_components"] is True and report["p"] == 8
    assert (report["alpha1_threshold"], report["alpha2_threshold"]) == (0.5, 1.0)
    assert "thresholds evaluated with p replaced by p/2" in report["notes"]
    at_half = _conditions(capsys, "--p", "4")
    assert at_half["independent_components"] is False
    assert not any("p/2" in note for note in at_half["notes"])
    for key in ("alpha1_threshold", "alpha2_threshold"):
        assert report[key] == at_half[key]


def test_depmeasure_reports_an_empty_bandwidth_window(capsys):
    report = _conditions(capsys, "--b-exponent-lower", "0.5", "--b-exponent-upper", "0.4")
    assert report["bandwidth_window_ok"] is False
    assert (report["b_lower"], report["b"]) == (0.5, 0.4)


@pytest.mark.parametrize(
    "model, args",
    [
        ("var1", ["--p", "2", "--horizon", "10", "--reps", "200"]),  # A[0, 1] = 1e150
        ("white", ["--horizon", "4", "--reps", "100", "--p", "1e300"]),
        ("ar1:phi=0.5", ["--horizon", "4", "--reps", "100", "--p", "700"]),
    ],
)
def test_depmeasure_far_from_unit_scale_stays_finite(model, args, tmp_path, capsys):
    if model == "var1":
        (tmp_path / "A.csv").write_text("0.99,1e150\n0,0.99\n")
        model = f"var1:file={tmp_path / 'A.csv'}"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")  # var1's growing delta has no decay fit
        code, payload = _run_json(capsys, ["depmeasure", "--model", model, *args])
    assert code == 0
    assert [w for w in caught if issubclass(w.category, RuntimeWarning)] == []
    for key in ("delta", "delta_se", "theta", "psi", "d_seq", "theta_se"):
        assert np.all(np.isfinite(payload[key])), key
    if model != "white":  # white noise has no dependence past t = 0
        # the largest samples carry delta as p grows: none is lost to underflow
        assert all(row[0] > 0.0 for row in payload["delta"][1:])


_VERIFY = ["verify", "--t-grid", "64", "--reps", "100"]
_DEPMEASURE = ["depmeasure", "--model", "ar1:phi=0.5", "--horizon", "4", "--reps", "100"]
_NU = "InvalidPlan: nu_star and nu must lie in [1, 100]"
_P = "InvalidArgument: p must be finite and >= 1"
_DELTA = "InvalidArgument: delta_param must be finite and positive"


@pytest.mark.parametrize(
    "argv, message",
    [
        ([*_VERIFY, "--experiment", "moments", "--nu-star", "nan"], _NU),
        ([*_VERIFY, "--experiment", "moments", "--nu-star", "inf"], _NU),
        ([*_VERIFY, "--experiment", "uniform-rate", "--nu", "nan"], _NU),
        ([*_VERIFY, "--experiment", "uniform-rate", "--nu", "inf"], _NU),
        ([*_VERIFY, "--experiment", "moments", "--nu-star", "120"], _NU),
        ([*_VERIFY, "--experiment", "uniform-rate", "--nu", "2000"], _NU),
        ([*_DEPMEASURE, "--p", "nan"], _P),
        ([*_DEPMEASURE, "--p", "inf"], _P),
        ([*_DEPMEASURE, "--check-conditions", "--delta-param", "0"], _DELTA),
        ([*_DEPMEASURE, "--check-conditions", "--delta-param", "-1"], _DELTA),
        ([*_DEPMEASURE, "--check-conditions", "--delta-param", "nan"], _DELTA),
        ([*_DEPMEASURE, "--check-conditions", "--delta-param", "inf"], _DELTA),
        ([*_DEPMEASURE, "--reps", "50"], "InvalidArgument: need at least 100 replications"),
        ([*_DEPMEASURE, "--horizon", "3"], "InvalidArgument: horizon must be at least 4"),
        (
            ["depmeasure", "--horizon", "4", "--reps", "100", "--model", "white:sigma2=1e308"],
            "InvalidModel: model 'white:sigma2=1e308': its dependence overflows at p = 4",
        ),
        (  # the fitted tail's (A rho^(H+1))^p' is past the float range
            ["depmeasure", "--horizon", "4", "--reps", "200", "--p", "1000",
             "--model", "ar1:phi=0.9,sigma2=3.4e307"],
            "InvalidModel: model 'ar1:phi=0.9,sigma2=3.4e307': its dependence overflows "
            "at p = 1000",
        ),
        (
            ["simulate", "--model", "white", "--out", "unused.csv", "--t-len", "1"],
            "InvalidArgument: t_len must be at least 2",
        ),
    ],
    ids=lambda v: " ".join(v[-2:]) if isinstance(v, list) else "",
)
def test_bad_numeric_parameter_exit_2_with_one_error_line(argv, message, capsys):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a warning would reach the user's stderr
        code = main(argv)
    assert code == 2
    captured = capsys.readouterr()
    err = captured.err.splitlines()
    assert err == [f"error: {message}"]
    assert captured.out == ""


_SEED = "seed must be a non-negative integer, got -1"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["simulate", "--model", "white", "--t-len", "16"], f"InvalidArgument: {_SEED}"),
        (_DEPMEASURE, f"InvalidArgument: {_SEED}"),
        ([*_VERIFY, "--experiment", "clt", "--threads", "1"], f"InvalidPlan: {_SEED}"),
        ([*_VERIFY, "--experiment", "clt", "--threads", "2"], f"InvalidPlan: {_SEED}"),
    ],
    ids=["simulate", "depmeasure", "verify-1-worker", "verify-2-workers"],
)
def test_negative_seed_exit_2_names_the_seed(argv, message, tmp_path, capsys):
    out = tmp_path / "x.csv"
    if argv[0] == "simulate":
        argv = [*argv, "--out", str(out)]
    assert main([*argv, "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {message}"]
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("entry", ["1", "1,1,1", ""])
def test_verify_entry_needs_two_indices_exit_2(entry, capsys):
    code = main(["verify", "--experiment", "gumbel", "--t-grid", "64", "--entry", entry])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: UsageError: --entry takes 1-based i,j; {entry!r} is not two integers"
    ]
    assert captured.out == ""


def test_verify_reps_floor_exit_2(capsys):
    code = main(
        ["verify", "--experiment", "gumbel", "--reps", "50", "--t-grid", "512"]
    )
    assert code == 2
    assert "InvalidPlan" in capsys.readouterr().err


@pytest.mark.parametrize("model, entry", [("white", "3,3"), ("white:dim=2", "0,0")])
def test_verify_entry_outside_model_exit_2(model, entry, capsys):
    code = main(
        [
            "verify", "--experiment", "gumbel", "--model", model, "--entry", entry,
            "--t-grid", "64", "--reps", "100",
        ]
    )
    assert code == 2
    assert "InvalidPlan" in capsys.readouterr().err


def test_verify_runs_and_writes_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    plot = tmp_path / "plot.csv"
    code = main(
        [
            "verify", "--experiment", "uniform-rate", "--model", "white",
            "--t-grid", "512,1024", "--reps", "100", "--seed", "3",
            "--out", str(out), "--plot-data", str(plot),
        ]
    )
    assert code == 0
    report = strict_json(out.read_text())
    assert report["plan"]["experiment"] == "uniform_rate"
    err = capsys.readouterr().err
    assert "[PASS]" in err or "[FAIL]" in err
    lines = plot.read_text().strip().splitlines()
    assert lines[0] == "experiment,T,statistic,value,se"
    assert len(lines) > 1


def test_verify_writes_the_same_bytes_to_stdout_and_out(tmp_path, capsys):
    plan = ["verify", "--experiment", "gumbel", "--model", "white", "--t-grid", "256,512",
            "--reps", "100", "--seed", "4"]
    out = tmp_path / "report.json"
    assert main([*plan, "--out", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert main(plan) == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()


def _verify_reports_per_worker_count(tmp_path, plan):
    outs = []
    for workers, name in ((1, "a.json"), (2, "b.json")):
        out = tmp_path / name
        code = main(
            ["verify", *plan, "--reps", "100", "--threads", str(workers), "--out", str(out)]
        )
        assert code == 0
        outs.append(out.read_bytes())
    return outs


def test_verify_determinism_across_threads(tmp_path):
    plan = ["--experiment", "clt", "--model", "white", "--t-grid", "512", "--seed", "5"]
    serial, parallel = _verify_reports_per_worker_count(tmp_path, plan)
    assert serial == parallel


def test_verify_var1_coverage_determinism_across_threads(tmp_path):
    plan = ["--experiment", "coverage", "--model", "var1:default", "--t-grid", "512,1024"]
    serial, parallel = _verify_reports_per_worker_count(tmp_path, plan)
    assert serial == parallel


def test_kernel_info(capsys):
    code, payload = _run_json(capsys, ["kernel-info", "--kernel", "bartlett"])
    assert code == 0
    assert payload["name"] == "bartlett"
    assert payload["kappa"] == pytest.approx(2.0 / 3.0)
    assert payload["psd_guarantee"] is True
    code, payload = _run_json(capsys, ["kernel-info", "--kernel", "truncated"])
    assert payload["q"] == "inf"


@pytest.fixture
def kernel_csv(tmp_path):
    """Bartlett's window tabulated at 21 points, as a kernel table."""
    path = tmp_path / "kernel.csv"
    u = np.linspace(-1.0, 1.0, 21)
    np.savetxt(path, np.column_stack([u, 1.0 - np.abs(u)]), delimiter=",")
    return str(path)


def test_tabulated_kernel_bias_order_unknown(wn_csv, kernel_csv, capsys):
    kernel = f"file:{kernel_csv}"
    code, payload = _run_json(capsys, ["kernel-info", "--kernel", kernel])
    assert code == 0
    assert payload["q"] == "unknown"
    code = main(["bands", "--input", wn_csv, "--kernel", kernel, "--assume-smooth"])
    captured = capsys.readouterr()
    assert code == 0
    check = strict_json(captured.out)["undersmoothing_check"]
    assert check == {
        "b_exponent_times_q_plus_1_gt_1": None,
        "q": "unknown",
        "note": "an asymptotic rate condition: the smoothing bias at this "
        "bandwidth is not estimated",
    }
    assert "b*(q+1) > 1: unknown (bias order unknown)" in captured.err
    assert f"({check['note']})" in captured.err


def test_bands_pointwise_bonferroni_exit_2_before_reading_input(capsys):
    # the input does not exist: a check after reading it would exit 1
    argv = ["bands", "--input", "/nonexistent/x.csv", "--method", "pointwise", "--bonferroni"]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: UsageError: --bonferroni applies to --method uniform only"
    ]
    assert captured.out == ""


def test_verify_experiment_choices_are_the_hyphenated_experiments():
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    choices = next(a for a in sub.choices["verify"]._actions if a.dest == "experiment").choices
    assert choices == [name.replace("_", "-") for name in EXPERIMENTS]
    assert set(choices) == {
        "clt", "gumbel", "moments", "uniform-rate", "bias-rate", "coverage"
    }
    for choice in choices:  # each one is a plan _cmd_verify can build
        ExperimentPlan(choice.replace("-", "_"))


def test_verify_parser_defaults_are_the_plan_defaults():
    args = build_parser().parse_args(["verify", "--experiment", "gumbel"])
    parsed = {
        "model_spec": args.model,
        "kernel_name": args.kernel,
        "t_grid": tuple(int(t) for t in args.t_grid.split(",")),
        "b_exponent": args.b_exponent,
        "c_const": args.c_const,
        "reps": args.reps,
        "seed": args.seed,
        "entry": _parse_entry(args.entry, "--entry"),
        "level": args.level,
        "nu_star": args.nu_star,
        "nu": args.nu,
        "workers": args.threads,
    }
    defaults = {f.name: f.default for f in dataclasses.fields(ExperimentPlan)}
    del defaults["experiment"]  # required
    assert parsed == defaults
    assert parsed["entry"] == (0, 0)


# the verify flag of each field some experiment reads, with a valid value off its default
_PLAN_FLAGS = {
    "reps": ("--reps", "101"), "seed": ("--seed", "4"), "b_exponent": ("--b-exponent", "0.5"),
    "c_const": ("--c-const", "2"), "entry": ("--entry", "1,2"), "level": ("--level", "0.8"),
    "nu_star": ("--nu-star", "2"), "nu": ("--nu", "3"),
}


@pytest.mark.parametrize(
    "experiment, name",
    [(exp, name) for exp, spec in EXPERIMENTS.items() for name in _PLAN_FLAGS
     if name not in spec.reads],
)
def test_verify_flag_the_experiment_does_not_read_exit_2(experiment, name, tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = ["verify", "--experiment", experiment.replace("_", "-"), "--model", "white:dim=2",
            "--t-grid", "256", *_PLAN_FLAGS[name], "--out", str(out)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        f"error: InvalidPlan: {experiment} does not read {name}; leave it unset"
    ]
    assert captured.out == "" and not out.exists()


def test_verify_flag_at_its_default_is_accepted(capsys):
    # argparse cannot tell --reps 500 from no --reps, so bias-rate takes it
    argv = ["verify", "--experiment", "bias-rate", "--model", "ar1:phi=0.5",
            "--t-grid", "4096", "--reps", "500", "--seed", "1", "--level", "0.95"]
    code, report = _run_json(capsys, argv)
    assert code == 0
    assert "reps" not in report["plan"] and "seed" not in report["plan"]


def test_verify_no_raw_drops_only_the_raw_key(capsys):
    plan = ["verify", "--experiment", "gumbel", "--t-grid", "64,128", "--reps", "100",
            "--seed", "3"]
    code, full = _run_json(capsys, plan)
    assert code == 0
    code, lean = _run_json(capsys, [*plan, "--no-raw"])
    assert code == 0
    assert set(full["raw"]) == {"centered_max_T64", "centered_max_T128"}
    assert "raw" not in lean
    del full["raw"]
    assert list(lean) == list(full) and lean == full


def test_unknown_flag_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["estimate", "--input", "x.csv", "--frobnicate"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "experiment, message",
    [("gumbel", "no closed-form Gamma(u)"), ("bias-rate", "no closed-form Gamma(u)")],
)
def test_verify_on_threshold_ar_exit_1_without_report(experiment, message, tmp_path, capsys):
    out = tmp_path / "report.json"
    argv = [
        "verify", "--experiment", experiment, "--model", "tar:a=0.5,b=-0.5",
        "--t-grid", "512", "--out", str(out),
    ]
    assert main(argv) == 1
    err = capsys.readouterr().err.splitlines()
    assert err == [f"error: UnsupportedModel: model 'threshold_ar1' has {message}"]
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--grid", "uniform:x", "--grid takes uniform:<count>; 'x'"),
        ("--entry", "1,x", "--entry takes 1-based i,j; 'x'"),
        ("--t-grid", "256,abc", "--t-grid takes T,T,...; 'abc'"),
    ],
)
def test_malformed_integer_flag_exit_2_names_the_flag(flag, value, message, wn_csv, capsys):
    if flag == "--grid":
        argv = ["estimate", "--input", wn_csv]
    else:
        argv = ["verify", "--experiment", "gumbel"]
    assert main([*argv, flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: UsageError: {message} is not an integer"]
    assert captured.out == ""


def test_verify_tabulated_kernel_determinism_across_threads(kernel_csv, tmp_path):
    plan = ["--experiment", "gumbel", "--kernel", f"file:{kernel_csv}", "--t-grid", "512,1024"]
    serial, parallel = _verify_reports_per_worker_count(tmp_path, plan)
    assert serial == parallel
    assert strict_json(serial.decode())["plan"]["kernel"] == f"file:{kernel_csv}"


def test_bias_rate_tabulated_kernel_q_claim_unknown(kernel_csv, tmp_path, capsys):
    plot = tmp_path / "plot.csv"
    argv = [
        "verify", "--experiment", "bias-rate", "--model", "ar1:phi=0.5",
        "--kernel", f"file:{kernel_csv}", "--t-grid", "4096", "--plot-data", str(plot),
    ]
    code, report = _run_json(capsys, argv)
    assert code == 0
    assert report["rows"][-1]["kernel_q_claim"] == "unknown"
    assert "kernel_q_claim" not in plot.read_text()


def test_bias_rate_needs_the_largest_t_above_its_largest_bandwidth(capsys):
    argv = ["verify", "--experiment", "bias-rate", "--model", "ar1:phi=0.5", "--t-grid"]
    assert main([*argv, "128"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: InvalidPlan: ") and "T = 128" in line
    assert "b_grid" not in line
    code, report = _run_json(capsys, [*argv, "129"])
    assert code == 0
    assert [row["bandwidth"] for row in report["rows"][:-1]] == [8, 16, 32, 64, 128]
    assert "b_grid" not in report["plan"]


@pytest.mark.parametrize("experiment", ["bias-rate", "gumbel"])
def test_verify_logs_its_configuration_before_reading_a_kernel_table(
    experiment, kernel_csv, caplog, tmp_path
):
    caplog.set_level(logging.INFO, logger="specband")
    reps = ["--reps", "100"] if experiment == "gumbel" else []  # bias-rate reads none
    argv = ["verify", "--experiment", experiment, "--model", "ar1:phi=0.5", "--kernel",
            f"file:{kernel_csv}", "--t-grid", "256", *reps,
            "--out", str(tmp_path / "report.json")]
    assert main(argv) == 0
    config, read = caplog.messages[:2]
    assert config.startswith(f"verify {experiment.replace('-', '_')}: numpy ")
    assert read.startswith(f"read {kernel_csv}: 21 rows x 2 columns")


@pytest.mark.parametrize(
    "table, error",
    [
        ("-1,0\n0\n1,0\n", "ParseError: row 2 has 1 columns, expected 2"),
        ("-1,0\n0,1,2\n1,0\n", "ParseError: row 2 has 3 columns, expected 2"),
        ("", "InsufficientData: need at least 2 data rows, got 0 (data starts at row 1)"),
        ("u,K\n-1,0\n0,1\n1,0\n", "ParseError: non-numeric cell 'u' at row 1, col 1"),
    ],
    ids=["one-cell row", "three-cell row", "empty file", "header row"],
)
def test_kernel_table_format_error_exit_1_with_one_error_line(table, error, tmp_path, capsys):
    path = tmp_path / "kernel.csv"
    path.write_text(table)
    assert main(["kernel-info", "--kernel", f"file:{path}"]) == 1
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [f"error: {error}"]
    assert captured.out == ""


def test_kernel_table_short_of_one_exit_2(tmp_path, capsys):
    path = tmp_path / "kernel.csv"
    path.write_text("-0.5,0.5\n0,1\n0.5,0.5\n")
    assert main(["kernel-info", "--kernel", f"file:{path}"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == [
        "error: InvalidArgument: tabulated kernel grid must reach |u| = 1, it stops at 0.5"
    ]
    assert captured.out == ""


@pytest.mark.parametrize("commented", ["A", "B1", "S"])
def test_model_matrix_file_comment_line_is_a_parse_error(commented, tmp_path, capsys):
    # model matrix files follow the series CSV rules: "#" is a bad cell
    files = {"A": "0.4,0.1\n0.0,0.3\n", "B1": "0.5,0.0\n0.2,0.5\n", "S": "1.0,0.2\n0.2,1.0\n"}
    files[commented] = "# coefficient\n" + files[commented]
    for name, text in files.items():
        (tmp_path / f"{name}.csv").write_text(text)
    a, b1, s = (tmp_path / f"{name}.csv" for name in ("A", "B1", "S"))
    model = f"var1:file={a},sigma={s}" if commented != "B1" else f"vma:file={a};{b1}"
    out = tmp_path / "x.csv"
    assert main(["simulate", "--model", model, "--t-len", "64", "--out", str(out)]) == 1
    assert capsys.readouterr().err.splitlines() == [
        "error: ParseError: non-numeric cell '# coefficient' at row 1, col 1"
    ]
    assert not out.exists()


def test_stray_value_error_exit_2_with_one_error_line(monkeypatch, capsys):
    def broken(args):
        raise ValueError("not a domain error")

    monkeypatch.setattr(cli, "_cmd_kernel_info", broken)  # the parser binds it per call
    assert main(["kernel-info", "--kernel", "bartlett"]) == 2
    captured = capsys.readouterr()
    assert captured.err.splitlines() == ["error: ValueError: not a domain error"]
    assert captured.out == ""


def test_out_of_memory_exit_1_with_one_error_line(tmp_path, capsys):
    # white:dim=10^8 asks numpy for a 71 PiB covariance, which fails at once
    out = tmp_path / "x.csv"
    argv = ["simulate", "--model", "white:dim=100000000", "--t-len", "10", "--out", str(out)]
    assert main(argv) == 1
    captured = capsys.readouterr()
    [line] = captured.err.splitlines()
    assert line.startswith("error: MemoryError: Unable to allocate")
    assert captured.out == ""
    assert not out.exists()
