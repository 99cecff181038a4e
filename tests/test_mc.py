import logging
import math
import re
import warnings

import numpy as np
import pytest
from scipy.special import ndtr
from scipy.stats import gumbel_r, kstest, norm

from conftest import strict_json, traced_peak
from specband.errors import DegenerateSpectrum, InvalidArgument, InvalidModel
from specband.inference import _check_entries, _check_level, gumbel_cdf
from specband import mc
from specband.cli import main
from specband.mc import (
    ExperimentPlan,
    _ks_statistic,
    gumbel_abs_norm,
    gumbel_mean,
    pool_size,
    run_experiment,
)


def _one_estimate(plan, index, rep, freqs):
    """Replication ``rep`` of grid cell ``index``, estimated on its own."""
    t_len = plan.t_grid[index]
    b_val = mc.Bandwidth(t_len, plan.b_exponent, plan.c_const).value
    rng = np.random.default_rng([plan.seed, index, rep])
    acov = mc.autocov_matrices(plan.model().simulate_values(t_len, rng), b_val)
    return mc.estimate_matrices(acov, plan.kernel(), b_val, freqs)


@pytest.mark.parametrize(
    "experiment, name", [("gumbel", "max_deviation"), ("coverage", "uniform_band")]
)
def test_statistic_runs_once_per_run(experiment, name, monkeypatch):
    # called by name from mc's namespace, once on each run's stacked grid:
    # 101 reps are cut into runs 0-49 and 50-100, in that order in each cell
    calls = []
    real = getattr(mc, name)

    def counted(est, *args, **kwargs):
        calls.append((est.t_len, est.matrices.copy(), est.freqs))
        return real(est, *args, **kwargs)

    monkeypatch.setattr(mc, name, counted)
    plan = ExperimentPlan(experiment, t_grid=(256, 512), reps=101, seed=2)
    run_experiment(plan)
    runs = mc._runs(plan.reps, 0)
    assert [len(r) for r in runs] == [50, 51]
    assert [(t, m.shape[0]) for t, m, _ in calls] == [
        (t, len(r)) for t in plan.t_grid for r in runs
    ]
    for k, (_, matrices, freqs) in enumerate(calls):
        index, run = divmod(k, len(runs))
        for est, rep in zip(matrices, runs[run]):
            assert np.array_equal(est, _one_estimate(plan, index, rep, freqs))


def _recording_grids(grids, oracle):
    def counted(*args):
        grids.append(args[-1])  # each oracle takes the frequency grid last
        return oracle(*args)

    return counted


# the experiments that draw replications; bias_rate reads its cells' oracles alone
_DRAWING = [name for name, spec in mc.EXPERIMENTS.items() if spec.reduce]


@pytest.mark.parametrize("experiment", _DRAWING)
def test_exact_spectra_are_evaluated_once_per_cell(experiment, monkeypatch):
    # 101 reps make two runs per cell; the oracles belong to the cell, not the run
    calls = {"expected_spectrum": [], "true_spectrum": []}
    for name, grids in calls.items():
        monkeypatch.setattr(mc, name, _recording_grids(grids, getattr(mc, name)))
    plan = ExperimentPlan(experiment, t_grid=(256, 512), reps=101, seed=2)
    run_experiment(plan)
    assert len(mc._runs(plan.reps, 0)) == 2
    centers = calls["expected_spectrum"]
    assert len(centers) == len(plan.t_grid)
    needs_truth = experiment in ("clt", "gumbel", "moments")
    assert [f.size for f in calls["true_spectrum"]] == (
        [f.size for f in centers] if needs_truth else []
    )


@pytest.mark.parametrize("experiment", _DRAWING)
def test_report_does_not_depend_on_where_runs_are_cut(experiment, monkeypatch):
    entry = {} if experiment == "coverage" else {"entry": (0, 1)}  # coverage bands all
    plan = ExperimentPlan(experiment, model_spec="white:dim=2", t_grid=(256, 512),
                          reps=100, seed=3, **entry)
    wide = mc._runs(plan.reps, 0)
    expected = run_experiment(plan).to_json()
    monkeypatch.setattr(mc, "_RUN_REPS", 7)
    assert len(mc._runs(plan.reps, 0)) > len(wide)  # 15 runs of 6 or 7, not 2 of 50
    assert run_experiment(plan).to_json() == expected


def test_coverage_cell_holds_no_estimate_stack():
    # the cell's (reps, F, n, n) complex estimates would take 17.4 MB; a run of
    # at most 64 reps works in a few MB and leaves 36 flags per replication
    plan = ExperimentPlan("coverage", model_spec="white:dim=8", t_grid=(1024,),
                          reps=1000, seed=1)
    b_val = mc.Bandwidth(1024, plan.b_exponent, plan.c_const).value
    stack = plan.reps * (b_val + 1) * 8**2 * 16
    peak = traced_peak(lambda: plan, run_experiment)
    assert peak < stack / 2


def test_plan_validation():
    with pytest.raises(InvalidArgument, match="^unknown experiment 'nope'$"):
        ExperimentPlan(experiment="nope")
    with pytest.raises(InvalidArgument, match="^reps must be >= 100, got 50$"):
        ExperimentPlan(experiment="clt", reps=50)
    with pytest.raises(InvalidArgument, match="^t_grid must be strictly increasing"):
        ExperimentPlan(experiment="clt", t_grid=(4096, 4096))
    with pytest.raises(InvalidArgument, match=r"^bandwidth exponent must lie in \(0, 1\)$"):
        ExperimentPlan(experiment="clt", b_exponent=1.2)
    # numpy integers are integers; the plan stores them as ints
    plan = ExperimentPlan("gumbel", t_grid=np.array([64, 128]), entry=np.zeros(2, int))
    assert plan.t_grid == (64, 128) and plan.entry == (0, 0)
    assert {type(v) for v in plan.t_grid + plan.entry} == {int}
    # bias_rate is simulation-free: it reads no reps, so its plan leaves them unset
    ExperimentPlan(experiment="bias_rate", t_grid=(2**18,))


@pytest.mark.parametrize(
    "fields",
    [
        # bias_rate's largest bandwidth, 128, must lie below the largest T
        dict(experiment="bias_rate", t_grid=(128,)),
        dict(experiment="bias_rate", t_grid=(127,)),
        dict(experiment="bias_rate", t_grid=(3,)),
        dict(experiment="bias_rate", t_grid=(64, 128)),
        dict(experiment="bias_rate", t_grid=(16, 32, 100)),
        dict(experiment="bias_rate", t_grid=(8,)),
        dict(experiment="moments", nu_star=0.5),
        dict(experiment="uniform_rate", nu=0.5),
        dict(experiment="clt", t_grid=(2, 512)),
        dict(experiment="clt", t_grid=()),
        dict(experiment="clt", workers=0),
        dict(experiment="clt", workers=-2),
        dict(experiment="moments", nu_star=float("nan")),
        dict(experiment="moments", nu_star=float("inf")),
        dict(experiment="uniform_rate", nu=float("nan")),
        dict(experiment="uniform_rate", nu=float("inf")),
        dict(experiment="moments", nu_star=120.0),  # the limit law's norm overflows
        dict(experiment="uniform_rate", nu=2000.0),  # sup**nu underflows to 0
        dict(experiment="uniform_rate", nu=100.5),
        dict(experiment="clt", seed=-1),
        dict(experiment="coverage", level=1.0),
        # a field the experiment does not read must keep its default
        dict(experiment="gumbel", nu=7.0),
        dict(experiment="coverage", entry=(0, 1)),
        dict(experiment="bias_rate", reps=100),
        dict(experiment="bias_rate", seed=3),
    ],
    # the first 21 keep the names pytest numbered them by, so that no id
    # depends on the rows above it
    ids=[
        "fields0", "fields1", "fields2", "fields3", "fields4", "fields5", "fields6",
        "fields7", "fields8", "fields9", "fields10", "fields11", "fields12", "fields13",
        "fields14", "fields15", "fields16", "fields17", "fields18", "fields19", "fields20",
        "gumbel-nu", "coverage-entry", "bias_rate-reps", "bias_rate-seed",
    ],
)
def test_plan_rejects_out_of_range_fields(fields):
    with pytest.raises(InvalidArgument):
        ExperimentPlan(**fields)


@pytest.mark.parametrize(
    "name, value",
    [("t_grid", (64.9, 128.2)), ("entry", (0.7, 0)), ("reps", 100.5), ("workers", 2.5)],
    ids=["t_grid", "entry", "reps", "workers"],
)
def test_plan_rejects_a_non_integral_integer_field(name, value):
    # none is truncated to an int, and none waits for run_experiment to fail
    with pytest.raises(InvalidArgument) as exc:
        ExperimentPlan("gumbel", **{name: value})
    assert str(exc.value) == f"{name} takes integers only, got {value}"


@pytest.mark.parametrize(
    "name, value, message",
    [
        ("b_exponent", "0.5", "b_exponent takes a real number, got '0.5'"),
        ("level", None, "level takes a real number, got None"),
        ("t_grid", 512, "t_grid takes integers only, got 512"),
        ("entry", None, "entry takes integers only, got None"),
        ("model_spec", 5, "model_spec takes a string, got 5"),
    ],
    ids=["b_exponent", "level", "t_grid", "entry", "model_spec"],
)
def test_plan_rejects_a_mistyped_field_naming_it(name, value, message):
    # the type is checked before any range check, so no TypeError escapes
    with pytest.raises(InvalidArgument, match=f"^{re.escape(message)}$"):
        ExperimentPlan("coverage", **{name: value})


@pytest.mark.parametrize(
    "name, value, owner",
    [
        ("b_exponent", 1.5, lambda: mc.Bandwidth(64, 1.5)),
        ("c_const", math.inf, lambda: mc.Bandwidth(64, 0.4, math.inf)),
        ("level", 1.5, lambda: _check_level(1.5)),
        ("entry", (0, 1), lambda: _check_entries([(0, 1)], 1)),
    ],
    ids=["b_exponent", "c_const", "level", "entry"],
)
def test_plan_raises_the_check_of_the_object_it_builds(name, value, owner):
    # the plan (or, for the entry, which needs the model's dimension, the run)
    # raises exactly what the bandwidth, the band or the statistic raises
    with pytest.raises(InvalidArgument) as expected:
        owner()
    experiment = "coverage" if name == "level" else "gumbel"
    with pytest.raises(InvalidArgument) as got:
        plan = ExperimentPlan(experiment, model_spec="white", t_grid=(64,), reps=100,
                              **{name: value})
        run_experiment(plan)
    assert type(got.value) is type(expected.value)
    assert str(got.value) == str(expected.value)


# a valid value away from its default for each field that some experiment reads
_AWAY = dict(reps=101, seed=4, b_exponent=0.5, c_const=2.0, entry=(0, 1), level=0.8,
             nu_star=2.0, nu=3.0)


@pytest.mark.parametrize("experiment", mc.EXPERIMENTS)
def test_a_plan_holds_exactly_what_its_experiment_reads(experiment):
    # each field the experiment reads changes its rows or raw values; any
    # other field away from its default is rejected, naming the field
    reads = mc.EXPERIMENTS[experiment].reads
    # white noise has no smoothing bias, so bias_rate needs a colored model
    model = "var1:default" if experiment == "bias_rate" else "white:dim=2"
    draws = dict(reps=100, seed=3) if "reps" in reads else {}
    base = dict(experiment=experiment, model_spec=model, t_grid=(256, 512), **draws)

    def outcome(plan):
        payload = strict_json(run_experiment(plan).to_json())
        return payload["rows"], payload.get("raw")

    report = run_experiment(ExperimentPlan(**base))
    assert set(report.plan.to_dict()) == {"experiment", "model", "kernel", "t_grid", *reads}
    before = outcome(report.plan)
    assert set(reads) <= set(_AWAY)
    for name, value in _AWAY.items():
        if name in reads:
            assert outcome(ExperimentPlan(**{**base, name: value})) != before, name
        else:
            with pytest.raises(InvalidArgument, match=f"^{experiment} does not read {name};"):
                ExperimentPlan(**{**base, name: value})


@pytest.mark.parametrize(
    "experiment,trend",
    [
        ("gumbel", {"ks_decreasing_in_T"}),
        ("moments", {"norm_gap_shrinks", "mean_gap_shrinks"}),
        ("uniform_rate", {"ratio_spread_le_2"}),
        ("coverage", {"coverage_nondecreasing"}),
    ],
)
def test_one_cell_plan_has_no_trend_verdicts(experiment, trend):
    # a trend across T needs two cells; the final cell's verdicts remain
    plan = ExperimentPlan(experiment, t_grid=(256,), reps=100, seed=5)
    verdicts = run_experiment(plan).verdicts
    assert verdicts and not trend & set(verdicts)


_SUMMARY = ["t_len", "bandwidth"]


@pytest.mark.parametrize(
    "fields,row_keys,raw_key,verdict_keys",
    [
        (
            dict(experiment="clt", model_spec="white:dim=2", entry=(0, 1)),
            _SUMMARY + [
                "ks_freq0", "ks_pi_half", "var_ratio_0_vs_pi_half", "ks_se",
                "imag_mean_pi_half", "imag_mean_pi_half_se",
            ],
            "std_pi_half",
            {"ks_pi_half_le_0.05", "var_ratio_in_1.6_2.4"},
        ),
        (
            dict(experiment="gumbel"),
            _SUMMARY + [
                "ks_gumbel", "mean_centered", "mean_centered_se",
                "median_centered",
            ],
            "centered_max",
            {"ks_final_le_0.20", "ks_decreasing_in_T"},
        ),
        (
            dict(experiment="moments", nu_star=2.0),
            _SUMMARY + [
                "empirical_norm", "limit_norm", "norm_gap", "mean_centered",
                "limit_mean", "mean_gap",
            ],
            "centered_max",
            {"norm_within_30pct_final", "norm_gap_shrinks", "mean_gap_shrinks"},
        ),
        (
            dict(experiment="uniform_rate"),
            _SUMMARY + ["sup_norm", "rate", "ratio"],
            "sup",
            {"ratio_spread_le_2", "ratio_positive"},
        ),
        (
            dict(experiment="coverage", model_spec="white:dim=2", level=0.8),
            _SUMMARY + [
                "joint_coverage", "joint_coverage_se",
                "coverage_11", "coverage_12", "coverage_22",
            ],
            "joint",
            {"joint_coverage_band", "coverage_nondecreasing"},
        ),
        (
            dict(experiment="bias_rate", model_spec="ar1:phi=0.5", t_grid=(4096,)),
            _SUMMARY + ["bias", "f_true"],
            None,
            {"slope_le_-0.7", "bias_decreasing"},
        ),
    ],
    ids=["clt", "gumbel", "moments", "uniform_rate", "coverage", "bias_rate"],
)
def test_every_experiment_report_shape(fields, row_keys, raw_key, verdict_keys):
    draws = {} if fields["experiment"] == "bias_rate" else {"reps": 100, "seed": 5}
    plan = ExperimentPlan(**{"t_grid": (256, 512), **draws, **fields})
    report = run_experiment(plan)
    cells = report.rows if raw_key else report.rows[:-1]
    assert len(cells) == (len(plan.t_grid) if raw_key else len(mc._B_GRID))
    assert all(list(row) == row_keys for row in cells)
    assert set(report.verdicts) == verdict_keys
    if raw_key:
        assert sorted(report.raw) == [f"{raw_key}_T{t}" for t in plan.t_grid]
        assert all(len(v) == plan.reps for v in report.raw.values())
    else:
        assert report.raw == {}
        assert list(report.rows[-1]) == ["t_len", "fitted_slope", "kernel_q_claim"]


def test_quadrature_oracles():
    assert gumbel_mean() == pytest.approx(2.0 * np.euler_gamma, abs=1e-9)
    # scaled-Gumbel moments: ||G||_2^2 = 4 pi^2/6 + (2 gamma)^2
    g2 = gumbel_abs_norm(2.0)
    assert g2 == pytest.approx(
        np.sqrt(4.0 * np.pi**2 / 6.0 + 4.0 * np.euler_gamma**2), abs=1e-9
    )
    assert g2 == pytest.approx(2.8129, abs=1e-4)
    # independent oracle for E|G|: G = 2 Y with Y standard Gumbel; scipy's
    # own quadrature overflows exp(-y) in its far left tail, where the pdf is 0
    with np.errstate(over="ignore"):
        g1_ref = 2.0 * gumbel_r.expect(lambda y: abs(y))
    assert gumbel_abs_norm(1.0) == pytest.approx(g1_ref, abs=1e-8)


def test_limit_law_matches_30_digit_references():
    # |x|^nu has a kink at 0 that adaptive quadrature resolves to about 1e-12
    # only; the exp-sinh rule on each half-line has no node there
    assert gumbel_abs_norm(0.5) == pytest.approx(1.6412097686946650667, rel=1e-15, abs=0.0)
    assert gumbel_abs_norm(1.5) == pytest.approx(2.4206278799783562719, rel=1e-15, abs=0.0)
    # E|G| = 2 gamma + 4 E1(1), since E max(-Y, 0) = E1(1) for standard Gumbel Y
    assert gumbel_abs_norm(1.0) == pytest.approx(
        2.0 * np.euler_gamma + 4.0 * 0.21938393439552027368, rel=1e-15, abs=0.0
    )
    assert gumbel_mean() == pytest.approx(2.0 * np.euler_gamma, rel=1e-15, abs=0.0)


def test_normal_cdf_matches_ndtr_into_the_lower_tail():
    # 0.5 erfc(-x/sqrt 2) keeps its relative accuracy where 1 + erf cancels
    x = np.linspace(-30.0, 8.0, 20001)
    np.testing.assert_allclose(mc._normal_cdf(x), ndtr(x), rtol=5e-14, atol=0.0)


@pytest.mark.parametrize(
    "cdf, oracle_cdf",
    [(gumbel_cdf, gumbel_cdf), (ndtr, norm.cdf)],
    ids=["gumbel", "normal"],
)
@pytest.mark.parametrize("n", [5, 100, 101, 1000])
def test_ks_statistic_matches_scipy_bit_for_bit(cdf, oracle_cdf, n):
    x = 1.0 + 2.0 * np.random.default_rng(n).standard_normal(n)
    ties = np.repeat(x[: (n + 1) // 2], 2)[:n]  # values in equal pairs
    for sample in (x, ties):
        assert _ks_statistic(sample, cdf) == kstest(sample, oracle_cdf).statistic


def test_oracle_experiments_reject_tar():
    plan = ExperimentPlan(
        experiment="clt", model_spec="tar:a=0.4,b=0.2", t_grid=(1024,), reps=100
    )
    with pytest.raises(InvalidModel, match=r"^model 'threshold_ar1' has no closed-form Gamma\(u\)$"):
        run_experiment(plan)


def test_var1_whose_autocovariance_overflows_raises_invalid_model(tmp_path):
    # Gamma(0) is about 2.5e305, finite, but T of its terms sum past the float
    # range; the pytest configuration makes any RuntimeWarning an error
    path = tmp_path / "a.csv"
    path.write_text("0.99,1e150\n0,0.99\n")
    plan = ExperimentPlan(
        experiment="clt", model_spec=f"var1:file={path}", t_grid=(256,), reps=100
    )
    with pytest.raises(InvalidModel, match="autocovariance overflows at T = 256"):
        run_experiment(plan)


_OVERFLOWING_F = ["--model", "ar1:phi=0.99,sigma2=2e304", "--t-grid", "3,4"]


@pytest.mark.parametrize(
    "argv, name, code",
    [
        # f(0) = h sigma2 h / 2pi with h = 1/(1 - phi) overflows at h sigma2 h;
        # E fhat stays finite
        *((["--experiment", e, *_OVERFLOWING_F], "InvalidModel", 2)
          for e in ("clt", "gumbel", "moments")),
        # E fhat's lag sum overflows at the cell's B = 507
        *((["--experiment", e, "--model", "ar1:phi=0.999,sigma2=1e303",
            "--c-const", "6", "--t-grid", "65536"], "InvalidModel", 2)
          for e in ("gumbel", "uniform-rate")),
        # coverage evaluates no f, and fails as before on the first cell;
        # uniform-rate evaluates no f either, and its norm of a finite sup is finite
        (["--experiment", "coverage", *_OVERFLOWING_F], "BandUndefined", 1),
    ],
    ids=["clt", "gumbel", "moments", "gumbel-center", "uniform-rate", "coverage"],
)
def test_exact_spectra_that_overflow_end_as_one_error_line(argv, name, code, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["verify", *argv, "--reps", "100"]) == code
    assert caught == []
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {name}: ")
    if name == "InvalidModel":
        model = argv[argv.index("--model") + 1]
        t_len = argv[argv.index("--t-grid") + 1].split(",")[0]
        assert f"model {model!r}: the exact spectra overflow at T = {t_len}:" in err[0]


@pytest.mark.parametrize("experiment", ["clt", "gumbel"])
def test_vanishing_spectrum_ends_as_one_degenerate_spectrum_line(experiment, tmp_path, capsys):
    # B0 = 1 and B1 = -1 give f_11(0) = |1 - 1|^2 / 2pi = 0, which both
    # experiments divide by
    (tmp_path / "b0.csv").write_text("1\n")
    (tmp_path / "b1.csv").write_text("-1\n")
    out = tmp_path / "report.json"
    argv = ["verify", "--experiment", experiment, "--model",
            f"vma:file={tmp_path / 'b0.csv'};{tmp_path / 'b1.csv'}", "--t-grid", "512",
            "--reps", "100", "--out", str(out)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(argv) == 1
    assert caught == []
    assert capsys.readouterr().err == (
        "error: DegenerateSpectrum: nonpositive spectral diagonal at frequency 0.000000\n"
    )
    assert not out.exists()


@pytest.mark.parametrize(
    "experiment, sigma2",
    [(e, s) for e in ("clt", "gumbel", "moments", "coverage") for s in ("1e-160", "1e-320")]
    + [("uniform-rate", "1e-320")],
)
def test_underflowing_spectral_scale_ends_as_one_error_line(
    experiment, sigma2, monkeypatch, tmp_path, capsys
):
    # f_11 f_11 falls below the smallest normal float (1e-160) or to 0 (1e-320):
    # the statistic would be off or NaN, and a band would have zero width.
    # uniform-rate reads no f_11; at 1e-320 its largest sup deviation is subnormal
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
    out = tmp_path / "report.json"
    argv = ["verify", "--experiment", experiment, "--model", f"white:sigma2={sigma2}",
            "--t-grid", "512", "--reps", "100", "--out", str(out), "--threads"]
    for threads in ("1", "2"):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, threads]) == 1
        assert caught == []
        assert capsys.readouterr().err == (
            "error: DegenerateSpectrum: the spectral scale underflows; rescale the series "
            "or model\n"
        )
        assert not out.exists()


def test_uniform_rate_norm_scales_with_the_model():
    # sup is divided by its largest value before the power, so its nu-norm
    # neither underflows (1e-160) nor overflows (1e300)
    norms = []
    for sigma2 in (1e-160, 1.0, 1e300):
        plan = ExperimentPlan(experiment="uniform_rate", model_spec=f"white:sigma2={sigma2}",
                              t_grid=(512,), reps=100, seed=3)
        norms.append(run_experiment(plan).rows[0]["sup_norm"] / sigma2)
    assert max(norms) / min(norms) - 1.0 <= 1e-12, norms


def test_gumbel_smoke_and_report_shape():
    plan = ExperimentPlan(
        experiment="gumbel",
        model_spec="white",
        t_grid=(512, 1024),
        reps=120,
        seed=0,
    )
    report = run_experiment(plan)
    assert len(report.rows) == 2
    for row in report.rows:
        assert 0.0 <= row["ks_gumbel"] <= 1.0
    assert set(report.verdicts) == {"ks_final_le_0.20", "ks_decreasing_in_T"}
    # raw statistics retained and consistent with the summary
    stats = np.array(report.raw["centered_max_T1024"])
    assert stats.size == 120
    assert np.mean(stats) == pytest.approx(report.rows[1]["mean_centered"])


def test_verdicts_recomputable_from_raw():
    plan = ExperimentPlan(
        experiment="gumbel", model_spec="white", t_grid=(512,), reps=100, seed=3
    )
    report = run_experiment(plan)
    ks = kstest(np.array(report.raw["centered_max_T512"]), gumbel_cdf).statistic
    assert ks == pytest.approx(report.rows[0]["ks_gumbel"], abs=1e-12)


def test_determinism_across_worker_counts(monkeypatch):
    # 150 reps: serial runs of 50, 50 and 50; on 2 processes, 37, 38, 37 and 38
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
    base = dict(
        experiment="clt",
        model_spec="white",
        t_grid=(512,),
        reps=150,
        seed=7,
    )
    assert mc._runs(150, 0) != mc._runs(150, pool_size(3))
    r1 = run_experiment(ExperimentPlan(**base, workers=1))
    r2 = run_experiment(ExperimentPlan(**base, workers=3))
    assert r1.to_json() == r2.to_json()


def test_pooled_runs_that_do_not_divide_reps_match_serial(monkeypatch):
    # 129 reps: serial runs of 43, 43 and 43; on 2 workers, runs of 32, 32, 32 and 33
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
    base = dict(experiment="gumbel", model_spec="white:dim=2", entry=(0, 1),
                t_grid=(256, 512), reps=129, seed=11)
    serial = run_experiment(ExperimentPlan(**base)).to_json()
    assert run_experiment(ExperimentPlan(**base, workers=2)).to_json() == serial


def test_runs_split_reps_evenly_in_a_multiple_of_the_pool_size():
    for reps in (100, 101, 128, 129, 300, 500, 1001):
        for size in (0, 2, 3, 101, 1000):
            runs = mc._runs(reps, size)
            assert [i for r in runs for i in r] == list(range(reps))  # in order
            assert all(1 <= len(r) <= mc._RUN_REPS for r in runs)
            assert max(map(len, runs)) - min(map(len, runs)) <= 1
            assert len(runs) == reps or len(runs) % max(1, size) == 0
            fewer = len(runs) - max(1, size)  # the next multiple down is too few
            assert fewer <= 0 or fewer * mc._RUN_REPS < reps

    def lengths(reps, size):
        return [len(r) for r in mc._runs(reps, size)]

    assert mc._RUN_REPS == 64
    assert lengths(100, 0) == [50, 50]
    assert lengths(100, 2) == [50, 50]
    assert lengths(101, 2) == [50, 51]
    assert lengths(100, 3) == [33, 33, 34]
    assert lengths(129, 0) == [43] * 3
    assert lengths(129, 2) == [32, 32, 32, 33]
    assert lengths(300, 2) == [50] * 6
    assert lengths(100, 1000) == [1] * 100  # a pool larger than reps


@pytest.mark.parametrize("size", [1, 2, 101, 1000])
def test_median_is_numpy_median_bit_for_bit(size):
    x = np.random.default_rng(size).standard_normal(size) * 1e3
    assert np.float64(mc._median(x)).tobytes() == np.median(x).tobytes()
    x[size // 3] = np.nan
    assert math.isnan(mc._median(x)) and math.isnan(np.median(x))


class _RecordingPool:
    """Stand-in for ProcessPoolExecutor that records its size and forks nothing."""

    sizes = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, items, chunksize=1):
        return map(fn, items)


@pytest.mark.parametrize(
    "cpus, workers, expected",
    [(3, 10**6, [3]), (3, 2, [2]), (1, 8, []), (None, 8, []), (4, 1, [])],
)
def test_pool_is_capped_at_cpu_count(monkeypatch, cpus, workers, expected):
    monkeypatch.setattr(mc.os, "cpu_count", lambda: cpus)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    base = dict(experiment="clt", model_spec="white", t_grid=(64, 128), reps=100, seed=7)
    report = run_experiment(ExperimentPlan(**base, workers=workers))
    assert _RecordingPool.sizes == expected  # one pool per experiment, or serial
    assert pool_size(workers) == (expected[0] if expected else 0)
    assert report.to_json() == run_experiment(ExperimentPlan(**base)).to_json()


def test_bias_rate_starts_no_pool(monkeypatch):
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 4)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    plan = ExperimentPlan("bias_rate", model_spec="ar1:phi=0.5", workers=4)
    run_experiment(plan)
    assert _RecordingPool.sizes == []


def test_three_cells_on_one_real_pool_match_serial(monkeypatch, caplog):
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
    caplog.set_level(logging.INFO, logger="specband")
    base = dict(experiment="coverage", model_spec="var1:default",
                t_grid=(128, 256, 512), reps=100, seed=13)
    serial = run_experiment(ExperimentPlan(**base)).to_json()
    assert not any(m.startswith("pool:") for m in caplog.messages)
    assert run_experiment(ExperimentPlan(**base, workers=2)).to_json() == serial
    pools = [m for m in caplog.messages if m.startswith("pool:")]
    # 100 reps on 2 processes: a run of 50 each per cell, one line per experiment
    assert len(pools) == 1 and pools[0].startswith("pool: 2 processes, 6 tasks, open ")


def test_error_in_a_pool_worker_reads_as_serial(monkeypatch, capsys):
    # the truncated kernel's estimated diagonal turns negative at this c; the
    # band, and so the error, is now raised inside a worker process
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 2)
    plan = ExperimentPlan("coverage", kernel_name="truncated", c_const=40.0,
                          t_grid=(256, 512), reps=100, seed=1, workers=2)
    with pytest.raises(DegenerateSpectrum) as exc:
        run_experiment(plan)
    assert type(exc.value.__cause__).__name__ == "_RemoteTraceback"
    assert exc.value.freq == pytest.approx(0.168415, abs=1e-6)
    argv = ["verify", "--experiment", "coverage", "--model", "white", "--kernel",
            "truncated", "--c-const", "40", "--t-grid", "256,512", "--reps", "100",
            "--seed", "1", "--threads"]
    errs = []
    for threads in ("1", "2"):
        assert main(argv + [threads]) == 1
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == (
        "error: DegenerateSpectrum: nonpositive spectral diagonal at frequency 0.168415\n"
    )


def test_verify_logs_the_pool_it_starts(monkeypatch, caplog, tmp_path):
    monkeypatch.setattr(mc.os, "cpu_count", lambda: 3)
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", _RecordingPool)
    monkeypatch.setattr(_RecordingPool, "sizes", [])
    caplog.set_level(logging.INFO, logger="specband")
    argv = ["verify", "--experiment", "gumbel", "--t-grid", "64", "--reps", "100",
            "--threads", "1000", "--out", str(tmp_path / "report.json")]
    assert main(argv) == 0
    assert "workers=1000, pool=3 processes" in caplog.messages[0]
    assert _RecordingPool.sizes == [3]


def test_bias_rate_truncated_and_bartlett():
    plan = ExperimentPlan(
        experiment="bias_rate",
        model_spec="ar1:phi=0.5",
        kernel_name="bartlett",
        t_grid=(2**18,),
    )
    report = run_experiment(plan)
    biases = [row["bias"] for row in report.rows[:-1]]
    assert all(a > b for a, b in zip(biases, biases[1:]))
    assert report.verdicts["slope_le_-0.7"]
    slope = report.rows[-1]["fitted_slope"]
    assert slope <= -0.7
    # an infinite bias order is written as a string
    plan = ExperimentPlan(
        experiment="bias_rate", model_spec="ar1:phi=0.5", kernel_name="truncated",
        t_grid=(4096,),
    )
    payload = strict_json(run_experiment(plan).to_json())
    assert payload["rows"][-1]["kernel_q_claim"] == "inf"
    # white noise has a flat spectrum: every bias is exactly 0, so there is
    # no decay rate and the plan is rejected instead of reporting vacuous verdicts
    for kernel_name in ("truncated", "bartlett"):
        plan = ExperimentPlan(
            experiment="bias_rate", model_spec="white", kernel_name=kernel_name,
            t_grid=(4096,),
        )
        with pytest.raises(InvalidArgument, match="no smoothing bias"):
            run_experiment(plan)


def test_coverage_smoke():
    plan = ExperimentPlan(
        experiment="coverage",
        model_spec="white:dim=2",
        t_grid=(1024,),
        reps=100,
        seed=1,
        level=0.95,
    )
    report = run_experiment(plan)
    row = report.rows[0]
    assert 0.0 <= row["joint_coverage"] <= 1.0
    assert row["joint_coverage_se"] == pytest.approx(
        np.sqrt(row["joint_coverage"] * (1 - row["joint_coverage"]) / 100),
        abs=1e-12,
    )


def test_run_experiment_dispatch():
    plan = ExperimentPlan(
        experiment="uniform_rate",
        model_spec="white",
        t_grid=(512, 1024),
        reps=100,
        seed=2,
    )
    report = run_experiment(plan)
    assert report.plan is plan
    assert report.rows[0]["ratio"] > 0.0


def test_report_json_and_plot_rows():
    plan = ExperimentPlan(
        experiment="uniform_rate", model_spec="white", t_grid=(512,), reps=100, seed=2
    )
    report = run_experiment(plan)
    payload = strict_json(report.to_json())
    assert payload["schema_version"] == 1
    assert payload["plan"]["experiment"] == "uniform_rate"
    assert isinstance(payload["verdicts"], dict)
    rows = report.plot_rows()
    assert all(len(r) == 5 for r in rows)
    assert any(stat == "ratio" for _, _, stat, _, _ in rows)


def test_se_scales_with_reps():
    # standard errors shrink like 1/sqrt(reps)
    plans = [
        ExperimentPlan(
            experiment="clt", model_spec="white", t_grid=(512,), reps=reps, seed=4
        )
        for reps in (100, 400)
    ]
    reports = [run_experiment(p) for p in plans]
    se_small = reports[0].rows[0]["ks_se"]
    se_big = reports[1].rows[0]["ks_se"]
    assert se_small == pytest.approx(2.0 * se_big, rel=1e-12, abs=0.0)
