"""Acceptance gate: the ten primary verification criteria.

Each test prints a single ``[PASS]``/``[FAIL]`` line (written to the real
stderr so it survives pytest's capture) and asserts the stated tolerance.
All seeds are fixed; every check with a closed form is made against the
oracle code paths (exact-mean spectra, quadrature moments), never against
stored simulation output.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from specband.acov import autocov_matrices, sample_autocov
from specband.dependence import check_conditions, coupled_delta, profile
from specband.kernels import get_kernel
from specband.mc import (
    ExperimentPlan,
    gumbel_abs_norm,
    gumbel_mean,
    run_experiment,
)
from specband.models import parse_model
from specband.series import MultivariateSeries, center
from specband.spectral import (
    Bandwidth,
    estimate_matrices,
    estimate_spectrum,
    expected_spectrum,
    theorem_grid,
)

EULER_GAMMA = 0.5772156649015329

# one line per criterion; echoed by conftest.pytest_terminal_summary
VERDICT_LINES: list = []


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:2d}: {label}"
    if detail:
        line += f" ({detail})"
    VERDICT_LINES.append(line)
    print(line)
    assert ok, line


def test_criterion_01_estimator_oracle_equivalence():
    kernel = get_kernel("bartlett")
    t_len = 2**13
    bw = Bandwidth(t_len, 0.4)
    freqs = theorem_grid(bw)
    reps = 500
    worst = 0.0
    for model_spec in ("white", "ar1:phi=0.5"):
        model = parse_model(model_spec)
        ests = []
        for rep in range(reps):
            rng = np.random.default_rng([11, rep])
            values = model.simulate_values(t_len, rng)
            stack = autocov_matrices(values, bw.value)
            ests.append(estimate_matrices(stack, kernel, bw.value, freqs))
        ests = np.stack(ests)
        target = expected_spectrum(model, kernel, bw.value, t_len, freqs).matrices
        for part in (np.real, np.imag):
            dev = np.abs(part(ests.mean(axis=0)) - part(target))
            se = part(ests).std(axis=0, ddof=1) / math.sqrt(reps)
            z = np.where(dev <= 1e-14, 0.0, dev / np.maximum(se, 1e-300))
            worst = max(worst, float(z.max()))
    _verdict(
        1,
        "MC mean spectrum matches exact-mean oracle within 4 SE",
        worst <= 4.0,
        f"max |z| = {worst:.2f}",
    )


def test_criterion_02_structural_invariants():
    rng = np.random.default_rng(22)
    kernel = get_kernel("bartlett")
    worst_herm = 0.0
    worst_eig = 0.0
    transpose_exact = True
    for _ in range(100):
        t_len = int(rng.integers(128, 512))
        mix = rng.standard_normal((2, 2)) + 0.5 * np.eye(2)
        series = center(MultivariateSeries(rng.standard_normal((t_len, 2)) @ mix))
        bw = Bandwidth(t_len, 0.4)
        acov = sample_autocov(series, bw.value)
        for u in range(bw.value + 1):
            if not np.array_equal(acov.lag(-u), acov.lag(u).T):
                transpose_exact = False
        mats = estimate_spectrum(acov, kernel, bw, theorem_grid(bw)).matrices
        scale = float(np.max(np.abs(mats)))
        herm = float(np.max(np.abs(mats - np.conj(np.transpose(mats, (0, 2, 1))))))
        worst_herm = max(worst_herm, herm / scale)
        for mat in mats:
            sym = (mat + mat.conj().T) / 2.0
            min_eig = float(np.linalg.eigvalsh(sym)[0])
            trace = float(np.trace(mat).real)
            worst_eig = max(worst_eig, -min_eig / trace)
    ok = worst_herm <= 1e-12 and worst_eig <= 1e-10 and transpose_exact
    _verdict(
        2,
        "Hermitian / PSD / lag-transpose invariants on 100 random inputs",
        ok,
        f"herm rel {worst_herm:.1e}, -min_eig/trace {worst_eig:.1e}, "
        f"transpose exact: {transpose_exact}",
    )


def test_criterion_03_pointwise_clt():
    plan = ExperimentPlan(
        experiment="clt",
        model_spec="ar1:phi=0.5",
        t_grid=(2**13,),
        b_exponent=0.5,
        reps=2000,
        seed=0,
    )
    row = run_experiment(plan).rows[-1]
    ks = row["ks_pi_half"]
    ratio = row["var_ratio_0_vs_pi_half"]
    ok = ks <= 0.05 and 1.6 <= ratio <= 2.4
    _verdict(
        3,
        "standardized deviation is normal; frequency-0 variance doubles",
        ok,
        f"KS(pi/2) = {ks:.4f}, var ratio = {ratio:.3f}",
    )


def test_criterion_04_gumbel_limit():
    plan = ExperimentPlan(
        experiment="gumbel",
        model_spec="white",
        kernel_name="truncated",
        t_grid=(2**12, 2**14, 2**16),
        b_exponent=0.4,
        c_const=6.0,
        reps=500,
        seed=0,
        workers=2,  # reports are the same for every worker count (criterion 10)
    )
    report = run_experiment(plan)
    ks_vals = [row["ks_gumbel"] for row in report.rows]
    ok = (
        report.verdicts["ks_decreasing_in_T"]
        and report.verdicts["ks_final_le_0.20"]
    )
    _verdict(
        4,
        "centered max statistic converges to the double-exponential law",
        ok,
        "KS = " + " > ".join(f"{v:.3f}" for v in ks_vals),
    )


def test_criterion_05_moment_convergence():
    plan = ExperimentPlan(
        experiment="moments",
        model_spec="white",
        t_grid=(2**12, 2**14, 2**16),
        b_exponent=0.4,
        reps=5000,
        seed=0,
        nu_star=2.0,
        workers=2,
    )
    report = run_experiment(plan)
    mean_final = report.rows[-1]["mean_centered"]
    mean_gaps = [row["mean_gap"] for row in report.rows]
    norm_gaps = [row["norm_gap"] for row in report.rows]
    limit_mean = gumbel_mean()
    assert limit_mean == pytest.approx(2.0 * EULER_GAMMA, rel=1e-9)
    ok = (
        0.55 <= mean_final <= 1.75
        and all(b < a for a, b in zip(mean_gaps, mean_gaps[1:]))
        and all(b < a for a, b in zip(norm_gaps, norm_gaps[1:]))
    )
    _verdict(
        5,
        "max-statistic mean and 2-norm approach the quadrature limits",
        ok,
        f"mean at final T = {mean_final:.3f} (limit {limit_mean:.4f}), "
        f"gaps {mean_gaps[0]:.3f}/{mean_gaps[1]:.3f}/{mean_gaps[2]:.3f}",
    )


def test_criterion_06_uniform_moment_rate():
    plan = ExperimentPlan(
        experiment="uniform_rate",
        model_spec="white",
        t_grid=(2**12, 2**13, 2**14, 2**15),
        b_exponent=0.4,
        reps=300,
        seed=0,
        nu=2.0,
    )
    report = run_experiment(plan)
    ratios = [row["ratio"] for row in report.rows]
    spread = max(ratios) / min(ratios)
    ok = report.verdicts["ratio_spread_le_2"] and report.verdicts["ratio_positive"]
    _verdict(
        6,
        "sup-deviation 2-norm tracks sqrt(B log B / T)",
        ok,
        f"ratio spread = {spread:.3f}",
    )


def test_criterion_07_bias_order():
    trunc = run_experiment(
        ExperimentPlan(
            experiment="bias_rate",
            model_spec="ar1:phi=0.5",
            kernel_name="truncated",
            t_grid=(2**22,),
        )
    )
    bart = run_experiment(
        ExperimentPlan(
            experiment="bias_rate",
            model_spec="ar1:phi=0.5",
            kernel_name="bartlett",
            t_grid=(2**22,),
        )
    )
    bias_64 = next(r["bias"] for r in trunc.rows[:-1] if r["bandwidth"] == 64)
    f_true = next(r["f_true"] for r in trunc.rows[:-1] if r["bandwidth"] == 64)
    slope = bart.rows[-1]["fitted_slope"]
    ok = (
        trunc.verdicts["bias_at_64_le_1e-6_f"]
        and bart.verdicts["slope_le_-0.7"]
        and bart.verdicts["bias_decreasing"]
    )
    _verdict(
        7,
        "exact bias: geometric for hard truncation, first-order log-log slope",
        ok,
        f"truncated bias(B=64)/f = {bias_64 / f_true:.1e}, slope = {slope:.3f} "
        f"(claimed order {bart.rows[-1]['kernel_q_claim']})",
    )


def test_criterion_08_dependence_measures():
    model = parse_model("ar1:phi=0.5")
    reps = 10**4
    worst = 0.0
    for p, innov_norm in ((2.0, math.sqrt(2.0)), (4.0, 12.0**0.25)):
        for t in range(7):
            est, se = coupled_delta(model, t, p, reps=reps, seed=80 + t)
            truth = 0.5**t * innov_norm
            gap = abs(float(est[0]) - truth)
            worst = max(worst, gap / max(float(se[0]), 1e-300))
    prof = profile(model, 2.0, horizon=20, reps=reps, seed=81)
    theta0 = float(prof.theta[0])
    theta_ok = abs(theta0 - 2.0 * math.sqrt(2.0)) <= 3.0 * prof.theta_se
    report = check_conditions(prof, b=0.4, b_lower=0.2, delta_param=1.0)
    rho_ok = report.geometric_pass and 0.45 <= report.fitted_rho <= 0.55
    ok = worst <= 3.0 and theta_ok and rho_ok
    _verdict(
        8,
        "coupled dependence measures match AR(1) closed forms",
        ok,
        f"max |z| = {worst:.2f}, Theta_0 = {theta0:.4f}, "
        f"fitted rho = {report.fitted_rho:.3f}",
    )


def test_criterion_09_band_coverage():
    plan = ExperimentPlan(
        experiment="coverage",
        model_spec="white:dim=2",
        t_grid=(2**14,),
        b_exponent=0.4,
        reps=500,
        seed=0,
        level=0.95,
    )
    report = run_experiment(plan)
    row = report.rows[-1]
    ok = report.verdicts["joint_coverage_floor"]
    _verdict(
        9,
        "Bonferroni joint band coverage stays within 0.05 of nominal 0.95",
        ok,
        f"joint coverage = {row['joint_coverage']:.3f} "
        f"(entries {row['coverage_11']:.3f}/{row['coverage_12']:.3f}/"
        f"{row['coverage_22']:.3f})",
    )


def test_criterion_10_determinism_across_workers():
    def run(workers: int) -> str:
        plan = ExperimentPlan(
            experiment="gumbel",
            model_spec="white",
            t_grid=(2**10,),
            reps=120,
            seed=7,
            workers=workers,
        )
        return run_experiment(plan).to_json()

    serial = run(1)
    parallel = run(3)
    ok = serial == parallel
    _verdict(
        10,
        "report JSON is byte-identical across worker counts",
        ok,
        f"{len(serial)} bytes compared",
    )
