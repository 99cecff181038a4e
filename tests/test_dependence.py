import math

import numpy as np
import pytest

from specband.dependence import (
    check_conditions,
    coupled_delta,
    m_dependent_approx,
    profile,
)
from specband.errors import DecayFitWarning, InsufficientInnerReps
from specband.models import AR1Scalar, ThresholdAR1, WhiteNoise, simulate

SQRT2 = math.sqrt(2.0)


def test_white_noise_delta_t0():
    est, se = coupled_delta(WhiteNoise(), 0, 2.0, reps=20000, seed=1)
    assert abs(est[0] - SQRT2) < 3.0 * se[0]


def test_white_noise_delta_vanishes_after_t0():
    for t in (1, 2, 5):
        est, se = coupled_delta(WhiteNoise(), t, 2.0, reps=200, seed=1)
        assert est[0] == 0.0
        assert se[0] == 0.0


def test_ar1_delta_t3():
    est, se = coupled_delta(AR1Scalar(0.5), 3, 2.0, reps=20000, seed=2)
    assert abs(est[0] - 0.5**3 * SQRT2) < 3.0 * se[0]
    assert est[0] == pytest.approx(0.176777, abs=3.0 * se[0])


def test_coupled_delta_validation():
    with pytest.raises(ValueError):
        coupled_delta(WhiteNoise(), -1, 2.0, reps=200, seed=0)
    with pytest.raises(ValueError):
        coupled_delta(WhiteNoise(), 0, 0.5, reps=200, seed=0)
    with pytest.raises(ValueError):
        coupled_delta(WhiteNoise(), 0, 2.0, reps=50, seed=0)


def test_coupled_delta_deterministic():
    a = coupled_delta(AR1Scalar(0.3), 2, 2.0, reps=500, seed=9)
    b = coupled_delta(AR1Scalar(0.3), 2, 2.0, reps=500, seed=9)
    np.testing.assert_array_equal(a[0], b[0])


def test_white_noise_profile_aggregates():
    prof = profile(WhiteNoise(), 2.0, horizon=6, reps=2000, seed=3)
    # Theta_0 = delta_0 ~ sqrt(2); Theta_m = 0 beyond t=0
    assert abs(prof.theta[0] - SQRT2) < 4.0 * prof.theta_se
    assert prof.theta[1] == 0.0
    assert prof.psi[1] == 0.0
    assert prof.tail_remainder == 0.0


def test_ar1_profile_theta_and_rho():
    prof = profile(AR1Scalar(0.5), 2.0, horizon=24, reps=4000, seed=4)
    # geometric series: Theta_0 = sqrt(2)/(1 - 0.5)
    assert abs(prof.theta[0] - 2.0 * SQRT2) < 4.0 * (prof.theta_se + 1e-3)
    assert prof.fitted_rho == pytest.approx(0.5, abs=0.02)
    assert prof.tail_remainder is not None and prof.tail_remainder < 1e-5


def test_ar1_psi_p4_uses_p_prime_two():
    # Psi aggregates delta^{p'} with p' = min(2, p); for p=4 the limit is
    # c4 / sqrt(1 - 0.25) with c4 = ||eps0 - eps0*||_4 = (12)^{1/4}
    prof = profile(AR1Scalar(0.5), 4.0, horizon=24, reps=30000, seed=5)
    c4 = 12.0 ** 0.25
    assert prof.psi[0] == pytest.approx(c4 / math.sqrt(0.75), rel=0.02)


def test_profile_monotone_aggregates():
    prof = profile(AR1Scalar(0.6), 2.0, horizon=16, reps=2000, seed=6)
    assert np.all(np.diff(prof.theta) <= 1e-12)
    assert np.all(np.diff(prof.psi) <= 1e-12)
    assert np.all(np.diff(prof.d_seq) <= 1e-12)
    assert np.all(prof.delta >= 0.0)


def test_profile_validation():
    with pytest.raises(ValueError):
        profile(WhiteNoise(), 2.0, horizon=2, reps=500, seed=0)
    with pytest.raises(ValueError):
        profile(WhiteNoise(), 2.0, horizon=8, reps=50, seed=0)


def test_m_dependent_linear_truncation():
    # ar1 phi=0.5, m=2: Ztilde_t = eps_t + 0.5 eps_{t-1} + 0.25 eps_{t-2};
    # ||Z_0 - Ztilde_0||_2 = sqrt(sum_{j>2} 0.25^j) in closed form
    model = AR1Scalar(0.5)
    t_len = 2**16
    full = simulate(model, t_len, seed=7)
    approx = m_dependent_approx(model, 2, t_len, seed=7)
    diff = full.values - approx.values
    sample_l2 = math.sqrt(float((diff**2).mean()))
    closed = math.sqrt(0.25**3 / (1.0 - 0.25))
    assert sample_l2 == pytest.approx(closed, rel=0.05)


def test_m_dependent_m0_white_noise_exact():
    model = WhiteNoise()
    full = simulate(model, 256, seed=8)
    approx = m_dependent_approx(model, 0, 256, seed=8)
    np.testing.assert_array_equal(full.values, approx.values)


def test_m_dependent_distance_decreases_in_m():
    model = AR1Scalar(0.5)
    t_len = 2**12
    full = simulate(model, t_len, seed=9)
    dists = []
    for m in (0, 2, 4, 8):
        approx = m_dependent_approx(model, m, t_len, seed=9)
        dists.append(float(((full.values - approx.values) ** 2).mean()))
    assert all(a > b for a, b in zip(dists, dists[1:]))
    # geometric decay: each extra pair of lags cuts the L2 gap by phi^2
    assert dists[-1] < 1e-4 * dists[0]


def test_m_dependent_nonlinear_inner_reps_floor():
    with pytest.raises(InsufficientInnerReps):
        m_dependent_approx(ThresholdAR1(0.4, 0.2), 1, 16, seed=0, inner_reps=10)


def test_m_dependent_nonlinear_runs():
    model = ThresholdAR1(0.5, -0.5)
    approx = m_dependent_approx(model, 3, 8, seed=1, inner_reps=64)
    assert approx.t_len == 8
    assert np.all(np.isfinite(approx.values))


def test_check_conditions_ar1_geometric_pass():
    prof = profile(AR1Scalar(0.5), 8.0, horizon=20, reps=20000, seed=10)
    report = check_conditions(prof, p=8.0, b=0.4, b_lower=0.2, delta_param=1.0)
    assert report.geometric_pass is True
    assert 0.45 <= report.fitted_rho <= 0.55
    assert report.bandwidth_window_ok


def test_check_conditions_white_noise_trivial_pass():
    prof = profile(WhiteNoise(), 8.0, horizon=8, reps=1000, seed=11)
    report = check_conditions(prof, p=8.0, b=0.4, b_lower=0.2, delta_param=1.0)
    assert report.geometric_pass is True
    assert report.fitted_rho == 0.0
    assert report.alpha1_fit == math.inf and report.alpha1_pass is True


def test_check_conditions_synthetic_power_law_fails_geometric():
    from specband.dependence import DependenceProfile, _fit_geometric

    # delta_t = 1/(t+1): decays too slowly for a geometric certificate
    horizon = 30
    delta = (1.0 / (np.arange(horizon + 1) + 1.0))[:, None]
    p = 8.0
    theta = np.array([delta[m:, 0].sum() for m in range(horizon + 1)])
    psi = np.array(
        [np.sqrt((delta[m:, 0] ** 2).sum()) for m in range(horizon + 1)]
    )
    d_seq = np.array(
        [np.minimum(psi[m], delta[:, 0]).sum() for m in range(horizon + 1)]
    )
    prof = DependenceProfile(
        p=p, horizon=horizon, delta=delta, delta_se=np.zeros_like(delta),
        theta=theta, psi=psi, d_seq=d_seq, theta_se=0.0,
        decay_fit=_fit_geometric(delta[:, 0]), tail_remainder=None, reps=0,
    )
    report = check_conditions(prof, p=p, b=0.4, b_lower=0.2, delta_param=1.0)
    assert report.geometric_pass is False
    # thresholds from the declared exponent formulas at p=8, delta=1
    assert report.alpha1_threshold == pytest.approx(max(0.5 - 4.0 / 16.0, 0.25))
    assert report.alpha2_threshold == pytest.approx(max(1.0 - 4.0 / 16.0, 0.0))
    assert report.alpha1_fit is not None and report.alpha2_fit is not None


def test_check_conditions_independent_components_note():
    prof = profile(WhiteNoise(), 8.0, horizon=8, reps=1000, seed=12)
    report = check_conditions(
        prof, p=8.0, b=0.4, b_lower=0.2, delta_param=1.0,
        independent_components=True,
    )
    assert report.independent_components
    assert any("p/2" in note for note in report.notes)
    # thresholds move with p -> p/2
    base = check_conditions(prof, p=8.0, b=0.4, b_lower=0.2, delta_param=1.0)
    assert report.alpha1_threshold != base.alpha1_threshold


def test_decay_fit_warning_on_nondecaying_profile():
    class Flat(WhiteNoise):
        # dependence never decays: Z_t = eps_0 for every t
        def path(self, eps):
            out = np.broadcast_to(
                eps[..., :1, :], eps.shape
            )
            return np.array(out)

        def decay_horizon(self, tol=1e-14):
            return 0

    with pytest.warns(DecayFitWarning):
        profile(Flat(), 2.0, horizon=6, reps=200, seed=13)


def test_stdtrit_matches_t_ppf():
    # _slope_ci takes its t quantile from stdtrit, the function t.ppf evaluates
    from scipy.special import stdtrit
    from scipy.stats import t

    for df in range(1, 201):
        assert stdtrit(df, 0.975) == t.ppf(0.975, df)
