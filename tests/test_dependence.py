import math

import numpy as np
import pytest

from conftest import traced_peak

from specband.dependence import (
    _t_two_sided,
    check_conditions,
    coupled_delta,
    profile,
)
from specband.errors import DecayFitWarning, InvalidArgument
from specband.models import VMA, AR1Scalar, WhiteNoise, parse_model

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


def _aggregates_by_definition(prof):
    """Theta, Psi and d summed term by term over delta extended with each
    coordinate's fitted A rho^t until the terms fall below 1e-300."""
    from specband.dependence import _fit_geometric

    p_prime = min(2.0, prof.p)
    ms = range(prof.horizon + 1)
    per_coord = []
    for col in prof.delta.T:
        terms = list(col)
        fit = _fit_geometric(col)
        t = prof.horizon + 1
        while fit and math.exp(fit[0] + t * fit[1]) >= 1e-300:
            terms.append(math.exp(fit[0] + t * fit[1]))
            t += 1
        terms = np.array(terms)
        theta = [terms[m:].sum() for m in ms]
        psi = [(terms[m:] ** p_prime).sum() ** (1.0 / p_prime) for m in ms]
        d = [np.minimum(psi[m], terms).sum() for m in ms]
        per_coord.append((theta, psi, d))
    return np.array(per_coord).max(axis=0)  # (3, H + 1): coordinate max


_VMA3 = VMA(
    coeffs=(
        np.eye(3),
        [[0.5, 0.2, 0.0], [-0.3, 0.4, 0.1], [0.0, 0.2, -0.6]],
        [[0.2, 0.0, 0.1], [0.0, -0.25, 0.0], [0.1, 0.0, 0.3]],
    )
)


@pytest.mark.parametrize("p", [1.5, 2.0, 4.0])
@pytest.mark.parametrize(
    "model, horizon",
    [
        (parse_model("ar1:phi=0.5"), 12),
        (parse_model("tar:a=0.5,b=-0.5"), 12),
        (parse_model("var1:default"), 12),
        (_VMA3, 12),
        # delta is 0 from t = 7 and (A rho^61)^2 underflows: Psi_m = 0 there
        (parse_model("tar:a=1e-3,b=1e-3"), 60),
    ],
    ids=["ar1", "tar", "var1", "vma2", "tar-underflow"],
)
def test_profile_aggregates_match_their_definitions(model, horizon, p):
    prof = profile(model, p, horizon=horizon, reps=400, seed=21)
    theta, psi, d_seq = _aggregates_by_definition(prof)
    np.testing.assert_allclose(prof.theta, theta, rtol=1e-12)
    np.testing.assert_allclose(prof.psi, psi, rtol=1e-12)
    np.testing.assert_allclose(prof.d_seq, d_seq, rtol=1e-12)


def test_profile_validation():
    with pytest.raises(ValueError):
        profile(WhiteNoise(), 2.0, horizon=2, reps=500, seed=0)
    with pytest.raises(ValueError):
        profile(WhiteNoise(), 2.0, horizon=8, reps=50, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5])
def test_seed_must_be_a_non_negative_integer(seed):
    message = f"seed must be a non-negative integer, got {seed}"
    with pytest.raises(InvalidArgument, match=message):
        coupled_delta(WhiteNoise(), 1, 2.0, reps=200, seed=seed)
    with pytest.raises(InvalidArgument, match=message):
        profile(WhiteNoise(), 2.0, horizon=6, reps=200, seed=seed)


def test_check_conditions_ar1_geometric_pass():
    prof = profile(AR1Scalar(0.5), 8.0, horizon=20, reps=20000, seed=10)
    report = check_conditions(prof, p=8.0, b=0.4, b_lower=0.2, delta_param=1.0)
    assert report.geometric_pass is True
    assert 0.45 <= report.fitted_rho <= 0.55
    assert report.bandwidth_window_ok


@pytest.mark.parametrize("phi", [0.5, 0.9, 0.97])
def test_check_conditions_geometric_pass_settles_the_alpha_verdicts(phi):
    prof = profile(AR1Scalar(phi), 4.0, horizon=30, reps=400, seed=22)
    report = check_conditions(prof, p=4.0, b=0.4, b_lower=0.2, delta_param=1.0)
    assert report.geometric_pass is True
    assert report.alpha1_pass is True and report.alpha2_pass is True
    # a note for each verdict that the power-law fit alone would not give
    fit_passes = {  # no fit (None) is not a pass
        "alpha1": report.alpha1_fit is not None
        and report.alpha1_fit > report.alpha1_threshold,
        "alpha2": report.alpha2_fit is not None
        and report.alpha2_fit > report.alpha2_threshold,
    }
    noted = {name for name in fit_passes if any(n.startswith(name) for n in report.notes)}
    assert noted == {name for name, ok in fit_passes.items() if not ok}
    if phi == 0.5:  # every fit passes: no note
        assert report.notes == ()
    if phi == 0.97:  # neither fit reaches its threshold at H = 30
        assert noted == {"alpha1", "alpha2"}


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
    assert not any(note.startswith("alpha") for note in report.notes)
    # thresholds from the declared exponent formulas at p=8, delta=1
    assert report.alpha1_threshold == pytest.approx(max(0.5 - 4.0 / 16.0, 0.25))
    assert report.alpha2_threshold == pytest.approx(max(1.0 - 4.0 / 16.0, 0.0))
    assert report.alpha1_fit is not None and report.alpha2_fit is not None


def test_check_conditions_two_positive_deltas_give_no_fits():
    from specband.dependence import DependenceProfile

    # delta = (1, 0.5, 0, ...): Theta = (1.5, 0.5, 0, ...), d = (1.5, 1, 0, ...)
    delta = np.zeros((9, 1))
    delta[:2, 0] = (1.0, 0.5)
    theta = np.zeros(9)
    theta[:2] = (1.5, 0.5)
    psi = np.zeros(9)
    psi[:2] = (math.sqrt(1.25), 0.5)
    d_seq = np.zeros(9)
    d_seq[:2] = (1.5, 1.0)
    prof = DependenceProfile(
        p=2.0, horizon=8, delta=delta, delta_se=np.zeros_like(delta),
        theta=theta, psi=psi, d_seq=d_seq, theta_se=0.0,
        decay_fit=None, tail_remainder=None, reps=0,
    )
    report = check_conditions(prof, p=2.0, b=0.4, b_lower=0.2, delta_param=1.0)
    assert report.geometric_pass is None and report.fitted_rho is None
    assert report.notes == ("too few positive delta entries for a decay fit",)
    # one positive value beyond m = 0 is too few for a power-law exponent
    assert report.alpha1_fit is None and report.alpha1_pass is None
    assert report.alpha2_fit is None and report.alpha2_pass is None


_FLAT_D = "d_m is constant over m <= 30: the horizon is too short for a power-law fit"


@pytest.mark.parametrize("phi", [0.97, 0.99])
def test_check_conditions_flat_d_profile_has_no_power_law_fit(phi):
    # Psi_m stays above delta_0 for m <= 30, so d_m is the same number there
    prof = profile(AR1Scalar(phi), 4.0, horizon=30, reps=2000, seed=0)
    assert np.all(prof.d_seq[1:] == prof.d_seq[1])
    report = check_conditions(prof, p=4.0, b=0.4, b_lower=0.2, delta_param=1.0)
    assert report.alpha1_fit is None  # not the rounding slope of a flat line
    assert _FLAT_D in report.notes
    assert report.geometric_pass is True and report.alpha1_pass is True


def test_check_conditions_synthetic_flat_profile_without_geometric_pass():
    from specband.dependence import DependenceProfile

    # power-law delta (no geometric pass) beside a d_m flat over m = 1..30
    horizon = 30
    delta = (1.0 / (np.arange(horizon + 1) + 1.0))[:, None]
    theta = np.array([delta[m:, 0].sum() for m in range(horizon + 1)])
    prof = DependenceProfile(
        p=4.0, horizon=horizon, delta=delta, delta_se=np.zeros_like(delta),
        theta=theta, psi=np.sqrt(theta), d_seq=np.full(horizon + 1, 2.5),
        theta_se=0.0, decay_fit=None, tail_remainder=None, reps=0,
    )
    report = check_conditions(prof, p=4.0, b=0.4, b_lower=0.2, delta_param=1.0)
    assert report.geometric_pass is False
    assert report.alpha1_fit is None and report.alpha1_pass is None
    assert report.alpha2_fit is not None and report.alpha2_pass is not None
    assert _FLAT_D in report.notes
    assert not any(note.startswith("alpha") for note in report.notes)


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
        def path(self, eps, workspace=None):
            out = np.broadcast_to(
                eps[..., :1, :], eps.shape
            )
            return np.array(out)

        def decay_horizon(self):
            return 0

    with pytest.warns(DecayFitWarning):
        profile(Flat(), 2.0, horizon=6, reps=200, seed=13)


def test_t_two_sided_matches_stdtrit():
    # _slope_ci's t quantile, against the one-sided 0.975 quantile of scipy
    from scipy.special import stdtrit

    for df in range(1, 201):
        assert _t_two_sided(df, 0.95) == pytest.approx(stdtrit(df, 0.975), rel=1e-14, abs=0.0)


@pytest.mark.parametrize("spec", ["white:dim=2", "tar:a=0.5,b=-0.5"])
def test_profile_holds_two_copies_of_the_coupled_paths(spec):
    model, reps, horizon = parse_model(spec), 5000, 30
    profile(model, 4.0, horizon, 100, seed=1)  # numpy.random is imported on first use
    paths = reps * (model.decay_horizon() + horizon + 1) * model.n_dim * 8
    peak = traced_peak(lambda: None, lambda _: profile(model, 4.0, horizon, reps, seed=1))
    assert peak <= 2.2 * paths
