import warnings

import numpy as np
import pytest
from scipy.signal import lfilter

from conftest import traced_peak
from specband.errors import (
    InvalidArgument,
    InvalidModel,
    NonStationaryModel,
    UnsupportedModel,
)
from specband.models import (
    ThresholdAR1,
    VAR1,
    VMA,
    default_var1,
    parse_model,
    simulate,
)
from specband.spectral import theorem_grid


@pytest.mark.parametrize(
    "model",
    [VAR1([[0.0, 1.0], [0.0, 0.0]]), parse_model("tar:a=0,b=0")],
    ids=["nilpotent-var1", "tar-a=0-b=0"],
)
def test_zero_memory_rate_burns_in_one_lag(model):
    assert model.decay_horizon() == 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        series = simulate(model, 64, seed=0)
    assert series.values.shape == (64, model.n_dim)
    assert np.all(np.isfinite(series.values))


def test_white_noise_gamma_and_spectrum():
    sigma = np.array([[2.0, 0.5], [0.5, 1.0]])
    model = VMA((np.eye(2),), sigma=sigma)
    np.testing.assert_array_equal(model.gamma(0), sigma)
    np.testing.assert_array_equal(model.gamma(3), np.zeros((2, 2)))
    spec = model.spectral_density([0.3, 1.1])
    np.testing.assert_allclose(spec[0], sigma / (2 * np.pi))
    np.testing.assert_allclose(spec[1], sigma / (2 * np.pi))


class _OpRecorder:
    """Innovations that record whether a path scaled them or took a matrix product."""

    def __init__(self, eps):
        self.eps, self.ops = eps, []

    def __mul__(self, other):
        self.ops.append("*")
        return self.eps * other

    def __matmul__(self, other):
        self.ops.append("@")
        return self.eps @ other


@pytest.mark.parametrize(
    "sigma, op",
    [
        (np.eye(1), "*"),
        (np.array([[2.3]]), "*"),
        (np.diag([2.0, 0.5, 3.0]), "*"),
        (np.array([[2.0, 0.5], [0.5, 1.0]]), "@"),
    ],
)
def test_white_noise_path_scales_a_diagonal_factor(sigma, op):
    # a VMA's diagonal factor scales each column, bit for bit the product; a
    # dense one multiplies. White noise (B = (I,)) is the scaled innovations,
    # and order 1 sums its lags over them.
    n = sigma.shape[0]
    eps = np.random.default_rng(6).standard_normal((3, 500, n))
    w = eps @ np.linalg.cholesky(sigma).T
    lag = np.random.default_rng(7).standard_normal((n, n))
    order1 = np.zeros_like(w)
    order1 += w @ np.eye(n)
    order1[:, 1:] += w[:, :-1] @ lag.T
    for coeffs, want in (((np.eye(n),), w), ((np.eye(n), lag), order1)):
        recorder = _OpRecorder(eps)
        got = VMA(coeffs, sigma=sigma).path(recorder)
        assert recorder.ops == [op]
        np.testing.assert_array_equal(got, want)


def test_white_noise_sample_covariance():
    model = parse_model("white:dim=2")
    s = simulate(model, 4096, seed=5)
    assert s.t_len == 4096 and s.n_dim == 2
    cov = s.values.T @ s.values / s.t_len
    assert np.all(np.abs(cov - np.eye(2)) < 4.0 / np.sqrt(s.t_len))


def test_ar1_lag1_autocorrelation():
    model = parse_model("ar1:phi=0.5")
    s = simulate(model, 2**14, seed=2)
    x = s.values[:, 0]
    rho1 = (x[:-1] @ x[1:]) / (x @ x)
    assert abs(rho1 - 0.5) < 4.0 / np.sqrt(s.t_len)


def test_ar1_gamma_closed_form():
    model = parse_model("ar1:phi=0.5,sigma2=2.0")
    for u in range(4):
        assert model.gamma(u)[0, 0] == pytest.approx(
            0.5**u * 2.0 / (1.0 - 0.25), rel=1e-12, abs=0.0
        )


def test_ar1_spectrum_values():
    model = parse_model("ar1:phi=0.5")
    spec = model.spectral_density([0.0, np.pi])
    assert spec[0][0, 0].real == pytest.approx(2.0 / np.pi, rel=1e-12, abs=0.0)
    assert spec[1][0, 0].real == pytest.approx(
        1.0 / (2 * np.pi * 2.25), rel=1e-12, abs=0.0
    )


def test_spectrum_matches_gamma_sum():
    # the closed-form spectral density must agree with direct Fourier
    # summation of the autocovariances, entrywise including cross terms
    freqs = np.linspace(0.0, np.pi, 7)
    lags = np.arange(1, 401)
    phases = np.exp(-1j * np.outer(freqs, lags))
    models = (
        default_var1(),
        parse_model("ar1:phi=0.7"),
        VMA((np.eye(2), 0.4 * np.eye(2))),
        _VMA2,
        VMA((np.eye(2),), sigma=_DENSE_SIGMA),
    )
    for model in models:
        gammas = np.stack([model.gamma(u) for u in lags])
        direct = (
            model.gamma(0)
            + np.einsum("fl,lij->fij", phases, gammas)
            + np.einsum("fl,lji->fij", phases.conj(), gammas)
        ) / (2 * np.pi)
        closed = model.spectral_density(freqs)
        np.testing.assert_allclose(direct, closed, atol=1e-10)


_DENSE_SIGMA = np.array([[2.0, 0.5], [0.5, 1.0]])
_VMA2 = VMA(
    (np.eye(2), np.array([[0.4, 0.2], [-0.1, 0.3]]), np.array([[0.1, 0.0], [0.2, -0.2]])),
    sigma=_DENSE_SIGMA,
)


def _random_var1(n, seed):
    coeff = np.random.default_rng(seed).standard_normal((n, n))
    coeff *= 0.8 / np.max(np.abs(np.linalg.eigvals(coeff)))
    root = np.random.default_rng(seed + 1).standard_normal((n, n))
    return VAR1(coeff=coeff, sigma=root @ root.T + np.eye(n))


def _reference_spectrum(model, freqs):
    """The spectral density by one formula per model family, one frequency at a time."""
    n = model.n_dim
    if isinstance(model, VMA) and model.order == 0 and np.array_equal(model.coeffs[0], np.eye(n)):
        flat = model.sigma.astype(complex) / (2 * np.pi)
        return np.broadcast_to(flat, (freqs.size, *flat.shape)).copy()
    out = np.empty((freqs.size, n, n), dtype=complex)
    for idx, lam in enumerate(freqs):
        if isinstance(model, VAR1):
            h = np.linalg.inv(np.eye(n) - model.coeff * np.exp(-1j * lam))
        else:
            h = sum(b * np.exp(-1j * k * lam) for k, b in enumerate(model.coeffs))
        out[idx] = h.conj() @ model.sigma @ h.T / (2 * np.pi)
    return out


@pytest.mark.parametrize("grid", [28, 49, 167, 507, "clt"])
@pytest.mark.parametrize(
    "model",
    [
        default_var1(),
        parse_model("ar1:phi=0.5"),
        _random_var1(3, 11),
        _VMA2,
        VMA((np.eye(3),), sigma=np.diag([2.0, 0.5, 3.0])),
        VMA((np.eye(2),), sigma=_DENSE_SIGMA),
    ],
    ids=["var1-default", "ar1", "var1-random-3x3", "vma2", "white-diagonal", "white-dense"],
)
def test_spectrum_from_transfer_equals_per_frequency_formula(model, grid):
    # conj(H) Sigma H' / 2pi on stacked transfers is bit for bit each family's
    # per-frequency formula, on theorem grids and the CLT pair {0, pi/2}
    freqs = np.array([0.0, np.pi / 2]) if grid == "clt" else theorem_grid(grid)
    got = model.spectral_density(freqs)
    assert got.dtype == complex and got.shape == (freqs.size, model.n_dim, model.n_dim)
    assert np.array_equal(got, _reference_spectrum(model, freqs))


def test_var1_gamma_symmetry():
    model = default_var1()
    np.testing.assert_allclose(model.gamma(-2), model.gamma(2).T)
    # Gamma(0) solves the discrete Lyapunov equation
    g0 = model.gamma(0)
    np.testing.assert_allclose(model.coeff @ g0 @ model.coeff.T + model.sigma, g0)


def test_var1_rejects_explosive():
    with pytest.raises(NonStationaryModel):
        VAR1(coeff=np.array([[1.0, 0.0], [0.0, 0.5]]))
    with pytest.raises(NonStationaryModel):
        parse_model("ar1:phi=1.01")


_NOT_PD = np.array([[1.0, 2.0], [2.0, 1.0]])


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: VMA((np.eye(2),), sigma=np.full((2, 2), np.nan)), "finite"),  # not "symmetric"
        (lambda: VMA((np.eye(2),), sigma=np.array([[1.0, 0.5], [0.0, 1.0]])), "symmetric"),
        (lambda: VMA((np.zeros((0, 0)),), sigma=np.zeros((0, 0))), "n >= 1"),
        (lambda: VMA((np.eye(2),), sigma=_NOT_PD), "positive definite"),
        (lambda: VAR1(coeff=0.5 * np.eye(2), sigma=_NOT_PD), "positive definite"),
        (lambda: VAR1(coeff=np.array([[0.5, np.inf], [0.0, 0.5]])), "finite square"),
        (lambda: VAR1(coeff=np.ones((2, 3))), "finite square"),
        (lambda: VAR1(coeff=np.array([[0.99, 1e300], [0.0, 0.99]])), r"Gamma\(0\) overflows"),
        (lambda: VMA((np.eye(2),), sigma=np.eye(3)), "2x2"),
        (lambda: VMA((np.eye(2),), sigma=-np.eye(2)), "positive definite"),
        (lambda: ThresholdAR1(0.5, 0.2, sigma2=-1.0), "0 < sigma2"),
        (lambda: VMA(()), "at least one coefficient matrix"),
        (lambda: VMA((np.eye(2), np.eye(3))), "square, same size"),
        (lambda: VMA((np.array([[np.nan]]),)), "coefficients must be finite"),
    ],
)
def test_invalid_parameters_raise_at_construction(build, message):
    with pytest.raises(InvalidModel, match=message):
        build()


def test_vma_gamma_hand_value():
    model = VMA((np.eye(1), np.array([[0.5]])))
    assert model.gamma(0)[0, 0] == pytest.approx(1.25)
    assert model.gamma(1)[0, 0] == pytest.approx(0.5)
    assert model.gamma(2)[0, 0] == 0.0


def _vma_direct(model, eps):
    """Z_t = sum_k B_k w_{t-k} with w_t = chol(sigma) eps_t, one time point at a time."""
    w = eps @ np.linalg.cholesky(model.sigma).T
    out = np.zeros(w.shape)
    for t in range(w.shape[-2]):
        for k, b in enumerate(model.coeffs[: t + 1]):
            out[..., t, :] += w[..., t - k, :] @ b.T
    return out


@pytest.mark.parametrize("shape", [(40, 2), (3, 25, 2), (3, 2, 2)])
def test_vma_path_matches_direct_lag_sum(shape):
    # the last shape has fewer steps than coefficient matrices
    coeffs = (np.eye(2), np.array([[0.5, 0.2], [-0.1, 0.3]]), 0.25 * np.eye(2))
    model = VMA(coeffs, sigma=np.array([[1.0, 0.3], [0.3, 2.0]]))
    eps = np.random.default_rng(7).standard_normal(shape)
    np.testing.assert_allclose(model.path(eps), _vma_direct(model, eps), rtol=1e-13, atol=1e-14)


def test_vma_gamma_negative_lag_is_transpose():
    model = VMA((np.eye(2), np.array([[0.5, 0.2], [-0.1, 0.3]])), sigma=np.eye(2) + 0.2)
    for u in (1, 2):
        np.testing.assert_array_equal(model.gamma(-u), model.gamma(u).T)
    assert not np.allclose(model.gamma(1), model.gamma(1).T)


def test_threshold_ar_no_closed_form():
    model = ThresholdAR1(0.4, -0.3)
    with pytest.raises(UnsupportedModel):
        model.gamma(0)
    with pytest.raises(UnsupportedModel):
        model.spectral_density([0.0])
    with pytest.raises(NonStationaryModel):
        ThresholdAR1(1.2, 0.3)


def test_threshold_ar_simulates():
    s = simulate(ThresholdAR1(0.5, -0.5), 512, seed=0)
    assert s.t_len == 512
    assert np.all(np.isfinite(s.values))


def test_simulate_deterministic():
    model = default_var1()
    a = simulate(model, 128, seed=11)
    b = simulate(model, 128, seed=11)
    np.testing.assert_array_equal(a.values, b.values)
    c = simulate(model, 128, seed=12)
    assert not np.array_equal(a.values, c.values)


@pytest.mark.parametrize(
    "spec", ["white:dim=2", "white", "ar1:phi=0.5", "var1:default", "tar:a=0.5,b=-0.3"]
)
def test_simulate_returns_simulate_values_bit_for_bit(spec):
    model = parse_model(spec)
    want = model.simulate_values(3001, np.random.default_rng(5))
    assert simulate(model, 3001, seed=5).values.tobytes() == want.tobytes()


@pytest.mark.parametrize("spec", ["white:dim=2", "tar:a=0.5,b=-0.5"])
def test_simulate_holds_one_draw_buffer(spec):
    # tracemalloc traces each step of the threshold AR loop: T = 2**15 keeps that short
    t_len, model = 2**15, parse_model(spec)
    simulate(model, 16, seed=1)  # numpy.random is imported on first use
    peak = traced_peak(lambda: None, lambda _: simulate(model, t_len, seed=1))
    assert peak <= 1.3 * t_len * model.n_dim * 8


def test_vma_simulate_holds_three_series():
    # Sigma = I scales the draws in place; the output and one lag product are
    # the other two series
    t_len, model = 2**18, VMA((np.eye(2), np.array([[0.5, 0.2], [-0.1, 0.3]])))
    simulate(model, 16, seed=1)  # numpy.random is imported on first use
    peak = traced_peak(lambda: None, lambda _: simulate(model, t_len, seed=1))
    assert peak <= 3.3 * t_len * model.n_dim * 8


def _sequential_path(model, eps):
    """Oracle: Z_t = A Z_{t-1} + w_t one time step at a time, from Z_{-1} = 0."""
    w = eps @ model._chol.T
    out = np.empty_like(w)
    state = np.zeros(w.shape[:-2] + (model.n_dim,))
    for t in range(w.shape[-2]):
        state = state @ model.coeff.T + w[..., t, :]
        out[..., t, :] = state
    return out


def _oracle_models():
    rng = np.random.default_rng(21)
    q2, _ = np.linalg.qr(rng.standard_normal((2, 2)))
    q4, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    upper = np.triu(0.3 * rng.standard_normal((4, 4)), 1)
    return {
        "default": default_var1(),
        "complex_pair": VAR1(coeff=np.array([[0.5, -0.6], [0.6, 0.5]])),
        "jordan_0.9": VAR1(coeff=q2 @ np.array([[0.9, 1.0], [0.0, 0.9]]) @ q2.T),
        "poles_0.92_0.95": VAR1(
            coeff=q4 @ (upper + np.diag([0.92, 0.93, 0.94, 0.95])) @ q4.T,
            sigma=np.eye(4) + 0.5 * np.ones((4, 4)),
        ),
        "jordan4_0.95": VAR1(coeff=0.95 * np.eye(4) + np.eye(4, k=1)),
        "nonnormal_0.99": VAR1(coeff=np.array([[0.99, 20.0], [0.0, 0.99]])),
    }


@pytest.mark.parametrize("name", list(_oracle_models()))
def test_var1_filter_matches_sequential_oracle(name):
    model = _oracle_models()[name]
    # 17, 1,025 and 70,000 are no multiple of a block (s = 32 // n steps),
    # 2,000 is; at 70,000 steps five of these models' block ends pass their
    # last scan level, where A^(s^k) = 0 and the ends need no carry
    for steps in (17, 1025, 2000, 70000):
        eps = np.random.default_rng(8).standard_normal((3, steps, model.n_dim))
        expected = _sequential_path(model, eps)
        got = model.path(eps)
        assert got.shape == expected.shape
        rel = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
        assert rel <= 1e-13, (steps, rel)


@pytest.mark.parametrize("coeff,levels", [(default_var1().coeff, 3), (np.zeros((2, 2)), 1)])
def test_scan_levels_end_at_the_first_zero_power_of_a(coeff, levels):
    # level k runs with M = A^(16^k) for n = 2; past the last, M = 0 and z_t = x_t
    powers = [np.linalg.matrix_power(coeff, 16**k) for k in range(1, 5)]
    assert levels == 1 + next(k for k, power in enumerate(powers) if not power.any())
    assert len(VAR1(coeff=coeff)._scan_levels) == levels


@pytest.mark.parametrize("phi,sigma2", [(0.5, 1.0), (-0.7, 2.3), (0.6, 1.0)])
def test_ar1_path_is_scalar_filter(phi, sigma2):
    # a 1x1 A runs the same blocked scan; its sums round unlike the recursion's
    model = VAR1([[phi]], [[sigma2]])
    eps = np.random.default_rng(4).standard_normal((3, 400, 1))
    expected = lfilter([1.0], [1.0, -phi], eps * np.sqrt(sigma2), axis=-2)
    got = model.path(eps)
    assert got.shape == expected.shape
    rel = np.max(np.abs(got - expected)) / np.max(np.abs(expected))
    assert rel <= 1e-15, rel


def _stationary_var1(n, radius, seed):
    """A non-normal VAR(1) of spectral radius ``radius`` and a dense sigma."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    upper = np.triu(0.3 * rng.standard_normal((n, n)), 1)
    coeff = q @ (np.diag(np.linspace(-radius, radius, n)) + upper) @ q.T
    root = rng.standard_normal((n, n))
    return coeff, root @ root.T + np.eye(n)


@pytest.mark.parametrize("radius", [0.5, 0.9, 0.99])
@pytest.mark.parametrize("n", [2, 4, 12])
def test_var1_gamma0_and_radius_match_scipy(n, radius):
    from scipy.linalg import eigvals, solve_discrete_lyapunov

    coeff, sigma = _stationary_var1(n, radius, seed=n)
    model = VAR1(coeff=coeff, sigma=sigma)
    # scipy's default from n = 10, the bilinear method, is the less accurate
    # one: 1e-11 from the Kronecker solve at n = 12, radius 0.99
    expected = solve_discrete_lyapunov(coeff, sigma, method="direct")
    rel = np.max(np.abs(model.gamma(0) - expected)) / np.max(np.abs(expected))
    assert rel <= 1e-12, rel
    assert model._radius == pytest.approx(
        np.max(np.abs(eigvals(coeff))), rel=1e-12, abs=0.0
    )
    assert model._radius == pytest.approx(radius, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("reps", [1, 7, 64])
def test_var1_path_rows_independent_of_batch(reps):
    # each replication's path must not depend on the replications batched with it
    rng = np.random.default_rng(reps)
    for model in (default_var1(), _oracle_models()["poles_0.92_0.95"]):
        eps = rng.standard_normal((reps, 300, model.n_dim))
        batch = model.path(eps)
        for r in range(reps):
            np.testing.assert_array_equal(batch[r], model.path(eps[r]))


def test_parse_model_grammar(tmp_path):
    assert parse_model("white").n_dim == 1
    assert parse_model("white:dim=3,sigma2=2.0").n_dim == 3
    m = parse_model("ar1:phi=0.25")
    assert isinstance(m, VAR1) and m.coeff.tolist() == [[0.25]]
    var = parse_model("var1:default")
    assert isinstance(var, VAR1) and var.n_dim == 2
    tar = parse_model("tar:a=0.4,b=-0.2")
    assert isinstance(tar, ThresholdAR1)

    a_path = tmp_path / "A.csv"
    a_path.write_text("0.3,0.0\n0.1,0.2\n")
    var_file = parse_model(f"var1:file={a_path}")
    np.testing.assert_allclose(var_file.coeff, [[0.3, 0.0], [0.1, 0.2]])

    b0 = tmp_path / "B0.csv"
    b1 = tmp_path / "B1.csv"
    b0.write_text("1.0\n")
    b1.write_text("0.5\n")
    vma = parse_model(f"vma:file={b0};{b1}")
    assert isinstance(vma, VMA) and vma.order == 1


@pytest.mark.parametrize("seed", [-1, 1.5, None])
def test_simulate_seed_must_be_a_non_negative_integer(seed):
    with pytest.raises(InvalidArgument, match=f"seed must be a non-negative integer, got {seed}"):
        simulate(parse_model("white"), 16, seed)


def test_parse_model_rejects_unknown():
    with pytest.raises(ValueError):
        parse_model("garch:omega=0.1")


def test_var1_scalar_innovation_file_is_not_broadcast(tmp_path):
    a_path = tmp_path / "A.csv"
    s_path = tmp_path / "S.csv"
    a_path.write_text("0.4,0.1\n0.0,0.3\n")
    s_path.write_text("2.0\n")
    with pytest.raises(InvalidModel, match="innovation covariance must be 2x2"):
        parse_model(f"var1:file={a_path},sigma={s_path}")


@pytest.mark.parametrize(
    "model",
    [
        VMA((np.eye(2),), sigma=np.diag([2.0, 0.5])),
        VMA((np.eye(2),), sigma=np.array([[2.0, 0.5], [0.5, 1.0]])),
        parse_model("ar1:phi=0.7"),
        default_var1(),
        VMA(coeffs=(np.eye(2), np.array([[0.5, 0.2], [-0.1, 0.3]])), sigma=np.eye(2)),
        ThresholdAR1(a=0.5, b=-0.3),
    ],
    ids=["white-diagonal", "white-dense", "ar1", "var1-default", "vma", "tar"],
)
def test_simulate_values_over_its_draws_matches_path_on_a_copy(model):
    # simulate_values lets path write over its draws; the values are those of
    # path on the same draws left in place. Neither T nor T + 1000 burn-in rows
    # is a multiple of the scan span (16 or 32 steps).
    for t_len in (3001, 2501):
        for rep in range(3):
            seed = [t_len, rep]
            values = model.simulate_values(t_len, np.random.default_rng(seed))
            burn = max(1000, model.decay_horizon())
            eps = np.random.default_rng(seed).standard_normal((burn + t_len, model.n_dim))
            assert np.array_equal(values, model.path(eps)[burn:])
            # without overwrite, path leaves its innovations as they were
            assert np.array_equal(eps, np.random.default_rng(seed).standard_normal(eps.shape))
