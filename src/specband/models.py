"""Generative process models: simulation, closed-form moments, couplings.

Every model is a causal map from an iid stream of standard normal innovation
vectors to observations. ``path`` runs that map from a zero initial state,
which is what the dependence-measure couplings need; ``simulate`` adds a burn
-in long enough that the truncated start is invisible at double precision.

VAR(1) paths are an exact linear filter with no loop over time. The complex
Schur form A = U S U^H is computed once per model, so y_t = U^H Z_t obeys
y_t = S y_{t-1} + U^H w_t with S upper triangular. Row i of that recursion,
y_t - S_ii y_{t-1} = drive_t with the rows j > i at lag 1 in the drive, is a
unit lower-bidiagonal system in time: one LAPACK banded triangular solve
(``ztbtrs``) with the replications as right-hand sides. Rows are solved from
last to first, and Z_t = Re(U y_t). The mixing by U and U^H is written as
elementwise sums over the n columns, which keeps every replication's
arithmetic independent of the batch around it. For a 1x1 A the solve is the
scalar AR(1) recursion bit for bit; with complex poles LAPACK may fuse each
multiply-add, so paths differ from a two-rounding filter such as
``scipy.signal.lfilter`` in the last bits (about 2e-16 relative).

White noise with a diagonal Cholesky factor (one-dimensional, or
``white:dim=n``) scales each innovation column by its entry instead of
taking a matrix product: for finite innovations the values are the same bit
for bit, since every off-diagonal term of the product is an exact zero. A
dense factor keeps the product.

Covariances are factored by numpy's Cholesky; bad parameters raise
``InvalidModel`` at construction. scipy is imported where it is called, so
importing the package loads numpy alone, and only ``VAR1`` loads
``scipy.linalg`` (Schur form, Lyapunov solve, banded solve).

Linear models (white noise, scalar AR(1), VAR(1), VMA) expose closed-form
autocovariances Gamma(u) and spectral densities; the threshold AR model is
simulation-only. The spectral density follows the transform convention
f(lambda) = (1/2pi) sum_u e^{-i u lambda} Gamma(u) used by the estimator, so
for VAR(1) it reads conj(H) Sigma H' with H = (I - A e^{-i lambda})^{-1}.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidModel, NonStationaryModel, UnsupportedModel
from .series import MultivariateSeries

__all__ = [
    "ProcessModel",
    "WhiteNoise",
    "AR1Scalar",
    "VAR1",
    "VMA",
    "ThresholdAR1",
    "default_var1",
    "parse_model",
    "simulate",
]

_TWO_PI = 2.0 * np.pi
_MEMORY_TOL = 1e-14


def _as_cov(sigma, n):
    """The innovation covariance as an (n, n) array, and its lower Cholesky factor."""
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
    if sigma.shape == (1, 1) and n > 1:
        sigma = sigma[0, 0] * np.eye(n)
    if n < 1 or sigma.shape != (n, n):
        raise InvalidModel(f"innovation covariance must be {n}x{n} with n >= 1")
    if not np.all(np.isfinite(sigma)):
        raise InvalidModel("innovation covariance must be finite")
    if not np.allclose(sigma, sigma.T):
        raise InvalidModel("innovation covariance must be symmetric")
    try:
        return sigma, np.linalg.cholesky(sigma)
    except np.linalg.LinAlgError:
        raise InvalidModel("innovation covariance must be positive definite") from None


class ProcessModel:
    """Common surface of all generative models."""

    kind: str = "abstract"

    @property
    def n_dim(self) -> int:
        raise NotImplementedError

    def decay_horizon(self) -> int:
        """Lags after which the causal map's memory is below _MEMORY_TOL."""
        raise NotImplementedError

    def path(self, eps: np.ndarray) -> np.ndarray:
        """Run the causal map over innovations (..., steps, b) from zero state."""
        raise NotImplementedError

    def gamma(self, u: int) -> np.ndarray:
        raise UnsupportedModel(f"model {self.kind!r} has no closed-form Gamma(u)")

    def spectral_density(self, freqs) -> np.ndarray:
        raise UnsupportedModel(f"model {self.kind!r} has no closed-form spectrum")

    def simulate_values(self, t_len: int, rng: np.random.Generator) -> np.ndarray:
        burn = max(1000, self.decay_horizon())
        eps = rng.standard_normal((burn + t_len, self.n_dim))
        return self.path(eps)[burn:]


@dataclass(frozen=True, eq=False)
class WhiteNoise(ProcessModel):
    """iid Gaussian vectors with covariance sigma."""

    sigma: np.ndarray = field(default_factory=lambda: np.eye(1))
    kind = "white_noise"

    def __post_init__(self):
        sigma, chol = _as_cov(self.sigma, np.atleast_2d(self.sigma).shape[0])
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_chol", chol)
        diagonal = np.array_equal(chol, np.diag(chol.diagonal()))
        object.__setattr__(self, "_scale", chol.diagonal() if diagonal else None)

    @property
    def n_dim(self):
        return self.sigma.shape[0]

    def decay_horizon(self) -> int:
        return 0

    def path(self, eps):
        if self._scale is not None:
            return eps * self._scale
        return eps @ self._chol.T

    def gamma(self, u):
        if u == 0:
            return self.sigma.copy()
        return np.zeros_like(self.sigma)

    def spectral_density(self, freqs):
        freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
        flat = self.sigma.astype(complex) / _TWO_PI
        return np.broadcast_to(flat, (freqs.size, *flat.shape)).copy()


@dataclass(frozen=True, eq=False)
class VAR1(ProcessModel):
    """Z_t = A Z_{t-1} + w_t with w_t ~ N(0, sigma)."""

    coeff: np.ndarray
    sigma: np.ndarray | None = None
    kind = "var1"

    def __post_init__(self):
        from scipy.linalg import schur, solve_discrete_lyapunov

        coeff = np.atleast_2d(np.asarray(self.coeff, dtype=float))
        n = coeff.shape[0]
        if coeff.shape != (n, n) or not np.all(np.isfinite(coeff)):
            raise InvalidModel("VAR(1) coefficient must be a finite square matrix")
        sigma, chol = _as_cov(self.sigma if self.sigma is not None else np.eye(n), n)
        tri, unitary = schur(coeff, output="complex")
        radius = np.max(np.abs(np.diag(tri)))
        if radius >= 1.0:
            raise NonStationaryModel(f"VAR(1) spectral radius {radius:.4f} >= 1")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_chol", chol)
        object.__setattr__(self, "_schur", (tri, unitary))
        object.__setattr__(self, "_radius", float(radius))
        object.__setattr__(
            self, "_gamma0", solve_discrete_lyapunov(coeff, sigma)
        )

    @property
    def n_dim(self):
        return self.coeff.shape[0]

    def decay_horizon(self) -> int:
        if self._radius == 0.0:
            return 1
        return int(np.ceil(np.log(_MEMORY_TOL) / np.log(self._radius))) + 1

    def path(self, eps):
        from scipy.linalg.lapack import ztbtrs  # not stored: the pool pickles models

        tri, unitary = self._schur
        n = self.n_dim
        w = eps @ self._chol.T
        steps = w.shape[-2]
        band = np.ones((2, steps), dtype=complex)  # unit diagonal, then -S_ii below
        y = [None] * n  # y[i]: (..., steps) complex, time on the last axis
        for i in reversed(range(n)):
            drive = sum(unitary[k, i].conjugate() * w[..., k] for k in range(n))
            for j in range(i + 1, n):
                drive[..., 1:] += tri[i, j] * y[j][..., :-1]
            band[1] = -tri[i, i]
            sol, info = ztbtrs(  # overwrites drive, a temporary, in place
                band, drive.reshape(-1, steps).T, uplo="L", diag="U", overwrite_b=1
            )
            if info != 0:
                raise np.linalg.LinAlgError(f"banded solve failed (info={info})")
            y[i] = sol.T.reshape(drive.shape)
        out = np.empty_like(w)
        for k in range(n):
            out[..., k] = sum(
                unitary[k, j].real * y[j].real - unitary[k, j].imag * y[j].imag
                for j in range(n)
            )
        return out

    def gamma(self, u):
        power = np.linalg.matrix_power(self.coeff.T, abs(u))
        if u >= 0:
            return self._gamma0 @ power
        return (self._gamma0 @ power).T.copy()

    def spectral_density(self, freqs):
        freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
        eye = np.eye(self.n_dim)
        out = np.empty((freqs.size, self.n_dim, self.n_dim), dtype=complex)
        for k, lam in enumerate(freqs):
            h = np.linalg.inv(eye - self.coeff * np.exp(-1j * lam))
            out[k] = h.conj() @ self.sigma @ h.T / _TWO_PI
        return out


class AR1Scalar(VAR1):
    """Scalar AR(1): Z_t = phi Z_{t-1} + eps_t, eps_t ~ N(0, sigma2)."""

    kind = "ar1_scalar"

    def __init__(self, phi: float, sigma2: float = 1.0):
        if not np.isfinite(phi):
            raise InvalidModel(f"AR(1) needs a finite phi, got {phi}")
        if not abs(phi) < 1.0:
            raise NonStationaryModel(f"AR(1) needs |phi| < 1, got {phi}")
        super().__init__(coeff=np.array([[phi]]), sigma=np.array([[sigma2]]))
        object.__setattr__(self, "phi", float(phi))
        object.__setattr__(self, "sigma2", float(sigma2))


@dataclass(frozen=True, eq=False)
class VMA(ProcessModel):
    """Vector MA: Z_t = sum_k B_k w_{t-k}, w_t ~ N(0, sigma)."""

    coeffs: tuple
    sigma: np.ndarray | None = None
    kind = "vma"

    def __post_init__(self):
        coeffs = tuple(np.atleast_2d(np.asarray(b, dtype=float)) for b in self.coeffs)
        if not coeffs:
            raise InvalidModel("VMA needs at least one coefficient matrix")
        n = coeffs[0].shape[0]
        for b in coeffs:
            if b.shape != (n, n):
                raise InvalidModel("all VMA coefficient matrices must be square, same size")
            if not np.all(np.isfinite(b)):
                raise InvalidModel("VMA coefficients must be finite")
        sigma, chol = _as_cov(self.sigma if self.sigma is not None else np.eye(n), n)
        object.__setattr__(self, "coeffs", coeffs)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_chol", chol)

    @property
    def n_dim(self):
        return self.coeffs[0].shape[0]

    @property
    def order(self):
        return len(self.coeffs) - 1

    def decay_horizon(self) -> int:
        return self.order

    def path(self, eps):
        w = eps @ self._chol.T
        out = np.zeros(w.shape[:-1] + (self.n_dim,))
        steps = w.shape[-2]
        for k, b in enumerate(self.coeffs):
            if k >= steps:
                break
            if k == 0:
                out += w @ b.T
            else:
                out[..., k:, :] += w[..., :-k, :] @ b.T
        return out

    def gamma(self, u):
        if u < 0:
            return self.gamma(-u).T.copy()
        n = self.n_dim
        out = np.zeros((n, n))
        for k in range(len(self.coeffs) - u):
            out += self.coeffs[k] @ self.sigma @ self.coeffs[k + u].T
        return out

    def spectral_density(self, freqs):
        freqs = np.atleast_1d(np.asarray(freqs, dtype=float))
        out = np.empty((freqs.size, self.n_dim, self.n_dim), dtype=complex)
        for idx, lam in enumerate(freqs):
            b_lam = sum(
                b * np.exp(-1j * k * lam) for k, b in enumerate(self.coeffs)
            )
            out[idx] = b_lam.conj() @ self.sigma @ b_lam.T / _TWO_PI
        return out


@dataclass(frozen=True, eq=False)
class ThresholdAR1(ProcessModel):
    """Threshold AR: Z_t = a max(Z_{t-1}, 0) + b min(Z_{t-1}, 0) + eps_t."""

    a: float
    b: float
    sigma2: float = 1.0
    kind = "threshold_ar1"

    def __post_init__(self):
        if not (np.isfinite([self.a, self.b]).all() and 0.0 < self.sigma2 < np.inf):
            raise InvalidModel("threshold AR needs finite a, b and 0 < sigma2 < inf")
        contraction = max(abs(self.a), abs(self.b))
        if contraction >= 1.0:
            raise NonStationaryModel(
                f"threshold AR needs max(|a|, |b|) < 1, got {contraction:.4f}"
            )
        object.__setattr__(self, "_contraction", contraction)

    @property
    def n_dim(self):
        return 1

    def decay_horizon(self) -> int:
        if self._contraction == 0.0:
            return 1
        return int(np.ceil(np.log(_MEMORY_TOL) / np.log(self._contraction))) + 1

    def path(self, eps):
        w = np.sqrt(self.sigma2) * eps[..., 0]
        out = np.empty_like(w)
        state = np.zeros(w.shape[:-1])
        for t in range(w.shape[-1]):
            state = (
                self.a * np.maximum(state, 0.0)
                + self.b * np.minimum(state, 0.0)
                + w[..., t]
            )
            out[..., t] = state
        return out[..., None]


def default_var1() -> VAR1:
    """Bivariate test model A = [[0.4, 0.1], [0, 0.3]], Sigma = I."""
    return VAR1(coeff=np.array([[0.4, 0.1], [0.0, 0.3]]), sigma=np.eye(2))


def simulate(model: ProcessModel, t_len: int, seed) -> MultivariateSeries:
    """Deterministic draw of T observations after burn-in."""
    if t_len < 2:
        raise ValueError("t_len must be at least 2")
    rng = np.random.default_rng(seed)
    values = model.simulate_values(t_len, rng)
    return MultivariateSeries(values, centered=False)


def _parse_kv(body: str) -> dict:
    out = {}
    if body:
        for item in body.split(","):
            key, _, value = item.partition("=")
            out[key.strip()] = value.strip()
    return out


def parse_model(text: str) -> ProcessModel:
    """Build a model from the CLI grammar.

    ``white[:dim=k,sigma2=v]``, ``ar1:phi=0.5[,sigma2=1]``,
    ``var1:file=A.csv,sigma=S.csv`` (or ``var1:default``),
    ``vma:file=B0.csv;B1.csv[,sigma=S.csv]``, ``tar:a=0.5,b=-0.3[,sigma2=1]``.
    """
    try:
        return _parse_model(text)
    except InvalidModel:
        raise
    except ValueError as exc:  # a non-numeric parameter or matrix file entry
        raise InvalidModel(f"model {text!r}: {exc}") from None


def _parse_model(text: str) -> ProcessModel:
    head, _, body = text.partition(":")
    head = head.strip().lower()
    if head in ("white", "white_noise", "wn"):
        kv = _parse_kv(body)
        dim = int(kv.get("dim", 1))
        if dim < 1:
            raise InvalidModel(f"white noise needs dim >= 1, got {dim}")
        sigma2 = float(kv.get("sigma2", 1.0))
        return WhiteNoise(sigma=sigma2 * np.eye(dim))
    if head == "ar1":
        kv = _parse_kv(body)
        if "phi" not in kv:
            raise InvalidModel("ar1 model needs phi=, e.g. ar1:phi=0.5")
        return AR1Scalar(phi=float(kv["phi"]), sigma2=float(kv.get("sigma2", 1.0)))
    if head == "var1":
        if body.strip() == "default":
            return default_var1()
        kv = _parse_kv(body)
        if "file" not in kv:
            raise InvalidModel("var1 model needs file=A.csv (or var1:default)")
        coeff = np.loadtxt(kv["file"], delimiter=",", ndmin=2)
        sigma = (
            np.loadtxt(kv["sigma"], delimiter=",", ndmin=2) if "sigma" in kv else None
        )
        return VAR1(coeff=coeff, sigma=sigma)
    if head == "vma":
        kv = _parse_kv(body)  # file paths are ;-separated, commas split options
        files = kv.get("file", "")
        if not files:
            raise InvalidModel("vma model needs file=B0.csv;B1.csv;...")
        coeffs = tuple(
            np.loadtxt(f, delimiter=",", ndmin=2) for f in files.split(";") if f
        )
        sigma = (
            np.loadtxt(kv["sigma"], delimiter=",", ndmin=2) if "sigma" in kv else None
        )
        return VMA(coeffs=coeffs, sigma=sigma)
    if head == "tar":
        kv = _parse_kv(body)
        if "a" not in kv or "b" not in kv:
            raise InvalidModel("tar model needs a= and b=")
        return ThresholdAR1(
            a=float(kv["a"]), b=float(kv["b"]), sigma2=float(kv.get("sigma2", 1.0))
        )
    raise InvalidModel(f"unknown model {text!r}")
