"""Generative process models: simulation, closed-form moments, couplings.

Every model is a causal map from an iid stream of standard normal innovation
vectors to observations. ``path`` runs that map from a zero initial state,
which is what the dependence-measure couplings need; ``simulate`` adds a burn
-in of ``decay_horizon()`` lags, at least 1000. After it the zero start's
weight is below ``_MEMORY_TOL`` for a contraction or a normal A, but not for
a non-normal A (6.4e-10 after the 3,209 lags of [[0.99, 20], [0, 0.99]]).

VAR(1) paths are a blocked linear-recurrence scan (Blelloch 1990, "Prefix
sums and their applications") written as numpy matrix products, with no loop
over time. Time is cut into blocks of s steps (s n <= 32 columns). One
product with a cached block-triangular matrix of powers of A' gives every
block's states from zero state. The true end states of the blocks obey the
same recursion with A^s in place of A, so the same scan, one level down,
gives them. Then one product with the tail [A' ... A'^s] adds each block's
carry, the end state of the block before. Levels are cached at construction
until the next level's A^(s^k) is exactly zero (k = 3 for ``var1:default``);
past them block ends need no carry. A's powers do reach zero: they stay
bounded, as Gamma(0) is finite, and underflow. Every dgemm is sized to run on
one BLAS thread by ``acov``'s rule (``_BLOCK_COLS`` columns per block row,
m n k <= ``_GEMM_SIZE``), and each replication's rows go through dgemms of
their own, so a path does not depend on the batch around it. The blocked sums
round differently from the one-step recursion: paths differ from it, and from
``scipy.signal.lfilter`` for a 1x1 A, by a few units of 1e-16 relative (at
most 4e-15 on the test models, which include Jordan blocks and strongly
non-normal A).

A VMA whose innovation Cholesky factor is diagonal (Sigma = I, or
``white:dim=n``) scales each innovation column by its entry instead of taking
a matrix product: for finite innovations the values are the same bit for
bit, since every off-diagonal term of the product is an exact zero. A dense
factor keeps the product. White noise is the VMA of order 0 with B_0 = I, so
its path is the scaled innovations themselves.

``path`` leaves its innovations as they are unless called with
``overwrite``, which lets it write over them: a VMA with a diagonal factor
then scales them in place and the threshold AR model runs its recursion in
place on them. ``simulate_values`` sets it, since it owns its draws.

Covariances are factored by numpy's Cholesky; bad parameters raise
``InvalidModel`` at construction. The VAR(1) spectral radius comes from
``np.linalg.eigvals`` and Gamma(0) from a doubling sum (``_lyapunov``).

The linear models, VAR(1) and VMA, expose closed-form autocovariances
Gamma(u) and spectral densities; the threshold AR model is simulation-only.
``parse_model`` builds white noise as a VMA of order 0 and scalar AR(1) as a
1x1 VAR(1). In the estimator's convention f(lambda) = (1/2pi) sum_u
e^{-i u lambda} Gamma(u), every linear model's spectral density is
conj(H) Sigma H' / 2pi with H(lambda) its transfer function (Brillinger 1981,
ch. 7): (I - A e^{-i lambda})^{-1} for VAR(1) and sum_k B_k e^{-i k lambda}
for VMA.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass

import numpy as np

from .acov import _BLOCK_COLS, _GEMM_SIZE
from .errors import InvalidArgument, InvalidModel, NonStationaryModel, UnsupportedModel
from .series import MultivariateSeries, load_matrix

_TWO_PI = 2.0 * np.pi
_MEMORY_TOL = 1e-14


def _as_cov(sigma, n):
    """The innovation covariance as an (n, n) array, and its lower Cholesky factor."""
    sigma = np.atleast_2d(np.asarray(sigma, dtype=float))
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


def _horizon(rate: float) -> int:
    """Lags after which a memory decaying like rate^k is below _MEMORY_TOL."""
    if rate == 0.0:
        return 1
    return int(np.ceil(np.log(_MEMORY_TOL) / np.log(rate))) + 1


def _lyapunov(coeff, sigma):
    """Gamma(0) of a VAR(1): the solution X of X = A X A' + sigma.

    Sums the series X = sum_j A^j sigma A'^j by doubling, X += A_j X A_j'
    with A_{j+1} = A_j^2, in O(n^2) memory, until a term is below rounding:
    within 1e-14 relative of 1/(1 - phi^2) for an AR(1) at phi = 0.999.
    """
    gamma, power = sigma, coeff
    for _ in range(64):  # A_j = A^(2^j): enough squarings for any radius < 1
        term = power @ gamma @ power.T
        gamma = gamma + term
        if np.max(np.abs(term)) <= np.finfo(float).eps * np.max(np.abs(gamma)):
            break
        power = power @ power
    return gamma


def _scan_levels(coeff, chol):
    """The cached matrices of the blocked scan: one (impulse, tail) per level.

    Level k runs z_t = z_{t-1} M' + x_t with M = A^(s^k) over blocks of s
    steps. Its impulse is the (s n, s n) block-triangular matrix whose block
    (q, p) is M'^(p - q) for q <= p: a row of s drives x_q times it is the
    block's states from zero state. Level 0's impulse has chol' in front of
    every block, so it takes the innovations. The tail [M' ... M'^s] carries
    the previous block's end state into the block. Levels are added until
    the next level's M is exactly zero: there z_t = x_t.
    """
    n = coeff.shape[0]
    span = max(2, _BLOCK_COLS // n)
    step, left, levels = coeff.T, chol.T, []
    for _ in range(64):  # s^64 steps: more than any array holds
        powers = [np.eye(n)]
        for _ in range(span):
            powers.append(powers[-1] @ step)
        impulse = np.zeros((span, n, span, n))
        for q in range(span):
            for p in range(q, span):
                impulse[q, :, p, :] = left @ powers[p - q]
        levels.append((impulse.reshape(span * n, span * n), np.hstack(powers[1:])))
        step, left = powers[-1], np.eye(n)
        if not step.any():
            break
    return tuple(levels)


def _scan(levels, x, level=0):
    """States from zero state of scan level ``level`` driven by x (..., steps, n).

    Each replication's rows go through their own dgemms, of one shape that
    depends only on ``steps``, so a path does not depend on its batch.
    """
    if level == len(levels):  # M = A^(s^level) is zero: z_t = x_t
        return x
    lead, (steps, n) = x.shape[:-2], x.shape[-2:]
    impulse, tail = levels[level]
    width = impulse.shape[0]
    span = width // n
    n_blocks = max(1, -(-steps // span))
    batches = -(-n_blocks // max(1, _GEMM_SIZE // width**2))
    rows = -(-n_blocks // batches)  # block rows per dgemm
    blocks = np.empty(lead + (batches * rows * span, n))
    blocks[..., :steps, :] = x
    blocks[..., steps:, :] = 0.0
    out = blocks.reshape(lead + (batches, rows, width)) @ impulse
    if n_blocks > 1:  # add each block's carry: the end state of the block before
        ends = out.reshape(lead + (batches * rows, width))[..., : n_blocks - 1, -n:]
        carry = np.zeros(lead + (batches * rows, n))
        carry[..., 1:n_blocks, :] = _scan(levels, ends, level + 1)
        prod = blocks.reshape(out.shape)  # the blocks are spent: hold the product
        out += np.matmul(carry.reshape(lead + (batches, rows, n)), tail, out=prod)
    return out.reshape(lead + (-1, n))[..., :steps, :]


class ProcessModel:
    """Common surface of all generative models."""

    kind: str = "abstract"

    @property
    def n_dim(self) -> int:
        return self.sigma.shape[0]

    def decay_horizon(self) -> int:
        """Burn-in lags: the k with rate^k below _MEMORY_TOL, rate the spectral
        radius or contraction factor (0 for white noise, q for VMA(q)).
        rate^k bounds the memory only of a contraction or a normal A."""
        raise NotImplementedError

    def path(self, eps: np.ndarray, overwrite: bool = False) -> np.ndarray:
        """Run the causal map over innovations (..., steps, b) from zero state.

        With ``overwrite`` a model may write over ``eps`` and return it.
        """
        raise NotImplementedError

    def gamma(self, u: int) -> np.ndarray:
        raise UnsupportedModel(f"model {self.kind!r} has no closed-form Gamma(u)")

    def _transfer(self, freqs: np.ndarray) -> np.ndarray:
        """H(lambda) at each frequency, (F, n, n) complex."""
        raise UnsupportedModel(f"model {self.kind!r} has no closed-form spectrum")

    def spectral_density(self, freqs) -> np.ndarray:
        """f(lambda) = conj(H) Sigma H' / 2pi at each frequency, (F, n, n)."""
        h = self._transfer(np.atleast_1d(np.asarray(freqs, dtype=float)))
        return h.conj() @ self.sigma @ np.swapaxes(h, -1, -2) / _TWO_PI

    def simulate_values(self, t_len: int, rng: np.random.Generator) -> np.ndarray:
        """T values after burn-in, from draws that ``path`` may write over."""
        # white noise has no memory, so its 1000 burn-in rows change no law:
        # they only fix which draws of each stream it uses, and so every report
        burn = max(1000, self.decay_horizon())
        eps = rng.standard_normal((burn + t_len, self.n_dim))
        return self.path(eps, overwrite=True)[burn:]


@dataclass(frozen=True, eq=False)
class VAR1(ProcessModel):
    """Z_t = A Z_{t-1} + w_t with w_t ~ N(0, sigma)."""

    coeff: np.ndarray
    sigma: np.ndarray | None = None
    kind = "var1"

    def __post_init__(self):
        coeff = np.atleast_2d(np.asarray(self.coeff, dtype=float))
        n = coeff.shape[0]
        if coeff.shape != (n, n) or not np.all(np.isfinite(coeff)):
            raise InvalidModel("VAR(1) coefficient must be a finite square matrix")
        sigma, chol = _as_cov(self.sigma if self.sigma is not None else np.eye(n), n)
        radius = np.max(np.abs(np.linalg.eigvals(coeff)))
        if radius >= 1.0:
            raise NonStationaryModel(f"VAR(1) spectral radius {radius:.4f} >= 1")
        with np.errstate(over="ignore", invalid="ignore"):
            gamma0 = _lyapunov(coeff, sigma)
        if not np.all(np.isfinite(gamma0)):
            raise InvalidModel("VAR(1) Gamma(0) overflows: A's powers grow too large")
        object.__setattr__(self, "coeff", coeff)
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "_chol", chol)
        object.__setattr__(self, "_radius", float(radius))
        object.__setattr__(self, "_gamma0", gamma0)
        object.__setattr__(self, "_scan_levels", _scan_levels(coeff, chol))

    def decay_horizon(self) -> int:
        return _horizon(self._radius)

    def path(self, eps, overwrite=False):
        return _scan(self._scan_levels, eps)

    def gamma(self, u):
        power = np.linalg.matrix_power(self.coeff.T, abs(u))
        if u >= 0:
            return self._gamma0 @ power
        return (self._gamma0 @ power).T.copy()

    def _transfer(self, freqs):
        shift = np.exp(-1j * freqs)[:, None, None]
        return np.linalg.inv(np.eye(self.n_dim) - self.coeff * shift)


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
        diagonal = np.array_equal(chol, np.diag(chol.diagonal()))
        object.__setattr__(self, "_scale", chol.diagonal() if diagonal else None)
        white = len(coeffs) == 1 and np.array_equal(coeffs[0], np.eye(n))
        object.__setattr__(self, "_white", white)

    @property
    def order(self):
        return len(self.coeffs) - 1

    def decay_horizon(self) -> int:
        return self.order

    def path(self, eps, overwrite=False):
        if self._scale is None:
            w = eps @ self._chol.T
        elif overwrite:
            w = eps
            w *= self._scale
        else:
            w = eps * self._scale
        if self._white:
            return w
        out = np.zeros(w.shape[:-1] + (self.n_dim,))
        steps = w.shape[-2]
        for k, b in enumerate(self.coeffs[:steps]):
            out[..., k:, :] += w[..., : steps - k, :] @ b.T
        return out

    def gamma(self, u):
        if u < 0:
            return self.gamma(-u).T.copy()
        n = self.n_dim
        out = np.zeros((n, n))
        for k in range(len(self.coeffs) - u):
            out += self.coeffs[k] @ self.sigma @ self.coeffs[k + u].T
        return out

    def _transfer(self, freqs):
        return sum(
            b * np.exp(-1j * k * freqs)[:, None, None]
            for k, b in enumerate(self.coeffs)
        )


@dataclass(frozen=True, eq=False)
class ThresholdAR1(ProcessModel):
    """Threshold AR: Z_t = a max(Z_{t-1}, 0) + b min(Z_{t-1}, 0) + eps_t."""

    a: float
    b: float
    sigma2: float = 1.0
    kind = "threshold_ar1"
    n_dim = 1

    def __post_init__(self):
        if not (np.isfinite([self.a, self.b]).all() and 0.0 < self.sigma2 < np.inf):
            raise InvalidModel("threshold AR needs finite a, b and 0 < sigma2 < inf")
        contraction = max(abs(self.a), abs(self.b))
        if contraction >= 1.0:
            raise NonStationaryModel(
                f"threshold AR needs max(|a|, |b|) < 1, got {contraction:.4f}"
            )
        object.__setattr__(self, "_contraction", contraction)

    def decay_horizon(self) -> int:
        return _horizon(self._contraction)

    def path(self, eps, overwrite=False):
        # one array holds the scaled innovations and, step by step, the states
        out = eps[..., 0] if overwrite else eps[..., 0].copy()
        out *= np.sqrt(self.sigma2)
        state = np.zeros(out.shape[:-1])
        for t in range(out.shape[-1]):
            state = (
                self.a * np.maximum(state, 0.0)
                + self.b * np.minimum(state, 0.0)
                + out[..., t]
            )
            out[..., t] = state
        return out[..., None]


def default_var1() -> VAR1:
    """Bivariate test model A = [[0.4, 0.1], [0, 0.3]], Sigma = I."""
    return VAR1(coeff=np.array([[0.4, 0.1], [0.0, 0.3]]), sigma=np.eye(2))


def _check_seed(seed, error=InvalidArgument) -> int:
    """A seed as an int; raises ``error`` unless it is a non-negative integer."""
    if isinstance(seed, numbers.Integral) and seed >= 0:
        return int(seed)
    raise error(f"seed must be a non-negative integer, got {seed}")


def simulate(model: ProcessModel, t_len: int, seed) -> MultivariateSeries:
    """Deterministic draw of T observations after burn-in.

    White noise with a diagonal Sigma and the threshold AR model write over
    their draws, so for them ``simulate`` holds one draw buffer.
    """
    if t_len < 2:
        raise InvalidArgument("t_len must be at least 2")
    rng = np.random.default_rng(_check_seed(seed))
    values = model.simulate_values(t_len, rng)
    return MultivariateSeries(values, centered=False)


def _parse_kv(head: str, body: str, keys: tuple) -> dict:
    """The key=value options of a model spec; each key in ``keys``, at most once."""
    out = {}
    for item in body.split(",") if body else ():
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in keys or key in out:
            what = "repeated" if key in out else "unknown"
            raise InvalidModel(
                f"{head} model: {what} key {key!r}; it takes {', '.join(keys)}"
            )
        out[key] = value.strip()
    return out


def parse_model(text: str) -> ProcessModel:
    """Build a model from the CLI grammar.

    ``white[:dim=k,sigma2=v]``, ``ar1:phi=0.5[,sigma2=1]``,
    ``var1:file=A.csv,sigma=S.csv`` (or ``var1:default``),
    ``vma:file=B0.csv;B1.csv[,sigma=S.csv]``, ``tar:a=0.5,b=-0.3[,sigma2=1]``.
    White noise is the VMA with B = (I,) and AR(1) the 1x1 VAR(1). Matrix
    files are read by ``load_matrix``, so a bad cell is a ParseError.
    """
    try:
        return _parse_model(text)
    except InvalidModel:
        raise
    except ValueError as exc:  # a non-numeric parameter
        raise InvalidModel(f"model {text!r}: {exc}") from None


def _parse_model(text: str) -> ProcessModel:
    head, _, body = text.partition(":")
    head = head.strip().lower()
    if head in ("white", "white_noise", "wn"):
        kv = _parse_kv(head, body, ("dim", "sigma2"))
        dim = int(kv.get("dim", 1))
        if dim < 1:
            raise InvalidModel(f"white noise needs dim >= 1, got {dim}")
        sigma2 = float(kv.get("sigma2", 1.0))
        return VMA((np.eye(dim),), sigma=sigma2 * np.eye(dim))
    if head == "ar1":
        kv = _parse_kv(head, body, ("phi", "sigma2"))
        if "phi" not in kv:
            raise InvalidModel("ar1 model needs phi=, e.g. ar1:phi=0.5")
        return VAR1([[float(kv["phi"])]], [[float(kv.get("sigma2", 1.0))]])
    if head == "var1":
        if body.strip() == "default":
            return default_var1()
        kv = _parse_kv(head, body, ("file", "sigma"))
        if "file" not in kv:
            raise InvalidModel("var1 model needs file=A.csv (or var1:default)")
        sigma = load_matrix(kv["sigma"]) if "sigma" in kv else None
        return VAR1(coeff=load_matrix(kv["file"]), sigma=sigma)
    if head == "vma":
        # file paths are ;-separated, commas split options
        kv = _parse_kv(head, body, ("file", "sigma"))
        files = kv.get("file", "")
        if not files:
            raise InvalidModel("vma model needs file=B0.csv;B1.csv;...")
        coeffs = tuple(load_matrix(f) for f in files.split(";") if f)
        sigma = load_matrix(kv["sigma"]) if "sigma" in kv else None
        return VMA(coeffs=coeffs, sigma=sigma)
    if head == "tar":
        kv = _parse_kv(head, body, ("a", "b", "sigma2"))
        if "a" not in kv or "b" not in kv:
            raise InvalidModel("tar model needs a= and b=")
        return ThresholdAR1(
            a=float(kv["a"]), b=float(kv["b"]), sigma2=float(kv.get("sigma2", 1.0))
        )
    raise InvalidModel(f"unknown model {text!r}")
