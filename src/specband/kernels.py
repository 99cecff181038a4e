"""Lag-window kernel catalog.

Each kernel K is even, equals 1 at 0, and vanishes outside [-1, 1]. The
metadata carried alongside the window function:

* ``kappa``    -- integral of K^2 over the support; the variance constant in
  the CLT and extreme-value normalizations.
* ``q_exponent`` / ``k_q`` -- order and limit constant of 1 - K(x) ~ K_q |x|^q
  near 0, which governs the smoothing-bias order O(B^-q). ``k_q`` is None
  when the constant is unavailable (truncated window: q is infinite).
* ``psd_guarantee`` -- whether the window's Fourier transform is nonnegative,
  so spectral estimates built from it are positive semidefinite.

Bartlett is first order: 1 - K(x) = |x| exactly, so q = 1 and K_q = 1, and
the exact bias decays like B^-1 (the bias-rate experiment fits a log-log
slope of about -1). ``bands --assume-smooth`` reads q in its
undersmoothing check b (q + 1) > 1.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import UnknownKernel

__all__ = [
    "Kernel",
    "get_kernel",
    "kernel_names",
    "tabulated_kernel",
]


@dataclass(frozen=True)
class Kernel:
    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    kappa: float
    q_exponent: float
    k_q: float | None
    psd_guarantee: bool
    note: str = field(default="", compare=False)

    def __call__(self, u):
        u = np.asarray(u, dtype=float)
        out = np.where(np.abs(u) <= 1.0, self.fn(np.abs(u)), 0.0)
        return out if out.ndim else float(out)


def _bartlett(a):
    return 1.0 - a


def _parzen(a):
    return np.where(a <= 0.5, 1.0 - 6.0 * a**2 + 6.0 * a**3, 2.0 * (1.0 - a) ** 3)


def _tukey_hanning(a):
    return 0.5 * (1.0 + np.cos(np.pi * a))


def _truncated(a):
    return np.ones_like(a)


_CATALOG = {
    "bartlett": Kernel(
        name="bartlett",
        fn=_bartlett,
        kappa=2.0 / 3.0,
        q_exponent=1.0,
        k_q=1.0,
        psd_guarantee=True,
        note="first-order window: 1-K(x)=|x| gives q=1, K_q=1, bias O(1/B)",
    ),
    "parzen": Kernel(
        name="parzen",
        fn=_parzen,
        kappa=151.0 / 280.0,
        q_exponent=2.0,
        k_q=6.0,
        psd_guarantee=True,
    ),
    "tukey_hanning": Kernel(
        name="tukey_hanning",
        fn=_tukey_hanning,
        kappa=0.75,
        q_exponent=2.0,
        k_q=np.pi**2 / 4.0,
        psd_guarantee=False,
    ),
    "truncated": Kernel(
        name="truncated",
        fn=_truncated,
        kappa=2.0,
        q_exponent=np.inf,
        k_q=None,
        psd_guarantee=False,
    ),
}

_ALIASES = {"tukey": "tukey_hanning", "rect": "truncated", "boxcar": "truncated"}


def kernel_names():
    return sorted(_CATALOG)


def get_kernel(name: str) -> Kernel:
    """Look up a catalog kernel by name (a few aliases accepted)."""
    key = _ALIASES.get(name, name)
    try:
        return _CATALOG[key]
    except KeyError:
        raise UnknownKernel(
            f"unknown kernel {name!r}; choose from {kernel_names()}"
        ) from None


def tabulated_kernel(path) -> Kernel:
    """Build a kernel from a two-column CSV of (u, K(u)) samples.

    The grid must be symmetric about 0 and include u = 0 with K(0) = 1;
    evaluation interpolates linearly and kappa comes from quadrature on the
    tabulated grid. The shift-sum admissibility condition is not checked for
    user-supplied windows.
    """
    us, ks = [], []
    with open(path, newline="", encoding="utf-8") as fh:
        for row in csv.reader(fh):
            if not row or row[0].strip().startswith("#"):
                continue
            us.append(float(row[0]))
            ks.append(float(row[1]))
    u = np.asarray(us, dtype=float)
    k = np.asarray(ks, dtype=float)
    order = np.argsort(u)
    u, k = u[order], k[order]
    if not np.allclose(u, -u[::-1]) or not np.allclose(k, k[::-1]):
        raise ValueError("tabulated kernel grid must be symmetric about 0")
    if abs(np.interp(0.0, u, k) - 1.0) > 1e-8:
        raise ValueError("tabulated kernel must satisfy K(0) = 1")

    def fn(a, _u=np.abs(u[u >= 0]), _k=k[u >= 0]):
        return np.interp(a, _u, _k)

    grid = np.linspace(-1.0, 1.0, 20001)
    kappa = float(np.trapezoid(np.interp(np.abs(grid), np.abs(u[u >= 0]), k[u >= 0]) ** 2, grid))
    return Kernel(
        name="tabulated",
        fn=fn,
        kappa=kappa,
        q_exponent=np.nan,
        k_q=None,
        psd_guarantee=False,
        note="user-supplied window; bias order unknown, admissibility unchecked",
    )
