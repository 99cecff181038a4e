"""Lag-window kernels: the catalog, tabulated windows and their metadata.

``get_kernel`` resolves every kernel name: a catalog name or alias, or
``file:<path>`` for a tabulated window. Each kernel K is even, equals 1 at
0, and vanishes outside [-1, 1]. The metadata carried alongside the window
function:

* ``kappa``    -- integral of K^2 over the support; the variance constant in
  the CLT and extreme-value normalizations.
* ``q_exponent`` / ``k_q`` -- order and limit constant of 1 - K(x) ~ K_q |x|^q
  near 0, which governs the smoothing-bias order O(B^-q). ``k_q`` is None
  when the constant is unavailable (truncated window: q is infinite;
  tabulated window: q is unknown, stored as NaN).
* ``psd_guarantee`` -- whether the window's Fourier transform is nonnegative,
  so spectral estimates built from it are positive semidefinite.

``Kernel.q`` is the one report encoding of q: "unknown" for NaN, "inf" for
an infinite order and the float otherwise. It serves kernel-info
(``Kernel.to_dict``), the ``bands --assume-smooth`` check b (q + 1) > 1
(``Kernel.undersmooths``) and bias-rate's ``kernel_q_claim``. Bartlett is
first order: 1 - K(x) = |x| exactly, so q = 1, K_q = 1 and its exact bias
decays like B^-1.

A tabulated window is a series CSV (``load_csv``) of two columns, u and
K(u), on a grid symmetric about 0 that reaches |u| = 1, with K(0) = 1. Its
window function is a ``partial`` of ``np.interp``, so it pickles into a
worker pool.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable

import numpy as np

from .errors import InvalidArgument, UnknownKernel
from .series import load_csv

__all__ = ["Kernel", "get_kernel", "kernel_names", "tabulated_kernel"]


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

    @property
    def q(self):
        """The bias order as reports give it: "unknown", "inf" or a float."""
        q = self.q_exponent
        return "unknown" if math.isnan(q) else q if math.isfinite(q) else "inf"

    def undersmooths(self, b_exponent: float) -> bool | None:
        """Whether B ~ T^b undersmooths, b (q + 1) > 1; None when q is unknown."""
        q = self.q_exponent
        return None if math.isnan(q) else bool(b_exponent * (q + 1.0) > 1.0)

    def to_dict(self) -> dict:
        """The kernel-info payload."""
        keep = ("name", "kappa", "k_q", "psd_guarantee", "note")
        return {"q": self.q, **{key: getattr(self, key) for key in keep}}


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
    """A catalog kernel by name or alias, or the tabulated window of ``file:<path>``."""
    if name.startswith("file:"):
        return tabulated_kernel(name[5:])
    key = _ALIASES.get(name, name)
    try:
        return _CATALOG[key]
    except KeyError:
        raise UnknownKernel(
            f"unknown kernel {name!r}; choose from {kernel_names()}"
        ) from None


def tabulated_kernel(path) -> Kernel:
    """Build a kernel from a two-column CSV of (u, K(u)) samples.

    The file follows ``load_csv``'s rules, and the grid must be symmetric
    about 0, include u = 0 with K(0) = 1, and reach |u| = 1. Evaluation
    interpolates linearly, kappa comes from quadrature on the tabulated grid,
    and the shift-sum admissibility condition is not checked.
    """
    table = load_csv(path).values
    if table.shape[1] != 2:
        raise InvalidArgument(f"kernel table needs 2 columns, got {table.shape[1]}")
    u, k = table[np.argsort(table[:, 0])].T
    if not np.allclose(u, -u[::-1]) or not np.allclose(k, k[::-1]):
        raise InvalidArgument("tabulated kernel grid must be symmetric about 0")
    if abs(np.interp(0.0, u, k) - 1.0) > 1e-8:
        raise InvalidArgument("tabulated kernel must satisfy K(0) = 1")
    if u[-1] < 1.0:  # np.interp would hold the last value out to |u| = 1
        raise InvalidArgument(
            f"tabulated kernel grid must reach |u| = 1, it stops at {u[-1]:g}"
        )
    fn = partial(np.interp, xp=np.abs(u[u >= 0]), fp=k[u >= 0])
    grid = np.linspace(-1.0, 1.0, 20001)
    return Kernel(
        name="tabulated",
        fn=fn,
        kappa=float(np.trapezoid(fn(np.abs(grid)) ** 2, grid)),
        q_exponent=np.nan,
        k_q=None,
        psd_guarantee=False,
        note="user-supplied window; bias order unknown, admissibility unchecked",
    )
