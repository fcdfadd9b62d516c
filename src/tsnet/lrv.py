"""Kernel long-run variance estimation.

For a (possibly multivariate) series the long-run variance is estimated
as Omega-hat = Gamma0 + sum_{j>=1} k(j/b) (Gamma_j + Gamma_j'), with
sample autocovariances Gamma_j using divisor n regardless of lag.  The
one-sided counterpart Lambda-hat = sum_{j>=1} k(j/b) Gamma_j is returned
alongside, so Omega = Gamma0 + Lambda + Lambda' holds exactly.

The classic truncated-lag weighting 1 - j/(p+1), j = 0..p, is the
bartlett kernel with bandwidth p + 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil

import numpy as np

from ._checks import as_matrix, as_panel, check_in
from ._panel import first_rep

__all__ = [
    "KERNEL_FAMILIES",
    "KernelSpec",
    "kernel_weight",
    "default_bandwidth",
    "autocovariance",
    "hac_lrv",
    "LrvEstimate",
]

KERNEL_FAMILIES = ("truncated", "bartlett", "parzen", "quadratic-spectral")

# Beyond this many bandwidths the quadratic-spectral weights are below
# 5e-5 in absolute value; lags past it are dropped to keep O(n b) cost.
_QS_SUPPORT_MULTIPLE = 40.0


@dataclass(frozen=True)
class KernelSpec:
    """Kernel family plus bandwidth for LRV smoothing.

    bandwidth=None defers to the default rule ceil(1.2 n^{1/3}) at the
    point of use.  A bandwidth below 1 zeroes every lag j >= 1, so the
    estimate collapses to Gamma0.
    """

    family: str = "bartlett"
    bandwidth: float | None = None

    def __post_init__(self):
        check_in(self.family, KERNEL_FAMILIES, "family")
        if self.bandwidth is not None and not (np.isfinite(self.bandwidth) and self.bandwidth > 0):
            raise ValueError("bandwidth must be positive when given")

    def resolve_bandwidth(self, n: int) -> float:
        return float(self.bandwidth) if self.bandwidth is not None else default_bandwidth(n)

    def reach(self, n: int) -> int:
        """Last lag (or distance) a compactly supported kernel weights at
        sample size n: floor(b), as the weight vanishes beyond j = b."""
        return int(np.floor(self.resolve_bandwidth(n) + 1e-12))


def default_bandwidth(n: int) -> float:
    """Default smoothing bandwidth ceil(1.2 * n^(1/3))."""
    if n < 1:
        raise ValueError("n must be positive")
    return float(ceil(1.2 * n ** (1.0 / 3.0)))


def kernel_weight(family: str, x) -> np.ndarray | float:
    """Evaluate kernel k(x); k(0) = 1, symmetric, |k| <= 1.

    Vectorized over x.  truncated/bartlett/parzen vanish for |x| > 1;
    quadratic-spectral has unbounded support.
    """
    check_in(family, KERNEL_FAMILIES, "family")
    ax = np.abs(np.asarray(x, dtype=float))
    if family == "truncated":
        w = np.where(ax <= 1.0, 1.0, 0.0)
    elif family == "bartlett":
        w = np.maximum(0.0, 1.0 - ax)
    elif family == "parzen":
        w = np.where(
            ax <= 0.5,
            1.0 - 6.0 * ax**2 + 6.0 * ax**3,
            np.where(ax <= 1.0, 2.0 * (1.0 - ax) ** 3, 0.0),
        )
    else:  # quadratic-spectral
        z = 6.0 * np.pi * ax / 5.0
        with np.errstate(invalid="ignore", divide="ignore"):
            w = 25.0 / (12.0 * np.pi**2 * ax**2) * (np.sin(z) / z - np.cos(z))
        w = np.where(ax < 1e-8, 1.0, w)
    if np.isscalar(x):
        return float(w)
    return w


def autocovariance(ms, j: int, demean: bool = True) -> np.ndarray:
    """Sample autocovariance Gamma_j with divisor n.

    Gamma_j = n^{-1} sum_{t=j+1}^{n} (X_t - Xbar)(X_{t-j} - Xbar)' for
    j >= 0; negative j returns the transpose.  Always a (d, d) array,
    (1, 1) for univariate input.  Kept as the lag-by-lag oracle of
    `hac_lrv` in tests/test_kernels.py.
    """
    x = as_matrix(ms, "ms", min_len=1)
    n = x.shape[0]
    if abs(j) >= n:
        raise ValueError(f"lag {j} out of range for n={n}")
    if demean:
        x = x - x.mean(axis=0)
    if j < 0:
        return autocovariance(x, -j, demean=False).T
    g = x[j:].T @ x[: n - j] / n
    if j == 0:
        g = (g + g.T) / 2.0
    return g


@dataclass(frozen=True)
class LrvEstimate:
    """Two-sided and one-sided kernel LRV estimates plus pieces.

    omega = gamma0 + lam + lam' exactly.  All blocks are (d, d).
    """

    omega: np.ndarray
    lam: np.ndarray
    gamma0: np.ndarray
    family: str
    bandwidth: float

    @property
    def scalar(self) -> float:
        if self.omega.shape != (1, 1):
            raise ValueError("scalar only defined for univariate estimates")
        return float(self.omega[0, 0])


def hac_lrv(ms, kernel: KernelSpec | None = None, demean: bool = True) -> LrvEstimate:
    """Kernel estimate of the long-run variance matrix.

    Parameters
    ----------
    ms : array_like, (n,) or (n, d)
    kernel : KernelSpec, optional
        Defaults to bartlett with the default bandwidth rule.
    demean : bool
        Subtract the (single, global) sample mean first.  Pass False for
        regression residuals that are already centered by construction.

    Returns
    -------
    LrvEstimate
        omega (two-sided), lam (one-sided, lags >= 1), gamma0.
    """
    return first_rep(_hac_lrv_panel(np.asarray(ms, dtype=float)[None], kernel, demean))


def _hac_lrv_panel(ms, kernel: KernelSpec | None = None, demean: bool = True) -> LrvEstimate:
    """`hac_lrv` of every rep of an (R, n) or (R, n, d) panel.

    The blocks of the result are (R, d, d); all reps share n, hence the
    bandwidth.
    """
    x = as_panel(ms, "ms", min_len=2, matrix=True)
    n = x.shape[1]
    spec = kernel if kernel is not None else KernelSpec()
    b = spec.resolve_bandwidth(n)
    if demean:
        x = x - x.mean(axis=1, keepdims=True)

    if spec.family == "quadratic-spectral":
        max_lag = min(n - 1, int(ceil(_QS_SUPPORT_MULTIPLE * b)))
    else:
        max_lag = min(n - 1, spec.reach(n))

    xt = x.transpose(0, 2, 1)
    g = xt @ x / n
    gamma0 = (g + g.transpose(0, 2, 1)) / 2.0
    lam = np.zeros_like(gamma0)
    for j in range(1, max_lag + 1):
        w = kernel_weight(spec.family, j / b)
        if w == 0.0:
            continue
        lam += w * (xt[:, :, j:] @ x[:, : n - j] / n)
    # group the one-sided parts first so omega is exactly symmetric
    omega = gamma0 + (lam + lam.transpose(0, 2, 1))
    return LrvEstimate(omega=omega, lam=lam, gamma0=gamma0,
                       family=spec.family, bandwidth=b)
