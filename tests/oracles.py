"""Reference implementations that the tests compare the library against.

Each restates, in its plainest form, a quantity that the library computes
only inside a larger kernel: the sample autocovariances inside `hac_lrv`,
the GARCH variance filter inside `garch_qmle`, the Marchenko-Pastur law
whose support edges mp-edges checks, and the wild bootstrap's conditional
variance.  No command or experiment runs them, so they live here.
"""

from __future__ import annotations

import numpy as np

import tsnet as T
from tsnet._checks import as_matrix, as_series
from tsnet._filter import ar


def autocovariance(ms, j: int, demean: bool = True) -> np.ndarray:
    """Sample autocovariance Gamma_j with divisor n.

    Gamma_j = n^{-1} sum_{t=j+1}^{n} (X_t - Xbar)(X_{t-j} - Xbar)' for
    j >= 0; negative j returns the transpose.  Always a (d, d) array,
    (1, 1) for univariate input.  The lag-by-lag oracle of `hac_lrv` in
    tests/test_kernels.py.
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


def garch_filter(eps, spec: T.GarchSpec, sigma2_0: float | None = None,
                 eps2_0: float | None = None) -> np.ndarray:
    """Run the variance recursion over innovations eps_1..eps_n.

    Presample values default to the sample second moment of eps (both
    sigma2_0 and eps2_0), so the first output is
    omega + (alpha + beta) * sigma2_0.  Returns sigma2_1..sigma2_n.
    The oracle of `garch_qmle`'s filter, which tests/test_ols.py compares
    with it bit for bit: both run through `tsnet._filter.ar`.
    """
    e = as_series(eps, "eps")
    if sigma2_0 is None:
        sigma2_0 = float(np.mean(e**2))
    if eps2_0 is None:
        eps2_0 = sigma2_0
    if sigma2_0 <= 0 or eps2_0 < 0:
        raise ValueError("presample values must be positive")
    e2 = e**2
    drive = spec.omega + spec.alpha * np.concatenate([[eps2_0], e2[:-1]])
    return ar(drive, [spec.beta], spec.beta * sigma2_0)


def mp_density(x, gamma: float):
    """Marchenko-Pastur density at x (unit variance), vectorized.

    f(x) = sqrt((x_plus - x)(x - x_minus)) / (2 pi g x) on the support
    `T.mp_support(gamma)`, which checks gamma; `mp_cdf` integrates it.
    """
    lo, hi = T.mp_support(gamma)
    g = float(gamma)
    xa = np.asarray(x, dtype=float)
    inside = (xa > lo) & (xa < hi)
    dens = np.zeros_like(xa)
    xi = xa[inside]
    dens[inside] = np.sqrt((hi - xi) * (xi - lo)) / (2.0 * np.pi * g * xi)
    return float(dens) if np.isscalar(x) else dens


def mp_cdf(x, gamma: float):
    """Marchenko-Pastur CDF by quadrature of the density.

    Uses a trapezoid rule on a uniform grid of 20001 points over the
    support and linear interpolation; accurate to well below 1e-6.
    tests/test_randmat.py::test_esd_matches_mp_law measures the empirical
    spectral distribution against it.
    """
    lo, hi = T.mp_support(gamma)
    grid = np.linspace(lo, hi, 20001)
    dens = mp_density(grid, gamma)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(grid))])
    cdf /= cdf[-1]  # normalize away the O(grid^2) quadrature defect
    xa = np.asarray(x, dtype=float)
    out = np.interp(xa, grid, cdf, left=0.0, right=1.0)
    return float(out) if np.isscalar(x) else out


def wild_conditional_variance(residuals) -> float:
    """Conditional variance of n^{-1/2} sum_t y*_t given the data.

    For any mean-0 variance-1 multiplier this equals n^{-1} sum e_t^2
    exactly.  Criterion 09 of tests/test_acceptance.py checks it against
    an enumeration of every Rademacher sign vector.
    """
    e = as_series(residuals, "residuals")
    return float(np.mean(e**2))
