"""Sample covariance spectra and the Marchenko-Pastur law.

For X a p x n matrix of iid standard normals, the eigenvalues of
S = XX'/n concentrate on the support [(1-sqrt(g))^2, (1+sqrt(g))^2]
with aspect ratio g = p/n <= 1, and their empirical distribution
converges to the Marchenko-Pastur density
f(x) = sqrt((x_plus - x)(x - x_minus)) / (2 pi g x) on the support.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_positive_int
from .series import _resolve_rng

__all__ = ["SpectrumResult", "sample_cov_spectrum", "mp_support", "mp_density", "mp_cdf"]


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues (ascending) of a sample covariance matrix XX'/n.

    trace_gram is tr(S) accumulated from the diagonal before the
    eigendecomposition, so comparing it to eigenvalues.sum() checks the
    solver rather than restating it.
    """

    eigenvalues: np.ndarray
    gamma: float
    n: int
    p: int
    trace_gram: float

    @property
    def lambda_min(self) -> float:
        return float(self.eigenvalues[0])

    @property
    def lambda_max(self) -> float:
        return float(self.eigenvalues[-1])

    @property
    def trace(self) -> float:
        return float(np.sum(self.eigenvalues))


def sample_cov_spectrum(n: int, p: int, rng) -> SpectrumResult:
    """Eigenvalues of S = XX'/n for a p x n standard normal X.

    Requires p <= n (tall data matrix), so S is almost surely full
    rank.  The returned trace equals tr(S) exactly up to
    symmetric-eigensolver roundoff, which the tests pin at relative 1e-8.
    The working set is X and S, 8(pn + p^2) bytes: X is released once S
    is formed, before the eigensolver copies S.
    """
    n = check_positive_int(n, "n")
    p = check_positive_int(p, "p")
    if p > n:
        raise ValueError(f"need p <= n, got p={p} > n={n}")
    gen = _resolve_rng(rng)
    x = gen.standard_normal((p, n))
    s = x @ x.T
    del x
    s /= n
    tr = float(np.trace(s))
    eig = np.linalg.eigvalsh(s)
    return SpectrumResult(eigenvalues=eig, gamma=p / n, n=n, p=p, trace_gram=tr)


def _check_gamma(gamma: float) -> float:
    if not (0 < gamma <= 1):
        raise ValueError("gamma must lie in (0, 1]")
    return float(gamma)


def mp_support(gamma: float) -> tuple[float, float]:
    """Support edges ((1 - sqrt(g))^2, (1 + sqrt(g))^2)."""
    g = _check_gamma(gamma)
    r = np.sqrt(g)
    return float((1 - r) ** 2), float((1 + r) ** 2)


def mp_density(x, gamma: float):
    """Marchenko-Pastur density at x (unit variance), vectorized.

    The law the README's overview names; `mp_cdf` integrates it.
    """
    g = _check_gamma(gamma)
    lo, hi = mp_support(g)
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
    The README's Marchenko-Pastur distribution function, against which
    tests/test_randmat.py measures the empirical spectral distribution.
    """
    g = _check_gamma(gamma)
    lo, hi = mp_support(g)
    grid = np.linspace(lo, hi, 20001)
    dens = mp_density(grid, g)
    cdf = np.concatenate([[0.0], np.cumsum((dens[1:] + dens[:-1]) / 2.0 * np.diff(grid))])
    cdf /= cdf[-1]  # normalize away the O(grid^2) quadrature defect
    xa = np.asarray(x, dtype=float)
    out = np.interp(xa, grid, cdf, left=0.0, right=1.0)
    return float(out) if np.isscalar(x) else out
