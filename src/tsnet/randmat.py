"""Sample covariance spectra and the Marchenko-Pastur support edges.

For X a p x n matrix of iid standard normals, the eigenvalues of
S = XX'/n concentrate on the support [(1-sqrt(g))^2, (1+sqrt(g))^2]
with aspect ratio g = p/n <= 1, and their empirical distribution
converges to the Marchenko-Pastur law on it; tests/oracles.py holds
its density and distribution function, which the tests measure
spectra against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy import linalg

from ._checks import check_positive_int
from .series import _simulate

__all__ = ["SpectrumResult", "sample_cov_spectrum", "mp_support"]


@dataclass(frozen=True)
class SpectrumResult:
    """Eigenvalues (ascending) of a sample covariance matrix XX'/n.

    trace_gram is tr(S) accumulated from the diagonal before the
    eigendecomposition, so comparing it to eigenvalues.sum() checks the
    solver rather than restating it.  For a panel, eigenvalues is (R, p)
    and trace_gram (R,), and each property has one value per rep.
    """

    eigenvalues: np.ndarray
    gamma: float
    n: int
    p: int
    trace_gram: float

    @property
    def lambda_min(self):
        return self.eigenvalues[..., 0]

    @property
    def lambda_max(self):
        return self.eigenvalues[..., -1]

    @property
    def trace(self):
        return np.sum(self.eigenvalues, axis=-1)


def sample_cov_spectrum(n: int, p: int, rng) -> SpectrumResult:
    """Eigenvalues of S = XX'/n for a p x n standard normal X.

    Requires p <= n (tall data matrix), so S is almost surely full
    rank.  The returned trace equals tr(S) exactly up to
    symmetric-eigensolver roundoff, which the tests pin at relative 1e-8.
    rng may be X itself (`series._simulate`): (p, n) for one spectrum, or
    (R, p, n) for a panel, solved rep by rep.  The working set is X and
    S, 8(pn + p^2) bytes: the eigensolver overwrites S in place.
    """
    n = check_positive_int(n, "n")
    p = check_positive_int(p, "p")
    if p > n:
        raise ValueError(f"need p <= n, got p={p} > n={n}")

    def path(xs):
        eig, tr = np.empty((len(xs), p)), np.empty(len(xs))
        for r, x in enumerate(xs):
            s = x @ x.T
            s /= n
            tr[r] = np.trace(s)
            # S is exactly symmetric, so its Fortran-ordered transpose is S
            # itself, which LAPACK takes without a copy
            eig[r] = linalg.eigh(s.T, eigvals_only=True, driver="evd", overwrite_a=True)
        return eig, tr

    eig, tr = _simulate(path, rng, (p, n), f"n={n}, p={p}")
    return SpectrumResult(eigenvalues=eig, gamma=p / n, n=n, p=p, trace_gram=tr)


def mp_support(gamma: float) -> tuple[float, float]:
    """Support edges ((1 - sqrt(g))^2, (1 + sqrt(g))^2)."""
    if not (0 < gamma <= 1):
        raise ValueError("gamma must lie in (0, 1]")
    r = np.sqrt(float(gamma))
    return float((1 - r) ** 2), float((1 + r) ** 2)
