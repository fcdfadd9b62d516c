"""Helpers for kernels that run on a leading replication axis.

A panel kernel computes the same statistic for R replications at once,
one rep per leading index.  Its linear algebra is built from stacked
`matmul`, `solve` and `inv`, which call the same BLAS/LAPACK routine per
rep as the 2-d call on one rep would, so every rep's numbers are
bit-identical to a single-rep run whatever R is.  (`einsum` or
`(a * b).sum(axis)` would sum in another order.)

`ols` is the library's one least-squares fit; 2-d callers pass
`X[None]`, `y[None]`.  With R = 1 its coef, residuals, SSR, Gram and
Gram inverse are bit-identical to the 2-d `solve(X.T @ X, X.T @ y)`,
`y - X @ coef`, `resid @ resid`, `X.T @ X` and `inv(X.T @ X)`; with
R > 1 each rep equals its own R = 1 fit.  `ols_coef` is its first half,
the normal equations alone: a caller that needs only coef or the Gram
inverse (the bootstrap's replicate fits) skips the (R, n) residual
panel and its SSR.  For a one-column design the fitted values are the
broadcast product `X[:, :, 0] * coef`, the one product per element that
stacked `matmul` forms for inner dimension 1, in half its time; designs
of two or more columns keep `matmul`, whose BLAS sums a broadcast sum
would not match in the last bit.

Every Dickey-Fuller/AR fit goes through `ols` or `ols_coef`:
`unitroot._ar_fit` builds the design for `ols_ar`, `adf_test`,
`phillips_z`, `df_limit_mc`, `sieve_bootstrap` and
`residual_unitroot_bootstrap` (the observed series by `ols`, the
stacked replicates by `ols_coef`).

`collinear` is the one near-singular-design rule, cond > 1e12 of the
Gram of the regressors scaled to unit length: it finds collinear
regressors whose Gram LAPACK still solves, into roundoff, and rescaling a
regressor (a trend in other units) changes no decision.  `check_design`
raises `ols_coef`'s singular-design error on it.

`exact_fit` is the one exact-fit rule, SSR <= 1e-20 y'y: relative to y
alone, so rescaling y changes no decision.  Every statistic that is a ratio over a residual
variance raises on an exact fit, through `check_fit`, with two
conventions: `adf_test` gives a noiseless autoregression the t-ratio
+-inf (a constant series raises), and `me_monitor` gives a zero path.

`chunks` is the one rule for how many rows a batched computation holds
at once, `_PANEL_BYTES` of them (at least one row): the random walks of
the limit-law simulators (`_walk_batches`), the bootstraps' replicates
and the Monte Carlo sub-panels.  It bounds a workspace and never a
result.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from ._checks import check_squares

__all__ = ["OlsCoef", "OlsFit", "ols_coef", "ols", "collinear", "check_design", "exact_fit",
           "check_fit", "rowdot", "chunks"]

_SINGULAR = "singular least-squares design: the regressors are collinear or constant"

# about a core's L2 cache
_PANEL_BYTES = 2**18
# the fewest replications a limit-law simulator (`df_limit_mc`, `nbb_sup_mc`) accepts
_MIN_REPS = 100


def chunks(total: int, shape: tuple[int, ...], budget: int = _PANEL_BYTES):
    """Yield (lo, rows): rows lo, lo + 1, ... of `total` float rows of
    `shape`, as views of one reused buffer of `budget` bytes (at least one
    row, at most `total`).  The rows come uninitialized, and hold until the
    next chunk overwrites them: a caller fills a chunk and takes what it
    needs of it before asking for the next.
    """
    size = min(total, max(1, budget // (8 * math.prod(shape))))
    buf = np.empty((size, *shape))
    for lo in range(0, total, size):
        yield lo, buf[:total - lo]


def _walk_batches(gen, reps: int, shape: tuple[int, ...]):
    """Yield (lo, walks): `reps` standard-normal random walks of `shape`,
    drawn from `gen` in rep order into the `chunks` of `reps` and cumulated
    in place along time, the first axis of `shape`.  `walks` holds reps
    lo, lo + 1, ... until the next chunk overwrites it, so a caller may
    scale it in place; the draws do not depend on the chunks.
    """
    for lo, walks in chunks(reps, shape):
        np.cumsum(gen.standard_normal(out=walks), axis=1, out=walks)
        yield lo, walks


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-rep dot product of two (R, n) panels, as `a[r] @ b[r]` computes it."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


class OlsCoef(NamedTuple):
    """R stacked normal-equation solves: coef (R, k), X'X and its inverse (R, k, k)."""

    coef: np.ndarray
    gram: np.ndarray
    gram_inv: np.ndarray


class OlsFit(NamedTuple):
    """R stacked fits: coef (R, k), resid (R, n), ssr (R,), X'X and its inverse (R, k, k)."""

    coef: np.ndarray
    resid: np.ndarray
    ssr: np.ndarray
    gram: np.ndarray
    gram_inv: np.ndarray


def ols_coef(X: np.ndarray, y: np.ndarray) -> OlsCoef:
    """The normal equations of each (n,) y[r] on its (n, k) design X[r].

    coef comes from a solve.  A singular X'X raises
    `np.linalg.LinAlgError` (a ValueError) that names collinear or
    constant regressors, and one whose squares underflow a ValueError
    (`_checks.check_squares`).
    """
    Xt = X.transpose(0, 2, 1)
    gram = Xt @ X
    check_squares(gram)
    try:
        coef = np.linalg.solve(gram, Xt @ y[:, :, None])[:, :, 0]
        gram_inv = np.linalg.inv(gram)
    except np.linalg.LinAlgError:
        raise np.linalg.LinAlgError(_SINGULAR) from None
    return OlsCoef(coef, gram, gram_inv)


def ols(X: np.ndarray, y: np.ndarray) -> OlsFit:
    """OLS of each (n,) y[r] on its (n, k) design X[r]: `ols_coef`, then
    the residuals and their sum of squares.

    With one column the residuals equal the `matmul` form bit for bit up
    to the sign of an exactly zero residual: matmul's zero-started sum
    turns a -0.0 product into +0.0.
    """
    coef, gram, gram_inv = ols_coef(X, y)
    # y - X coef, written over the fitted values: one (R, n) buffer, not two
    if X.shape[2] == 1:
        resid = X[:, :, 0] * coef
    else:
        resid = (X @ coef[:, :, None])[:, :, 0]
    np.subtract(y, resid, out=resid)
    return OlsFit(coef, resid, rowdot(resid, resid), gram, gram_inv)


def collinear(gram: np.ndarray) -> bool:
    """Whether the regressors behind a (k, k) Gram X'X are numerically collinear."""
    scale = np.sqrt(np.diag(gram))
    return bool(np.any(scale == 0.0) or np.linalg.cond(gram / np.outer(scale, scale)) > 1e12)


def check_design(gram: np.ndarray) -> None:
    """Raise the singular-design error of `ols_coef` if `gram` is `collinear`."""
    if collinear(gram):
        raise np.linalg.LinAlgError(_SINGULAR)


def exact_fit(ssr: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Per rep, whether a fit of the (R, n) panel y leaving SSR ssr is exact."""
    return ssr <= 1e-20 * rowdot(y, y)


def check_fit(ssr: np.ndarray, y: np.ndarray, fit: str) -> None:
    """Raise if the `fit` fit is exact (`exact_fit`) in any rep."""
    if np.any(exact_fit(ssr, y)):
        raise ValueError(f"residuals of the {fit} fit are numerically zero")
