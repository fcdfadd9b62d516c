"""Autoregressive estimation and unit root tests.

Covers least-squares AR(p) fitting (no deterministics), the augmented
Dickey-Fuller regression, semiparametric Z_alpha / Z_t corrections, and
Monte Carlo tabulation of the Dickey-Fuller limit functionals.  Critical
values are always simulated, never hard-coded.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._checks import (FINITE_RESULT, as_panel, as_series, check_finite_result, check_in,
                      check_positive_int)
from ._panel import (_MIN_REPS, _walk_batches, as_reps, check_design, check_fit, exact_fit,
                     first_rep, ols)
from .lrv import KernelSpec, hac_lrv
from .series import _resolve_rng

__all__ = [
    "AROls",
    "UnitRootResult",
    "DfLimitTables",
    "ols_ar",
    "adf_test",
    "phillips_z",
    "df_limit_mc",
]

_DETERMINISTICS = ("none", "const", "trend")
# the ones the Phillips corrections take
_PHILLIPS_DETERMINISTICS = ("none", "const")

# the shortest walk `df_limit_mc` simulates
_MIN_T = 10


# the column of x_{t-1} in the design of `_ar_fit`
_LEVEL_COL = {"none": 0, "const": 1, "trend": 2}


def _ar_fit(x, deterministic: str, start: int = 1, extra=(), fit=ols):
    """The Dickey-Fuller regression of each rep of an (R, n) panel, by `ols`.

    Regresses x[r, t], t >= start, on [deterministics | x[r, t-1] | extra]:
    no deterministics, a constant, or a constant and the 1-based time
    index t + 1.  Each extra column is an (R, n - start) panel.  Returns
    the fit and its residual degrees of freedom; the coefficient of
    x_{t-1} is coef[:, _LEVEL_COL[deterministic]].  `fit=ols_coef` solves
    the normal equations alone, for callers that read no residuals.
    """
    R, n = x.shape
    m = n - start
    cols = [x[:, start - 1:-1], *extra]
    if deterministic != "none":
        det = [np.ones((R, m))]
        if deterministic == "trend":
            det.append(np.broadcast_to(np.arange(start + 1.0, n + 1), (R, m)))
        cols = det + cols
    # a lone regressor is used in place, saving a copy of the panel
    X = cols[0][:, :, None] if len(cols) == 1 else np.stack(cols, axis=2)
    dof = m - X.shape[2]
    if dof <= 0:
        raise ValueError("no residual degrees of freedom")
    return fit(X, x[:, start:]), dof


@dataclass(frozen=True)
class AROls:
    """Least-squares AR(p) fit without deterministics: the coefficients,
    the n - p residuals, their variance s2 and the coefficients' cov."""

    ar_coeffs: np.ndarray
    residuals: np.ndarray
    cov: np.ndarray
    s2: float


def ols_ar(ts, p: int = 1) -> AROls:
    """Fit X_t = sum_{j=1..p} rho_j X_{t-j} + e_t by OLS.

    The first p observations are used as presample; the regression runs
    over t = p+1..n.  s2 uses divisor n - 2p.  Callers that need an
    intercept center the series first, as `sieve_bootstrap` does.
    """
    x = as_series(ts, "ts", min_len=2)
    p = check_positive_int(p, "p")
    n = x.shape[0]
    if n - p < 2:
        raise ValueError(f"series too short for AR({p}) fit")
    lags = [x[None, p - j:n - j] for j in range(2, p + 1)]
    fit, dof = _ar_fit(x[None], "none", start=p, extra=lags)
    s2 = float(fit.ssr[0] / dof)
    return AROls(ar_coeffs=fit.coef[0], residuals=fit.resid[0],
                 cov=s2 * fit.gram_inv[0], s2=s2)


@dataclass(frozen=True)
class UnitRootResult:
    """Unit root test output.

    stat_coef is the normalized-bias statistic T(alpha-1) (divided by
    1 - sum of augmentation coefficients when lags are present); stat_t
    the corresponding t-ratio.  For phillips_z they are the corrected
    Z_alpha and Z_t, and bandwidth is that of the kernel long-run
    variance.  s2_u is the residual variance and nobs the number of
    observations in the regression.
    """

    stat_coef: float
    stat_t: float
    alpha_hat: float
    s2_u: float
    nobs: int
    bandwidth: float | None = None


@FINITE_RESULT
def adf_test(ts, p: int = 0, deterministic: str = "none") -> UnitRootResult:
    """Augmented Dickey-Fuller regression in levels form.

    X_t = d_t'mu + alpha X_{t-1} + sum_{j=1..p} phi_j dX_{t-j} + e_t,
    fitted over t = p+2..n.  Returns the t-ratio for alpha = 1 and the
    normalized bias T(alpha-1)/(1 - sum phi).  An exact fit leaves no
    scale: a noiseless autoregression gets the t-ratio +-inf, and a
    constant series (alpha = 1 exactly) raises.  With p >= 1 a noiseless
    geometric path, whose lagged differences are multiples of its lagged
    level, raises as a singular design (`_panel.collinear`).  A fit that
    leaves the finite floats raises.
    """
    x = as_series(ts, "ts", min_len=4)
    if p < 0:
        raise ValueError("p must be >= 0")
    check_in(deterministic, _DETERMINISTICS, "deterministic")
    n = x.shape[0]
    # the regression runs over the 0-based t = p+1..n-1
    dx = np.diff(x)
    diffs = [dx[None, p - j:n - 1 - j] for j in range(1, p + 1)]
    fit, dof = _ar_fit(x[None], deterministic, start=p + 1, extra=diffs)
    # an overflowed Gram would fail the design check as an SVD error
    check_finite_result("adf_test", fit.coef, fit.ssr)
    if p > 0:
        check_design(fit.gram[0])
    s2 = float(fit.ssr[0] / dof)
    coeffs = fit.coef[0]
    nobs = n - p - 1
    k_det = _LEVEL_COL[deterministic]
    alpha = float(coeffs[k_det])
    if alpha == 1.0:  # an exact fit is then a noiseless unit root: nothing to test
        check_fit(fit.ssr, x[None, p + 1:], "Dickey-Fuller")
    if exact_fit(fit.ssr, x[None, p + 1:])[0]:
        t_stat = np.inf * np.sign(alpha - 1.0)
    else:
        t_stat = (alpha - 1.0) / float(np.sqrt(s2 * fit.gram_inv[0, k_det, k_det]))
    phi_sum = float(np.sum(coeffs[k_det + 1:])) if p > 0 else 0.0
    coef_stat = nobs * (alpha - 1.0) / (1.0 - phi_sum)
    return UnitRootResult(stat_coef=coef_stat, stat_t=t_stat, alpha_hat=alpha,
                          s2_u=s2, nobs=nobs)


@FINITE_RESULT
def phillips_z(ts, kernel: KernelSpec | None = None,
               deterministic: str = "none") -> UnitRootResult:
    """Semiparametric Z_alpha and Z_t unit root statistics.

    Fits X_t = d_t'mu + alpha X_{t-1} + u_t and corrects the first-order
    statistics for serial correlation in u_t through the kernel long-run
    variance of the residuals:

        Z_alpha = T(alpha-1) - (s2_lr - s2_u) / (2 T^{-2} S_xx)
        Z_t     = S_xx^{1/2}(alpha-1)/s_lr
                  - T (s2_lr - s2_u) / (2 s_lr S_xx^{1/2})

    with S_xx the (demeaned, under const) second moment of the lagged
    level and s2_u the residual variance with divisor T - #regressors.

    A nonpositive LRV estimate (possible with the truncated kernel) is
    flagged with a warning; Z_alpha is still reported and Z_t is nan.  A
    fit that leaves the finite floats raises.

    A 2-d ts is an (R, n) panel of R reps, and every field but nobs and
    bandwidth becomes an (R,) array.  Any rep with numerically zero
    residuals raises; each rep with a nonpositive LRV warns once.
    """
    x, one = as_reps(ts)
    x = as_panel(x, "ts", min_len=10)
    check_in(deterministic, _PHILLIPS_DETERMINISTICS, "deterministic")
    ylag = x[:, :-1]
    T = ylag.shape[1]
    fit, dof = _ar_fit(x, deterministic)
    alpha = fit.coef[:, -1]
    ssr = fit.ssr
    # before hac_lrv, which a finite SSR hands finite residuals
    check_finite_result("phillips_z", alpha, ssr)
    # exact fits (perfect lines, constants) leave only roundoff
    check_fit(ssr, x[:, 1:], "Dickey-Fuller")
    s2_u = ssr / dof
    est = hac_lrv(fit.resid[:, :, None], kernel=kernel, demean=False)
    s2_lr = est.omega[:, 0, 0]
    if deterministic == "const":
        s_xx = np.sum((ylag - ylag.mean(axis=1, keepdims=True)) ** 2, axis=1)
    else:
        s_xx = np.sum(ylag**2, axis=1)
    half_diff = 0.5 * (s2_lr - s2_u)
    z_alpha = T * (alpha - 1.0) - half_diff / (s_xx / T**2)
    bad = s2_lr <= 0.0
    for _ in range(np.count_nonzero(bad)):
        warnings.warn("nonpositive long-run variance estimate; "
                      "Z_t undefined (nan)")
    s_lr = np.sqrt(np.where(bad, np.nan, s2_lr))
    z_t = (np.sqrt(s_xx) * (alpha - 1.0) / s_lr
           - half_diff * T / (s_lr * np.sqrt(s_xx)))
    res = UnitRootResult(stat_coef=z_alpha, stat_t=z_t, alpha_hat=alpha,
                         s2_u=s2_u, nobs=T, bandwidth=est.bandwidth)
    return first_rep(res) if one else res


@dataclass(frozen=True)
class DfLimitTables:
    """Simulated Dickey-Fuller limit laws, each a sorted float array of the
    draws: coef of T(alpha-1), t of the t-ratio.  A critical value at
    level p is `np.quantile(coef, p)`."""

    coef: np.ndarray
    t: np.ndarray


def df_limit_mc(T: int, deterministic: str = "none", reps: int = 20000, *,
                rng) -> DfLimitTables:
    """Simulate the laws of T(alpha-1) and the Dickey-Fuller t-ratio.

    Gaussian random walks of length T are generated and the first-order
    autoregression (with the requested deterministics) fitted to each;
    the coefficient and t statistics, each sorted ascending, are the
    returned draws.  Used wherever unit root critical values are
    needed.

    The walks come from one stream in rep order, a `_panel.chunks` at a
    time (`_panel._walk_batches`).
    """
    T = check_positive_int(T, "T", minimum=_MIN_T)
    reps = check_positive_int(reps, "reps", minimum=_MIN_REPS)
    check_in(deterministic, _DETERMINISTICS, "deterministic")
    gen = _resolve_rng(rng)
    coef_draws = np.empty(reps)
    t_draws = np.empty(reps)
    k = _LEVEL_COL[deterministic]
    for lo, walks in _walk_batches(gen, reps, (T,)):
        fit, dof = _ar_fit(walks, deterministic)
        alpha = fit.coef[:, k]
        se = np.sqrt(fit.ssr / dof * fit.gram_inv[:, k, k])
        coef_draws[lo:lo + walks.shape[0]] = (T - 1) * (alpha - 1.0)
        t_draws[lo:lo + walks.shape[0]] = (alpha - 1.0) / se
    coef_draws.sort()
    t_draws.sort()
    return DfLimitTables(coef=coef_draws, t=t_draws)
