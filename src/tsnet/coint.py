"""Cointegrating regression: fully modified OLS and residual diagnostics.

The levels regression y_t = a + b'x_t + eps_t with integrated x is
estimated by OLS and then fully modified: the dependent variable is
purged of the regressor innovations (endogeneity correction) and the
normal equations are recentered by the one-sided long-run covariance
(serial correlation correction).  Both corrections come from one joint
kernel LRV of (eps-hat_t, dx_t - mean(dx)).

On top of the FM fit sit the Shin residual statistic for the null of
cointegration and a stability test of the slopes, the supremum of a
Wald-type statistic of the fully modified score process over every
break date in the trimmed range.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import as_series, as_yx
from ._panel import as_reps, check_fit, first_rep, ols, rowdot
from .breaks import _break_grid, _break_scan
from .lrv import KernelSpec, hac_lrv

__all__ = ["FmolsResult", "fmols", "ShinResult", "shin_vn", "FkResult", "fk_break_test"]


@dataclass(frozen=True)
class FmolsResult:
    """Fully modified OLS fit of y_t = a + b'x_t + eps_t.

    beta_plus stacks the intercept first, then the d slope
    coefficients; se and t_plus follow the same layout (t_plus tests
    each coefficient against zero).  residuals_plus are the fully
    modified residuals y+_t - z_t'beta_plus, delta_plus the one-sided
    correction vector, omega_cond the conditional long-run variance
    Omega_{eps.eta}, zz_inv the (Z'Z)^{-1} of the OLS stage; the
    covariance of beta_plus is omega_cond * zz_inv.  The first
    observation is reserved for the regressor difference, so
    nobs = len(y) - 1.
    """

    beta_plus: np.ndarray
    beta_ols: np.ndarray
    se: np.ndarray
    t_plus: np.ndarray
    zz_inv: np.ndarray
    omega_cond: float
    delta_plus: np.ndarray
    residuals_plus: np.ndarray
    residuals_ols: np.ndarray
    nobs: int


def fmols(y, x, kernel: KernelSpec | None = None) -> FmolsResult:
    """Fully modified least squares for a cointegrating regression.

    Steps: (i) OLS of y_t on (1, x_t) over t = 2..n; (ii) joint kernel
    LRV of u_t = (eps-hat_t, (dx_t - mean dx)'), giving two-sided Omega,
    one-sided Lambda, and Delta = Gamma0 + Lambda; (iii) endogeneity
    correction y+_t = y_t - Omega_{eps eta} Omega_{eta eta}^{-1}
    (dx_t - mean dx); (iv) bias correction delta+' = Delta_{eps eta} -
    Omega_{eps eta} Omega_{eta eta}^{-1} Delta_{eta eta}; (v)

        beta+ = (Z'Z)^{-1} (Z'y+ - m [0; delta+]),

    m the number of usable observations.  Standard errors use the
    conditional long-run variance: cov = Omega_{eps.eta} (Z'Z)^{-1}.
    An exact OLS-stage fit raises.

    A 2-d y is a panel: the (R, n) y and (R, n[, d]) x hold R reps, and
    every field but nobs gains a leading rep axis (omega_cond becomes an
    (R,) array).
    """
    y, x, one = as_reps(y, x)
    y, x = as_yx(y, x)
    R, n, d = x.shape

    dx = np.diff(x, axis=1)
    eta = dx - dx.mean(axis=1, keepdims=True)
    ys = y[:, 1:]
    xs = x[:, 1:]
    m = n - 1

    Z = np.concatenate([np.ones((R, m, 1)), xs], axis=2)
    fit = ols(Z, ys)
    check_fit(fit.ssr, ys, "cointegrating")

    u = np.concatenate([fit.resid[:, :, None], eta], axis=2)
    est = hac_lrv(u, kernel=kernel, demean=False)
    omega = est.omega
    delta = est.gamma0 + est.lam  # one-sided including lag zero

    omega_ee = omega[:, 0, 0]
    omega_ex = omega[:, :1, 1:]
    omega_xx = omega[:, 1:, 1:]
    solve_xx = np.linalg.solve(omega_xx, np.eye(d))
    endo = omega_ex @ solve_xx

    y_plus = ys - (eta @ endo.transpose(0, 2, 1))[:, :, 0]
    delta_plus = delta[:, 0, 1:] - (endo @ delta[:, 1:, 1:])[:, 0]
    correction = np.concatenate([np.zeros((R, 1)), delta_plus], axis=1)
    # the fully modified normal equations, on the OLS-stage Gram
    beta_plus = np.linalg.solve(
        fit.gram, (Z.transpose(0, 2, 1) @ y_plus[:, :, None]) - m * correction[:, :, None])

    omega_cond = omega_ee - (endo @ omega[:, 1:, :1])[:, 0, 0]
    se = np.sqrt(omega_cond[:, None] * np.diagonal(fit.gram_inv, axis1=1, axis2=2))
    resid_plus = y_plus - (Z @ beta_plus)[:, :, 0]
    beta_plus = beta_plus[:, :, 0]
    res = FmolsResult(beta_plus=beta_plus, beta_ols=fit.coef, se=se,
                      t_plus=beta_plus / se, zz_inv=fit.gram_inv,
                      omega_cond=omega_cond, delta_plus=delta_plus,
                      residuals_plus=resid_plus, residuals_ols=fit.resid, nobs=m)
    return first_rep(res) if one else res


@dataclass(frozen=True)
class ShinResult:
    """Residual-based statistic V_n for the null of cointegration, with
    sigma2 the residual variance it is scaled by."""

    v_n: float
    sigma2: float
    nobs: int


def shin_vn(y, x=None, kernel: KernelSpec | None = None,
            short_run: bool = False) -> ShinResult:
    """Cumulated-residual statistic V_n = n^{-2} sum_t S_t^2 / sigma2.

    With x given, the residuals come from OLS of y_t on (1, x_t) over
    the full sample; with x=None, y itself is treated as a residual
    series (used for direct checks).  sigma2 is the kernel long-run
    variance of the residuals by default, or the short-run average
    squared residual when short_run=True.  An exact fit on x, or an
    all-zero residual series, raises.
    """
    if x is None:
        y_arr = resid = as_series(y, "y", min_len=4)[None]
    else:
        y_arr, x_arr = as_yx(np.asarray(y, dtype=float)[None],
                             np.asarray(x, dtype=float)[None], min_len=4)
        resid = ols(np.concatenate([np.ones(y_arr.shape + (1,)), x_arr], axis=2), y_arr).resid
    check_fit(rowdot(resid, resid), y_arr, "cointegrating")
    resid = resid[0]
    n = resid.shape[0]
    if short_run:
        sigma2 = float(np.mean(resid**2))
    else:
        sigma2 = hac_lrv(resid, kernel=kernel, demean=False).scalar
    s = np.cumsum(resid)
    v_n = float(np.sum(s**2) / (n**2 * sigma2))
    return ShinResult(v_n=v_n, sigma2=sigma2, nobs=n)


@dataclass(frozen=True)
class FkResult:
    """Score-based coefficient stability test on the FM fit.

    path holds F_k over the trimmed break grid (k counts usable
    observations), stat the supremum.  At a fixed interior k, F_k is
    asymptotically chi-square with dof = d, the number of slopes.
    """

    stat: float
    k_star: int
    path: np.ndarray
    k_grid: np.ndarray
    dof: int


def fk_break_test(y, x, kernel: KernelSpec | None = None,
                  trim: tuple[float, float] = (0.15, 0.85)) -> FkResult:
    """Structural stability of the cointegrating slopes.

    Builds the per-observation fully modified score
    s_t = z_t eps+_t - [0; delta+] (which sums to zero over the full
    sample by the FM normal equations) and, for each candidate break
    k in the trimmed range,

        F_k = S_k' [Omega_{eps.eta} V_k]^{-1} S_k,
        V_k = M_k - M_k M_T^{-1} M_k,   M_k = sum_{t<=k} z_t z_t',

    on the slope rows and columns (the intercept is a nuisance), the
    whole path from one pass of cumulative moments (the kernel of
    `sup_wald`).  Every k keeps p = d + 1 <= k <= m - p, so that both
    regimes identify the fit.  At a fixed interior k, F_k is
    asymptotically chi2_d.
    """
    y, x = as_yx(np.asarray(y, dtype=float)[None], np.asarray(x, dtype=float)[None])
    fm = fmols(y[0], x[0], kernel)
    m = fm.nobs
    # the tested slopes first, then the intercept
    Z = np.column_stack([x[0, 1:], np.ones(m)])
    k_grid = _break_grid(trim, m, Z.shape[1])
    dof = x.shape[2]
    shift = np.append(fm.delta_plus, 0.0)[None]
    path = _break_scan(Z[None], fm.residuals_plus[None], k_grid, dof, shift)[0] / fm.omega_cond
    best = int(np.argmax(path))
    return FkResult(stat=float(path[best]), k_star=int(k_grid[best]),
                    path=path, k_grid=k_grid, dof=dof)
