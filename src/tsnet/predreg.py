"""Predictive regression with instrumented persistence (IVX).

OLS inference on y_t = a + b'x_{t-1} + u_t is fragile when x is nearly
integrated: the t-statistic's null distribution depends on the unknown
local-to-unity parameter.  The IVX approach self-generates a mildly
integrated instrument from the regressor's own differences,

    z_t = rho_nz z_{t-1} + dx_t,   rho_nz = 1 + c_z / n^{beta_z},

which is persistent enough to retain power yet mild enough that Wald
statistics are chi-square under the null for any persistence of x.  The
model always carries the intercept a, and the sandwich covariance takes
the homoskedastic meat sum z z' s2_u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import chdtrc

from ._checks import FINITE_RESULT, as_panel, as_yx, check_finite_result, first_rep
from ._filter import ar
from ._panel import check_fit, rowdot

__all__ = ["IvxSpec", "IvxResult", "ivx_instrument", "ivx_estimate"]


@dataclass(frozen=True)
class IvxSpec:
    """Instrument persistence rho_nz = 1 + c_z / n^beta_z.

    Defaults (c_z, beta_z) = (-1, 0.95): mildly integrated just below
    the unit root.
    """

    c_z: float = -1.0
    beta_z: float = 0.95

    def __post_init__(self):
        if not (np.isfinite(self.c_z) and self.c_z < 0):
            raise ValueError("c_z must be negative")
        if not (0 < self.beta_z <= 1):
            raise ValueError("beta_z must lie in (0, 1]")

    def rho(self, n: int) -> float:
        return 1.0 + self.c_z / float(n) ** self.beta_z


def ivx_instrument(x, spec: IvxSpec = IvxSpec()) -> np.ndarray:
    """Build the instrument from the differences of x.

    For x of length n the output has length n - 1: row t is
    z_{t+1} = sum_{j=2}^{t+1} rho^{t+1-j} dx_j, i.e. the recursion
    z = rho z_prev + dx run over the observed differences from a zero
    start.  rho uses the full series length n.

    A 3-d x is an (R, n, d) panel of R reps, and the output is the
    (R, n - 1, d) panel of their instruments.
    """
    x, one = as_panel(x, "x", min_len=2, matrix=True)
    z = ar(np.diff(x, axis=1), [spec.rho(x.shape[1])])
    return z[0] if one else z


@dataclass(frozen=True)
class IvxResult:
    """IVX estimate of the slope vector in y_t = a + b'x_{t-1} + u_t.

    cov is the sandwich (sum z x')^{-1} (sum z z' s2_u) (sum x z')^{-1},
    s2_u the residual variance; wald and pvalue test b = 0 jointly, and
    rho_nz is the instrument's persistence.
    """

    beta: np.ndarray
    se: np.ndarray
    cov: np.ndarray
    rho_nz: float
    wald: float
    pvalue: float
    nobs: int


@FINITE_RESULT
def ivx_estimate(y, x, spec: IvxSpec = IvxSpec()) -> IvxResult:
    """Instrumented estimation of the predictive slope.

    Pairs y_t with x_{t-1} for t = 2..n and instruments x_{t-1} by the
    self-generated z_{t-1} (zero for t = 2, then the difference
    recursion).  The intercept is concentrated out: y and the lagged
    regressor are centered, the instrument is not.  s2_u uses divisor
    (#pairs - d).  An exact fit, or a result that is not finite, raises.

    A 2-d y is a panel: the (R, n) y and (R, n[, d]) x hold R reps, and
    every field but rho_nz and nobs gains a leading rep axis.
    """
    y, x, one = as_yx(y, x)
    R, n, d = x.shape

    ys = y[:, 1:]
    xlag = x[:, :-1]
    m = ys.shape[1]
    zfull = ivx_instrument(x, spec)
    zins = np.concatenate([np.zeros((R, 1, d)), zfull[:, :m - 1]], axis=1)

    ys = ys - ys.mean(axis=1, keepdims=True)
    xlag = xlag - xlag.mean(axis=1, keepdims=True)

    zt = zins.transpose(0, 2, 1)
    A = zt @ xlag
    beta = np.linalg.solve(A, zt @ ys[:, :, None])
    resid = ys - (xlag @ beta)[:, :, 0]
    ssr = rowdot(resid, resid)
    check_fit(ssr, ys, "IVX")
    sigma2_u = ssr / (m - d)
    A_inv = np.linalg.inv(A)
    meat = (zt @ zins) * sigma2_u[:, None, None]
    cov = A_inv @ meat @ A_inv.transpose(0, 2, 1)
    cov = (cov + cov.transpose(0, 2, 1)) / 2.0
    se = np.sqrt(np.diagonal(cov, axis1=1, axis2=2))
    beta = beta[:, :, 0]
    wald = rowdot(beta, np.linalg.solve(cov, beta[:, :, None])[:, :, 0])
    check_finite_result("ivx_estimate", beta, cov, se, wald)
    res = IvxResult(beta=beta, se=se, cov=cov, rho_nz=spec.rho(n), wald=wald,
                    pvalue=chdtrc(d, wald), nobs=m)
    return first_rep(res) if one else res
