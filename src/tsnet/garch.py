"""GARCH(1,1) filtering, simulation, and Gaussian QMLE.

The conditional variance recursion is

    sigma2_t = omega + alpha * eps_{t-1}^2 + beta * sigma2_{t-1}

with omega > 0, alpha, beta >= 0 and alpha + beta < 1 (the integrated
boundary is excluded so the unconditional variance omega/(1-alpha-beta)
exists).  Estimation minimizes the Gaussian quasi-likelihood
sum_t (log sigma2_t + eps_t^2 / sigma2_t); the stationarity constraint
is enforced by an unconstrained reparametrization capping the
persistence at 1 - 1e-6, so every iterate is admissible.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

import numpy as np

from ._checks import as_series, check_positive_int
from ._filter import ar
from ._panel import ols
from .series import _resolve_rng

__all__ = ["GarchSpec", "GarchFit", "garch_filter", "garch_qmle", "simulate_garch"]

_PERSISTENCE_CAP = 1.0 - 1e-6


@dataclass(frozen=True)
class GarchSpec:
    """GARCH(1,1) parameters with an optional constant mean."""

    omega: float
    alpha: float
    beta: float
    mu: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.omega) and self.omega > 0):
            raise ValueError("omega must be positive")
        if self.alpha < 0 or self.beta < 0:
            raise ValueError("alpha and beta must be nonnegative")
        if self.alpha + self.beta >= 1:
            raise ValueError("need alpha + beta < 1")

    @property
    def unconditional_variance(self) -> float:
        return self.omega / (1.0 - self.alpha - self.beta)


def garch_filter(eps, spec: GarchSpec, sigma2_0: float | None = None,
                 eps2_0: float | None = None) -> np.ndarray:
    """Run the variance recursion over innovations eps_1..eps_n.

    Presample values default to the sample second moment of eps (both
    sigma2_0 and eps2_0), so the first output is
    omega + (alpha + beta) * sigma2_0.  Returns sigma2_1..sigma2_n.
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


def _affine_scan(a: np.ndarray, c: float, s0: float) -> np.ndarray:
    """Return s_t = c + a_t s_{t-1} for t = 0..len(a)-1, from s_{-1} = s0.

    Two-level scan: the series is cut into about sqrt(len(a)) blocks
    (the tail padded with a_t = 1).  Each block's running products
    `prod` and zero-start sums `acc` come from one loop over the block
    position, vectorized across blocks; the block start values are then
    carried in one short loop, and s = prod * start + acc.  Nothing is
    divided, so coefficients that underflow to zero cannot overflow the
    result.
    """
    total = a.shape[0]
    n_blocks = isqrt(total)
    length = -(-total // n_blocks)
    padded = np.ones(n_blocks * length)
    padded[:total] = a
    # row k holds position k of every block
    coef = padded.reshape(n_blocks, length).T.copy()
    prod = np.empty_like(coef)
    acc = np.empty_like(coef)
    prod[0] = coef[0]
    acc[0] = c
    for k in range(1, length):
        prod[k] = coef[k] * prod[k - 1]
        acc[k] = coef[k] * acc[k - 1] + c
    starts = np.empty(n_blocks)
    prev = s0
    for b, (p_end, c_end) in enumerate(zip(prod[-1].tolist(), acc[-1].tolist())):
        starts[b] = prev
        prev = p_end * prev + c_end
    return (prod * starts + acc).T.reshape(-1)[:total]


def simulate_garch(spec: GarchSpec, n: int, rng, burn: int = 500):
    """Simulate y_t = mu + sigma_t eta_t with iid standard normal eta.

    Returns (y, sigma2), both of length n, after discarding `burn`
    start-up observations; the recursion starts at the unconditional
    variance.
    """
    n = check_positive_int(n, "n")
    burn = check_positive_int(burn, "burn", minimum=0)
    gen = _resolve_rng(rng)
    total = n + burn
    eta = gen.standard_normal(total)
    # with eps_{t-1}^2 = sigma2_{t-1} eta_{t-1}^2 the variance recursion
    # is sigma2_t = omega + a_t sigma2_{t-1}; the presample eps^2 equals
    # the presample variance, so a_0 = alpha + beta
    a = np.empty(total)
    a[0] = spec.alpha + spec.beta
    a[1:] = spec.alpha * eta[:-1] ** 2 + spec.beta
    sigma2 = _affine_scan(a, spec.omega, spec.unconditional_variance)
    eps = np.sqrt(sigma2) * eta
    return spec.mu + eps[burn:], sigma2[burn:]


@dataclass(frozen=True)
class GarchFit:
    """QMLE output.

    objective_path records the quasi-likelihood at the accepted iterates
    (nonincreasing along the minimization).
    """

    spec: GarchSpec
    loglik: float
    converged: bool
    n_iter: int
    objective_path: tuple[float, ...]
    sigma2: np.ndarray
    nobs: int
    ar_coeff: float | None = None


def _unpack(theta: np.ndarray) -> tuple[float, float, float]:
    w, xs, xa = theta
    omega = np.exp(w)
    persistence = _PERSISTENCE_CAP / (1.0 + np.exp(-xs))
    frac = 1.0 / (1.0 + np.exp(-xa))
    return omega, persistence * frac, persistence * (1.0 - frac)


def _pack(omega: float, alpha: float, beta: float) -> np.ndarray:
    s = min(alpha + beta, _PERSISTENCE_CAP * 0.999)
    s = max(s, 1e-4)
    a = min(max(alpha / s, 1e-4), 1 - 1e-4)
    ps = s / _PERSISTENCE_CAP
    return np.array([np.log(omega), np.log(ps / (1 - ps)), np.log(a / (1 - a))])


def garch_qmle(y, mean: str = "constant") -> GarchFit:
    """Gaussian QMLE of a GARCH(1,1) with a constant or AR(1) mean.

    mean="constant" filters y - ybar; mean="ar1" first fits an AR(1)
    with intercept by least squares and filters its residuals (two-step
    estimation).  The variance recursion is initialized at the sample
    variance of the filtered innovations.
    """
    obs = as_series(y, "y", min_len=50)
    ar_coeff = None
    if mean == "constant":
        mu = float(obs.mean())
        eps = obs - mu
    elif mean == "ar1":
        yy = obs[1:]
        X = np.column_stack([np.ones(obs.shape[0] - 1), obs[:-1]])
        fit = ols(X[None], yy[None])
        mu, ar_coeff = float(fit.coef[0, 0]), float(fit.coef[0, 1])
        eps = fit.resid[0]
    else:
        raise ValueError("mean must be 'constant' or 'ar1'")

    e2 = eps**2
    s2_init = float(e2.mean())
    drive_lag = np.concatenate([[s2_init], e2[:-1]])

    def objective(theta):
        omega, alpha, beta = _unpack(theta)
        drive = omega + alpha * drive_lag
        sigma2 = ar(drive, [beta], beta * s2_init)
        return float(np.sum(np.log(sigma2) + e2 / sigma2))

    # imported here: scipy.optimize costs about 0.2 s, paid on the first fit only
    from scipy.optimize import minimize

    theta0 = _pack(s2_init * 0.1, 0.05, 0.85)
    path = [objective(theta0)]
    res = minimize(objective, theta0, method="L-BFGS-B",
                   bounds=[(-40.0, 40.0)] * 3,
                   callback=lambda tk: path.append(objective(tk)),
                   options={"maxiter": 500})
    omega, alpha, beta = _unpack(res.x)
    spec = GarchSpec(omega=omega, alpha=alpha, beta=beta, mu=mu)
    sigma2 = garch_filter(eps, spec, sigma2_0=s2_init, eps2_0=s2_init)
    return GarchFit(spec=spec, loglik=float(res.fun), converged=bool(res.success),
                    n_iter=int(res.nit), objective_path=tuple(path),
                    sigma2=sigma2, nobs=eps.shape[0], ar_coeff=ar_coeff)
