"""GARCH(1,1) simulation and Gaussian QMLE.

The conditional variance recursion is

    sigma2_t = omega + alpha * eps_{t-1}^2 + beta * sigma2_{t-1}

with omega > 0, alpha, beta >= 0 and alpha + beta < 1 (the integrated
boundary is excluded so the unconditional variance omega/(1-alpha-beta)
exists).  Estimation minimizes the Gaussian quasi-likelihood
f = sum_t (log sigma2_t + eps_t^2 / sigma2_t) over an unconstrained
parameter theta (`_unpack`) that caps the persistence at 1 - 1e-6, so
every iterate is admissible.

The minimization is a damped scoring iteration.  The derivatives of
sigma2_t with respect to (omega, alpha, beta) obey the variance
recursion itself, driven by 1, eps_{t-1}^2 and sigma2_{t-1}
(Fiorentini, Calzolari & Panattoni 1996, J. Appl. Econometrics 11,
399-417), so one banded filter pass over a (3, n) panel gives them
all.  With g_t = (1 - eps_t^2 / sigma2_t) / sigma2_t they give the
gradient sum_t g_t dsigma2_t and the scoring matrix
sum_t dsigma2_t dsigma2_t' / sigma2_t^2, the expected Hessian (Berndt,
Hall, Hall & Hausman 1974), both carried to theta through the Jacobian
of `_unpack`.  Each step solves the scoring system with
Levenberg-Marquardt damping and backtracks (Armijo) on f inside the
box |theta_i| <= 40; a coordinate the step would carry out of the box
is held, at the edge when the gradient pushes it there.  A run ends
when a step lowers f by at most 1e-13 of |f|, when no step lowers it,
or after 1000 iterations.  Where alpha or the persistence alpha + beta
is zero, or the persistence is at its cap, beta is not identified and
the quasi-likelihood is flat or multimodal, so a run that ends there
is repeated from further starts and the lowest objective is kept.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from ._checks import as_series, check_in, check_positive_int
from ._filter import ar
from ._panel import ols
from .series import _simulate

__all__ = ["GarchSpec", "GarchFit", "GarchConvergenceWarning", "garch_qmle", "simulate_garch"]

# the shortest series `garch_qmle` fits, and its means
_MIN_QMLE_N = 50
_MEANS = ("constant", "ar1")
_PERSISTENCE_CAP = 1.0 - 1e-6
_BOX = 40.0
# a run ends when a step lowers the objective by at most this share of it
_FTOL = 1e-13
_MAX_ITER = 1000
# (alpha, beta) starts, omega matching the sample variance; a later one
# runs only when the best fit so far has alpha or the persistence zero, or
# the persistence at its cap, to within e^-_FACE
_STARTS = ((0.05, 0.85), (0.01, 0.98), (0.2, 0.02))
_FACE = 20.0


class GarchConvergenceWarning(RuntimeWarning):
    """`garch_qmle` stopped at its iteration cap before the objective settled."""


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
        for name in ("alpha", "beta"):
            value = getattr(self, name)
            if not (np.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")
        if self.alpha + self.beta >= 1:
            raise ValueError("need alpha + beta < 1")
        if not np.isfinite(self.mu):
            raise ValueError(f"mu must be finite, got {self.mu}")

    @property
    def unconditional_variance(self) -> float:
        return self.omega / (1.0 - self.alpha - self.beta)


def simulate_garch(spec: GarchSpec, n: int, rng, burn: int = 500):
    """Simulate y_t = mu + sigma_t eta_t with iid standard normal eta.

    Returns (y, sigma2), both of length n, after discarding `burn`
    start-up observations; the recursion starts at the unconditional
    variance.  rng may be eta itself (`series._simulate`): (n + burn,), or
    (R, n + burn) for (R, n) panels.  A path that leaves the finite floats
    raises ValueError.
    """
    n = check_positive_int(n, "n")
    burn = check_positive_int(burn, "burn", minimum=0)

    def path(eta):
        # with eps_{t-1}^2 = sigma2_{t-1} eta_{t-1}^2 the variance recursion
        # is sigma2_t = omega + a_t sigma2_{t-1}; the presample eps^2 equals
        # the presample variance, so a_0 = alpha + beta.  `ar` shares its
        # coefficients across a panel, so it runs once per rep
        a = np.empty_like(eta)
        a[:, 0] = spec.alpha + spec.beta
        a[:, 1:] = spec.alpha * eta[:, :-1] ** 2 + spec.beta
        sigma2 = np.array([ar(np.full(n + burn, spec.omega), a_r[None],
                              a_r[0] * spec.unconditional_variance) for a_r in a])
        eps = np.sqrt(sigma2) * eta
        return spec.mu + eps[:, burn:], sigma2[:, burn:]

    return _simulate(path, rng, (n + burn,), f"omega={spec.omega!r}, alpha={spec.alpha!r}, "
                                             f"beta={spec.beta!r}, n={n}, burn={burn}")


@dataclass(frozen=True)
class GarchFit:
    """QMLE output.

    objective is the minimized sum_t (log sigma2_t + eps_t^2 / sigma2_t);
    loglik, the Gaussian log-likelihood of the innovations, is
    -(objective + nobs log 2 pi) / 2.  objective_path records the
    objective at the start and at each accepted iterate of the run that
    was kept (nonincreasing); n_iter counts the scoring iterations of
    every run made.
    """

    spec: GarchSpec
    objective: float
    converged: bool
    n_iter: int
    objective_path: tuple[float, ...]
    sigma2: np.ndarray
    nobs: int
    ar_coeff: float | None = None

    @property
    def loglik(self) -> float:
        return -0.5 * (self.objective + self.nobs * math.log(2.0 * math.pi))


def _sigmoid(x):
    return 1.0 / (1.0 + np.exp(-x))


def _unpack(theta: np.ndarray) -> tuple[float, float, float]:
    w, xs, xa = theta
    persistence = _PERSISTENCE_CAP * _sigmoid(xs)
    # sigmoid(-xa), not 1 - sigmoid(xa): beta and its derivative stay
    # nonzero at the edge of the box
    return np.exp(w), persistence * _sigmoid(xa), persistence * _sigmoid(-xa)


def _pack(omega: float, alpha: float, beta: float) -> np.ndarray:
    s = min(alpha + beta, _PERSISTENCE_CAP * 0.999)
    s = max(s, 1e-4)
    a = min(max(alpha / s, 1e-4), 1 - 1e-4)
    ps = s / _PERSISTENCE_CAP
    return np.array([np.log(omega), np.log(ps / (1 - ps)), np.log(a / (1 - a))])


def _unpack_jacobian(theta: np.ndarray) -> np.ndarray:
    """d(omega, alpha, beta) / d theta, the Jacobian of `_unpack`."""
    w, xs, xa = theta
    persistence = _PERSISTENCE_CAP * _sigmoid(xs)
    frac, rest = _sigmoid(xa), _sigmoid(-xa)
    d_persistence = persistence * _sigmoid(-xs)
    d_frac = persistence * frac * rest
    return np.array([[np.exp(w), 0.0, 0.0],
                     [0.0, frac * d_persistence, d_frac],
                     [0.0, rest * d_persistence, -d_frac]])


class _QuasiLikelihood:
    """The objective of `garch_qmle` for one innovation series, its
    gradient and scoring matrix, filtered into buffers made once."""

    def __init__(self, eps: np.ndarray):
        self.e2 = eps**2
        self.s2_init = float(self.e2.mean())
        n = self.e2.shape[0]
        # drives of d sigma2_t / d(omega, alpha, beta): 1, eps_{t-1}^2 and
        # sigma2_{t-1}, the presample eps^2 and sigma2 both s2_init
        self.drive = np.empty((3, n))
        self.drive[0] = 1.0
        self.drive[1, 0] = self.s2_init
        self.drive[1, 1:] = self.e2[:-1]
        self.drive[2, 0] = self.s2_init
        self.deriv = np.empty((3, n))
        self.weighted = np.empty((3, n))
        self.work = np.empty(n)
        self.resid = np.empty(n)

    def value(self, theta: np.ndarray, sigma2: np.ndarray) -> float:
        """The objective at theta; its variance path goes into sigma2."""
        omega, alpha, beta = _unpack(theta)
        np.multiply(self.drive[1], alpha, out=self.work)
        self.work += omega
        ar(self.work, [beta], beta * self.s2_init, out=sigma2)
        np.log(sigma2, out=self.work)
        np.divide(self.e2, sigma2, out=self.resid)
        return float(self.work.sum() + self.resid.sum())

    def score(self, theta: np.ndarray, sigma2: np.ndarray):
        """Gradient and scoring matrix in theta, sigma2 its variance path."""
        self.drive[2, 1:] = sigma2[:-1]
        ar(self.drive, [_unpack(theta)[2]], out=self.deriv)
        # w_t = J' dsigma2_t / sigma2_t: the gradient is sum_t w_t (1 - eps_t^2 /
        # sigma2_t) and the scoring matrix the Gram matrix of the w_t, positive
        # semidefinite in floating point too
        np.divide(1.0, sigma2, out=self.work)
        np.multiply(self.e2, self.work, out=self.resid)
        np.subtract(1.0, self.resid, out=self.resid)
        np.matmul(_unpack_jacobian(theta).T, self.deriv, out=self.weighted)
        self.weighted *= self.work
        w = self.weighted
        # row by row: BLAS takes about three times as long over w @ w.T
        return w @ self.resid, np.array([[w[i] @ w[j] for j in range(3)] for i in range(3)])


@dataclass(frozen=True)
class _Run:
    """Where one scoring run from one start ended."""

    theta: np.ndarray
    value: float
    sigma2: np.ndarray
    path: list
    n_iter: int
    converged: bool


def _score_run(q: _QuasiLikelihood, theta: np.ndarray) -> _Run:
    """Damped scoring from theta until a step lowers f by at most
    _FTOL |f|, no step lowers it at all, or _MAX_ITER iterations."""
    sigma2, sigma2_trial = np.empty_like(q.e2), np.empty_like(q.e2)
    f = q.value(theta, sigma2)
    path = [f]
    damping = 1e-12
    for it in range(1, _MAX_ITER + 1):
        grad, info = q.score(theta, sigma2)
        step = np.zeros(3)
        free = np.ones(3, dtype=bool)
        while free.any():
            # Marquardt's scaling: the damped system has unit diagonal plus damping
            scale = 1.0 / np.sqrt(np.diag(info)[free])
            system = info[np.ix_(free, free)] * np.outer(scale, scale)
            step[free] = scale * np.linalg.solve(system + damping * np.eye(scale.size),
                                                 -scale * grad[free])
            out = free & (np.abs(theta + step) > _BOX)
            if not out.any():
                break
            # a coordinate the step would carry out of the box (a saturated
            # logit, whose linearization is worthless) leaves the system: at
            # the edge if the gradient pushes it there; only when no gradient
            # does, the coordinates stay where they are
            push = out & (grad * step < 0)
            held = push if push.any() else out
            step[held] = np.where(push[held], np.sign(step[held]) * _BOX - theta[held], 0.0)
            free &= ~held
        t = 1.0
        while True:
            trial = np.clip(theta + t * step, -_BOX, _BOX)
            f_trial = q.value(trial, sigma2_trial)
            if f_trial <= f + 1e-4 * (grad @ (trial - theta)):
                break
            t *= 0.5
            if t < 1e-10:
                # no decrease left along a descent direction: f is flat to roundoff
                return _Run(theta, f, sigma2, path, it, True)
        damping = max(damping / 10, 1e-12) if t == 1.0 else min(damping * 10, 1e6)
        decrease = f - f_trial
        theta, f = trial, f_trial
        sigma2, sigma2_trial = sigma2_trial, sigma2
        path.append(f)
        if decrease <= _FTOL * abs(f):
            return _Run(theta, f, sigma2, path, it, True)
    return _Run(theta, f, sigma2, path, _MAX_ITER, False)


def garch_qmle(y, mean: str = "constant") -> GarchFit:
    """Gaussian QMLE of a GARCH(1,1) with a constant or AR(1) mean.

    mean="constant" filters y - ybar; mean="ar1" first fits an AR(1)
    with intercept by least squares and filters its residuals (two-step
    estimation).  The variance recursion is initialized at the sample
    variance of the filtered innovations, which must not be zero.  A
    fit that stops at the iteration cap warns with
    `GarchConvergenceWarning` and reports converged=False.
    """
    obs = as_series(y, "y", min_len=_MIN_QMLE_N)
    check_in(mean, _MEANS, "mean")
    ar_coeff = None
    if mean == "constant":
        mu = float(obs.mean())
        eps = obs - mu
    else:
        yy = obs[1:]
        X = np.column_stack([np.ones(obs.shape[0] - 1), obs[:-1]])
        fit = ols(X[None], yy[None])
        mu, ar_coeff = float(fit.coef[0, 0]), float(fit.coef[0, 1])
        eps = fit.resid[0]

    q = _QuasiLikelihood(eps)
    # innovations at roundoff of y carry no variance to model
    if not q.s2_init > (np.finfo(float).eps * np.abs(obs).max()) ** 2:
        raise ValueError("the innovations have zero variance: y is constant "
                         "or its mean model fits it exactly")
    best, n_iter = None, 0
    for alpha0, beta0 in _STARTS:
        run = _score_run(q, _pack(q.s2_init * (1.0 - alpha0 - beta0), alpha0, beta0))
        n_iter += run.n_iter
        if best is None or run.value < best.value:
            best = run
        # theta = (log omega, logit persistence, logit alpha share)
        if abs(best.theta[1]) < _FACE and best.theta[2] > -_FACE:
            break
    if not best.converged:
        warnings.warn(f"GARCH QMLE stopped after {_MAX_ITER} iterations before "
                      f"the objective settled", GarchConvergenceWarning, stacklevel=2)
    omega, alpha, beta = _unpack(best.theta)
    spec = GarchSpec(omega=omega, alpha=alpha, beta=beta, mu=mu)
    return GarchFit(spec=spec, objective=best.value, converged=best.converged,
                    n_iter=n_iter, objective_path=tuple(best.path),
                    sigma2=best.sigma2, nobs=eps.shape[0], ar_coeff=ar_coeff)
