"""Coefficient stability tests for predictive regressions.

All tests here address instability of the slope in y_t = a + b'x_{t-1}
+ u_t when x may be highly persistent.  The Wald statistics compare
regime-split estimates under global demeaning (each regime-indicator
regressor block is centered at its full-sample mean), which is what
makes the sup statistic converge to the normalized Brownian bridge
functional sup_pi ||BB(pi)||^2 / (pi (1 - pi)) instead of the standard
sup-chi-square limit; `nbb_sup_mc` tabulates that limit.  The LM
statistics are partial-sum score tests against random-walk coefficient
drift, and `me_monitor` is a rolling-window real-time monitoring
statistic calibrated on a historical sample.  `nested_forecast_test`
compares the recursive out-of-sample forecasts of two nested predictive
regressions.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._checks import as_matrix, as_series, as_yx, check_positive_int
from ._panel import check_fit, collinear, exact_fit, first_rep, ols, rowdot
from .series import RngSpec, _resolve_rng
from .tables import _MIN_REPS, QuantileTable, _walk_batches

__all__ = [
    "WaldBreakResult",
    "split_wald",
    "SupWaldResult",
    "sup_wald",
    "nbb_sup_mc",
    "LmResult",
    "lm_nyblom",
    "MeResult",
    "me_monitor",
    "NestedForecastResult",
    "nested_forecast_test",
]


def _predictive_pairs(y, x):
    """Panels of (y_t, x_{t-1}) pairs from (R, n) y and (R, n[, d]) x panels."""
    y, x = as_yx(y, x)
    return y[:, 1:], x[:, :-1]


def _check_trim(trim) -> tuple[float, float]:
    """The break-fraction range (lo, hi) as two floats, 0 < lo < hi < 1."""
    lo_hi = np.asarray(trim, dtype=float)
    if lo_hi.shape != (2,) or not 0 < lo_hi[0] < lo_hi[1] < 1:
        raise ValueError(f"trim must be two fractions 0 < lo < hi < 1, got {trim!r}")
    return float(lo_hi[0]), float(lo_hi[1])


@dataclass(frozen=True)
class WaldBreakResult:
    """Wald statistic for equal slopes across a split at pair index k."""

    stat: float
    k: int
    pi: float
    beta1: np.ndarray
    beta2: np.ndarray
    sigma2: float
    nobs: int


def split_wald(y, x, k: int | None = None, pi0: float | None = None) -> WaldBreakResult:
    """Wald test of slope equality across a single known break point.

    The split is at pair index k (y_t is paired with x_{t-1}; regime 1
    holds the first k pairs), or at k = floor(pi0 * m).  Under the null
    with an interior break fraction the statistic is asymptotically
    chi-square with d degrees of freedom.
    """
    return first_rep(_split_wald_panel(np.asarray(y, dtype=float)[None],
                                       np.asarray(x, dtype=float)[None], k, pi0))


def _split_wald_panel(y, x, k: int | None = None,
                      pi0: float | None = None) -> WaldBreakResult:
    """`split_wald` of every rep of (R, n) y and (R, n[, d]) x panels.

    stat, beta1, beta2 and sigma2 gain a leading rep axis; the split is
    shared.
    """
    ys, xl = _predictive_pairs(y, x)
    m, d = xl.shape[1:]
    if (k is None) == (pi0 is None):
        raise ValueError("give exactly one of k and pi0")
    if pi0 is not None:
        if not 0 < pi0 < 1:
            raise ValueError("pi0 must lie in (0, 1)")
        k = int(np.floor(pi0 * m))
    k = int(k)
    if not d + 1 <= k <= m - d - 1:
        raise ValueError(f"break index {k} leaves a regime too small to fit")
    y_c = ys - ys.mean(axis=1, keepdims=True)
    ind1 = np.zeros(m)
    ind1[:k] = 1.0
    X1 = xl * ind1[:, None]
    X2 = xl * (1.0 - ind1)[:, None]
    X = np.concatenate([X1 - X1.mean(axis=1, keepdims=True),
                        X2 - X2.mean(axis=1, keepdims=True)], axis=2)
    fit = ols(X, y_c)
    check_fit(fit.ssr, ys, "split")
    theta = fit.coef
    sigma2 = fit.ssr / (m - 2 * d - 1)
    diff = theta[:, :d] - theta[:, d:]
    G_inv = fit.gram_inv
    R_cov = (G_inv[:, :d, :d] + G_inv[:, d:, d:]
             - G_inv[:, :d, d:] - G_inv[:, d:, :d])
    stat = rowdot(diff, np.linalg.solve(sigma2[:, None, None] * R_cov,
                                        diff[:, :, None])[:, :, 0])
    return WaldBreakResult(stat=stat, k=k, pi=k / m, beta1=theta[:, :d],
                           beta2=theta[:, d:], sigma2=sigma2, nobs=m)


@dataclass(frozen=True)
class SupWaldResult:
    """Supremum of the split Wald statistic over a trimmed break grid."""

    stat: float
    k_star: int
    pi_star: float
    path: np.ndarray
    k_grid: np.ndarray
    nobs: int


def _break_grid(trim, m: int, p: int) -> np.ndarray:
    """Break dates k (first-regime sizes) in the trim range, clamped to
    [p, m - p] so that both regimes identify p coefficients."""
    lo, hi = _check_trim(trim)
    k_grid = np.arange(max(int(np.ceil(lo * m)), p), min(int(np.floor(hi * m)), m - p) + 1)
    if k_grid.size == 0:
        raise ValueError("trimming leaves no admissible break points")
    return k_grid


def _break_scan(Z, e, k_grid, s: int, shift=None) -> np.ndarray:
    """Score statistics q_k = S_k' V_k^{-1} S_k of a break in the first s columns.

    Z is an (R, m, p) design, e the (R, m) residuals of a fit on Z and
    shift an optional (R, p) constant taken off every score z_t e_t.
    With M_k the Gram of the first k rows, S_k = sum_{t<=k} (z_t e_t -
    shift)[:s] and V_k = M_k[:s, :s] - M_k[:s, :] M_m^{-1} M_k[:, :s];
    the result is the (R, len(k_grid)) array of q_k, for k_grid a run of
    consecutive break dates.  For OLS residuals q_k is the SSR drop from
    adding the columns z_t[:s] 1{t<=k}.

    Whitening by the Cholesky factor L of the Gram, w_t = L^{-1} z_t,
    makes M_m = I; L is triangular, so w_t[:s] spans z_t[:s] and q_k is
    unchanged.  The s x s algebra runs elementwise over the (R, k) axes.
    """
    R, m, p = Z.shape
    Zt = Z.transpose(0, 2, 1)
    L_inv = np.linalg.inv(np.linalg.cholesky(Zt @ Z))
    W = L_inv @ Zt
    # cumulative sums of w_a e and w_a w_j (a < s) up to the last break
    # date, read at the break dates as one slice
    first, end = int(k_grid[0]), int(k_grid[-1])
    C = np.empty((R, s, p + 1, end))
    np.multiply(W[:, :s, :end], e[:, None, :end], out=C[:, :, 0])
    np.multiply(W[:, :s, None, :end], W[:, None, :, :end], out=C[:, :, 1:])
    C = np.cumsum(C, axis=3, out=C)[..., first - 1:]
    S, N = C[:, :, 0], C[:, :, 1:]
    if shift is not None:
        S = S - k_grid * (L_inv @ shift[:, :, None])[:, :s]
    V = N[:, :, :s] - sum(N[:, :, None, j] * N[:, None, :, j] for j in range(p))
    q = np.zeros((R, k_grid.size))
    for a in range(s):  # symmetric elimination of V, one pivot at a time
        q += S[:, a] ** 2 / V[:, a, a]
        f = V[:, a + 1:, a] / V[:, a, a, None]
        S[:, a + 1:] -= f * S[:, a, None]
        V[:, a + 1:, a + 1:] -= f[:, :, None] * V[:, None, a, a + 1:]
    return q


def sup_wald(y, x, trim: tuple[float, float] = (0.15, 0.85)) -> SupWaldResult:
    """Supremum Wald statistic over break fractions in the trim range.

    The whole path, for any number d of regressors, is one pass of
    cumulative moments: W_k = q_k (m - 2d - 1) / (SSR_0 - q_k), with
    SSR_0 from the no-break fit and q_k its drop from a slope break.
    """
    return first_rep(_sup_wald_panel(np.asarray(y, dtype=float)[None],
                                     np.asarray(x, dtype=float)[None], trim),
                     shared=("k_grid",))


def _sup_wald_panel(y, x, trim: tuple[float, float] = (0.15, 0.85)) -> SupWaldResult:
    """`sup_wald` of every rep of (R, n) y and (R, n[, d]) x panels.

    stat, k_star, pi_star and path gain a leading rep axis; k_grid and
    nobs are shared.
    """
    ys, xl = _predictive_pairs(y, x)
    R, m, d = xl.shape
    k_grid = _break_grid(trim, m, d + 1)
    Z = np.concatenate([xl, np.ones((R, m, 1))], axis=2)
    fit = ols(Z, ys)
    check_fit(fit.ssr, ys, "no-break")
    q = _break_scan(Z, fit.resid, k_grid, d)
    # W_k = q_k (m - 2d - 1) / (SSR_0 - q_k), written over q
    ssr_break = fit.ssr[:, None] - q
    path = np.multiply(q, m - 2 * d - 1, out=q)
    path /= ssr_break
    best = np.argmax(path, axis=1)
    return SupWaldResult(stat=path[np.arange(R), best], k_star=k_grid[best],
                         pi_star=k_grid[best] / m, path=path,
                         k_grid=k_grid, nobs=m)


def nbb_sup_mc(p: int = 1, trim: tuple[float, float] = (0.15, 0.85),
               reps: int = 50000, rng: RngSpec | None = None,
               grid: int = 1000) -> QuantileTable:
    """Simulate sup_pi ||BB(pi)||^2 / (pi(1-pi)) over the trimmed range.

    BB is a p-dimensional standard Brownian bridge discretized on the
    uniform grid i / grid, i = 1..grid; this is the null limit of
    `sup_wald`.  The trim range must hold at least one grid point.

    The walks come from one stream in rep order, a `_panel.chunks` at a
    time (`tables._walk_batches`).
    Each batch is scaled in place, and the bridge is formed only on the
    trimmed points, one contiguous slice.
    """
    p = check_positive_int(p, "p")
    reps = check_positive_int(reps, "reps", minimum=_MIN_REPS)
    trim = _check_trim(trim)
    grid = check_positive_int(grid, "grid")
    gen = _resolve_rng(rng if rng is not None else RngSpec(0))
    t = np.arange(1, grid + 1) / grid
    kept = np.flatnonzero((t >= trim[0]) & (t <= trim[1]))
    if kept.size == 0:
        raise ValueError(f"trim {trim} holds no point of the grid i / {grid}, "
                         f"i = 1..{grid}: widen trim or refine grid")
    keep = slice(kept[0], kept[-1] + 1)
    t_keep = t[keep]
    denom = t_keep * (1.0 - t_keep)
    draws = np.empty(reps)
    for lo, w in _walk_batches(gen, reps, (grid, p)):
        w /= np.sqrt(grid)
        # the bridge on the kept points, squared over the same memory
        bb = w[:, keep]
        bb -= t_keep[None, :, None] * w[:, -1:, :]
        norm2 = np.sum(np.square(bb, out=bb), axis=2)
        norm2 /= denom
        np.max(norm2, axis=1, out=draws[lo:lo + w.shape[0]])
    detail = f"sup-normalized-bridge p={p} trim=({trim[0]}, {trim[1]}) grid={grid}"
    return QuantileTable.from_draws(draws, reps, detail)


@dataclass(frozen=True)
class LmResult:
    """Partial-sum LM statistics against random-walk coefficient drift.

    lm tests (intercept, slope) jointly; lm1 isolates the intercept
    (and equals the KPSS level statistic of the residuals); lm2
    isolates the slope.
    """

    lm: float
    lm1: float
    lm2: float
    sigma2: float
    nobs: int


def lm_nyblom(y, x) -> LmResult:
    """Score-based stability statistics for a scalar predictive slope.

    Fits y_t = a + b x_{t-1} + b0 dx_t + e_t (the dx_t term absorbs the
    contemporaneous innovation), then cumulates the scores of
    X_t = (1, x_{t-1})':

        LM  = (m s2)^{-1} sum_j P_j' (sum_t X_t X_t')^{-1} P_j
        LM1 = (m^2 s2)^{-1} sum_j (sum_{t<=j} e_t)^2
        LM2 = (m s2 sum_t x_{t-1}^2)^{-1} sum_j (sum_{t<=j} x_{t-1} e_t)^2

    with P_j = sum_{t<=j} X_t e_t and s2 = m^{-1} sum e_t^2 (an exact fit raises).
    """
    y_arr, x_arr = as_yx(np.asarray(y, dtype=float)[None], np.asarray(x, dtype=float)[None])
    if x_arr.shape[2] != 1:
        raise ValueError("lm_nyblom is defined for a single regressor")
    ys, xlag, dx = y_arr[:, 1:], x_arr[0, :-1, 0], np.diff(x_arr[0, :, 0])
    m = xlag.shape[0]
    Z = np.column_stack([np.ones(m), xlag, dx])
    fit = ols(Z[None], ys)
    check_fit(fit.ssr, ys, "predictive")
    e = fit.resid[0]
    sigma2 = float(np.mean(e**2))

    X = np.column_stack([np.ones(m), xlag])
    P = np.cumsum(X * e[:, None], axis=0)
    XtX_inv = np.linalg.inv(X.T @ X)
    lm = float(np.sum((P @ XtX_inv) * P) / (m * sigma2))
    lm1 = float(np.sum(P[:, 0] ** 2) / (m**2 * sigma2))
    lm2 = float(np.sum(P[:, 1] ** 2) / (m * sigma2 * np.sum(xlag**2)))
    return LmResult(lm=lm, lm1=lm1, lm2=lm2, sigma2=sigma2, nobs=m)


@dataclass(frozen=True)
class MeResult:
    """Rolling-window monitoring statistic path and its maximum."""

    stat: float
    path: np.ndarray
    k_grid: np.ndarray
    window: int
    beta_hist: np.ndarray


def me_monitor(y, x, n_hist: int, h: float = 0.1) -> MeResult:
    """Monitor y_t = x_t'b + u_t for drift after a historical sample.

    The historical sample t = 1..n_hist calibrates the full-sample
    estimate b-hat, the residual scale sigma-hat, and the design moment
    Q = n_hist^{-1} sum x_t x_t'.  For each monitoring time k the
    window estimate b-tilde(k) over t in (k, k + win], win =
    floor(h * n_hist), yields

        ME_k = (win / (sigma-hat sqrt(n_hist)))
               * || Q^{1/2} (b-tilde(k) - b-hat) ||

    and the path runs over k = n_hist .. n - win.  An exact historical
    fit (`_panel.exact_fit`) has no noise scale to standardize by, so
    the path is zero by convention rather than a ratio of rounding
    errors.
    """
    y_arr, x_arr = as_yx(np.asarray(y, dtype=float)[None], np.asarray(x, dtype=float)[None])
    y_arr, x_arr = y_arr[0], x_arr[0]
    n, d = x_arr.shape
    n_hist = check_positive_int(n_hist, "n_hist", minimum=d + 2)
    if not 0 < h <= 1:
        raise ValueError("h must lie in (0, 1]")
    win = int(np.floor(h * n_hist))
    if win < d + 1:
        raise ValueError("window too short to identify the coefficients")
    if n < n_hist + win:
        raise ValueError("no monitoring observations beyond the history")

    yh = y_arr[None, :n_hist]
    fit = ols(x_arr[None, :n_hist], yh)
    Q = fit.gram[0] / n_hist
    beta_hist = fit.coef[0]
    sigma2 = float(fit.ssr[0] / (n_hist - d))
    if exact_fit(fit.ssr, yh)[0]:
        k_grid = np.arange(n_hist, n - win + 1)
        return MeResult(stat=0.0, path=np.zeros(k_grid.size), k_grid=k_grid,
                        window=win, beta_hist=beta_hist)
    sigma = np.sqrt(sigma2)

    evals, evecs = np.linalg.eigh(Q)
    if np.any(evals <= 0):
        raise ValueError("historical design moment is singular")
    Q_half = evecs @ np.diag(np.sqrt(evals)) @ evecs.T

    outer = x_arr[:, :, None] * x_arr[:, None, :]
    cum_xx = np.concatenate([np.zeros((1, d, d)), np.cumsum(outer, axis=0)])
    cum_xy = np.concatenate([np.zeros((1, d)), np.cumsum(x_arr * y_arr[:, None], axis=0)])

    # one window per monitoring time k: the fit over t in (k, k + win]
    k_grid = np.arange(n_hist, n - win + 1)
    beta_win = np.linalg.solve(cum_xx[k_grid + win] - cum_xx[k_grid],
                               (cum_xy[k_grid + win] - cum_xy[k_grid])[:, :, None])
    dev = (Q_half @ (beta_win - beta_hist[:, None]))[:, :, 0]
    scale = win / (sigma * np.sqrt(n_hist))
    path = scale * np.sqrt(rowdot(dev, dev))
    best = int(np.argmax(path))
    return MeResult(stat=float(path[best]), path=path, k_grid=k_grid,
                    window=win, beta_hist=beta_hist)


@dataclass(frozen=True)
class NestedForecastResult:
    """Accumulated out-of-sample loss difference between nested models.

    stat is sum_t (e_small,t^2 - e_big,t^2) / sigma2, positive when the
    larger model forecasts better; path is the running partial sum of
    the normalized differences.  start is the pair index of the first
    forecast actually produced (equal to the requested k0 unless the
    start had to be postponed).
    """

    stat: float
    path: np.ndarray
    errors_small: np.ndarray
    errors_big: np.ndarray
    sigma2: float
    k0: int
    start: int
    nobs: int


def nested_forecast_test(y, x_small, x_extra, k0: int) -> NestedForecastResult:
    """Compare recursive forecasts of y from two nested predictive models.

    Both models regress y_t on an intercept and lagged regressors; the
    small model uses x_small only, the big one appends x_extra.  For
    each t past the training cut k0 (counted in pairs), coefficients
    are re-estimated on all earlier pairs and a one-step forecast error
    recorded.  The loss differences are scaled by the big model's
    full-sample residual variance.

    A k0 too small to identify the nesting model (or an early singular
    design) postpones the start to the first well-conditioned pair
    index, with a warning.
    """
    y_arr = as_series(y, "y", min_len=8)
    xs = as_matrix(x_small, "x_small")
    xe = as_matrix(x_extra, "x_extra")
    if xe.shape[1] == 0:
        raise ValueError("x_extra has no columns, so the nesting model equals the nested one")
    n = y_arr.shape[0]
    if xs.shape[0] != n or xe.shape[0] != n:
        raise ValueError("y, x_small, x_extra must have equal length")

    ys = y_arr[1:]
    z = np.hstack([np.ones((n - 1, 1)), xs[:-1], xe[:-1]])
    m, p_big = z.shape
    p_small = 1 + xs.shape[1]
    k0 = check_positive_int(k0, "k0")
    if k0 >= m:
        raise ValueError(f"k0 must be < {m} pairs, got {k0}")

    # grams[t - 1] and moments[t - 1] sum over the first t pairs
    grams = np.cumsum(z[:, :, None] * z[:, None, :], axis=0)
    moments = np.cumsum(z * ys[:, None], axis=0)
    for start in range(k0, m):
        # postpone until the nesting-model design is invertible
        gram = grams[start - 1]
        if not (start < p_big or collinear(gram) or collinear(gram[:p_small, :p_small])):
            break
    else:
        raise ValueError("no well-conditioned forecast origin before the end")
    if start > k0:
        warnings.warn(f"forecast start postponed from pair {k0} "
                      f"to {start} (singular early design)")

    # full-sample residual variance of the nesting model, whose design
    # is nonsingular once an early one is; an exact fit leaves only
    # roundoff, which is no scale for the losses
    ssr = ols(z[None], ys[None]).ssr
    check_fit(ssr, ys[None], "nesting-model")
    sigma2 = float(ssr[0] / (m - p_big))

    # the forecast of pair t uses the fit on pairs 0..t-1
    g = grams[start - 1:m - 1]
    mom = moments[start - 1:m - 1, :, None]
    b_big = np.linalg.solve(g, mom)[..., 0]
    b_small = np.linalg.solve(g[:, :p_small, :p_small], mom[:, :p_small])[..., 0]
    zf = z[start:]
    e_big = ys[start:] - np.einsum("tp,tp->t", zf, b_big)
    e_small = ys[start:] - np.einsum("tp,tp->t", zf[:, :p_small], b_small)
    diffs = (e_small**2 - e_big**2) / sigma2
    path = np.cumsum(diffs)
    return NestedForecastResult(stat=float(path[-1]), path=path,
                                errors_small=e_small, errors_big=e_big,
                                sigma2=sigma2, k0=k0, start=start, nobs=m)
