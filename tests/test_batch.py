"""Batched Monte Carlo reps against the scalar code they replaced.

ar1-clt, hac-lrv, fixed-wald, fmols-size, phillips-size, ivx-null,
supwald-nbb and nethac-coverage compute each sub-panel of a batch of reps
as one panel (`mc._panel`); garch-recovery, mp-edges and nested-forecast
simulate it as one panel, then fit or solve its reps one at a time.
Every rep's row must be bit-identical to what the scalar rep body gave
before batching, whatever the batch size; only supwald-nbb's sup-Wald
statistic, whose one-pass break scan sums in another order than the
closed form kept here, is compared at roundoff.
The scalar rep bodies, and the scalar estimators and simulators they
called, are kept below as oracles.  Their AR and MA recursions call
`tsnet._filter`, which `tests/test_filter.py` pins against lfilter.

The limit-table simulators `nbb_sup_mc` and `df_limit_mc` draw in
workspace-sized batches; their whole-batch bodies are kept below too,
and the draws must equal theirs bit for bit.
"""

import dataclasses
import importlib
import pkgutil
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special, stats

import tsnet as T
from tsnet import mc
from tsnet._filter import ar, ma
from tsnet._panel import _PANEL_BYTES
from tsnet.unitroot import _LEVEL_COL, _ar_fit

# ---------------------------------------------------------------------------
# scalar oracles: the estimators and simulators as they were before batching


def _column(x):
    x = np.asarray(x, dtype=float)
    return x[:, None] if x.ndim == 1 else x


def ref_hac(x, kernel=None, demean=True):
    x = _column(x)
    n, d = x.shape
    spec = kernel if kernel is not None else T.KernelSpec()
    b = spec.resolve_bandwidth(n)
    if demean:
        x = x - x.mean(axis=0)
    if spec.family == "quadratic-spectral":
        max_lag = min(n - 1, int(np.ceil(40.0 * b)))
    else:
        max_lag = min(n - 1, int(np.floor(b + 1e-12)))
    g = x.T @ x / n
    gamma0 = (g + g.T) / 2.0
    lam = np.zeros((d, d))
    for j in range(1, max_lag + 1):
        w = T.kernel_weight(spec.family, j / b)
        if w == 0.0:
            continue
        lam += w * (x[j:].T @ x[: n - j] / n)
    return gamma0 + (lam + lam.T), lam, gamma0


def ref_fmols(y, x, kernel=None):
    """(beta_plus, se, beta_ols, residuals_ols)."""
    x = _column(x)
    n, d = x.shape
    dx = np.diff(x, axis=0)
    eta = dx - dx.mean(axis=0)
    ys, xs, m = y[1:], x[1:], n - 1
    Z = np.column_stack([np.ones(m), xs])
    ZtZ = Z.T @ Z
    beta_ols = np.linalg.solve(ZtZ, Z.T @ ys)
    eps_ols = ys - Z @ beta_ols
    omega, lam, gamma0 = ref_hac(np.column_stack([eps_ols, eta]), kernel, demean=False)
    delta = gamma0 + lam
    omega_ex = omega[0, 1:]
    solve_xx = np.linalg.solve(omega[1:, 1:], np.eye(d))
    endo = omega_ex @ solve_xx
    y_plus = ys - eta @ endo
    delta_plus = delta[0, 1:] - endo @ delta[1:, 1:]
    correction = np.concatenate([[0.0], delta_plus])
    beta_plus = np.linalg.solve(ZtZ, Z.T @ y_plus - m * correction)
    omega_cond = float(omega[0, 0] - omega_ex @ solve_xx @ omega[1:, 0])
    se = np.sqrt(np.diag(omega_cond * np.linalg.inv(ZtZ)))
    return beta_plus, se, beta_ols, eps_ols


def ref_phillips(x, kernel=None, deterministic="none"):
    """(z_alpha, z_t, alpha_hat, nobs)."""
    y, ylag = x[1:], x[:-1]
    n_t = y.shape[0]
    if deterministic == "const":
        X = np.column_stack([np.ones(n_t), ylag])
    else:
        X = ylag[:, None]
    coeffs = np.linalg.solve(X.T @ X, X.T @ y)
    resid = y - X @ coeffs
    alpha = float(coeffs[-1])
    s2_u = float(resid @ resid) / (n_t - X.shape[1])
    s2_lr = float(ref_hac(resid, kernel, demean=False)[0][0, 0])
    if deterministic == "const":
        s_xx = float(np.sum((ylag - ylag.mean()) ** 2))
    else:
        s_xx = float(np.sum(ylag**2))
    half_diff = 0.5 * (s2_lr - s2_u)
    z_alpha = n_t * (alpha - 1.0) - half_diff / (s_xx / n_t**2)
    s_lr = np.sqrt(s2_lr)
    z_t = (np.sqrt(s_xx) * (alpha - 1.0) / s_lr
           - half_diff * n_t / (s_lr * np.sqrt(s_xx)))
    return z_alpha, float(z_t), alpha, n_t


def ref_ivx(y, x, spec=T.IvxSpec()):
    """(wald, pvalue, beta, cov)."""
    x = _column(x)
    n, d = x.shape
    ys, xlag, m = y[1:], x[:-1], n - 1
    # C order, like the panel's instrument: the Grams below depend on the layout
    zfull = np.ascontiguousarray(ar(np.diff(x, axis=0).T, [spec.rho(n)]).T)
    zins = np.vstack([np.zeros((1, d)), zfull[:m - 1]])
    ys = ys - ys.mean()
    xlag = xlag - xlag.mean(axis=0)
    A = zins.T @ xlag
    beta = np.linalg.solve(A, zins.T @ ys)
    resid = ys - xlag @ beta
    sigma2_u = float(resid @ resid / (m - d))
    A_inv = np.linalg.inv(A)
    meat = (zins.T @ zins) * sigma2_u
    cov = A_inv @ meat @ A_inv.T
    cov = (cov + cov.T) / 2.0
    wald = float(beta @ np.linalg.solve(cov, beta))
    return wald, float(stats.chi2.sf(wald, d)), beta, cov


def ref_wald_at_k(ys, xl, k):
    m, d = xl.shape
    y_c = ys - ys.mean()
    ind1 = np.zeros(m)
    ind1[:k] = 1.0
    X1 = xl * ind1[:, None]
    X2 = xl * (1.0 - ind1)[:, None]
    X = np.column_stack([X1 - X1.mean(axis=0), X2 - X2.mean(axis=0)])
    G = X.T @ X
    theta = np.linalg.solve(G, X.T @ y_c)
    resid = y_c - X @ theta
    sigma2 = float(resid @ resid / (m - 2 * d - 1))
    diff = theta[:d] - theta[d:]
    G_inv = np.linalg.inv(G)
    R_cov = G_inv[:d, :d] + G_inv[d:, d:] - G_inv[:d, d:] - G_inv[d:, :d]
    return float(diff @ np.linalg.solve(sigma2 * R_cov, diff))


def ref_split_wald(y, x, pi0):
    xl = _column(x)[:-1]
    return ref_wald_at_k(y[1:], xl, int(np.floor(pi0 * xl.shape[0])))


def ref_sup_wald(y, x, trim=(0.15, 0.85)):
    """(stat, pi_star)."""
    ys, xl = y[1:], _column(x)[:-1]
    m, d = xl.shape
    lo = max(int(np.ceil(trim[0] * m)), d + 1)
    hi = min(int(np.floor(trim[1] * m)), m - d - 1)
    k_grid = np.arange(lo, hi + 1)
    if d == 1:
        x1 = xl[:, 0]
        y_c = ys - ys.mean()
        cx = np.cumsum(x1)[k_grid - 1]
        cxx = np.cumsum(x1 * x1)[k_grid - 1]
        cxy = np.cumsum(x1 * y_c)[k_grid - 1]
        tx, txx, txy = x1.sum(), (x1 * x1).sum(), (x1 * y_c).sum()
        syy = float(y_c @ y_c)
        g11 = cxx - cx**2 / m
        g22 = (txx - cxx) - (tx - cx) ** 2 / m
        g12 = -cx * (tx - cx) / m
        det = g11 * g22 - g12**2
        g1, g2 = cxy, txy - cxy
        beta1 = (g22 * g1 - g12 * g2) / det
        beta2 = (g11 * g2 - g12 * g1) / det
        sigma2 = (syy - (beta1 * g1 + beta2 * g2)) / (m - 3)
        r_cov = (g11 + g22 + 2.0 * g12) / det
        path = (beta1 - beta2) ** 2 / (sigma2 * r_cov)
    else:
        path = np.array([ref_wald_at_k(ys, xl, int(k)) for k in k_grid])
    best = int(np.argmax(path))
    return float(path[best]), float(k_grid[best] / m)


def ref_lur_ar(spec, n, gen, x0):
    v = gen.standard_normal(n)
    rho = spec.rho(n)
    return ar(v, [rho], rho * x0)


def ref_linear_process(spec, n, gen):
    q = len(spec.coeffs) - 1
    return ma(gen.standard_normal(n + q) * spec.sigma, spec.coeffs)


def ref_graph_ma(shells, weights, gen):
    eps = gen.standard_normal(shells.n)
    return sum(w * (shells.matrix(s) @ eps) for s, w in enumerate(weights))


def ref_system(spec, n, gen):
    d = spec.dim
    sig = np.eye(d + 1) if spec.sigma_ue is None else np.asarray(spec.sigma_ue)
    shocks = gen.standard_normal((n, d + 1)) @ np.linalg.cholesky(sig).T
    u, e = shocks[:, 0], shocks[:, 1:]
    x = np.empty((n, d))
    for i, lur in enumerate(spec.lur):
        x[:, i] = ar(e[:, i], [lur.rho(n)])
    xlag = np.vstack([np.zeros(d), x[:-1]])
    return spec.intercept + xlag @ np.asarray(spec.beta) + u, x


# ---------------------------------------------------------------------------
# the scalar rep bodies of the batched experiments


def _gen(cfg, r):
    return T.RngSpec(cfg.seed, cfg.stream).substream(r).generator()


def _kernel(cfg):
    return T.KernelSpec(family=cfg.params["family"],
                        bandwidth=cfg.params["bandwidth"])


def rep_ar1_clt(cfg, r):
    n = cfg.params["n"]
    rho = cfg.params["rho"]
    gen = _gen(cfg, r)
    x0 = float(gen.standard_normal()) / np.sqrt(1.0 - rho**2)
    x = ref_lur_ar(T.LurSpec(c=(rho - 1.0) * n, gamma=1.0), n, gen, x0)
    rho_hat = float(x[1:] @ x[:-1]) / float(x[:-1] @ x[:-1])
    return (rho_hat, np.sqrt(n) * (rho_hat - rho))


def rep_hac_lrv(cfg, r):
    n = cfg.params["n"]
    x = mc._stationary_ar1(_gen(cfg, r).standard_normal((1, n + 1)), cfg.params["phi"])[0]
    est = T.hac_lrv(x, kernel=_kernel(cfg))
    return (est.scalar, est.bandwidth)


def rep_fixed_wald(cfg, r):
    n = cfg.params["n"]
    pi0 = cfg.params["pi0"]
    phi = cfg.params["phi_x"]
    beta = cfg.params["beta"]
    gen = _gen(cfg, r)
    x0 = float(gen.standard_normal()) / np.sqrt(1.0 - phi**2)
    x = ref_lur_ar(T.LurSpec(c=(phi - 1.0) * n, gamma=1.0), n, gen, x0)
    u = gen.standard_normal(n - 1)
    y = np.concatenate([[0.0], 1.0 + beta * x[:-1] + u])
    return (ref_split_wald(y, x, pi0),)


def rep_fmols(cfg, r):
    n = cfg.params["n"]
    corr = cfg.params["corr"]
    beta = cfg.params["beta"]
    intercept = cfg.params["intercept"]
    gen = _gen(cfg, r)
    chol = np.linalg.cholesky(np.array([[1.0, corr], [corr, 1.0]]))
    shocks = gen.standard_normal((n, 2)) @ chol.T
    x = np.cumsum(shocks[:, 1])
    y = intercept + beta * x + shocks[:, 0]
    beta_plus, se, beta_ols, resid_ols = ref_fmols(y, x)
    nobs = n - 1
    t_plus = (beta_plus[1] - beta) / se[1]
    z = np.hstack([np.ones((nobs, 1)), x[-nobs:, None]])
    zz_inv = np.linalg.inv(z.T @ z)
    s2 = float(resid_ols @ resid_ols / (nobs - 2))
    t_ols = (beta_ols[1] - beta) / np.sqrt(s2 * zz_inv[1, 1])
    return (float(t_plus), float(t_ols))


def rep_phillips(cfg, r):
    n = cfg.params["n"]
    theta = cfg.params["theta"]
    det = cfg.params["deterministic"]
    u = ref_linear_process(T.LinearProcessSpec((1.0, theta)), n, _gen(cfg, r))
    z_alpha, z_t, alpha, nobs = ref_phillips(np.cumsum(u), _kernel(cfg), det)
    return (z_alpha, z_t, nobs * (alpha - 1.0))


def rep_ivx(cfg, r):
    n = cfg.params["n"]
    corr = cfg.params["corr"]
    spec = T.SystemSpec(beta=(cfg.params["beta"],),
                        lur=(T.LurSpec(c=cfg.params["c"],
                                       gamma=cfg.params["gamma"]),),
                        intercept=cfg.params["intercept"],
                        sigma_ue=((1.0, corr), (corr, 1.0)))
    y, x = ref_system(spec, n, _gen(cfg, r))
    ivx = T.IvxSpec(c_z=cfg.params["c_z"],
                    beta_z=cfg.params["beta_z"])
    wald, pvalue, beta, _ = ref_ivx(y, x, spec=ivx)
    return (wald, pvalue, float(beta[0]))


def rep_supwald(cfg, r):
    n = cfg.params["n"]
    trim = cfg.params["trim"]
    corr = cfg.params["corr"]
    spec = T.SystemSpec(beta=(cfg.params["beta"],),
                        lur=(T.LurSpec(c=cfg.params["c"],
                                       gamma=cfg.params["gamma"]),),
                        intercept=cfg.params["intercept"],
                        sigma_ue=((1.0, corr), (corr, 1.0)))
    y, x = ref_system(spec, n, _gen(cfg, r))
    return ref_sup_wald(y, x, trim=(float(trim[0]), float(trim[1])))


def rep_nethac(cfg, r):
    ctx = mc.EXPERIMENTS["nethac-coverage"].setup(cfg)
    shells = ctx["shells"]
    n = shells.n
    y = ref_graph_ma(shells, (1.0, cfg.params["w1"]), _gen(cfg, r))
    ybar = float(y.mean())
    v_full, v_low = (float(T.network_hac(shells, y, kernel=k)[0, 0])
                     for k in ctx["kernels"])
    crit = ctx["crit"]
    cover_full = abs(ybar) <= crit * np.sqrt(max(v_full, 0.0) / n)
    cover_low = abs(ybar) <= crit * np.sqrt(max(v_low, 0.0) / n)
    return (ybar, v_full, v_low, int(cover_full), int(cover_low))


def rep_garch(cfg, r):
    p = cfg.params
    spec = T.GarchSpec(omega=p["omega"], alpha=p["alpha"], beta=p["beta"])
    y, _ = T.simulate_garch(spec, p["n"], _gen(cfg, r), burn=p["burn"])
    fit = T.garch_qmle(y)
    err = np.array([fit.spec.omega - spec.omega, fit.spec.alpha - spec.alpha,
                    fit.spec.beta - spec.beta])
    return (fit.spec.omega, fit.spec.alpha, fit.spec.beta,
            float(np.max(np.abs(err))), float(fit.sigma2.mean()),
            int(fit.converged))


def rep_mp(cfg, r):
    # the spectrum as numpy's eigvalsh gave it, from a copy of S
    n = cfg.params["n"]
    x = _gen(cfg, r).standard_normal((round(cfg.params["gamma"] * n), n))
    s = x @ x.T
    s /= n
    eig = np.linalg.eigvalsh(s)
    return (float(eig[0]), float(eig[-1]), abs(float(np.sum(eig)) - float(np.trace(s))))


def rep_nested(cfg, r):
    p = cfg.params
    n, q = p["n"], p["n_small"]
    spec = T.SystemSpec(beta=p["beta"], lur=tuple(T.LurSpec(c=c, gamma=1.0) for c in p["c"]),
                        intercept=p["intercept"], v_ar=p["v_ar"])
    y, x = T.simulate_predictive_system(spec, n, _gen(cfg, r))
    k0 = n // 4 if p["k0"] is None else p["k0"]
    res = T.nested_forecast_test(y, x[:, :q], x[:, q:], k0=k0)
    return (res.stat, int(res.stat > 0))


SCALAR_REPS = {
    "ar1-clt": rep_ar1_clt,
    "hac-lrv": rep_hac_lrv,
    "fixed-wald": rep_fixed_wald,
    "fmols-size": rep_fmols,
    "phillips-size": rep_phillips,
    "ivx-null": rep_ivx,
    "supwald-nbb": rep_supwald,
    "nethac-coverage": rep_nethac,
    "garch-recovery": rep_garch,
    "mp-edges": rep_mp,
    "nested-forecast": rep_nested,
}

# criterion 12 sizes and seeds, then one non-default setting each (the
# experiments have one regressor and fmols-size its default kernel; the
# kernel tests below cover d = 2 and other kernels)
CASES = [
    ("fixed-wald", 107, {"n": 120}),
    ("fixed-wald", 107, {"n": 120, "pi0": 0.3, "phi_x": 0.9}),
    ("fmols-size", 104, {"n": 150}),
    ("fmols-size", 104, {"n": 150, "corr": 0.3, "intercept": -2.0}),
    ("phillips-size", 103, {"n": 120, "cv_reps": 500}),
    ("phillips-size", 103, {"n": 120, "cv_reps": 500, "deterministic": "const"}),
    ("ivx-null", 105, {"n": 150}),
    ("ivx-null", 105, {"n": 150, "c": -20.0, "gamma": 0.6, "c_z": -5.0}),
    ("supwald-nbb", 106, {"n": 150, "nbb_reps": 200, "nbb_grid": 100}),
    ("supwald-nbb", 106, {"n": 150, "nbb_reps": 200, "nbb_grid": 100,
                          "trim": (0.3, 0.6)}),
    ("nethac-coverage", 108, {"n_nodes": 30}),
    ("nethac-coverage", 108, {"n_nodes": 120, "w1": 0.3, "family": "parzen",
                              "bandwidth": 4.5, "low_bandwidth": 1.5}),
    ("ar1-clt", 101, {"n": 200}),
    ("ar1-clt", 101, {"n": 333, "rho": -0.3}),
    # n = 40 000: one-rep sub-panels, drawn in blocks of six reps
    ("hac-lrv", 102, {"n": 2000}),
    ("hac-lrv", 102, {"n": 40000, "phi": -0.4, "family": "parzen", "bandwidth": 7.5}),
    ("garch-recovery", 110, {"n": 300}),
    ("garch-recovery", 110, {"n": 200, "alpha": 0.3, "beta": 0.4, "burn": 0}),
    # n = 333: one-rep sub-panels of 200 x 333 normals, drawn in blocks of three reps
    ("mp-edges", 111, {"n": 200}),
    ("mp-edges", 111, {"n": 333, "gamma": 0.6}),
    ("nested-forecast", 112, {"n": 150}),
    ("nested-forecast", 112, {"n": 90, "n_small": 0, "k0": 20}),
]


@pytest.mark.parametrize("name,seed,params", CASES)
def test_batched_rows_equal_scalar_rep_bodies(name, seed, params):
    # 70 reps: one full 64-rep batch and a short one
    cfg = mc.ExperimentConfig(experiment=name, reps=70, seed=seed,
                              params=dict(params))
    res = mc.run_experiment(cfg)
    want = np.array([SCALAR_REPS[name](res.config, r) for r in range(cfg.reps)],
                    dtype=float)
    assert res.draws.shape == want.shape
    got = res.draws
    if name == "supwald-nbb":
        # the one-pass break scan sums in another order than the closed form
        np.testing.assert_allclose(got[:, 0], want[:, 0], rtol=1e-12, atol=0)
        got, want = got[:, 1:], want[:, 1:]
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("name,seed,params", CASES[::2])
def test_rows_do_not_depend_on_batch_size(name, seed, params):
    cfg = mc.ExperimentConfig(experiment=name, reps=70, seed=seed,
                              params=dict(params))
    cfg = mc.resolve(cfg)
    exp = mc.EXPERIMENTS[name]
    ctx = exp.setup(cfg)
    rows = []
    for size in (1, 7, 64):
        blocks = [exp.rep(cfg, ctx, range(lo, min(lo + size, cfg.reps)))
                  for lo in range(0, cfg.reps, size)]
        rows.append(np.concatenate(blocks).tobytes())
    assert rows[0] == rows[1] == rows[2]


@pytest.mark.parametrize("shape,sizes", [
    ((2000, 2), [8] * 8),            # supwald-nbb at n = 2000
    ((5001,), [6] * 8 + [4, 6, 6]),  # ar1-clt at n = 5000: blocks of 52 reps
    ((100001,), [1] * 5),            # hac-lrv at n = 100 000
], ids=["supwald-nbb", "ar1-clt", "hac-lrv"])
def test_panel_cuts_a_batch_into_subpanels_by_bytes(shape, sizes):
    seen = []

    def hook(cfg, ctx, z):
        seen.append(z.copy())
        return z.reshape(len(z), -1)[:, :2] * 1.0

    cfg = mc.ExperimentConfig(experiment="ar1-clt", seed=5, stream=9)
    rs = range(3, 3 + sum(sizes))
    rows = mc._panel(lambda p: shape, hook)(cfg, {}, rs)
    assert [len(z) for z in seen] == sizes
    z = np.concatenate(seen)
    for i, r in enumerate(rs):
        want = T.RngSpec(5, 9 + r).generator().standard_normal(shape)
        assert z[i].tobytes() == want.tobytes()
    # each sub-panel's rows are kept, though later blocks reuse the buffer
    assert rows.tobytes() == z.reshape(len(z), -1)[:, :2].tobytes()


# ---------------------------------------------------------------------------
# the statistics on a panel of reps and on one rep, beyond the
# experiments' settings


def _system_panel(R, n, d, seed):
    spec = T.SystemSpec(beta=(0.2,) * d,
                        lur=tuple(T.LurSpec(c=c) for c in (-5.0, -20.0, 0.0)[:d]),
                        intercept=0.5, v_ar=(0.3,) * d)
    pairs = [T.simulate_predictive_system(spec, n, T.RngSpec(seed, r)) for r in range(R)]
    return np.array([p[0] for p in pairs]), np.array([p[1] for p in pairs])


@pytest.mark.parametrize("d", [1, 2, 3])
def test_wald_kernels_match_scalar_oracles(d):
    Y, X = _system_panel(9, 160, d, seed=40 + d)
    split = T.split_wald(Y, X, pi0=0.4)
    sup = T.sup_wald(Y, X, trim=(0.2, 0.8))
    for r in range(9):
        want = ref_split_wald(Y[r], X[r], 0.4)
        assert split.stat[r] == want
        assert T.split_wald(Y[r], X[r], pi0=0.4).stat == want
        # the one-pass scan sums in another order than the oracle's paths
        stat, pi_star = ref_sup_wald(Y[r], X[r], trim=(0.2, 0.8))
        assert sup.stat[r] == pytest.approx(stat, rel=1e-8)
        assert sup.pi_star[r] == pi_star
        one = T.sup_wald(Y[r], X[r], trim=(0.2, 0.8))
        assert one.path.tobytes() == sup.path[r].tobytes()
        assert (one.stat, one.pi_star) == (sup.stat[r], sup.pi_star[r])
        assert one.k_grid.shape == one.path.shape


@pytest.mark.parametrize("d", [1, 2])
def test_ivx_kernel_matches_scalar_oracle(d):
    Y, X = _system_panel(9, 160, d, seed=50 + d)
    res = T.ivx_estimate(Y, X)
    for r in range(9):
        wald, pvalue, beta, cov = ref_ivx(Y[r], X[r])
        assert (res.wald[r], res.pvalue[r]) == (wald, pvalue)
        assert np.array_equal(res.beta[r], beta)
        assert np.array_equal(res.cov[r], cov)
        one = T.ivx_estimate(Y[r], X[r])
        assert (one.wald, one.pvalue) == (wald, pvalue)
        assert np.array_equal(one.beta, beta) and np.array_equal(one.cov, cov)


@pytest.mark.parametrize("d,kernel", [(1, None), (1, T.KernelSpec("parzen")),
                                      (2, T.KernelSpec("quadratic-spectral", 2.5))])
def test_fmols_kernel_matches_scalar_oracle(d, kernel):
    Y, X = _system_panel(9, 160, d, seed=60 + d)
    X = np.cumsum(X, axis=1)  # integrated regressors
    res = T.fmols(Y, X, kernel)
    for r in range(9):
        want = ref_fmols(Y[r], X[r], kernel)
        got = (res.beta_plus[r], res.se[r], res.beta_ols[r], res.residuals_ols[r])
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
        one = T.fmols(Y[r], X[r], kernel)
        assert np.array_equal(one.beta_plus, want[0])
        assert np.array_equal(one.se, want[1])


@pytest.mark.parametrize("det", ["none", "const"])
def test_phillips_kernel_matches_scalar_oracle(det):
    Y, _ = _system_panel(9, 160, 1, seed=70)
    Y = np.cumsum(Y, axis=1)
    kernel = T.KernelSpec("bartlett", 6.0)
    res = T.phillips_z(Y, kernel, det)
    for r in range(9):
        z_alpha, z_t, alpha, _ = ref_phillips(Y[r], kernel, det)
        assert (res.stat_coef[r], res.stat_t[r], res.alpha_hat[r]) == (z_alpha, z_t, alpha)
        one = T.phillips_z(Y[r], kernel, det)
        assert (one.stat_coef, one.stat_t, one.alpha_hat) == (z_alpha, z_t, alpha)


@pytest.mark.parametrize("family", T.KERNEL_FAMILIES)
def test_hac_kernel_matches_scalar_oracle(family):
    X = np.random.default_rng(3).standard_normal((7, 300, 2)).cumsum(axis=1) * 0.1
    kernel = T.KernelSpec(family, 5.5)
    res = T.hac_lrv(X, kernel)
    for r in range(7):
        omega, lam, gamma0 = ref_hac(X[r], kernel)
        assert np.array_equal(res.omega[r], omega)
        assert np.array_equal(res.lam[r], lam)
        assert np.array_equal(res.gamma0[r], gamma0)


def test_panel_checks_apply_to_every_rep():
    Y, X = _system_panel(4, 60, 1, seed=80)
    # x holds y's reps, neither one for all of them nor one series
    for x in (X[:1], X[0, :, 0]):
        for fn in (T.split_wald, T.sup_wald, T.fmols, T.ivx_estimate):
            with pytest.raises(ValueError, match="y holds 4 reps, so x must too"):
                fn(Y, x)
    Y[2, 7] = np.nan
    with pytest.raises(ValueError, match="y contains non-finite values"):
        T.split_wald(Y, X, pi0=0.5)
    with pytest.raises(ValueError, match="regime too small"):
        T.split_wald(X[:, :, 0], X, k=1)
    with pytest.raises(ValueError, match="trim"):
        T.sup_wald(X[:, :, 0], X, trim=(0.5, 0.4))
    with pytest.raises(ValueError, match="needs at least 8"):
        T.fmols(Y[:, :5], X[:, :5])
    # one degenerate rep stops the whole panel, as it stopped the run
    walks = np.cumsum(np.random.default_rng(5).standard_normal((3, 40)), axis=1)
    walks[1] = 1.0
    with pytest.raises(ValueError, match="numerically zero"):
        T.phillips_z(walks)
    # an exact fit in one rep stops the FM-OLS and IVX panels too
    Y, X = _system_panel(4, 60, 1, seed=81)
    Y[2] = 1.0 + 0.5 * X[2, :, 0]
    with pytest.raises(ValueError, match="cointegrating fit are numerically zero"):
        T.fmols(Y, X)
    Y[2, 1:] = 1.0 + 0.5 * X[2, :-1, 0]
    with pytest.raises(ValueError, match="IVX fit are numerically zero"):
        T.ivx_estimate(Y, X)


def _rank_cases(reps=3, seed=95):
    """name -> (call, panel inputs, the argument a too-deep input is named by),
    on panels of `reps` reps."""
    gen = np.random.default_rng(seed)
    y = gen.standard_normal((reps, 80))
    x = gen.standard_normal((reps, 80, 2))
    walks = np.cumsum(y, axis=1)
    graph = T.cycle_graph(80)
    return {
        "split_wald": (lambda y, x: T.split_wald(y, x, pi0=0.4), (y, x), "y"),
        "sup_wald": (lambda y, x: T.sup_wald(y, x, trim=(0.2, 0.8)), (y, x), "y"),
        "fmols": (T.fmols, (y, np.cumsum(x, axis=1)), "y"),
        "ivx_estimate": (T.ivx_estimate, (y, x), "y"),
        "phillips_z": (lambda ts: T.phillips_z(ts, deterministic="const"), (walks,), "ts"),
        "hac_lrv": (T.hac_lrv, (x,), "ms"),
        "ivx_instrument": (T.ivx_instrument, (np.cumsum(x, axis=1),), "x"),
        "network_hac": (lambda y: T.network_hac(graph, y, T.KernelSpec("bartlett", 3.0)), (x,),
                        "y"),
    }


_SHARED = {"k", "pi", "k_grid", "nobs", "rho_nz", "bandwidth", "family"}


def _check_each_rep(call, panel):
    """Each rep of call(*panel) equals the one-rep call on that rep's inputs."""
    res = call(*panel)
    for r in range(len(panel[0])):
        one = call(*(a[r] for a in panel))
        if isinstance(one, np.ndarray):
            assert res[r].tobytes() == one.tobytes()
            continue
        for f in dataclasses.fields(one):
            got, want = getattr(res, f.name), getattr(one, f.name)
            if f.name in _SHARED:
                assert np.array_equal(got, want)
            else:
                assert np.asarray(got[r]).tobytes() == np.asarray(want).tobytes(), f.name


@pytest.mark.parametrize("name", sorted(_rank_cases()))
def test_one_rank_rule_one_rep_or_a_panel(name):
    call, panel, arg = _rank_cases()[name]
    _check_each_rep(call, panel)
    # one axis deeper than a panel is no input
    with pytest.raises(ValueError, match=f"^{arg} must be"):
        call(*(a[None] for a in panel))


@settings(derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(_rank_cases())), reps=st.integers(1, 9),
       seed=st.integers(0, 2**64 - 1))
def test_each_statistic_rep_equals_its_one_rep_call(name, reps, seed):
    call, panel, _ = _rank_cases(reps, seed)[name]
    _check_each_rep(call, panel)


def _one_rep_cases():
    """name -> (call, inputs) of statistics that take one rep only."""
    gen = np.random.default_rng(97)
    y, x = gen.standard_normal(80), gen.standard_normal(80)
    return {"adf_test": (T.adf_test, (np.cumsum(y),)), "lm_nyblom": (T.lm_nyblom, (y, x))}


@pytest.mark.parametrize("name", ["ivx_estimate", "split_wald", "sup_wald", "network_hac",
                                  "phillips_z", "adf_test", "lm_nyblom"])
def test_finite_data_never_give_a_non_finite_result(name):
    call, inputs = {**_rank_cases(), **_one_rep_cases()}[name][:2]
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=f"^{name}: the result is not finite"):
            call(*(1e160 * a for a in inputs))


def _simulator_cases():
    """name -> (simulator of rng, the shape of one rep's normals)."""
    graph = T.cycle_graph(12)
    system = T.SystemSpec(beta=(0.3, -0.2), lur=(T.LurSpec(-5.0), T.LurSpec(2.0, 0.7)),
                          intercept=0.5, v_ar=(0.3, -0.2),
                          sigma_ue=((1.0, 0.4, 0.2), (0.4, 1.0, 0.1), (0.2, 0.1, 1.0)))
    return {
        "simulate_lur_ar": (lambda rng: T.simulate_lur_ar(T.LurSpec(-3.0, 0.8), 40, rng, x0=1.5),
                            (40,)),
        "simulate_linear_process": (lambda rng: T.simulate_linear_process(
            T.LinearProcessSpec((1.0, 0.5, -0.3), 2.0), 40, rng), (42,)),
        "simulate_predictive_system": (lambda rng: T.simulate_predictive_system(system, 40, rng),
                                       (40, 3)),
        "simulate_graph_ma": (lambda rng: T.simulate_graph_ma(graph, (1.0, 0.4, 0.1), rng), (12,)),
        "simulate_garch": (lambda rng: T.simulate_garch(T.GarchSpec(0.1, 0.2, 0.7, mu=0.5), 40,
                                                        rng, burn=10), (50,)),
        "sample_cov_spectrum": (lambda rng: T.sample_cov_spectrum(30, 12, rng), (12, 30)),
    }


def _parts(out):
    if isinstance(out, T.SpectrumResult):
        return out.eigenvalues, out.trace_gram
    return out if isinstance(out, tuple) else (out,)


@pytest.mark.parametrize("name", sorted(_simulator_cases()))
def test_each_simulator_takes_one_rep_or_a_panel_of_draws(name):
    call, shape = _simulator_cases()[name]
    z = T.RngSpec(96, 1).generator().standard_normal((3, *shape))
    panel = _parts(call(z))
    for r in range(3):
        one = _parts(call(z[r]))
        assert [p[r].tobytes() for p in panel] == [p.tobytes() for p in one]
    # the normals an RngSpec draws give what it gives
    drawn = _parts(call(T.RngSpec(96, 2)))
    given = _parts(call(T.RngSpec(96, 2).generator().standard_normal(shape)))
    assert [p.tobytes() for p in drawn] == [p.tobytes() for p in given]
    # one axis deeper than a panel, or one rep of another shape, is no input
    for bad in (z[None], z[:, 1:], np.zeros(shape[:-1] + (shape[-1] + 1,))):
        with pytest.raises(ValueError, match=r"^rng must be normals of shape"):
            call(bad)
    z[1, 0] = np.nan
    with pytest.raises(ValueError, match="^rng contains non-finite values$"):
        call(z)


@settings(derandomize=True, database=None, deadline=None)
@given(name=st.sampled_from(sorted(_simulator_cases())), reps=st.integers(1, 9),
       seed=st.integers(0, 2**64 - 1))
def test_each_panel_row_equals_its_one_rep_call(name, reps, seed):
    call, shape = _simulator_cases()[name]
    z = T.RngSpec(seed).generator().standard_normal((reps, *shape))
    panel = _parts(call(z))
    for r in range(reps):
        assert [p[r].tobytes() for p in panel] == [p.tobytes() for p in _parts(call(z[r]))]


def test_lur_ar_takes_one_start_per_rep():
    spec, v = T.LurSpec(-3.0, 0.8), T.RngSpec(96, 3).generator().standard_normal((3, 40))
    x0 = np.array([0.5, -2.0, 7.0])
    paths = T.simulate_lur_ar(spec, 40, v, x0=x0)
    for r in range(3):
        assert paths[r].tobytes() == T.simulate_lur_ar(spec, 40, v[r], x0=x0[r]).tobytes()
    with pytest.raises(ValueError, match=r"^x0 must be one start or one per rep, got shape "
                                         r"\(2,\)$"):
        T.simulate_lur_ar(spec, 40, v, x0=x0[:2])
    with pytest.raises(ValueError, match=r"^x0 must be finite, got \[0.5, nan, 7.0\]$"):
        T.simulate_lur_ar(spec, 40, v, x0=np.array([0.5, np.nan, 7.0]))


def test_no_module_keeps_a_panel_twin():
    # a vectorized path replaces the scalar one: no `_<core>_panel` beside a
    # public function, in any module (`mc._panel`, the batch adapter, has no core)
    twins = [f"{info.name}.{attr}" for info in pkgutil.iter_modules(T.__path__)
             for attr in vars(importlib.import_module(f"tsnet.{info.name}"))
             if re.fullmatch(r"_\w+_panel", attr)]
    assert twins == []


def test_phillips_panel_warns_once_per_nonpositive_lrv_rep():
    noise = 0.2 * np.random.default_rng(0).standard_normal(60)
    bad = np.tile([1.0, 0.0, -1.0], 20) + noise
    good = np.cumsum(noise)
    kernel = T.KernelSpec("truncated", 2.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = T.phillips_z(np.array([bad, good, bad]), kernel)
    assert len(caught) == 2
    assert all("nonpositive long-run variance" in str(w.message) for w in caught)
    assert np.isnan(res.stat_t[[0, 2]]).all() and np.isfinite(res.stat_t[1])
    assert res.stat_t[1] == T.phillips_z(good, kernel).stat_t


def test_chdtrc_matches_chi2_sf():
    x = np.linspace(0.0, 30.0, 3001)
    for d in (1, 2, 3):
        assert np.array_equal(special.chdtrc(d, x), stats.chi2.sf(x, d))


# ---------------------------------------------------------------------------
# the limit-table simulators against their whole-batch bodies


def ref_nbb_sup_draws(p, trim, reps, rng, grid):
    """`nbb_sup_mc`'s draws, every bridge in one batch."""
    gen = rng.generator()
    t = np.arange(1, grid + 1) / grid
    keep = (t >= trim[0]) & (t <= trim[1])
    denom = t[keep] * (1.0 - t[keep])
    w = np.cumsum(gen.standard_normal((reps, grid, p)), axis=1) / np.sqrt(grid)
    bb = w - t[None, :, None] * w[:, -1:, :]
    return np.max(np.sum(bb[:, keep, :] ** 2, axis=2) / denom[None, :], axis=1)


def ref_df_limit_draws(T_len, deterministic, reps, rng):
    """`df_limit_mc`'s (coef, t) draws, every walk in one batch."""
    walks = np.cumsum(rng.generator().standard_normal((reps, T_len)), axis=1)
    fit, dof = _ar_fit(walks, deterministic)
    k = _LEVEL_COL[deterministic]
    alpha = fit.coef[:, k]
    se = np.sqrt(fit.ssr / dof * fit.gram_inv[:, k, k])
    return (T_len - 1) * (alpha - 1.0), (alpha - 1.0) / se


def _spans_batches(row_floats, reps):
    """Whether `reps` rows of `row_floats` floats fill two or more whole
    `_panel.chunks` and a partial last one."""
    batches = reps / (_PANEL_BYTES // (8 * row_floats))
    return batches > 2 and batches % 1 > 0


# reps cover two or more full batches and a partial last one at each grid
@pytest.mark.parametrize("p", [1, 2, 3])
@pytest.mark.parametrize("trim", [(0.15, 0.85), (0.05, 0.95), (0.3, 0.7)])
@pytest.mark.parametrize("grid,reps", [(100, {1: 1400, 2: 700, 3: 500}),
                                       (333, {1: 450, 2: 230, 3: 150})])
def test_nbb_sup_draws_equal_the_whole_batch(p, trim, grid, reps):
    reps = reps[p]
    assert _spans_batches(grid * p, reps)
    rng = T.RngSpec(90 + p, grid)
    table = T.nbb_sup_mc(p=p, trim=trim, reps=reps, rng=rng, grid=grid)
    want = ref_nbb_sup_draws(p, trim, reps, rng, grid)
    assert np.array_equal(table, np.sort(want))


@pytest.mark.parametrize("deterministic", ["none", "const", "trend"])
@pytest.mark.parametrize("T_len,reps", [(200, 700), (1000, 150)])
def test_df_limit_draws_equal_the_whole_batch(deterministic, T_len, reps):
    assert _spans_batches(T_len, reps)
    rng = T.RngSpec(95, T_len)
    got = T.df_limit_mc(T_len, deterministic=deterministic, reps=reps, rng=rng)
    coef, t = ref_df_limit_draws(T_len, deterministic, reps, rng)
    assert np.array_equal(got.coef, np.sort(coef))
    assert np.array_equal(got.t, np.sort(t))


def _peak_bytes(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("simulate", [
    lambda reps: T.nbb_sup_mc(p=1, reps=reps, grid=1000, rng=T.RngSpec(96)),
    lambda reps: T.df_limit_mc(1000, reps=reps, rng=T.RngSpec(97)),
    lambda reps: T.df_limit_mc(1000, deterministic="trend", reps=reps, rng=T.RngSpec(97)),
], ids=["nbb_sup_mc", "df_limit_mc", "df_limit_mc-trend"])
def test_limit_simulator_peak_memory_does_not_grow_with_reps(simulate):
    simulate(100)  # warm up
    small, large = (_peak_bytes(lambda: simulate(reps)) for reps in (500, 5000))
    # the workspace and a few copies of it for the fit; one 5000-rep batch
    # of 1000-point walks alone takes 40 MB
    assert large <= 5e6, large / 1e6
    # beyond it only the draws grow: two (reps,) arrays and their sorted copies
    assert large - small <= 32 * 4500, (small, large)


def test_supwald_batch_peak_memory():
    cfg = mc.resolve(mc.ExperimentConfig(experiment="supwald-nbb", reps=128, seed=106,
                                         params={"n": 2000, "c": -20.0}))
    rep = mc.EXPERIMENTS["supwald-nbb"].rep
    rep(cfg, {}, range(64))  # warm up
    peak = _peak_bytes(lambda: rep(cfg, {}, range(64, 128)))
    # the (64, 2000, 2) normals the batch draws take 2 MB, and one 8-rep
    # sub-panel's simulation and scan about 1.6 MB; 12.4 MB as one panel
    assert peak <= 5e6, peak / 1e6


def test_hac_lrv_batch_peak_memory():
    cfg = mc.resolve(mc.ExperimentConfig(experiment="hac-lrv", reps=128, seed=102))
    rep = mc.EXPERIMENTS["hac-lrv"].rep
    rep(cfg, {}, range(2))  # warm up
    peak = _peak_bytes(lambda: rep(cfg, {}, range(64, 128)))
    # two-rep blocks of n = 100 000 normals take 1.6 MB, and one rep's
    # path and HAC about 2.4 MB; the batch's normals at once take 51 MB
    assert peak <= 5e6, peak / 1e6


def test_mp_edges_batch_holds_x_and_s_alone():
    n, p = 2000, 500
    cfg = mc.resolve(mc.ExperimentConfig(experiment="mp-edges", reps=3, seed=111,
                                         params={"n": n, "gamma": 0.25}))
    rep = mc.EXPERIMENTS["mp-edges"].rep
    rep(cfg, {}, range(1))  # warm up
    peak = _peak_bytes(lambda: rep(cfg, {}, range(3)))
    # a rep's normals X (8 MB) stay in the harness's buffer through the
    # eigensolve, and S (2 MB) joins them: a scipy solve that copied S would
    # add 2 MB.  numpy's eigvalsh copies S in memory tracemalloc does not
    # see; tests/test_randmat.py::test_spectrum_working_set_is_x_and_s
    # holds the solve to scipy's in place
    assert peak <= 1.05 * 8 * (p * n + p * p), peak / 1e6
