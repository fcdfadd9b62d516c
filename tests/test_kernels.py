"""Vectorized kernels against the per-observation loops they replaced.

Each reference below is the scalar loop the library used before its
vectorized form, kept here as the oracle.  Where the arithmetic is
unchanged the results must be equal bit for bit; where the summation
order changed, the tolerance is a small multiple of double roundoff.
"""

import warnings

import numpy as np
import pytest

import tsnet as T
from tsnet.lrv import KERNEL_FAMILIES, kernel_weight

from oracles import autocovariance


def ref_ivx_instrument(x, spec):
    x_arr = np.asarray(x, dtype=float)
    if x_arr.ndim == 1:
        x_arr = x_arr[:, None]
    rho = spec.rho(x_arr.shape[0])
    dx = np.diff(x_arr, axis=0)
    z = np.empty_like(dx)
    prev = np.zeros(dx.shape[1])
    for t in range(dx.shape[0]):
        prev = rho * prev + dx[t]
        z[t] = prev
    return z


def ref_simulate_garch(spec, n, gen, burn=500):
    total = n + burn
    eta = gen.standard_normal(total)
    sigma2 = np.empty(total)
    eps = np.empty(total)
    s2_prev = spec.unconditional_variance
    e2_prev = s2_prev
    for t in range(total):
        s2 = spec.omega + spec.alpha * e2_prev + spec.beta * s2_prev
        sigma2[t] = s2
        eps[t] = np.sqrt(s2) * eta[t]
        e2_prev = eps[t] ** 2
        s2_prev = s2
    return spec.mu + eps[burn:], sigma2[burn:]


def ref_nested_forecast(y, x_small, x_extra, k0):
    """Returns (stat, path, e_small, e_big, start)."""
    xs = np.asarray(x_small, dtype=float).reshape(len(y), -1)
    xe = np.asarray(x_extra, dtype=float).reshape(len(y), -1)
    n = len(y)
    ys = np.asarray(y, dtype=float)[1:]
    z = np.hstack([np.ones((n - 1, 1)), xs[:-1], xe[:-1]])
    m, p_big = z.shape
    p_small = 1 + xs.shape[1]
    beta_full, *_ = np.linalg.lstsq(z, ys, rcond=None)
    resid_full = ys - z @ beta_full
    sigma2 = float(resid_full @ resid_full / (m - p_big))

    gram = z[:k0].T @ z[:k0]
    moment = z[:k0].T @ ys[:k0]
    e_small = []
    e_big = []
    start = None
    for t in range(k0, m):
        zt = z[t]
        if start is None:
            if (t < p_big
                    or np.linalg.cond(gram) > 1e12
                    or np.linalg.cond(gram[:p_small, :p_small]) > 1e12):
                gram += np.outer(zt, zt)
                moment += zt * ys[t]
                continue
            start = t
        b_big = np.linalg.solve(gram, moment)
        b_small = np.linalg.solve(gram[:p_small, :p_small], moment[:p_small])
        e_big.append(ys[t] - zt @ b_big)
        e_small.append(ys[t] - zt[:p_small] @ b_small)
        gram += np.outer(zt, zt)
        moment += zt * ys[t]
    e_small = np.asarray(e_small)
    e_big = np.asarray(e_big)
    path = np.cumsum((e_small**2 - e_big**2) / sigma2)
    return float(path[-1]), path, e_small, e_big, start


def ref_hac_lrv(ms, spec, demean=True):
    """Returns (omega, lam, gamma0); gamma0 comes from the library."""
    x = np.asarray(ms, dtype=float)
    if x.ndim == 1:
        x = x[:, None]
    n, d = x.shape
    b = spec.resolve_bandwidth(n)
    if demean:
        x = x - x.mean(axis=0)
    if spec.family == "quadratic-spectral":
        max_lag = min(n - 1, int(np.ceil(40.0 * b)))
    else:
        max_lag = min(n - 1, int(np.floor(b + 1e-12)))
    gamma0 = autocovariance(x, 0, demean=False)
    lam = np.zeros((d, d))
    for j in range(1, max_lag + 1):
        w = kernel_weight(spec.family, j / b)
        if w == 0.0:
            continue
        lam += w * autocovariance(x, j, demean=False)
    return gamma0 + (lam + lam.T), lam, gamma0


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("c_z", [-1.0, -5.0, -1e-9])
def test_ivx_instrument_matches_loop(d, c_z):
    gen = np.random.default_rng(7)
    x = np.cumsum(gen.standard_normal((400, d)), axis=0)
    if d == 1:
        x = x[:, 0]
    spec = T.IvxSpec(c_z=c_z, beta_z=0.95)
    got = T.ivx_instrument(x, spec)
    want = ref_ivx_instrument(x, spec)
    # the banded solve may fuse rho * z + dx into one rounding
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


@pytest.mark.parametrize("params", [(0.1, 0.1, 0.8), (0.1, 0.5, 0.0),
                                    (0.1, 0.0, 0.9), (1e-3, 0.2, 0.79)])
@pytest.mark.parametrize("n,burn", [(1, 0), (1, 500), (7, 3), (1000, 500),
                                    (20000, 500)])
def test_simulate_garch_matches_loop(params, n, burn):
    spec = T.GarchSpec(*params, mu=0.25)
    y, s2 = T.simulate_garch(spec, n, np.random.default_rng(11), burn=burn)
    y_ref, s2_ref = ref_simulate_garch(spec, n, np.random.default_rng(11),
                                       burn=burn)
    assert y.shape == s2.shape == (n,)
    assert np.all(np.isfinite(y)) and np.all(np.isfinite(s2))
    np.testing.assert_allclose(s2, s2_ref, rtol=1e-12, atol=0)
    # y - mu = sigma eta carries the relative error of sigma
    np.testing.assert_allclose(y - spec.mu, y_ref - spec.mu, rtol=1e-12,
                               atol=0)


def test_simulate_garch_rejects_negative_burn():
    spec = T.GarchSpec(0.1, 0.1, 0.8)
    with pytest.raises(ValueError, match="burn"):
        T.simulate_garch(spec, 10, np.random.default_rng(0), burn=-1)


def _nested_case(n, betas, cs, seed):
    spec = T.SystemSpec(beta=betas, lur=tuple(T.LurSpec(c, 1.0) for c in cs),
                        intercept=0.0)
    return T.simulate_predictive_system(spec, n, T.RngSpec(90, seed))


@pytest.mark.parametrize("n,q,k0,seed", [(400, 1, 100, 0), (1000, 1, 250, 1),
                                         (300, 2, 40, 2), (150, 1, 37, 3)])
def test_nested_forecast_matches_loop(n, q, k0, seed):
    y, x = _nested_case(n, (0.1, 0.1, -0.05), (-2.0, -5.0, -10.0), seed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = T.nested_forecast_test(y, x[:, :q], x[:, q:], k0=k0)
    stat, path, e_small, e_big, start = ref_nested_forecast(
        y, x[:, :q], x[:, q:], k0)
    assert res.start == start == k0
    scale = np.max(np.abs(path))
    assert abs(res.stat - stat) <= 1e-12 * scale
    assert np.max(np.abs(res.path - path)) <= 1e-12 * scale
    np.testing.assert_allclose(res.errors_small, e_small, rtol=1e-9)
    np.testing.assert_allclose(res.errors_big, e_big, rtol=1e-9)


def test_nested_forecast_postponed_start_matches_loop():
    y, x = _nested_case(200, (0.1, 0.1, -0.05), (-2.0, -5.0, -10.0), 100)
    with pytest.warns(UserWarning, match="postponed"):
        res = T.nested_forecast_test(y, x[:, :1], x[:, 1:], k0=2)
    stat, path, e_small, e_big, start = ref_nested_forecast(
        y, x[:, :1], x[:, 1:], 2)
    assert res.start == start > 2
    scale = np.max(np.abs(path))
    assert np.max(np.abs(res.path - path)) <= 1e-12 * scale
    np.testing.assert_allclose(res.errors_small, e_small, rtol=1e-9)
    np.testing.assert_allclose(res.errors_big, e_big, rtol=1e-9)


@pytest.mark.parametrize("family", KERNEL_FAMILIES)
@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("bandwidth", [0.5, 3.7, None])
def test_hac_lrv_matches_loop(family, d, bandwidth):
    gen = np.random.default_rng(3)
    e = gen.standard_normal((600, d))
    x = e.copy()
    x[1:] += 0.6 * e[:-1]
    if d == 1:
        x = x[:, 0]
    spec = T.KernelSpec(family, bandwidth)
    for demean in (True, False):
        est = T.hac_lrv(x, spec, demean=demean)
        omega, lam, gamma0 = ref_hac_lrv(x, spec, demean=demean)
        assert np.array_equal(est.omega, omega)
        assert np.array_equal(est.lam, lam)
        assert np.array_equal(est.gamma0, gamma0)
