"""Instrumented predictive regression: recursion, estimator, Wald tests."""

import numpy as np
import pytest

import tsnet as T


def test_instrument_hand_recursion():
    # rho = 1 - 0.3/3 = 0.9; dx = (1, 2) -> z = (1, 0.9 + 2)
    z = T.ivx_instrument([0.0, 1.0, 3.0], T.IvxSpec(c_z=-0.3, beta_z=1.0))
    np.testing.assert_allclose(z.ravel(), [1.0, 2.9])


def test_instrument_telescopes_at_unit_persistence():
    # as c_z -> 0-, rho -> 1 and the recursion telescopes to x_t - x_0
    x = np.cumsum(np.random.default_rng(20).standard_normal(100))
    z = T.ivx_instrument(x, T.IvxSpec(c_z=-1e-9, beta_z=1.0))
    np.testing.assert_allclose(z.ravel(), x[1:] - x[0], atol=1e-5)


def test_ivx_spec_validation():
    with pytest.raises(ValueError):
        T.IvxSpec(c_z=0.0)
    with pytest.raises(ValueError):
        T.IvxSpec(c_z=-1.0, beta_z=1.5)


def test_ivx_exact_fit_raises():
    # without noise sigma2_u is roundoff, and the Wald statistic a ratio of roundoff
    gen = np.random.default_rng(21)
    x = np.cumsum(gen.standard_normal((200, 2)), axis=0)
    for xs, fitted in ((x[:, 0], 0.5 * x[:, 0]), (x, x @ np.array([0.5, -0.3]))):
        y = np.r_[0.0, 1.0 + fitted[:-1]]
        for kw in ({}, {"hac": T.KernelSpec()}):
            with pytest.raises(ValueError, match="IVX fit are numerically zero"):
                T.ivx_estimate(y, xs, **kw)
    # a little noise is data again, and the slope is recovered
    y = np.r_[0.0, 1.0 + 0.5 * x[:-1, 0] + 1e-6 * gen.standard_normal(199)]
    assert T.ivx_estimate(y, x[:, 0]).beta[0] == pytest.approx(0.5, abs=1e-6)


def test_ivx_degenerate_instrument_raises():
    with pytest.raises(np.linalg.LinAlgError):
        T.ivx_estimate(np.random.default_rng(22).standard_normal(50),
                       np.ones(50))


def test_ivx_length_mismatch():
    with pytest.raises(ValueError):
        T.ivx_estimate(np.arange(30.0), np.arange(40.0))


def test_ivx_hac_meat_changes_cov_not_point_estimate():
    gen = np.random.default_rng(3)
    x = np.cumsum(gen.standard_normal(300))
    y = 0.05 * np.concatenate([[0.0], x[:-1]]) + gen.standard_normal(300)
    base = T.ivx_estimate(y, x)
    robust = T.ivx_estimate(y, x, hac=T.KernelSpec("bartlett"))
    np.testing.assert_array_equal(base.beta, robust.beta)
    assert not np.allclose(base.se, robust.se)


def test_ivx_cov_symmetric():
    gen = np.random.default_rng(25)
    x = np.cumsum(gen.standard_normal((250, 2)), axis=0)
    y = gen.standard_normal(250)
    res = T.ivx_estimate(y, x)
    np.testing.assert_array_equal(res.cov, res.cov.T)
    assert res.beta.shape == (2,) and res.se.shape == (2,)


def test_ivx_bias_shrinks_relative_to_ols():
    # endogenous errors with a persistent regressor: OLS slope is biased,
    # the instrumented estimate less so. With a fitted intercept the mean
    # estimation error leaks a corr/n term into the instrumented slope as
    # well, so the reduction is a stable factor, not an order of magnitude
    # (measured ratio ~0.80 at these settings, flat in n).
    corr = 0.9
    spec = T.SystemSpec(beta=(0.0,), lur=(T.LurSpec(-5.0, 1.0),),
                        intercept=0.0,
                        sigma_ue=((1.0, corr), (corr, 1.0)))
    b_ivx = np.empty(300)
    b_ols = np.empty(300)
    for i in range(300):
        y, x = T.simulate_predictive_system(spec, 1000, T.RngSpec(26, i))
        ys, xl = y[1:], x[:-1, 0]
        ysc, xlc = ys - ys.mean(), xl - xl.mean()
        b_ols[i] = float(xlc @ ysc / (xlc @ xlc))
        b_ivx[i] = T.ivx_estimate(y, x).beta[0]
    assert abs(b_ivx.mean()) < 0.9 * abs(b_ols.mean())
    assert abs(b_ivx.mean()) < 0.01
