"""Autoregression fits, ADF and Phillips statistics, DF null tables."""

import warnings

import numpy as np
import pytest
from scipy.signal import lfilter

import tsnet as T


def test_ols_ar_hand_value():
    # y=(1,2,3), one lag, no deterministics: rho = (2*1+3*2)/(1+4) = 1.6
    fit = T.ols_ar([1.0, 2.0, 3.0], p=1)
    assert fit.ar_coeffs[0] == pytest.approx(1.6)
    assert fit.nobs == 2


def test_ols_ar_needs_enough_observations():
    with pytest.raises(ValueError):
        T.ols_ar([1.0, 2.0], p=1)


@pytest.mark.parametrize("x,p,message", [
    (np.zeros((5, 2)), 0, r"ts must be one-dimensional, got shape \(5, 2\)"),
    (np.arange(30.0) % 7, -1, "p must be >= 0"),
], ids=["2d", "negative-p"])
def test_adf_rejects_bad_input(x, p, message):
    with pytest.raises(ValueError, match=message):
        T.adf_test(x, p=p)


def test_adf_matches_two_pass_oracle_exactly():
    x = np.cumsum(T.RngSpec(21, 0).generator().standard_normal(400))
    res = T.adf_test(x, p=0, deterministic="none")
    y, ylag = x[1:], x[:-1]
    a = float(ylag @ y) / float(ylag @ ylag)
    r = y - a * ylag
    s2 = float(r @ r) / (len(y) - 1)
    t = (a - 1.0) / np.sqrt(s2 / float(ylag @ ylag))
    assert res.alpha_hat == a
    assert res.stat_t == t
    assert res.stat_coef == len(y) * (a - 1.0)


def test_adf_explosive_series_signs():
    x = 2.0 ** np.arange(12)
    res = T.adf_test(x, p=0, deterministic="none")
    assert res.alpha_hat > 1.0
    assert res.stat_t > 0.0


@pytest.mark.parametrize("x", [np.ones(60), np.full(40, -2.5)])
def test_adf_constant_series_raises(x):
    # alpha = 1 exactly with zero residuals: no test statistic exists
    with pytest.raises(ValueError,
                       match="residuals of the Dickey-Fuller fit are numerically zero"):
        T.adf_test(x)


@pytest.mark.parametrize("rate,sign", [(1.05, 1.0), (0.9, -1.0)])
@pytest.mark.parametrize("det", ["none", "const"])
def test_adf_noiseless_autoregression_is_infinite(rate, sign, det):
    # an exact fit of alpha != 1: the t-ratio has no finite scale
    res = T.adf_test(rate ** np.arange(60.0), deterministic=det)
    assert res.stat_t == sign * np.inf
    assert res.alpha_hat == pytest.approx(rate, rel=1e-12)
    assert np.isfinite(res.stat_coef)


def _noiseless_ar2(a1, a2, n=60):
    x = np.empty(n)
    x[0], x[1] = 1.0, 0.5
    for t in range(2, n):
        x[t] = a1 * x[t - 1] + a2 * x[t - 2]
    return x


@pytest.mark.parametrize("x", [1.05 ** np.arange(60.0), 0.9 ** np.arange(60.0),
                               3.0 * 0.9 ** np.arange(60.0)], ids=["1.05", "0.9", "3x0.9"])
def test_adf_noiseless_geometric_path_with_lags_is_singular(x):
    # the lagged difference is a multiple of the lagged level: the design
    # is collinear whether or not LAPACK's solve notices
    with pytest.raises(np.linalg.LinAlgError, match="singular least-squares design"):
        T.adf_test(x, p=1)


def test_adf_noiseless_ar2_with_a_lag_is_infinite():
    # an exact fit on a well-conditioned design keeps its infinite t-ratio
    res = T.adf_test(_noiseless_ar2(1.2, -0.5), p=1)
    assert res.stat_t == -np.inf
    assert res.alpha_hat == pytest.approx(0.7, rel=1e-12)


def test_adf_collinearity_rule_ignores_regressor_scale():
    # a walk in units 1e8 times smaller leaves cond(X'X) of the (const,
    # level, difference) design at 1e18; the rule reads the Gram of
    # unit-length columns, so the statistic only moves by roundoff
    x = np.cumsum(np.random.default_rng(38).standard_normal(200))
    base = T.adf_test(x, p=1, deterministic="const").stat_t
    assert T.adf_test(1e8 * x, p=1, deterministic="const").stat_t == pytest.approx(base,
                                                                                   rel=1e-10)


def test_adf_left_tail_power_against_stationary_ar1():
    cv = T.df_limit_mc(2000, reps=4000, rng=T.RngSpec(34, 0)).coef.quantile(0.05)
    gen = T.RngSpec(35, 0).generator()
    rejections = 0
    for _ in range(200):
        x = lfilter([1.0], [1.0, -0.2], gen.standard_normal(2000))
        rejections += T.adf_test(x, p=0).stat_coef < cv
    assert rejections / 200 >= 0.95


def test_phillips_iid_correction_is_small():
    gen = T.RngSpec(37, 0).generator()
    gaps = np.empty(200)
    for i in range(200):
        x = np.cumsum(gen.standard_normal(5000))
        res = T.phillips_z(x)
        gaps[i] = abs(res.stat_coef - res.nobs * (res.alpha_hat - 1.0))
    assert np.median(gaps) < 0.1


def test_phillips_rejects_short_series():
    with pytest.raises(ValueError):
        T.phillips_z(np.arange(5.0))


def test_phillips_degenerate_residuals_raise():
    with pytest.raises(ValueError, match="numerically zero"):
        T.phillips_z(np.ones(30))
    with pytest.raises(ValueError, match="numerically zero"):
        # exact linear trend is fit perfectly by (const, lag)
        T.phillips_z(np.arange(30.0), deterministic="const")


def test_phillips_nonpositive_lrv_warns_and_nans_zt():
    x = np.tile([1.0, 0.0, -1.0], 20) + 0.2 * np.random.default_rng(0).standard_normal(60)
    with pytest.warns(UserWarning, match="nonpositive long-run variance"):
        res = T.phillips_z(x, kernel=T.KernelSpec("truncated", 2.0))
    assert res.s2_lr <= 0.0
    assert np.isnan(res.stat_t)
    assert np.isfinite(res.stat_coef)


def test_phillips_rejects_unknown_deterministic():
    with pytest.raises(ValueError):
        T.phillips_z(np.arange(20.0) ** 1.5, deterministic="trend")


def test_df_limit_median_is_negative():
    table = T.df_limit_mc(500, reps=4000, rng=T.RngSpec(30, 0))
    assert table.coef.quantile(0.5) < 0.0


def test_df_limit_quantiles_stable_across_seeds():
    a = T.df_limit_mc(1000, reps=20000, rng=T.RngSpec(31, 0))
    b = T.df_limit_mc(1000, reps=20000, rng=T.RngSpec(32, 0))
    assert abs(a.coef.quantile(0.05) - b.coef.quantile(0.05)) < 0.15


def test_df_limit_insensitive_to_sample_size():
    a = T.df_limit_mc(1000, reps=20000, rng=T.RngSpec(31, 0))
    c = T.df_limit_mc(4000, reps=20000, rng=T.RngSpec(33, 0))
    assert abs(a.coef.quantile(0.05) - c.coef.quantile(0.05)) < 0.25


def test_df_limit_demeaned_case_shifts_left():
    none = T.df_limit_mc(500, reps=4000, rng=T.RngSpec(38, 0))
    const = T.df_limit_mc(500, reps=4000, rng=T.RngSpec(38, 0),
                          deterministic="const")
    assert const.coef.quantile(0.05) < none.coef.quantile(0.05)
    assert const.t.quantile(0.05) < none.t.quantile(0.05)


def test_quantile_table_interpolates_monotonically():
    table = T.df_limit_mc(200, reps=2000, rng=T.RngSpec(39, 0)).coef
    qs = [table.quantile(p) for p in (0.01, 0.05, 0.5, 0.95)]
    assert qs == sorted(qs)


def test_quantile_table_answers_any_level():
    gen = np.random.default_rng(40)
    for draws in (gen.standard_normal(20000), gen.standard_cauchy(4001),
                  np.round(gen.standard_normal(999), 1)):
        table = T.QuantileTable.from_draws(draws, detail="sim")
        # tail and central levels equal the array call the tables once stored
        probs = (0.01, 0.025, 0.05, 0.10, 0.50, 0.90, 0.95, 0.99)
        want = np.quantile(draws, np.asarray(probs))
        assert tuple(table.quantile(p) for p in probs) == tuple(float(v) for v in want)
        for p in (0.001, 0.07, 0.333, 0.999):
            assert table.quantile(p) == float(np.quantile(draws, p))
        assert table.reps == draws.size
    for bad in (0.0, 1.0, 1.5, -0.1, float("nan")):
        with pytest.raises(ValueError, match="level"):
            table.quantile(bad)
