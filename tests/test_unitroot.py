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
    assert fit.residuals.shape == (2,)


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
    cv = np.quantile(T.df_limit_mc(2000, reps=4000, rng=T.RngSpec(34, 0)).coef, 0.05)
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
    assert np.isnan(res.stat_t)
    assert np.isfinite(res.stat_coef)


def test_phillips_rejects_unknown_deterministic():
    with pytest.raises(ValueError):
        T.phillips_z(np.arange(20.0) ** 1.5, deterministic="trend")


def test_df_limit_median_is_negative():
    table = T.df_limit_mc(500, reps=4000, rng=T.RngSpec(30, 0))
    assert np.quantile(table.coef, 0.5) < 0.0


def test_df_limit_quantiles_stable_across_seeds():
    a = T.df_limit_mc(1000, reps=20000, rng=T.RngSpec(31, 0))
    b = T.df_limit_mc(1000, reps=20000, rng=T.RngSpec(32, 0))
    assert abs(np.quantile(a.coef, 0.05) - np.quantile(b.coef, 0.05)) < 0.15


def test_df_limit_insensitive_to_sample_size():
    a = T.df_limit_mc(1000, reps=20000, rng=T.RngSpec(31, 0))
    c = T.df_limit_mc(4000, reps=20000, rng=T.RngSpec(33, 0))
    assert abs(np.quantile(a.coef, 0.05) - np.quantile(c.coef, 0.05)) < 0.25


def test_df_limit_demeaned_case_shifts_left():
    none = T.df_limit_mc(500, reps=4000, rng=T.RngSpec(38, 0))
    const = T.df_limit_mc(500, reps=4000, rng=T.RngSpec(38, 0),
                          deterministic="const")
    assert np.quantile(const.coef, 0.05) < np.quantile(none.coef, 0.05)
    assert np.quantile(const.t, 0.05) < np.quantile(none.t, 0.05)


def test_df_limit_draws_are_sorted():
    tables = T.df_limit_mc(200, reps=2000, rng=T.RngSpec(39, 0))
    for draws in (tables.coef, tables.t):
        assert draws.shape == (2000,) and np.all(np.diff(draws) >= 0)


# Published 5% points of the Dickey-Fuller laws under a Gaussian random walk, by
# deterministic term: (t-ratio, T(alpha - 1)).
# - t-ratio (alpha_hat - 1) / se(alpha_hat): MacKinnon (2010), "Critical values
#   for cointegration tests", Queen's Economics Department WP 1227, Table 1,
#   N = 1 rows tau_nc, tau_c and tau_ct at 5%, the asymptotic term beta_inf,
#   quoted to 2 decimals (rounding 0.005).  The response surface's beta_1 / T
#   terms put the T = 1000 point within 0.005 of the limit; bias bound 0.01.
# - coefficient n(rho_hat - 1), here (T - 1)(alpha_hat - 1) with n = T - 1
#   regression observations: Fuller (1976), Introduction to Statistical Time
#   Series, Table 10.A.1, rho_hat, rho_hat_mu and rho_hat_tau at 5%, n = inf,
#   quoted to 1 decimal (rounding 0.05).  The table's own n = 500 column lies
#   0.1, 0.1 and 0.3 from n = inf and the gap shrinks as 1/n, so those are
#   bias bounds at T = 1000.
_DF_5PCT = {
    "none": ((-1.94, 0.005, 0.01), (-8.1, 0.05, 0.1)),
    "const": ((-2.86, 0.005, 0.01), (-14.1, 0.05, 0.1)),
    "trend": ((-3.41, 0.005, 0.01), (-21.8, 0.05, 0.3)),
}


def _quantile_se(draws: np.ndarray, p: float, h: float = 0.01) -> float:
    """sqrt(p(1 - p) / R) / f_hat(q_p), the density by the quantile spacing
    f_hat = 2h / (q_{p+h} - q_{p-h})."""
    lo, hi = np.quantile(draws, [p - h, p + h])
    return np.sqrt(p * (1.0 - p) / draws.size) * (hi - lo) / (2.0 * h)


@pytest.mark.parametrize("deterministic", sorted(_DF_5PCT))
def test_df_limit_agrees_with_the_published_5pct_points(deterministic):
    # within 4 SE plus the table's rounding plus the finite-T bias bound
    tables = T.df_limit_mc(1000, deterministic=deterministic, reps=20000, rng=T.RngSpec(40, 0))
    for draws, (value, rounding, bias) in zip((tables.t, tables.coef),
                                              _DF_5PCT[deterministic]):
        q = np.quantile(draws, 0.05)
        assert abs(q - value) <= 4.0 * _quantile_se(draws, 0.05) + rounding + bias, \
            (deterministic, q, value)


# The 5% points of `adf_test`'s T(alpha - 1) at n = 500 regression
# observations: Fuller (1976), Table 10.A.1, rho_hat and rho_hat_mu, the
# n = 500 column, quoted to 1 decimal (rounding 0.05); no finite-T bias.
_FULLER_N500 = {"none": -8.0, "const": -14.0}
# The 95% point of chi-square(1), 3.8415 (rounding 0.0005).  The split Wald
# statistic's s2 divides by m - 3, so under Gaussian errors it is close to
# F(1, m - 3), whose 95% point lies 0.019 above at m = 499 pairs: bias 0.02.
_CHI2_1_95 = (3.841, 0.0005, 0.02)
# The 95% point of the integral of a squared Brownian bridge, 0.4614:
# Anderson & Darling (1952), Ann. Math. Statist. 23, Table 1, quoted to 3
# decimals (rounding 0.0005); `lm_nyblom`'s lm1 with a stationary regressor
# has this limit.  Its three fitted coefficients bias it by O(3 / m), under
# 0.005 at m = 299 pairs.
_BRIDGE_95 = (0.461, 0.0005, 0.005)


def test_statistics_under_their_nulls_agree_with_published_points():
    # each statistic on its own null: within 4 SE plus rounding plus bias, as
    # for the limit tables above.  The innovations have sd 3, so that a
    # standard error missing its square root does not cancel at sd 1.  Z_t
    # and Z_alpha share the Dickey-Fuller limits, and their finite-T bias
    # bounds are the Dickey-Fuller statistics' (MacKinnon's beta_1 / T is
    # under 0.006 at T = 500).
    R = 4000
    walks = np.cumsum(3.0 * T.RngSpec(41, 0).generator().standard_normal((R, 501)), axis=1)
    checks = []
    for det, ((t_value, t_round, t_bias), (c_value, c_round, c_bias)) in _DF_5PCT.items():
        if det == "trend":  # the Phillips corrections take none and const
            continue
        adf = [T.adf_test(w, deterministic=det) for w in walks]
        z = T.phillips_z(walks, deterministic=det)
        checks += [
            (f"adf t {det}", np.array([a.stat_t for a in adf]), 0.05, t_value, t_round, t_bias),
            (f"adf coef {det}", np.array([a.stat_coef for a in adf]), 0.05,
             _FULLER_N500[det], 0.05, 0.0),
            (f"Z_t {det}", z.stat_t, 0.05, t_value, t_round, t_bias),
            (f"Z_alpha {det}", z.stat_coef, 0.05, c_value, c_round, c_bias),
        ]
    gen = T.RngSpec(42, 0).generator()
    x = gen.standard_normal((R, 500))
    y = 1.0 + 3.0 * gen.standard_normal((R, 500))
    checks.append(("split_wald", T.split_wald(y, x, pi0=0.5).stat, 0.95, *_CHI2_1_95))
    lm1 = np.array([T.lm_nyblom(y[r, :300], x[r, :300]).lm1 for r in range(R // 2)])
    checks.append(("lm_nyblom lm1", lm1, 0.95, *_BRIDGE_95))
    far = [(name, float(np.quantile(draws, p)), value) for name, draws, p, value, rounding, bias
           in checks
           if abs(np.quantile(draws, p) - value) > 4.0 * _quantile_se(draws, p) + rounding + bias]
    assert far == []


# The paper's moderate deviations from a unit root, mildly explosive side
# (c > 0, 0 < gamma < 1, rho_n = 1 + c / n^gamma, x_0 = 0): the statistic
# (n^gamma rho_n^n / (2c)) (rho_hat - rho_n) tends to the standard Cauchy
# law (Phillips & Magdalinos 2007, J. Econometrics 136), whose quartiles are
# -1 and 1 and whose 5% and 95% points are -tan(0.45 pi) and tan(0.45 pi),
# quoted to 4 decimals (rounding 0.00005).  At R = 4000, Kolmogorov-Smirnov
# does not reject the law at either point below (p > 0.05), so no finite-n
# bias is stated.
_CAUCHY = {0.05: -6.3138, 0.25: -1.0, 0.75: 1.0, 0.95: 6.3138}


@pytest.mark.parametrize("c,gamma,n", [(1.0, 0.5, 2000), (2.0, 0.5, 1000)])
def test_mildly_explosive_root_has_the_cauchy_limit(c, gamma, n):
    # rho_hat - rho_n is sum x_{t-1} v_t / sum x_{t-1}^2, formed from the known
    # innovations v: rho_n^n is about e^44.7 at (1, 0.5, 2000), so rho_hat
    # itself lies within the spacing of the floats of rho_n
    rho = 1.0 + c / n**gamma
    gen = T.RngSpec(43, 0).generator()
    stat = []
    for _ in range(4):  # R = 4000 paths, 1000 at a time
        v = gen.standard_normal((1000, n))
        xlag = T.simulate_lur_ar(T.LurSpec(c, gamma), n, v)[:, :-1]
        stat.append(n**gamma * rho**n / (2.0 * c) * np.einsum("rt,rt->r", xlag, v[:, 1:])
                    / np.einsum("rt,rt->r", xlag, xlag))
    stat = np.concatenate(stat)
    far = [(p, float(np.quantile(stat, p)), value) for p, value in _CAUCHY.items()
           if abs(np.quantile(stat, p) - value) > 4.0 * _quantile_se(stat, p) + 0.00005]
    assert far == []
