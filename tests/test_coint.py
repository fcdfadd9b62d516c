"""Fully modified regression, residual-based cointegration statistics."""

import numpy as np
import pytest

import tsnet as T


def _coint_draw(gen, n=400, beta=2.0, noise=1.0):
    x = np.cumsum(gen.standard_normal(n))
    y = 1.0 + beta * x + noise * gen.standard_normal(n)
    return y, x


def test_fmols_recovers_slope_in_clean_design():
    gen = np.random.default_rng(10)
    y, x = _coint_draw(gen, n=2000, noise=0.5)
    fm = T.fmols(y, x)
    assert fm.beta_plus[-1] == pytest.approx(2.0, abs=0.02)


def test_fmols_corrections_vanish_under_exogeneity():
    # iid errors independent of the regressor increments: beta+ ~ beta_ols
    gen = np.random.default_rng(11)
    gaps = np.empty(50)
    for i in range(50):
        y, x = _coint_draw(gen, n=2000)
        fm = T.fmols(y, x)
        gaps[i] = abs(fm.beta_plus[-1] - fm.beta_ols[-1])
    assert np.median(gaps) < 0.01


def test_fmols_score_normal_equations():
    # sum_t z_t eps+_t equals m * (0, delta+) by construction of the
    # fully modified estimate
    gen = np.random.default_rng(1)
    y, x = _coint_draw(gen)
    fm = T.fmols(y, x)
    m = fm.nobs
    Z = np.column_stack([np.ones(m), x[1:]])
    lhs = Z.T @ fm.residuals_plus
    rhs = m * np.concatenate([[0.0], fm.delta_plus])
    np.testing.assert_allclose(lhs, rhs, atol=1e-6)


def test_fmols_cov_symmetric_psd():
    gen = np.random.default_rng(12)
    y, x = _coint_draw(gen)
    fm = T.fmols(y, x)
    cov = fm.omega_cond * fm.zz_inv
    np.testing.assert_array_equal(cov, cov.T)
    assert np.linalg.eigvalsh(cov).min() >= 0.0
    np.testing.assert_array_equal(fm.se, np.sqrt(np.diag(cov)))


def test_fmols_needs_enough_observations():
    with pytest.raises(ValueError):
        T.fmols(np.arange(3.0), np.arange(3.0) ** 2)


def test_shin_hand_value_residual_mode():
    # residuals (1,-1,1,-1): S=(1,0,1,0), sigma2=1 -> V = 2/16
    r = T.shin_vn([1.0, -1.0, 1.0, -1.0], kernel=T.KernelSpec("bartlett", 0.5))
    assert r.v_n == pytest.approx(0.125)
    assert r.sigma2 == pytest.approx(1.0)


def test_shin_short_run_variance_flag():
    r = T.shin_vn([1.0, -1.0, 1.0, -1.0], short_run=True)
    assert r.v_n == pytest.approx(0.125)


def test_shin_orders_cointegrated_below_spurious():
    gen = np.random.default_rng(13)
    wins = 0
    for _ in range(100):
        w = np.cumsum(gen.standard_normal(500))
        y_coint = 2.0 + 0.7 * w + 0.01 * gen.standard_normal(500)
        y_indep = np.cumsum(gen.standard_normal(500))
        wins += T.shin_vn(y_coint, w).v_n < T.shin_vn(y_indep, w).v_n
    assert wins >= 95


def test_shin_exact_fit_raises():
    # V_n over a roundoff sigma2; without x, y is taken as the residuals
    x = np.cumsum(np.random.default_rng(14).standard_normal((200, 2)), axis=0)
    for xs, y in ((x[:, 0], 1.0 + 0.5 * x[:, 0]), (x, 1.0 + x @ np.array([0.5, -0.3]))):
        for kw in ({}, {"short_run": True}):
            with pytest.raises(ValueError, match="cointegrating fit are numerically zero"):
                T.shin_vn(y, xs, **kw)


def test_shin_all_zero_residual_series_raises():
    # without x, y is the residual series: all zeros would give v_n = 0/0
    for kw in ({}, {"short_run": True}):
        with pytest.raises(ValueError, match="cointegrating fit are numerically zero"):
            T.shin_vn(np.zeros(20), **kw)


def test_fmols_exact_fit_raises():
    # without residual scale omega_cond is roundoff, and so is every t-ratio
    x = np.cumsum(np.random.default_rng(16).standard_normal((200, 2)), axis=0)
    for xs, y in ((x[:, 0], 1.0 + 0.5 * x[:, 0]), (x, 1.0 + x @ np.array([0.5, -0.3]))):
        for kernel in (None, T.KernelSpec("parzen", 6.0)):
            with pytest.raises(ValueError, match="cointegrating fit are numerically zero"):
                T.fmols(y, xs, kernel=kernel)


def test_shin_rank_error_on_constant_regressor():
    with pytest.raises(np.linalg.LinAlgError):
        T.shin_vn(np.ones(20), np.ones(20))


def test_fk_fixed_break_matches_chi2():
    # the scanned path at one interior break date is the fixed-k statistic
    gen = T.RngSpec(51, 0).generator()
    draws = np.empty(800)
    for i in range(800):
        x = np.cumsum(gen.standard_normal(400))
        y = 1.0 + 2.0 * x + gen.standard_normal(400)
        res = T.fk_break_test(y, x)
        draws[i] = res.path[res.k_grid == 200][0]
    assert np.quantile(draws, 0.95) == pytest.approx(3.841, rel=0.10)
    assert draws.mean() == pytest.approx(1.0, abs=0.15)


def test_fk_finds_large_break():
    gen = T.RngSpec(51, 1).generator()
    hits = 0
    for _ in range(100):
        x = np.cumsum(gen.standard_normal(300))
        beta = np.where(np.arange(300) < 150, 1.0, 1.6)
        y = 1.0 + beta * x + gen.standard_normal(300)
        hits += abs(T.fk_break_test(y, x).k_star - 150) <= 15
    assert hits >= 90


def test_fk_sup_dominates_fixed_k():
    # the statistic is the supremum of the fixed-k statistics on the path
    gen = np.random.default_rng(14)
    y, x = _coint_draw(gen)
    full = T.fk_break_test(y, x)
    assert full.stat == full.path.max()
    assert full.k_star == full.k_grid[np.argmax(full.path)]
    assert np.all(full.path >= 0.0)


def test_fk_rejects_bad_trim_and_k():
    gen = np.random.default_rng(16)
    y, x = _coint_draw(gen, n=100)
    with pytest.raises(ValueError):
        T.fk_break_test(y, x, trim=(0.9, 0.1))
    with pytest.raises(ValueError, match="trim"):
        T.fk_break_test(y, x, trim=(0.2,))
    # m = 99: the trim range [49.4, 49.5] holds no break date k
    with pytest.raises(ValueError, match="no admissible break points"):
        T.fk_break_test(y, x, trim=(0.499, 0.5))


def test_fk_exact_fit_raises():
    # without residual scale omega_cond is roundoff, and so is every F_k
    gen = np.random.default_rng(17)
    x = np.cumsum(gen.standard_normal((200, 2)), axis=0)
    for xs, y in ((x[:, 0], 1.0 + 0.5 * x[:, 0]), (x, 1.0 + x @ np.array([0.5, -0.3]))):
        with pytest.raises(ValueError, match="cointegrating fit are numerically zero"):
            T.fk_break_test(y, xs)


def ref_fk_path(y, x, k_grid):
    """F_k of the slopes by one LAPACK solve per break date: the loop the scan replaced."""
    fm = T.fmols(y, x)
    m = fm.nobs
    Z = np.column_stack([np.ones(m), np.asarray(x, dtype=float).reshape(m + 1, -1)[1:]])
    scores = Z * fm.residuals_plus[:, None]
    scores -= np.concatenate([[0.0], fm.delta_plus])[None, :]
    S = np.cumsum(scores, axis=0)
    M = np.cumsum(Z[:, :, None] * Z[:, None, :], axis=0)
    M_T_inv = np.linalg.inv(M[-1])
    path = np.empty(len(k_grid))
    for pos, kb in enumerate(k_grid):
        Mk = M[kb - 1]
        Vk = (Mk - Mk @ M_T_inv @ Mk)[1:, 1:]
        Sk = S[kb - 1, 1:]
        path[pos] = Sk @ np.linalg.solve(fm.omega_cond * Vk, Sk)
    return path


@pytest.mark.parametrize("d", [1, 2])
def test_fk_scan_matches_per_break_solves(d):
    gen = np.random.default_rng((17, d))
    x = np.cumsum(gen.standard_normal((400, d)), axis=0)
    y = 1.0 + x @ np.linspace(2.0, -1.0, d) + gen.standard_normal(400)
    x = x[:, 0] if d == 1 else x
    res = T.fk_break_test(y, x)
    np.testing.assert_allclose(res.path, ref_fk_path(y, x, res.k_grid), rtol=1e-10)
    # the slopes are tested: chi2_d at a fixed interior k
    assert res.dof == d
    # the widest trim reaches both ends of [p, m - p], p = d + 1, m = 399
    wide = T.fk_break_test(y, x, trim=(0.001, 0.999))
    assert wide.k_grid[0] == d + 1 and wide.k_grid[-1] == 399 - d - 1
    np.testing.assert_allclose(wide.path[[0, 149 - d, -1]],
                               ref_fk_path(y, x, [d + 1, 150, 399 - d - 1]), rtol=1e-10)


def test_fk_grid_keeps_both_regimes_identified():
    # a trim reaching k = 1 used to pick a singular V_k
    gen = np.random.default_rng(18)
    y, x = _coint_draw(gen, n=300)
    res = T.fk_break_test(y, x, trim=(0.001, 0.999))
    # p = 2 coefficients, m = 299 usable observations
    assert res.k_grid[0] == 2 and res.k_grid[-1] == 297
    assert np.all(np.isfinite(res.path))
