"""Tests for slope stability statistics: split/sup Wald, LM, monitoring."""

import ast
from pathlib import Path

import numpy as np
import pytest

import tsnet as T


def _pairs_to_inputs(ys, xl):
    # build (y, x) so that _predictive_pairs recovers exactly (ys, xl)
    y = np.r_[0.0, ys]
    xl = np.atleast_2d(np.asarray(xl, dtype=float))
    if xl.shape[0] == 1:
        xl = xl.T
    x = np.vstack([xl, np.zeros((1, xl.shape[1]))])
    return y, x


def test_split_wald_identical_halves_is_zero():
    # both regimes see the same (x, y) pattern, so the regime estimates
    # coincide and the Wald distance is pure roundoff
    gen = np.random.default_rng((60, 0))
    base_x = gen.standard_normal(20)
    base_y = 0.5 * base_x + 0.3 * gen.standard_normal(20)
    ys = np.r_[base_y, base_y]
    xl = np.r_[base_x, base_x]
    y, x = _pairs_to_inputs(ys, xl)
    res = T.split_wald(y, x, k=20)
    assert res.stat < 1e-12
    np.testing.assert_allclose(res.beta1, res.beta2, atol=1e-8)
    assert res.pi == pytest.approx(0.5)


def test_split_wald_recovers_regime_slopes():
    gen = np.random.default_rng((60, 1))
    n = 801
    x = np.cumsum(gen.standard_normal(n)) * 0.2
    y = np.empty(n)
    y[0] = 0.0
    k0 = 400
    y[1:k0 + 1] = 1.0 * x[:k0] + 0.2 * gen.standard_normal(k0)
    y[k0 + 1:] = -1.0 * x[k0:-1] + 0.2 * gen.standard_normal(n - 1 - k0)
    res = T.split_wald(y, x, k=k0)
    assert res.beta1[0] == pytest.approx(1.0, abs=0.05)
    assert res.beta2[0] == pytest.approx(-1.0, abs=0.05)
    assert res.stat > 100.0


def test_split_wald_null_quantile_chi2():
    # interior fixed break under the null: chi-square(1) limit even with
    # a persistent regressor (global demeaning construction)
    reps, n = 2000, 400
    stats = np.empty(reps)
    for i in range(reps):
        gen = np.random.default_rng((61, i))
        y = gen.standard_normal(n)
        x = np.cumsum(gen.standard_normal(n)) * 0.1
        stats[i] = T.split_wald(y, x, pi0=0.5).stat
    q95 = np.quantile(stats, 0.95)
    assert q95 == pytest.approx(3.841, rel=0.10)
    assert stats.mean() == pytest.approx(1.0, abs=0.15)


def test_split_wald_argument_validation():
    gen = np.random.default_rng((60, 2))
    y = gen.standard_normal(50)
    x = gen.standard_normal(50)
    with pytest.raises(ValueError, match="exactly one"):
        T.split_wald(y, x)
    with pytest.raises(ValueError, match="exactly one"):
        T.split_wald(y, x, k=20, pi0=0.5)
    with pytest.raises(ValueError, match="pi0"):
        T.split_wald(y, x, pi0=1.5)
    with pytest.raises(ValueError, match="regime too small"):
        T.split_wald(y, x, k=1)
    with pytest.raises(ValueError, match="equal length"):
        T.split_wald(y, x[:-1])


def test_sup_wald_path_matches_split_wald():
    # the one-pass cumulative-moment path must agree with the direct
    # split-system solve at every grid point, for any number of regressors
    for d in (1, 2, 3):
        gen = np.random.default_rng((60, 3, d))
        n = 201
        x = np.cumsum(gen.standard_normal((n, d)), axis=0) * 0.3
        y = np.r_[0.0, x[:-1] @ np.full(d, 0.4) + gen.standard_normal(n - 1)]
        res = T.sup_wald(y, x)
        direct = np.array([T.split_wald(y, x, k=int(k)).stat for k in res.k_grid])
        np.testing.assert_allclose(res.path, direct, rtol=1e-8, atol=1e-10)
        assert res.stat == res.path.max()
        assert res.k_star == res.k_grid[np.argmax(res.path)]
        # the widest trim reaches the smallest regimes that identify d slopes
        wide = T.sup_wald(y, x, trim=(0.001, 0.999))
        assert (wide.k_grid[0], wide.k_grid[-1]) == (d + 1, n - 1 - d - 1)
        direct = [T.split_wald(y, x, k=int(k)).stat for k in wide.k_grid[[0, -1]]]
        np.testing.assert_allclose(wide.path[[0, -1]], direct, rtol=1e-8)


def test_sup_wald_trim_superset_dominates():
    gen = np.random.default_rng((60, 4))
    n = 301
    x = gen.standard_normal(n)
    y = gen.standard_normal(n)
    wide = T.sup_wald(y, x, trim=(0.10, 0.90))
    narrow = T.sup_wald(y, x, trim=(0.25, 0.75))
    assert wide.stat >= narrow.stat
    # the per-break statistic does not depend on the trim window, so the
    # paths agree exactly on the common grid
    sel = np.isin(wide.k_grid, narrow.k_grid)
    np.testing.assert_array_equal(wide.path[sel], narrow.path)


def test_sup_wald_multivariate():
    gen = np.random.default_rng((60, 5))
    n = 301
    x = gen.standard_normal((n, 2))
    y = np.r_[0.0, x[:-1] @ np.array([0.3, -0.2]) + gen.standard_normal(n - 1)]
    res = T.sup_wald(y, x)
    assert res.stat == res.path.max()
    assert res.path.shape == res.k_grid.shape
    with pytest.raises(ValueError, match="trim"):
        T.sup_wald(y, x, trim=(0.9, 0.1))


def test_sup_wald_exact_fit_raises():
    # no residual scale: W_k would be a ratio of rounding errors
    gen = np.random.default_rng((60, 6))
    x = np.cumsum(gen.standard_normal((200, 2)), axis=0)
    for xs, y in ((x[:, 0], np.r_[0.0, 1.0 + 0.5 * x[:-1, 0]]),
                  (x, np.r_[0.0, 1.0 + x[:-1] @ np.array([0.5, -0.3])])):
        with pytest.raises(ValueError, match="numerically zero"):
            T.sup_wald(y, xs)


def test_split_wald_exact_fit_raises():
    # the sup_wald rule: no residual scale, so no statistic
    gen = np.random.default_rng((60, 7))
    x = np.cumsum(gen.standard_normal((200, 2)), axis=0)
    for xs, y in ((x[:, 0], np.r_[0.0, 1.0 + 0.5 * x[:-1, 0]]),
                  (x, np.r_[0.0, 1.0 + x[:-1] @ np.array([0.5, -0.3])])):
        for kw in ({"pi0": 0.5}, {"k": 60}):
            with pytest.raises(ValueError, match="split fit are numerically zero"):
                T.split_wald(y, xs, **kw)


def test_nbb_sup_quantiles():
    tab = T.nbb_sup_mc(p=1, reps=4000, grid=400, rng=T.RngSpec(62))
    q95 = np.quantile(tab, 0.95)
    # continuum value is near 8.85 for 15% trimming; a 400-point grid
    # shades it down slightly
    assert 7.5 < q95 < 9.6
    probs = (0.01, 0.025, 0.05, 0.10, 0.50, 0.90, 0.95, 0.99)
    quants = np.quantile(tab, probs)
    assert np.all(np.diff(quants) > 0)
    # higher-dimensional bridge is stochastically larger
    tab2 = T.nbb_sup_mc(p=2, reps=2000, grid=300, rng=T.RngSpec(63))
    assert np.quantile(tab2, 0.5) > np.quantile(tab, 0.5)


def test_nbb_sup_reproducible_and_validated():
    a = T.nbb_sup_mc(p=1, reps=500, grid=100, rng=T.RngSpec(7))
    b = T.nbb_sup_mc(p=1, reps=500, grid=100, rng=T.RngSpec(7))
    assert np.quantile(a, 0.95) == np.quantile(b, 0.95)
    with pytest.raises(ValueError, match="trim"):
        T.nbb_sup_mc(trim=(0.0, 0.9), reps=500, rng=T.RngSpec(7))
    with pytest.raises(ValueError):
        T.nbb_sup_mc(reps=10, rng=T.RngSpec(7))


@pytest.mark.parametrize("grid,trim,match", [
    (0, (0.15, 0.85), "grid must be an integer >= 1, got 0"),
    (-5, (0.15, 0.85), "grid must be an integer >= 1, got -5"),
    (2.5, (0.15, 0.85), "grid must be an integer >= 1, got 2.5"),
    (1, (0.15, 0.85), r"trim \(0.15, 0.85\) holds no point of the grid i / 1,"),
    (100, (0.501, 0.502), r"trim \(0.501, 0.502\) holds no point of the grid i / 100,"),
])
def test_nbb_sup_rejects_grids_without_a_trimmed_point(grid, trim, match):
    with pytest.raises(ValueError, match=match):
        T.nbb_sup_mc(trim=trim, reps=100, rng=T.RngSpec(7), grid=grid)


def test_nbb_sup_single_trimmed_point_is_one_chi2_draw():
    # trim (0.5, 0.5 + 1e-9) keeps the one point t = 1/2 of a 100-step grid
    tab = T.nbb_sup_mc(trim=(0.5, 0.5 + 1e-9), reps=2000, grid=100, rng=T.RngSpec(64))
    assert 0.9 < np.quantile(tab, 0.5) / 0.4549 < 1.1  # the chi2(1) median


@pytest.mark.parametrize("trim", [(0.3,), 0.3, (0.2, 0.5, 0.9)])
def test_trim_must_be_two_fractions(trim):
    gen = np.random.default_rng((60, 6))
    x = gen.standard_normal(200)
    y = gen.standard_normal(200)
    with pytest.raises(ValueError, match="two fractions"):
        T.sup_wald(y, x, trim=trim)
    with pytest.raises(ValueError, match="two fractions"):
        T.nbb_sup_mc(trim=trim, reps=500, rng=T.RngSpec(7))


def test_lm_nyblom_matches_hand_formulas():
    gen = np.random.default_rng((64, 100))
    n = 120
    x = np.cumsum(gen.standard_normal(n)) * 0.5
    y = np.r_[0.0, 0.3 + 0.2 * x[:-1] + gen.standard_normal(n - 1)]
    res = T.lm_nyblom(y, x)

    ys, xlag, dx = y[1:], x[:-1], np.diff(x)
    m = ys.shape[0]
    Z = np.column_stack([np.ones(m), xlag, dx])
    e = ys - Z @ np.linalg.lstsq(Z, ys, rcond=None)[0]
    s2 = np.mean(e**2)
    S = np.cumsum(e)
    lm1 = float(np.sum(S**2) / (m**2 * s2))
    P2 = np.cumsum(xlag * e)
    lm2 = float(np.sum(P2**2) / (m * s2 * np.sum(xlag**2)))
    assert res.lm1 == pytest.approx(lm1, rel=1e-10)
    assert res.lm2 == pytest.approx(lm2, rel=1e-10)
    assert res.sigma2 == pytest.approx(s2, rel=1e-10)
    assert res.lm > 0.0


def test_lm_nyblom_scale_invariant():
    gen = np.random.default_rng((64, 101))
    n = 90
    x = gen.standard_normal(n)
    y = gen.standard_normal(n)
    a = T.lm_nyblom(y, x)
    b = T.lm_nyblom(7.0 * y, x)
    assert b.lm == pytest.approx(a.lm, rel=1e-10)
    assert b.lm1 == pytest.approx(a.lm1, rel=1e-10)
    assert b.lm2 == pytest.approx(a.lm2, rel=1e-10)


def test_lm_nyblom_exact_fit_raises():
    # every LM statistic is a ratio over s2, here pure roundoff
    x = np.cumsum(np.random.default_rng((64, 103)).standard_normal(200))
    for y in (np.r_[0.0, 1.0 + 0.5 * x[:-1]], 1.0 + 0.5 * x, 2.0 - x):
        with pytest.raises(ValueError, match="predictive fit are numerically zero"):
            T.lm_nyblom(y, x)


def test_lm_nyblom_single_regressor_only():
    gen = np.random.default_rng((64, 102))
    with pytest.raises(ValueError, match="single regressor"):
        T.lm_nyblom(gen.standard_normal(50), gen.standard_normal((50, 2)))


def test_lm2_grows_under_slope_drift():
    # random-walk drift in the slope: the score partial sums blow up
    # with the sample size
    meds = {}
    for n in (250, 1000, 4000):
        vals = []
        for i in range(40):
            gen = np.random.default_rng((64, n, i))
            x = np.empty(n + 1)
            x[0] = 0.0
            v = gen.standard_normal(n + 1)
            for t in range(1, n + 1):
                x[t] = 0.9 * x[t - 1] + v[t]
            b = np.cumsum(gen.standard_normal(n)) * (0.5 / np.sqrt(n))
            y = np.empty(n + 1)
            y[0] = 0.0
            y[1:] = b * x[:-1] + gen.standard_normal(n)
            vals.append(T.lm_nyblom(y, x).lm2)
        meds[n] = np.median(vals)
    assert meds[250] < meds[1000] < meds[4000]
    assert meds[4000] > 4.0 * meds[250]


def test_me_monitor_zero_residual_path():
    # an exact historical fit has no noise scale: the path is zero by
    # convention instead of a ratio of rounding errors
    gen = np.random.default_rng((65, 1))
    n = 300
    x = np.column_stack([np.ones(n), gen.standard_normal(n)])
    y = x @ np.array([0.5, 1.0])
    res = T.me_monitor(y, x, n_hist=150, h=0.2)
    assert res.stat == 0.0
    assert np.all(res.path == 0.0)


def test_me_monitor_localizes_break():
    gen = np.random.default_rng((65, 0))
    n, n_hist, h, k0 = 500, 200, 0.25, 300
    x = np.column_stack([np.ones(n), gen.standard_normal(n)])
    y = x @ np.array([0.5, 1.0]) + 0.5 * gen.standard_normal(n)
    y[k0:] += 1.5 * x[k0:, 1]
    res = T.me_monitor(y, x, n_hist=n_hist, h=h)
    win = res.window
    assert win == 50
    # windows entirely before the break stay quiet, windows on it spike
    pre = res.path[res.k_grid + win <= k0]
    assert res.stat > 5.0 * pre.max()
    k_star = res.k_grid[np.argmax(res.path)]
    assert k0 - win <= k_star <= k0 + win


def test_me_monitor_validation():
    gen = np.random.default_rng((65, 2))
    n = 100
    x = gen.standard_normal((n, 2))
    y = gen.standard_normal(n)
    with pytest.raises(ValueError, match="window too short"):
        T.me_monitor(y, x, n_hist=50, h=0.02)
    with pytest.raises(ValueError, match="no monitoring observations"):
        T.me_monitor(y, x, n_hist=95, h=0.2)
    with pytest.raises(ValueError, match="h must"):
        T.me_monitor(y, x, n_hist=50, h=1.5)
    xs = np.column_stack([np.ones(n), np.ones(n)])
    with pytest.raises(ValueError, match="(?i)singular"):
        T.me_monitor(y, xs, n_hist=50, h=0.3)


# --- source guard: break scans are one cumulative pass, never a loop over k --

def _break_grid_loops(source: str) -> list[int]:
    """Line numbers of the `for` loops and comprehensions over a `k_grid`."""
    return sorted(node.iter.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, (ast.For, ast.AsyncFor, ast.comprehension))
                  and any(getattr(n, "id", None) == "k_grid"
                          or getattr(n, "attr", None) == "k_grid"
                          for n in ast.walk(node.iter)))


def test_guard_flags_each_break_grid_loop():
    forms = ["for k in k_grid:\n    pass",
             "for pos, kb in enumerate(k_grid):\n    path[pos] = f(kb)",
             "path = np.stack([wald(ys, xl, int(k)).stat for k in k_grid], axis=1)",
             "for i in range(res.k_grid.size):\n    pass",
             "path = {k: f(k) for k in self.k_grid}"]
    for src in forms:
        assert len(_break_grid_loops(src)) == 1, src
    # building, indexing or broadcasting over a grid is no loop
    assert _break_grid_loops(
        "k_grid = np.arange(lo, hi + 1)\nS = C[:, :, k_grid - 1]\n"
        "for a in range(s):\n    S[a] = S[a] - k_grid * c[:, a, None]\n") == []


def test_no_library_loop_over_a_break_grid():
    # sup_wald and fk_break_test read every break date from one pass of
    # cumulative moments (`breaks._break_scan`)
    src = Path(T.__file__).parent
    offenders = {path.name: _break_grid_loops(path.read_text())
                 for path in sorted(src.glob("*.py"))}
    assert {k: v for k, v in offenders.items() if v} == {}
