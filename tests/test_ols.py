"""The shared least-squares kernel `_panel.ols` and the estimators built on it.

Every OLS fit in the library goes through `ols`.  The oracles below keep
the hand-written algebra each estimator used before (2-d `X.T @ X`,
`solve`, `inv`, `resid @ resid`), and the estimators must match them bit
for bit.  A guard test keeps new hand-rolled fits out of `src/tsnet`,
and another keeps the exact-fit tolerance of `_panel.exact_fit` in one
place; every statistic under that rule is invariant to the scale of y.
"""

import ast
import io
import re
import tokenize
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from scipy.signal import lfilter

import tsnet as T
from tsnet._filter import ar
from tsnet._panel import ols, ols_coef
from tsnet.unitroot import _ar_fit
from tsnet.garch import garch_filter


# ---------------------------------------------------------------------------
# the kernel


def test_ols_with_one_rep_equals_the_2d_algebra():
    gen = np.random.default_rng(3)
    for case in range(300):
        n, k = int(gen.integers(10, 3001)), int(gen.integers(1, 5))
        X = gen.standard_normal((n, k)) * gen.uniform(0.1, 100.0, k)
        if case % 3 == 0:
            X[:, 0] = 1.0
        y = gen.standard_normal(n)
        G = X.T @ X
        coef = np.linalg.solve(G, X.T @ y)
        resid = y - X @ coef
        fit = ols(X[None], y[None])
        assert np.array_equal(fit.coef[0], coef)
        assert np.array_equal(fit.resid[0], resid)
        assert fit.ssr[0] == resid @ resid
        assert np.array_equal(fit.gram[0], G)
        assert np.array_equal(fit.gram_inv[0], np.linalg.inv(G))


def test_ols_reps_equal_their_single_rep_fits():
    gen = np.random.default_rng(4)
    for _ in range(20):
        R, n, k = int(gen.integers(2, 70)), int(gen.integers(10, 400)), int(gen.integers(1, 5))
        X = gen.standard_normal((R, n, k))
        y = gen.standard_normal((R, n))
        fit = ols(X, y)
        assert fit.coef.shape == (R, k) and fit.resid.shape == (R, n)
        assert fit.ssr.shape == (R,) and fit.gram_inv.shape == (R, k, k)
        for r in range(R):
            one = ols(X[r:r + 1], y[r:r + 1])
            for a, b in zip(fit, one):
                assert np.array_equal(a[r], b[0])


@pytest.mark.parametrize("R", [1, 7, 1000])
def test_one_column_ols_equals_the_matmul_form(R):
    gen = np.random.default_rng(5)
    X = gen.standard_normal((R, 300, 1)) * gen.uniform(0.1, 100.0, (R, 1, 1))
    X[:, 0] = 0.0  # a walk's first lag, times a negative coef: a -0.0 product
    y = gen.standard_normal((R, 300))
    fit = ols(X, y)
    resid = y - (X @ fit.coef[:, :, None])[:, :, 0]
    assert np.array_equal(fit.resid, resid)
    assert np.array_equal(fit.ssr, (resid[:, None, :] @ resid[:, :, None])[:, 0, 0])


def test_ols_coef_equals_the_full_fit():
    gen = np.random.default_rng(6)
    for R, n, k in [(1, 50, 1), (60, 999, 1), (7, 200, 3)]:
        X = gen.standard_normal((R, n, k))
        y = gen.standard_normal((R, n))
        part, full = ols_coef(X, y), ols(X, y)
        for name in ("coef", "gram", "gram_inv"):
            assert np.array_equal(getattr(part, name), getattr(full, name))
    with pytest.raises(np.linalg.LinAlgError, match="collinear"):
        ols_coef(np.ones((2, 10, 2)), gen.standard_normal((2, 10)))


# ---------------------------------------------------------------------------
# estimators against the algebra they used before the kernel


def ref_ols_ar(x, p, deterministic):
    n = x.shape[0]
    y = x[p:]
    t_index = np.arange(p + 1, n + 1).astype(float)
    det = {"none": [], "const": [np.ones(n - p)],
           "trend": [np.ones(n - p), t_index]}[deterministic]
    X = np.column_stack(det + [x[p - j:n - j] for j in range(1, p + 1)])
    XtX = X.T @ X
    coeffs = np.linalg.solve(XtX, X.T @ y)
    resid = y - X @ coeffs
    s2 = float(resid @ resid / (y.shape[0] - X.shape[1]))
    return coeffs, resid, s2, s2 * np.linalg.inv(XtX)


def ref_adf(x, p, deterministic):
    n = x.shape[0]
    start = p + 1
    y = x[start:]
    t_index = np.arange(start + 1, n + 1).astype(float)
    det = {"none": [], "const": [np.ones(n - start)],
           "trend": [np.ones(n - start), t_index]}[deterministic]
    dx = np.diff(x)
    cols = [x[start - 1:n - 1]] + [dx[start - 1 - j:n - 1 - j] for j in range(1, p + 1)]
    X = np.column_stack(det + cols)
    XtX = X.T @ X
    coeffs = np.linalg.solve(XtX, X.T @ y)
    resid = y - X @ coeffs
    nobs = y.shape[0]
    s2 = float(resid @ resid / (nobs - X.shape[1]))
    cov = s2 * np.linalg.inv(XtX)
    k_det = len(det)
    alpha = float(coeffs[k_det])
    t_stat = (alpha - 1.0) / float(np.sqrt(cov[k_det, k_det]))
    phi_sum = float(np.sum(coeffs[k_det + 1:])) if p > 0 else 0.0
    return nobs * (alpha - 1.0) / (1.0 - phi_sum), t_stat, alpha, s2


def ref_lm_nyblom(y, x):
    ys, xlag = y[1:], x[:-1]
    m = ys.shape[0]
    Z = np.column_stack([np.ones(m), xlag, np.diff(x)])
    coef = np.linalg.solve(Z.T @ Z, Z.T @ ys)
    e = ys - Z @ coef
    sigma2 = float(np.mean(e**2))
    X = np.column_stack([np.ones(m), xlag])
    P = np.cumsum(X * e[:, None], axis=0)
    XtX_inv = np.linalg.inv(X.T @ X)
    lm = float(np.sum((P @ XtX_inv) * P) / (m * sigma2))
    lm1 = float(np.sum(P[:, 0] ** 2) / (m**2 * sigma2))
    lm2 = float(np.sum(P[:, 1] ** 2) / (m * sigma2 * np.sum(xlag**2)))
    return lm, lm1, lm2, sigma2


def _series(seed, n, rho=0.6):
    gen = np.random.default_rng(seed)
    return lfilter([1.0], [1.0, -rho], gen.standard_normal(n)) + 0.01 * np.arange(n)


@pytest.mark.parametrize("p", [1, 2, 4])
@pytest.mark.parametrize("deterministic", ["none", "const", "trend"])
def test_ols_ar_equals_its_oracle(p, deterministic):
    x = _series(10 + p, 300)
    fit = T.ols_ar(x, p=p, deterministic=deterministic)
    coeffs, resid, s2, cov = ref_ols_ar(x, p, deterministic)
    assert np.array_equal(fit.coeffs, coeffs)
    assert np.array_equal(fit.residuals, resid)
    assert fit.s2 == s2
    assert np.array_equal(fit.cov, cov)


@pytest.mark.parametrize("p", [0, 1, 3])
@pytest.mark.parametrize("deterministic", ["none", "const", "trend"])
def test_adf_test_equals_its_oracle(p, deterministic):
    x = np.cumsum(_series(20 + p, 250))
    res = T.adf_test(x, p=p, deterministic=deterministic)
    assert (res.stat_coef, res.stat_t, res.alpha_hat, res.s2_u) == \
        ref_adf(x, p, deterministic)


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("short_run", [False, True])
def test_shin_vn_equals_its_oracle(d, short_run):
    gen = np.random.default_rng(30 + d)
    x = np.cumsum(gen.standard_normal((200, d)), axis=0)
    y = 1.0 + x @ np.full(d, 0.7) + gen.standard_normal(200)
    Z = np.column_stack([np.ones(200), x])
    resid = y - Z @ np.linalg.solve(Z.T @ Z, Z.T @ y)
    got = T.shin_vn(y, x if d > 1 else x[:, 0], short_run=short_run)
    want = T.shin_vn(resid, short_run=short_run)  # x=None: y is the residual series
    assert (got.v_n, got.sigma2) == (want.v_n, want.sigma2)


def test_lm_nyblom_equals_its_oracle():
    for seed in range(5):
        gen = np.random.default_rng(40 + seed)
        x = np.cumsum(gen.standard_normal(300))
        y = np.r_[0.0, 0.5 + 0.1 * x[:-1]] + gen.standard_normal(300)
        res = T.lm_nyblom(y, x)
        assert (res.lm, res.lm1, res.lm2, res.sigma2) == ref_lm_nyblom(y, x)


def test_fmols_carries_its_ols_stage_inverse():
    gen = np.random.default_rng(45)
    x = np.cumsum(gen.standard_normal((150, 2)), axis=0)
    y = 1.0 + x @ np.array([2.0, -1.0]) + gen.standard_normal(150)
    res = T.fmols(y, x)
    Z = np.column_stack([np.ones(149), x[1:]])
    assert np.array_equal(res.zz_inv, np.linalg.inv(Z.T @ Z))
    assert np.array_equal(res.beta_ols, np.linalg.solve(Z.T @ Z, Z.T @ y[1:]))
    assert np.array_equal(res.cov, res.omega_cond * res.zz_inv)


def test_garch_ar1_mean_equals_its_oracle():
    spec = T.GarchSpec(omega=0.1, alpha=0.1, beta=0.8, mu=0.0)
    e, _ = T.simulate_garch(spec, 600, T.RngSpec(50, 0))
    y = lfilter([1.0], [1.0, -0.4], e) + 0.3
    fit = T.garch_qmle(y, mean="ar1")
    X = np.column_stack([np.ones(599), y[:-1]])
    coef = np.linalg.solve(X.T @ X, X.T @ y[1:])
    eps = y[1:] - X @ coef
    s2_init = float((eps**2).mean())
    assert (fit.spec.mu, fit.ar_coeff) == (float(coef[0]), float(coef[1]))
    assert np.array_equal(fit.sigma2, garch_filter(eps, fit.spec, sigma2_0=s2_init,
                                                   eps2_0=s2_init))


@pytest.mark.parametrize("p", [1, 3])
def test_sieve_bootstrap_equals_its_oracle(p):
    x = _series(60 + p, 200, rho=0.5)
    res = T.sieve_bootstrap(x, np.mean, B=20, rng=T.RngSpec(61, p), p=p)
    gen = T.RngSpec(61, p).generator()
    n, m = x.shape[0], x.mean()
    xc = x - m
    lags = np.column_stack([xc[p - j:n - j] for j in range(1, p + 1)])
    a = np.linalg.solve(lags.T @ lags, lags.T @ xc[p:])
    resid = xc[p:] - lags @ a
    resid = resid - resid.mean()
    burn = 100 + p
    want = [np.mean(m + ar(resid[gen.integers(0, resid.shape[0], size=n + burn)], a)[burn:])
            for _ in range(20)]
    assert np.array_equal(res.stats, want)


def ref_df_draws(walks, deterministic):
    """T(alpha - 1) and the t-ratio by the closed forms and einsum fit `df_limit_mc` once used."""
    y, ylag = walks[:, 1:], walks[:, :-1]
    reps, te = y.shape
    if deterministic == "none":
        sxx = np.sum(ylag**2, axis=1)
        alpha = np.sum(ylag * y, axis=1) / sxx
        resid = y - alpha[:, None] * ylag
        se = np.sqrt(np.sum(resid**2, axis=1) / (te - 1) / sxx)
    elif deterministic == "const":
        ylag_c = ylag - ylag.mean(axis=1, keepdims=True)
        y_c = y - y.mean(axis=1, keepdims=True)
        sxx = np.sum(ylag_c**2, axis=1)
        alpha = np.sum(ylag_c * y_c, axis=1) / sxx
        resid = y_c - alpha[:, None] * ylag_c
        se = np.sqrt(np.sum(resid**2, axis=1) / (te - 2) / sxx)
    else:
        X = np.stack([np.ones((reps, te)), np.broadcast_to(np.arange(2.0, te + 2), (reps, te)),
                      ylag], axis=2)
        XtX = np.einsum("rti,rtj->rij", X, X)
        coeffs = np.linalg.solve(XtX, np.einsum("rti,rt->ri", X, y)[:, :, None])[:, :, 0]
        resid = y - np.einsum("rti,ri->rt", X, coeffs)
        se = np.sqrt(np.sum(resid**2, axis=1) / (te - 3) * np.linalg.inv(XtX)[:, 2, 2])
        alpha = coeffs[:, 2]
    return te * (alpha - 1.0), (alpha - 1.0) / se


@pytest.mark.parametrize("deterministic", ["none", "const", "trend"])
def test_df_limit_matches_the_closed_forms(deterministic):
    T_len, reps = 50, 2300  # three batches, the last one partial
    tables = T.df_limit_mc(T_len, deterministic=deterministic, reps=reps, rng=T.RngSpec(70, 0))
    walks = np.cumsum(T.RngSpec(70, 0).generator().standard_normal((reps, T_len)), axis=1)
    coef, t = ref_df_draws(walks, deterministic)
    probs = (0.01, 0.025, 0.05, 0.10, 0.50, 0.90, 0.95, 0.99)
    for table, draws in ((tables.coef, coef), (tables.t, t)):
        want = T.QuantileTable.from_draws(draws, reps)
        np.testing.assert_allclose([table.quantile(p) for p in probs],
                                   [want.quantile(p) for p in probs], rtol=1e-12)


def test_unitroot_bootstrap_equals_the_ratio_form():
    for seed in range(6):
        gen = np.random.default_rng(71 + seed)
        x = np.cumsum(gen.standard_normal(int(gen.integers(50, 800)))) * gen.uniform(0.1, 10.0)
        B, block = 60, T.BlockSpec(int(gen.integers(1, 15)))
        res = T.residual_unitroot_bootstrap(x, B, T.RngSpec(72, seed), block=block)
        y, ylag = x[1:], x[:-1]
        m = y.shape[0]
        rho = float((ylag @ y) / (ylag @ ylag))
        assert np.array_equal(res.observed, m * (rho - 1.0))
        resid = y - rho * ylag
        idx = ref_block_index(m, block, B, T.RngSpec(72, seed).generator())
        x_star = np.hstack([np.zeros((B, 1)), np.cumsum((resid - resid.mean())[idx], axis=1)])
        ys, yl = x_star[:, 1:], x_star[:, :-1]
        # T(rho* - 1) loses digits to cancellation, so compare rho* itself
        np.testing.assert_allclose(1.0 + res.stats / m,
                                   np.sum(yl * ys, axis=1) / np.sum(yl**2, axis=1),
                                   rtol=1e-13, atol=0)


# ---------------------------------------------------------------------------
# the block gather of both block bootstraps against the index matrix it replaced


def ref_block_index(n, spec, B, gen):
    """(B, n) index matrix of block-bootstrap draws into a length-n array."""
    l = spec.length
    k = -(-n // l)
    if not spec.overlap:
        starts = gen.integers(0, n // l, size=(B, k)) * l
    elif spec.circular:
        starts = gen.integers(0, n, size=(B, k))
    else:
        starts = gen.integers(0, n - l + 1, size=(B, k))
    idx = starts[:, :, None] + np.arange(l)[None, None, :]
    if spec.overlap and spec.circular:
        idx %= n
    return idx.reshape(B, -1)[:, :n]


_LAYOUTS = [dict(overlap=True, circular=False), dict(overlap=False),
            dict(overlap=True, circular=True)]


@pytest.mark.parametrize("layout", _LAYOUTS)
@pytest.mark.parametrize("B", [1, 60])
def test_block_gather_equals_the_index_matrix(layout, B):
    m = 243  # a multiple of none of 7, 10 and m - 1
    x = np.random.default_rng(73).standard_normal(m + 1).cumsum()
    for l in (1, 7, 10, m - 1):
        block = T.BlockSpec(l, **layout)
        rows = T.block_bootstrap(x[1:], lambda z: z.copy(), B, T.RngSpec(74, l), block)
        idx = ref_block_index(m, block, B, T.RngSpec(74, l).generator())
        assert np.array_equal(rows.stats, x[1:][idx])

        res = T.residual_unitroot_bootstrap(x, B, T.RngSpec(75, l), block=block)
        resid = _ar_fit(x[None], "none")[0].resid[0]
        idx = ref_block_index(m, block, B, T.RngSpec(75, l).generator())
        x_star = np.zeros((B, m + 1))
        np.cumsum((resid - resid.mean())[idx], axis=1, out=x_star[:, 1:])
        rho_star = _ar_fit(x_star, "none")[0].coef[:, 0]
        assert np.array_equal(res.stats, m * (rho_star - 1.0))


def test_unitroot_bootstrap_peak_memory():
    x = np.random.default_rng(76).standard_normal(1000).cumsum()
    T.residual_unitroot_bootstrap(x, 20, T.RngSpec(77), block=10)  # warm up
    tracemalloc.start()
    try:
        T.residual_unitroot_bootstrap(x, 2000, T.RngSpec(77), block=10)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (2000, 1000) replicate walks alone take 16 MB
    assert peak <= 35e6, peak / 1e6


# ---------------------------------------------------------------------------
# me_monitor's stacked window solve against the window loop it replaced


def ref_me_monitor(y, x, n_hist, h):
    n, d = x.shape
    win = int(np.floor(h * n_hist))
    xh, yh = x[:n_hist], y[:n_hist]
    Q = xh.T @ xh / n_hist
    beta_hist = np.linalg.solve(xh.T @ xh, xh.T @ yh)
    resid = yh - xh @ beta_hist
    sigma = np.sqrt(float(resid @ resid / (n_hist - d)))
    evals, evecs = np.linalg.eigh(Q)
    Q_half = evecs @ np.diag(np.sqrt(evals)) @ evecs.T
    outer = x[:, :, None] * x[:, None, :]
    cum_xx = np.concatenate([np.zeros((1, d, d)), np.cumsum(outer, axis=0)])
    cum_xy = np.concatenate([np.zeros((1, d)), np.cumsum(x * y[:, None], axis=0)])
    k_grid = np.arange(n_hist, n - win + 1)
    path = np.empty(k_grid.size)
    scale = win / (sigma * np.sqrt(n_hist))
    for pos, k in enumerate(k_grid):
        beta_win = np.linalg.solve(cum_xx[k + win] - cum_xx[k], cum_xy[k + win] - cum_xy[k])
        path[pos] = scale * np.linalg.norm(Q_half @ (beta_win - beta_hist))
    return path, beta_hist


def test_me_monitor_equals_the_window_loop():
    gen = np.random.default_rng(80)
    for case in range(40):
        n, d = int(gen.integers(60, 800)), int(gen.integers(1, 5))
        x = gen.standard_normal((n, d))
        if case % 2:
            x[:, 0] = 1.0
        drift = np.r_[np.zeros(n // 2), np.ones(n - n // 2)]
        y = x @ gen.standard_normal(d) + gen.standard_normal(n) + drift
        n_hist = int(gen.integers(max(d + 2, 20), n // 2))
        h = float(gen.uniform(0.1, 1.0))
        if np.floor(h * n_hist) < d + 1:
            continue
        res = T.me_monitor(y, x, n_hist, h)
        path, beta_hist = ref_me_monitor(y, x, n_hist, h)
        assert np.array_equal(res.path, path)
        assert np.array_equal(res.beta_hist, beta_hist)
        assert res.stat == path.max()


# ---------------------------------------------------------------------------
# a singular design fails with one clear error


_CONST = np.ones(60)
_NOISE = np.random.default_rng(90).standard_normal(60)


@pytest.mark.parametrize("fit", [
    lambda: ols(np.ones((1, 60, 2)), _NOISE[None]),
    lambda: T.ols_ar(_CONST, p=1, deterministic="const"),
    lambda: T.adf_test(_CONST, deterministic="const"),
    lambda: T.shin_vn(_NOISE, _CONST),
    lambda: T.lm_nyblom(_NOISE, _CONST),
    lambda: T.fmols(_NOISE, _CONST),
    lambda: T.garch_qmle(_CONST, mean="ar1"),
], ids=["ols", "ols_ar", "adf_test", "shin_vn", "lm_nyblom", "fmols", "garch_qmle"])
def test_singular_design_raises_one_clear_error(fit):
    # a LinAlgError is a ValueError, so the CLI prints it as one line
    with pytest.raises(np.linalg.LinAlgError, match="regressors are collinear or constant"):
        fit()


# ---------------------------------------------------------------------------
# guard: no least-squares fit is written out by hand outside `_panel`,
# neither as a Gram solve nor as a lag regression's ratio of sums

_SRC = Path(T.__file__).parent
# einsum subscripts of a Gram: "rti,rtj->rij", "ti,tj->ij", ...
_GRAM_EINSUM = re.compile(r"^(\w*)(\w),\1(\w)->\w*\2\3$")


def _hand_rolled_fits(source: str) -> list[str]:
    """Lines of `source` that solve a Gram X'X, call lstsq, or einsum a Gram."""
    tree = ast.parse(source)
    transposes, grams, found = {}, set(), []

    def transposed(node):
        """The source of X when `node` is X.T, X.transpose(...) or a name for one."""
        if isinstance(node, ast.Attribute) and node.attr == "T":
            return ast.unparse(node.value)
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "transpose"):
            return ast.unparse(node.func.value)
        if isinstance(node, ast.Name):
            return transposes.get(node.id)
        return None

    def is_gram(node):
        if isinstance(node, ast.Name):
            return node.id in grams
        return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.MatMult)
                and transposed(node.left) is not None
                and transposed(node.left) == ast.unparse(node.right))

    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 \
                and isinstance(node.targets[0], ast.Name):
            name = node.targets[0].id
            if transposed(node.value) is not None and not isinstance(node.value, ast.Name):
                transposes[name] = transposed(node.value)
            elif is_gram(node.value):
                grams.add(name)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func.attr if isinstance(node.func, ast.Attribute) else \
            getattr(node.func, "id", "")
        if func == "lstsq" or (func == "solve" and node.args and is_gram(node.args[0])):
            found.append(ast.unparse(node))
        elif (func == "einsum" and node.args and isinstance(node.args[0], ast.Constant)
              and _GRAM_EINSUM.match(str(node.args[0].value).replace(" ", ""))):
            found.append(ast.unparse(node))
    return found


def _lag_ratios(source: str) -> list[tuple[str, str]]:
    """(function, code) of each ratio a'b / a'a in `source`: a lag regression by sums.

    Numerator and denominator are `@` products or sums of `a * b` or
    `a**2`, read through `float(...)`, `sum` calls and names bound
    earlier in the same function; the denominator squares one operand
    of the numerator.
    """
    found = []

    def strip(node, values):
        for _ in range(10):  # bounded: two names may be bound to each other
            if isinstance(node, ast.Name) and node.id in values:
                node = values[node.id]
            elif isinstance(node, ast.Call):
                func = node.func.attr if isinstance(node.func, ast.Attribute) else \
                    getattr(node.func, "id", "")
                if func not in ("float", "sum"):
                    break
                node = node.args[0] if node.args else node.func.value
            else:
                break
        return node

    def operands(node):
        if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.MatMult, ast.Mult)):
            return ast.unparse(node.left), ast.unparse(node.right)
        if (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
                and isinstance(node.right, ast.Constant) and node.right.value == 2):
            return ast.unparse(node.left), ast.unparse(node.left)
        return None

    def visit(node, scope, values):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, {})
                continue
            visit(child, scope, values)
            if (isinstance(child, ast.Assign) and len(child.targets) == 1
                    and isinstance(child.targets[0], ast.Name)):
                values[child.targets[0].id] = child.value
            elif isinstance(child, ast.BinOp) and isinstance(child.op, ast.Div):
                num = operands(strip(child.left, values))
                den = operands(strip(child.right, values))
                if num and den and den[0] == den[1] and den[0] in num:
                    found.append((scope, ast.unparse(child)))

    visit(ast.parse(source), "", {})
    return found


def test_guard_flags_each_hand_rolled_form():
    forms = [
        "b = np.linalg.solve(X.T @ X, X.T @ y)",
        "XtX = X.T @ X\nb = np.linalg.solve(XtX, X.T @ y)",
        "Xt = X.transpose(0, 2, 1)\nb = np.linalg.solve(Xt @ X, Xt @ y[:, :, None])",
        "Xt = X.transpose(0, 2, 1)\nG = Xt @ X\nb = np.linalg.solve(G, Xt @ y)",
        "b, *_ = np.linalg.lstsq(z, ys, rcond=None)",
        'G = np.einsum("rti,rtj->rij", X, X)',
    ]
    for src in forms:
        assert len(_hand_rolled_fits(src)) == 1, src
    # an IV solve, a cumulative-Gram solve and a row-wise einsum are not fits
    others = ("A = zt @ xlag\nb = np.linalg.solve(A, zt @ ys)\n"
              "b = np.linalg.solve(g, mom)\n"
              'e = np.einsum("tp,tp->t", zf, b)\n')
    assert _hand_rolled_fits(others) == []


def test_guard_flags_each_lag_ratio_form():
    # the four ratio fits `df_limit_mc` and `residual_unitroot_bootstrap` used
    forms = [
        "sxy = np.sum(ylag * y, axis=1)\nsxx = np.sum(ylag**2, axis=1)\nalpha = sxy / sxx",
        "sxx = np.sum(ylag_c**2, axis=1)\nalpha = np.sum(ylag_c * y_c, axis=1) / sxx",
        "rho_hat = float((ylag @ y) / (ylag @ ylag))",
        "rho_star = np.sum(yl * ys, axis=1) / np.sum(yl**2, axis=1)",
    ]
    for src in forms:
        assert len(_lag_ratios(src)) == 1, src
    scoped = ("def _ar1_clt_rep(cfg, ctx, r):\n"
              "    rho_hat = float(x[1:] @ x[:-1]) / float(x[:-1] @ x[:-1])\n")
    assert [scope for scope, _ in _lag_ratios(scoped)] == ["_ar1_clt_rep"]
    # a variance over a Gram, a scaled Gram and an autocorrelation are not fits
    others = ("s2 = np.sum(resid**2, axis=1) / (te - 1)\nse = np.sqrt(s2 / sxx)\n"
              "g = x.T @ x / n\n"
              "r1 = np.sum(e[1:] * e[:-1]) / np.sum(e**2)\n")
    assert _lag_ratios(others) == []


def test_no_hand_rolled_least_squares_outside_the_kernel():
    offenders = {}
    for path in sorted(_SRC.glob("*.py")):
        if path.name == "_panel.py":
            continue
        source = path.read_text()
        offenders[path.name] = _hand_rolled_fits(source) + [
            code for _, code in _lag_ratios(source)]
    assert {k: v for k, v in offenders.items() if v} == {}


# ---------------------------------------------------------------------------
# the exact-fit rule: one tolerance, in `_panel`, relative to y'y alone


def _tolerance_numbers(source: str) -> list[str]:
    """The number literals of value 1e-20 in `source`, however spelled."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return [tok.string for tok in tokens
            if tok.type == tokenize.NUMBER and ast.literal_eval(tok.string) == 1e-20]


def _fit_tolerances(source: str) -> list[str]:
    """Each spelling of 1e-20 in `source`: a number of that value, or the
    text 1e-20 anywhere (a comment or docstring restating the rule)."""
    return _tolerance_numbers(source) + re.findall(
        r"(?<![\w.])1(?:\.0*)?e-0*20(?!\d)", source, re.I)


def test_guard_flags_each_tolerance_spelling():
    for src in ("tol = 1e-20", "ok = ssr <= 1.0E-20 * yy", "tol = 10e-21",
                "# SSR below 1e-20 y'y", '"""SSR <= 1e-020 max(1, yy)"""'):
        assert _fit_tolerances(src), src
    assert _fit_tolerances("a, b, c = 1e-200, 1e-2, 2e-20  # 11e-20") == []


def test_exact_fit_tolerance_lives_only_in_the_kernel():
    offenders = {path.name: _fit_tolerances(path.read_text())
                 for path in sorted(_SRC.glob("*.py")) if path.name != "_panel.py"}
    assert {k: v for k, v in offenders.items() if v} == {}
    # and `_panel` holds it once, in `exact_fit`
    assert _tolerance_numbers((_SRC / "_panel.py").read_text()) == ["1e-20"]


_SCALE_GEN = np.random.default_rng((60, 15))
_X = np.cumsum(_SCALE_GEN.standard_normal((200, 2)), axis=0)
_U = _SCALE_GEN.standard_normal(200)
_Y = np.r_[0.0, 0.5 * _X[:-1, 0] + _U[1:]]  # predictive
_YC = 1.0 + 0.5 * _X[:, 0] + _U  # cointegrated with _X[:, 0]
_W = np.cumsum(_U)  # a random walk

# the numbers of each statistic, with y (or the series) multiplied by s
_SCALED = {
    "sup_wald": lambda s: T.sup_wald(_Y * s, _X).path,
    "split_wald": lambda s: T.split_wald(_Y * s, _X, pi0=0.4).stat,
    "fk_break_test": lambda s: T.fk_break_test(_YC * s, _X[:, 0]).path,
    "nested_forecast_test": lambda s: T.nested_forecast_test(
        _Y * s, _X[:, :1], _X[:, 1:], k0=60).path,
    "me_monitor": lambda s: T.me_monitor(_Y * s, _X, n_hist=100).path,
    "lm_nyblom": lambda s: (lambda r: [r.lm, r.lm1, r.lm2])(T.lm_nyblom(_Y * s, _X[:, 0])),
    "shin_vn": lambda s: T.shin_vn(_YC * s, _X[:, 0]).v_n,
    "phillips_z": lambda s: (lambda r: [r.stat_coef, r.stat_t])(
        T.phillips_z(_W * s, deterministic="const")),
    "adf_test": lambda s: (lambda r: [r.stat_coef, r.stat_t])(
        T.adf_test(_W * s, p=2, deterministic="trend")),
    "residual_unitroot_bootstrap": lambda s: T.residual_unitroot_bootstrap(
        _W * s, 99, T.RngSpec(8), block=10).stats,
}


@pytest.mark.parametrize("k", [40, -40])
@pytest.mark.parametrize("name", sorted(_SCALED))
def test_noisy_data_answer_the_same_at_any_scale(name, k):
    # y * 2^-40 is still noisy data: no statistic may call its fit exact
    stat = _SCALED[name]
    np.testing.assert_allclose(stat(2.0**k), stat(1.0), rtol=1e-12, atol=0)
