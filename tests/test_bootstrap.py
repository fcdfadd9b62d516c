"""Tests for block, stationary, sieve, wild, and unit-root bootstraps."""

import tracemalloc
from math import ceil

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import stats as st
from scipy.signal import lfilter

import tsnet as T
from tsnet._panel import _PANEL_BYTES, ols_coef
from tsnet.unitroot import _ar_fit


def _ar1(phi, n, spec, burn=200):
    gen = spec.generator()
    e = gen.standard_normal(n + burn)
    return lfilter([1.0], [1.0, -phi], e)[burn:]


def test_block_full_length_nonoverlap_is_identity():
    # l = n with the deterministic partition: one block, always the
    # original series, so the replicate statistics are all the observed
    # value and the variance is exactly zero
    x = np.random.default_rng((70, 100)).standard_normal(64)
    spec = T.BlockSpec(length=64, overlap=False)
    res = T.block_bootstrap(x, lambda z: float(z.mean()), 50, T.RngSpec(1), spec)
    assert np.all(res.stats == res.observed)
    assert res.stats.var() == 0.0
    assert res.scheme == "block"


def test_block_validation():
    x = np.random.default_rng((70, 101)).standard_normal(30)
    with pytest.raises(ValueError):
        T.block_bootstrap(x, np.mean, 0, T.RngSpec(1), 5)
    for spec in (T.BlockSpec(31, overlap=False),
                 T.BlockSpec(31, overlap=True, circular=False),
                 T.BlockSpec(31, overlap=True, circular=True)):
        with pytest.raises(ValueError, match="exceeds"):
            T.block_bootstrap(x, np.mean, 10, T.RngSpec(1), spec)
    with pytest.raises(ValueError):
        T.BlockSpec(0)


def test_block_variance_tracks_lrv():
    # AR(1) phi=0.5 has omega^2 = 4; the blocked variance of the scaled
    # mean should recover it on MC average
    n = 5000
    l = int(np.ceil(n ** (1.0 / 3.0)))
    vs = []
    for i in range(10):
        x = _ar1(0.5, n, T.RngSpec(70, i))
        res = T.block_bootstrap(x, lambda z: float(np.sqrt(n) * z.mean()),
                                400, T.RngSpec(71, i), l)
        vs.append(res.stats.var())
    assert np.mean(vs) == pytest.approx(4.0, rel=0.15)


def test_block_determinism():
    x = np.random.default_rng((70, 102)).standard_normal(100)
    a = T.block_bootstrap(x, np.mean, 30, T.RngSpec(9, 3), 7)
    b = T.block_bootstrap(x, np.mean, 30, T.RngSpec(9, 3), 7)
    np.testing.assert_array_equal(a.stats, b.stats)
    c = T.block_bootstrap(x, np.mean, 30, T.RngSpec(9, 4), 7)
    assert not np.array_equal(a.stats, c.stats)


def test_stationary_long_blocks_are_rotations():
    # restart probability ~1e-12: each replicate is a circular rotation,
    # and the mean is rotation invariant
    x = np.random.default_rng((72, 100)).standard_normal(40)
    res = T.stationary_bootstrap(x, lambda z: float(z.mean()), 40,
                                 T.RngSpec(2), mean_block=1e12)
    np.testing.assert_allclose(res.stats, res.observed, rtol=1e-12)


def test_stationary_variance_ordering():
    # mean_block=1 is iid resampling (variance ~ Gamma_0); geometric
    # blocks sit near the fixed-block answer
    n = 3000
    l = int(np.ceil(n ** (1.0 / 3.0)))
    x = _ar1(0.5, n, T.RngSpec(72, 0))
    sn = lambda z: float(np.sqrt(n) * z.mean())
    v_iid = T.stationary_bootstrap(x, sn, 400, T.RngSpec(72, 1), mean_block=1.0).stats.var()
    v_sta = T.stationary_bootstrap(x, sn, 400, T.RngSpec(72, 2), mean_block=float(l)).stats.var()
    v_blk = T.block_bootstrap(x, sn, 400, T.RngSpec(72, 3), l).stats.var()
    g0 = np.mean((x - x.mean()) ** 2)
    assert v_iid == pytest.approx(g0, rel=0.25)
    assert v_iid < v_sta
    assert 0.5 < v_sta / v_blk < 2.0
    with pytest.raises(ValueError, match="mean_block"):
        T.stationary_bootstrap(x, sn, 10, T.RngSpec(3), mean_block=0.5)


def test_sieve_order_zero_is_iid_resampling():
    # p=0 must reproduce the iid residual bootstrap around the mean; the
    # generation path is replayed here draw by draw
    x = np.random.default_rng((73, 100)).standard_normal(50) + 2.0
    n, B, burn = 50, 8, 100
    res = T.sieve_bootstrap(x, lambda z: float(z.sum()), B, T.RngSpec(4, 7), p=0)
    gen = T.RngSpec(4, 7).generator()
    m = x.mean()
    resid = x - m
    resid = resid - resid.mean()
    expect = []
    for _ in range(B):
        u = resid[gen.integers(0, n, size=n + burn)]
        expect.append(float((m + u[burn:]).sum()))
    np.testing.assert_allclose(res.stats, expect, rtol=1e-12)


def test_sieve_recovers_dependence():
    x = _ar1(0.6, 2000, T.RngSpec(73, 0))

    def lag1(z):
        zc = z - z.mean()
        return float(zc[1:] @ zc[:-1] / (zc @ zc))

    res = T.sieve_bootstrap(x, lag1, 200, T.RngSpec(73, 1), p=1)
    assert abs(res.stats.mean() - lag1(x)) < 0.05


def test_sieve_order_and_stability_guards():
    x = np.random.default_rng((73, 101)).standard_normal(40)
    with pytest.raises(ValueError, match="too large"):
        T.sieve_bootstrap(x, np.mean, 10, T.RngSpec(5), p=20)
    expl = 1.2 ** np.arange(30)
    with pytest.raises(ValueError, match="nonstationary"):
        T.sieve_bootstrap(expl, np.mean, 5, T.RngSpec(5), p=1)


def test_wild_conditional_moments():
    e = T.RngSpec(77, 0).generator().standard_normal(200)
    assert T.wild_conditional_variance(e) == float(np.mean(e**2))
    sn = lambda z: float(z.sum() / np.sqrt(200))
    res = T.wild_bootstrap(e, sn, 100000, T.RngSpec(77, 1))
    se = res.stats.std() / np.sqrt(res.B)
    assert abs(res.stats.mean()) < 3.0 * se
    assert res.stats.var() == pytest.approx(np.mean(e**2), rel=0.05)


def test_wild_rademacher_identities():
    e = T.RngSpec(77, 0).generator().standard_normal(120)
    # unit multipliers preserve the sum of squares replicate by replicate
    res = T.wild_bootstrap(e, lambda z: float(z @ z), 200, T.RngSpec(77, 3),
                           multiplier="rademacher")
    np.testing.assert_allclose(res.stats, float(e @ e), rtol=1e-12)
    res2 = T.wild_bootstrap(e, lambda z: float(z.sum()), 100000,
                            T.RngSpec(77, 2), multiplier="rademacher")
    assert abs(st.skew(res2.stats)) < 0.02
    with pytest.raises(ValueError, match="multiplier"):
        T.wild_bootstrap(e, np.mean, 10, T.RngSpec(6), multiplier="uniform")


def test_unitroot_bootstrap_degenerate_input():
    x = np.full(50, 3.0)
    with pytest.raises(ValueError, match="residuals of the Dickey-Fuller fit are numerically zero"):
        T.residual_unitroot_bootstrap(x, 10, T.RngSpec(7), block=5)
    # exact AR(1) path without noise degenerates the same way
    x2 = 3.0 * 0.9 ** np.arange(60)
    with pytest.raises(ValueError, match="residuals of the Dickey-Fuller fit are numerically zero"):
        T.residual_unitroot_bootstrap(x2, 10, T.RngSpec(7), block=5)


def test_unitroot_bootstrap_rejects_stationary_alternative():
    rej = 0
    for i in range(50):
        x = _ar1(0.8, 500, T.RngSpec(75, i), burn=100)
        res = T.residual_unitroot_bootstrap(x, 199, T.RngSpec(76, i), block=10)
        p = T.bootstrap_pvalue(res.observed, res.stats, tail="left")
        rej += p <= 0.05
    assert rej >= 40


def test_unitroot_bootstrap_statistic_convention():
    gen = T.RngSpec(75, 100).generator()
    x = np.cumsum(gen.standard_normal(300))
    res = T.residual_unitroot_bootstrap(x, 50, T.RngSpec(75, 101), block=8)
    y, ylag = x[1:], x[:-1]
    rho = float(ylag @ y / (ylag @ ylag))
    assert res.observed == pytest.approx((len(x) - 1) * (rho - 1.0), rel=1e-12)
    assert res.stats.shape == (50,)
    assert res.scheme == "residual-unitroot"


def test_pvalue_conventions():
    draws = np.arange(1.0, 100.0)
    assert T.bootstrap_pvalue(0.5, draws, tail="right") == 1.0
    assert T.bootstrap_pvalue(1000.0, draws, tail="right") == 1.0 / 100.0
    assert T.bootstrap_pvalue(1000.0, draws, tail="left") == 1.0
    assert T.bootstrap_pvalue(0.5, draws, tail="left") == 1.0 / 100.0
    assert T.bootstrap_pvalue(-1000.0, draws, tail="two") == 1.0 / 100.0
    # ties count as extreme
    assert T.bootstrap_pvalue(99.0, draws, tail="right") == 2.0 / 100.0
    with pytest.raises(ValueError, match="tail"):
        T.bootstrap_pvalue(0.0, draws, tail="upper")


def test_pvalue_uniform_under_null():
    # idealized pipeline: replicates drawn from the true null law of the
    # statistic, so p-values must be uniform up to 1/(B+1) discreteness
    gen = T.RngSpec(74, 0).generator()
    R, B = 10000, 199
    pv = np.empty(R)
    for i in range(R):
        draws = gen.standard_normal(B)
        obs = gen.standard_normal()
        pv[i] = T.bootstrap_pvalue(obs, draws, tail="two")
    assert st.kstest(pv, "uniform").statistic < 0.02


def test_unitroot_bootstrap_gathers_into_the_walk_buffer():
    # the replicate walks are built a chunk at a time in one reused buffer:
    # the resampled residuals are gathered into it and cumulated in place,
    # and the block starts are drawn chunk by chunk (at length 1 there are
    # B * n of them)
    B, n = 2000, 1000
    y = np.cumsum(np.random.default_rng(8).standard_normal(n))
    for block in (10, 1):
        tracemalloc.start()
        try:
            T.residual_unitroot_bootstrap(y, B=B, rng=T.RngSpec(3), block=block)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * B * n * 8, block


# Oracles: the whole-(B, n) bodies the chunked schemes replaced.  Each
# chunk draws the same shapes in the same order, so the replicates, and
# every statistic of them, must come out bit for bit.

def _whole_block_resample(x, spec, B, gen):
    n, l = x.shape[0], spec.length
    k = ceil(n / l)
    if spec.overlap and spec.circular:
        x = np.concatenate([x, x[:l - 1]])
    windows = sliding_window_view(x, l)[::1 if spec.overlap else l]
    out = np.empty((B, n))
    rows = max(1, 2**17 // (k * l))
    for lo in range(0, B, rows):
        hi = min(lo + rows, B)
        starts = gen.integers(0, len(windows), size=(hi - lo, k))
        out[lo:hi] = windows[starts].reshape(hi - lo, k * l)[:, :n]
    return out


def _whole_unitroot_bootstrap(x, B, gen, spec):
    fit, _ = _ar_fit(x[None], "none")
    m = x.shape[0] - 1
    resid = fit.resid[0] - fit.resid[0].mean()
    x_star = np.empty((B, m + 1))
    x_star[:, 0] = 0.0
    x_star[:, 1:] = _whole_block_resample(resid, spec, B, gen)
    np.cumsum(x_star[:, 1:], axis=1, out=x_star[:, 1:])
    rho_star = _ar_fit(x_star, "none", fit=ols_coef)[0].coef[:, 0]
    return m * (rho_star - 1.0), m * (float(fit.coef[0, 0]) - 1.0)


def _whole_wild(e, B, gen, multiplier):
    n = e.shape[0]
    if multiplier == "normal":
        eta = gen.standard_normal((B, n))
    else:
        eta = gen.integers(0, 2, size=(B, n)) * 2.0 - 1.0
    return e[None, :] * eta


def _chunk_sizes(width):
    # B below one chunk of replicates `width` floats wide, one chunk
    # exactly, and not a multiple of a chunk
    rows = _PANEL_BYTES // (8 * width)
    return (rows // 3, rows, 2 * rows + 7)


@pytest.mark.parametrize("block", [1, 7, 10])
def test_unitroot_bootstrap_chunks_match_the_whole_array(block):
    n = 1000
    x = np.cumsum(np.random.default_rng(31).standard_normal(n))
    spec = T.BlockSpec(block)
    for B in _chunk_sizes(n):  # the n - 1 residuals after x*_0
        res = T.residual_unitroot_bootstrap(x, B, T.RngSpec(5, B), spec)
        stats, observed = _whole_unitroot_bootstrap(x, B, T.RngSpec(5, B).generator(), spec)
        assert np.array_equal(res.stats, stats), B
        assert res.observed == observed


@pytest.mark.parametrize("spec", [T.BlockSpec(7), T.BlockSpec(7, circular=False),
                                  T.BlockSpec(7, overlap=False)], ids=repr)
def test_block_bootstrap_chunks_match_the_whole_array(spec):
    # the identity statistic returns views of the reused buffer: each
    # chunk's statistics are copied out before the next chunk is gathered
    n = 1000
    x = np.random.default_rng(32).standard_normal(n)
    for B in _chunk_sizes(n):
        res = T.block_bootstrap(x, lambda z: z, B, T.RngSpec(6, B), spec)
        reps = _whole_block_resample(x, spec, B, T.RngSpec(6, B).generator())
        assert np.array_equal(res.stats, reps), B
        assert np.array_equal(res.observed, x)


@pytest.mark.parametrize("multiplier", ["normal", "rademacher"])
def test_wild_bootstrap_chunks_match_the_whole_array(multiplier):
    n = 1000
    e = np.random.default_rng(33).standard_normal(n)
    for B in _chunk_sizes(n):
        res = T.wild_bootstrap(e, lambda z: z, B, T.RngSpec(7, B), multiplier)
        reps = _whole_wild(e, B, T.RngSpec(7, B).generator(), multiplier)
        assert np.array_equal(res.stats, reps), B
        assert np.array_equal(res.observed, e)


def test_unitroot_bootstrap_peak_grows_by_the_statistics_alone():
    # one chunk buffer whatever B: from B = 200 to 2000 the peak may grow
    # by the replicate statistics and rho*, a few floats per replicate
    n = 1000
    y = np.cumsum(np.random.default_rng(9).standard_normal(n))
    for block in (10, 1):
        peaks = []
        for B in (200, 2000):
            tracemalloc.start()
            try:
                T.residual_unitroot_bootstrap(y, B=B, rng=T.RngSpec(4), block=block)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] - peaks[0] <= 4 * 8 * (2000 - 200), (block, peaks)
