"""Tests for sample covariance spectra and the Marchenko-Pastur law."""

import tracemalloc

import numpy as np
import pytest
from scipy import linalg

import tsnet as T

from oracles import mp_cdf, mp_density


def test_single_variable_spectrum_is_mean_square():
    res = T.sample_cov_spectrum(20000, 1, T.RngSpec(80, 2))
    assert res.eigenvalues.shape == (1,)
    assert res.lambda_max == pytest.approx(1.0, abs=0.05)
    assert res.gamma == pytest.approx(1.0 / 20000.0)


def test_spectrum_trace_identity_and_scale():
    res = T.sample_cov_spectrum(4000, 200, T.RngSpec(80, 3))
    assert res.trace == pytest.approx(res.trace_gram, rel=1e-8)
    # E tr(S) = p for unit-variance entries
    assert res.trace / res.p == pytest.approx(1.0, rel=0.05)
    assert np.all(np.diff(res.eigenvalues) >= 0)
    assert res.eigenvalues.shape == (200,)


def test_wide_matrix_is_rejected():
    with pytest.raises(ValueError, match=r"^need p <= n, got p=8 > n=5$"):
        T.sample_cov_spectrum(5, 8, T.RngSpec(80, 1))


def test_mp_support_closed_form():
    lo, hi = T.mp_support(0.25)
    assert lo == pytest.approx(0.25)
    assert hi == pytest.approx(2.25)
    lo1, hi1 = T.mp_support(1.0)
    assert lo1 == pytest.approx(0.0)
    assert hi1 == pytest.approx(4.0)
    for bad in (0.0, -0.5, 1.5):
        with pytest.raises(ValueError, match="gamma"):
            T.mp_support(bad)


def test_mp_density_support_and_mass():
    g = 0.25
    lo, hi = T.mp_support(g)
    assert mp_density(lo - 0.01, g) == 0.0
    assert mp_density(hi + 0.01, g) == 0.0
    assert mp_density(-1.0, g) == 0.0
    assert mp_density(1.0, g) > 0.0
    xs = np.array([lo - 1.0, 1.0, hi + 1.0])
    dens = mp_density(xs, g)
    assert dens[0] == 0.0 and dens[2] == 0.0 and dens[1] > 0.0
    for gg in (0.1, 0.25, 0.5, 0.75):
        glo, ghi = T.mp_support(gg)
        grid = np.linspace(glo, ghi, 200001)
        total = np.trapezoid(mp_density(grid, gg), grid)
        assert total == pytest.approx(1.0, abs=1e-4)


def test_mp_cdf_bounds_and_monotonicity():
    g = 0.5
    lo, hi = T.mp_support(g)
    assert mp_cdf(lo - 0.1, g) == 0.0
    assert mp_cdf(hi + 0.1, g) == 1.0
    assert mp_cdf(-5.0, g) == 0.0
    xs = np.linspace(lo, hi, 400)
    cdf = mp_cdf(xs, g)
    assert np.all(np.diff(cdf) >= 0)
    assert cdf[0] == pytest.approx(0.0, abs=1e-6)
    assert cdf[-1] == pytest.approx(1.0, abs=1e-6)


def test_esd_matches_mp_law():
    # n=4000, p=1000: the empirical spectral distribution should sit on
    # the gamma=1/4 MP law and inside slightly inflated support edges
    res = T.sample_cov_spectrum(4000, 1000, T.RngSpec(80, 0))
    ev = res.eigenvalues
    cdf = mp_cdf(ev, 0.25)
    emp_hi = np.arange(1, ev.size + 1) / ev.size
    emp_lo = np.arange(0, ev.size) / ev.size
    ks = max(np.max(np.abs(emp_hi - cdf)), np.max(np.abs(emp_lo - cdf)))
    assert ks < 0.02
    assert res.lambda_min == pytest.approx(0.25, abs=0.05)
    assert res.lambda_max == pytest.approx(2.25, abs=0.05)


def test_spectrum_working_set_is_x_and_s(monkeypatch):
    # X (p x n) and S (p x p) are all that is held at once: X lives through
    # the eigensolve, which is handed S itself, Fortran-ordered, to overwrite
    n, p = 4000, 1000
    eigh = linalg.eigh
    calls = []

    def traced_eigh(a, **kwargs):
        calls.append((a.flags.f_contiguous, kwargs.get("overwrite_a")))
        return eigh(a, **kwargs)

    monkeypatch.setattr(linalg, "eigh", traced_eigh)
    tracemalloc.start()
    try:
        T.sample_cov_spectrum(n, p, T.RngSpec(80, 4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.05 * 8 * (p * n + p * p)
    assert calls == [(True, True)]


# The largest eigenvalue of a white Wishart matrix (Johnstone 2001, Ann.
# Statist. 29): n lambda_max(S), centered by mu = (sqrt(n - 1) + sqrt(p))^2 and
# scaled by sigma = (sqrt(n - 1) + sqrt(p)) (1/sqrt(n - 1) + 1/sqrt(p))^(1/3),
# tends to Tracy-Widom beta = 1, of mean -1.2065 and sd 1.2680 (Tracy & Widom
# 1996; rounding 0.00005).  The stated finite-n bias: these constants leave
# the mean about 0.06 below the limit at (n, p) = (200, 50), and the same
# constants at n - 1/2 and p - 1/2 (Ma 2012, Bernoulli 18) leave a second-order
# error.  So the law is carried onto this normalization by Ma's constants.  Ten
# streams of 4000 reps (seeds 44-53) then read mean -1.2006 and sd 1.2346 (SE
# 0.006 and 0.005): bias bounds 0.015 on the mean and 0.04 on the sd.
_TW1 = ((-1.2065, 0.015), (1.2680, 0.04))


def _wishart_edge(n: float, p: float) -> tuple[float, float]:
    """Centering and scale (mu, sigma) of n lambda_max(S) at (n, p)."""
    root = np.sqrt(n) + np.sqrt(p)
    return root**2, root * (1.0 / np.sqrt(n) + 1.0 / np.sqrt(p)) ** (1.0 / 3.0)


def test_largest_eigenvalue_has_the_tracy_widom_limit():
    n, p = 200, 50
    gen = T.RngSpec(44, 0).generator()
    # 4000 reps, 500 (40 MB of draws) at a time
    lam = np.concatenate([T.sample_cov_spectrum(n, p, gen.standard_normal((500, p, n))).lambda_max
                          for _ in range(8)])
    mu, sigma = _wishart_edge(n - 1, p)
    w = (n * lam - mu) / sigma
    mu_ma, sigma_ma = _wishart_edge(n - 0.5, p - 0.5)
    (mean, mean_bias), (sd, sd_bias) = _TW1
    m, s = w.mean(), w.std(ddof=1)
    se_m = s / np.sqrt(w.size)
    se_s = np.std((w - m) ** 2, ddof=1) / (2.0 * s * np.sqrt(w.size))
    assert abs(m - (sigma_ma * mean + mu_ma - mu) / sigma) <= 4.0 * se_m + 0.00005 + mean_bias, m
    assert abs(s - sigma_ma / sigma * sd) <= 4.0 * se_s + 0.00005 + sd_bias, s
