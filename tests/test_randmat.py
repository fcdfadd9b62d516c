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
