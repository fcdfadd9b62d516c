"""Kernels, sample autocovariances, and the HAC long-run variance."""

import numpy as np
import pytest

import tsnet as T


def test_kernel_weight_is_one_at_zero():
    for fam in T.KERNEL_FAMILIES:
        assert T.kernel_weight(fam, 0.0) == 1.0


def test_kernel_weight_known_values():
    assert T.kernel_weight("bartlett", 0.5) == pytest.approx(0.5)
    assert T.kernel_weight("bartlett", 1.2) == 0.0
    assert T.kernel_weight("truncated", 0.99) == 1.0
    assert T.kernel_weight("truncated", 1.01) == 0.0
    # parzen switches branch at 1/2: 1 - 6x^2 + 6x^3 evaluated at the knot
    assert T.kernel_weight("parzen", 0.5) == pytest.approx(0.25)
    assert T.kernel_weight("parzen", 1.2) == 0.0
    assert 0.0 < T.kernel_weight("quadratic-spectral", 0.5) < 1.0


def test_kernel_weight_vectorized():
    x = np.array([0.0, 0.5, 2.0])
    np.testing.assert_allclose(T.kernel_weight("bartlett", x), [1.0, 0.5, 0.0])


def test_kernel_spec_validation():
    with pytest.raises(ValueError):
        T.KernelSpec("epanechnikov")
    with pytest.raises(ValueError):
        T.KernelSpec("bartlett", -2.0)


def test_kernel_reach_is_the_floor_of_the_bandwidth():
    # roundoff just below an integer bandwidth still reaches that lag
    for b, reach in ((3.0, 3), (3.0 - 4e-16, 3), (5.5, 5), (0.5, 0), (1.0, 1)):
        assert T.KernelSpec("bartlett", b).reach(1000) == reach
    assert T.KernelSpec().reach(1000) == 12  # the default rule's bandwidth
    assert T.network_hac_radius(T.KernelSpec("parzen", 5.5), 1000) == 5


def test_default_bandwidth_rule():
    assert T.default_bandwidth(1000) == 12.0
    assert T.default_bandwidth(100000) == 56.0


def test_autocovariance_hand_values():
    # divisor n, no demeaning
    got = T.autocovariance([1.0, -1.0, 1.0, -1.0], 1, demean=False)
    assert got[0, 0] == pytest.approx(-0.75)
    assert T.autocovariance([1.0, 2.0], 0, demean=False)[0, 0] == pytest.approx(2.5)


def test_autocovariance_constant_series_is_zero():
    got = T.autocovariance(np.full(10, 3.0), 2)
    np.testing.assert_allclose(got, 0.0, atol=1e-14)


def test_autocovariance_negative_lag_transposes():
    gen = np.random.default_rng(4)
    x = gen.standard_normal((60, 2))
    np.testing.assert_array_equal(T.autocovariance(x, -3),
                                  T.autocovariance(x, 3).T)


def test_autocovariance_lag_out_of_range():
    with pytest.raises(ValueError):
        T.autocovariance([1.0, 2.0, 3.0], 3)


def test_hac_sub_unit_bandwidth_keeps_only_gamma0():
    x = np.random.default_rng(1).standard_normal(50)
    for fam in ("truncated", "bartlett", "parzen"):
        est = T.hac_lrv(x, T.KernelSpec(fam, 0.5))
        np.testing.assert_array_equal(est.omega, est.gamma0)
        np.testing.assert_array_equal(est.lam, np.zeros((1, 1)))


def test_hac_decomposition_identity():
    # omega = gamma0 + lam + lam' holds exactly, by construction
    gen = np.random.default_rng(2)
    x = gen.standard_normal((200, 3))
    for fam in T.KERNEL_FAMILIES:
        est = T.hac_lrv(x, T.KernelSpec(fam, 5.0))
        np.testing.assert_array_equal(est.omega,
                                      est.gamma0 + (est.lam + est.lam.T))


def test_hac_matrix_output_symmetric():
    x = np.random.default_rng(3).standard_normal((150, 2))
    est = T.hac_lrv(x)
    np.testing.assert_array_equal(est.omega, est.omega.T)


def test_hac_psd_for_smooth_kernels():
    # bartlett, parzen, QS weights are positive semidefinite sequences
    for seed in range(5):
        x = np.random.default_rng(seed).standard_normal((120, 3))
        for fam in ("bartlett", "parzen", "quadratic-spectral"):
            est = T.hac_lrv(x, T.KernelSpec(fam, 8.0))
            assert np.linalg.eigvalsh(est.omega).min() > -1e-10


def test_hac_ar1_matches_analytic_lrv():
    # AR(1) phi=0.5: omega^2 = sigma^2/(1-phi)^2 = 4
    from scipy.signal import lfilter
    e = T.RngSpec(6, 1).generator().standard_normal(100000)
    x = lfilter([1.0], [1.0, -0.5], e)
    est = T.hac_lrv(x, T.KernelSpec("bartlett", 100000 ** (1 / 3)))
    assert est.scalar == pytest.approx(4.0, rel=0.10)


def test_hac_scalar_accessor():
    est = T.hac_lrv(np.random.default_rng(0).standard_normal(50))
    assert est.scalar == float(est.omega[0, 0])
    est = T.hac_lrv(np.random.default_rng(0).standard_normal((50, 2)))
    with pytest.raises(ValueError, match="scalar only defined for univariate estimates"):
        est.scalar


def test_hac_demean_flag_changes_nothing_for_centered_input():
    x = np.random.default_rng(9).standard_normal(80)
    x = x - x.mean()
    a = T.hac_lrv(x, demean=True)
    b = T.hac_lrv(x, demean=False)
    np.testing.assert_allclose(a.omega, b.omega, rtol=0, atol=1e-12)


def test_hac_rejects_too_short_series():
    with pytest.raises(ValueError):
        T.hac_lrv(np.array([1.0]))


def test_hac_rejects_a_3d_array():
    with pytest.raises(ValueError, match=r"ms must be at most two-dimensional, got shape"):
        T.hac_lrv(np.zeros((20, 2, 2)))
