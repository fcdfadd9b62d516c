"""Simulators: exact identities, closed-form moments, and seeding."""

import numpy as np
import pytest

import tsnet as T

from oracles import autocovariance


def test_white_noise_has_vanishing_lag1_autocovariance():
    spec = T.LinearProcessSpec(coeffs=(1.0,), sigma=1.0)
    x = T.simulate_linear_process(spec, 20000, T.RngSpec(0, 0))
    g1 = float(autocovariance(x, 1)[0, 0])
    # se of gamma1-hat for iid data is about 1/sqrt(n)
    assert abs(g1) < 3.0 / np.sqrt(20000)


def test_linear_process_rejects_nonpositive_length():
    spec = T.LinearProcessSpec(coeffs=(1.0,), sigma=1.0)
    with pytest.raises(ValueError):
        T.simulate_linear_process(spec, 0, T.RngSpec(0, 0))


_LUR = (T.LurSpec(-1.0),)


# the CLI cannot build these; tests/test_cli.py checks the fields it can set
@pytest.mark.parametrize("make,message", [
    (lambda: T.LinearProcessSpec(()), "coeffs must be non-empty"),
    (lambda: T.SystemSpec(beta=(), lur=()), "beta must be non-empty"),
    (lambda: T.SystemSpec(beta=(0.1, 0.2), lur=_LUR), "need one LurSpec per regressor"),
    (lambda: T.SystemSpec(beta=(0.1,), lur=_LUR, sigma_ue=((1.0,),)),
     r"sigma_ue must be \(2, 2\)"),
    (lambda: T.SystemSpec(beta=(0.1,), lur=_LUR, sigma_ue=((1.0, 0.5), (0.4, 1.0))),
     "sigma_ue must be symmetric"),
], ids=["empty-coeffs", "empty-beta", "lur-count", "sigma-ue-shape", "sigma-ue-asymmetric"])
def test_specs_reject_bad_fields(make, message):
    with pytest.raises(ValueError, match=message):
        make()


def test_sample_autocovariance_matches_population_ma1():
    spec = T.LinearProcessSpec((1.0, 0.5), sigma=1.0)
    x = T.simulate_linear_process(spec, 100000, T.RngSpec(5, 2))
    g1 = float(autocovariance(x, 1)[0, 0])
    assert abs(g1 - 0.5) < 0.02


def test_lur_unit_root_is_cumulative_sum():
    innov = np.arange(1.0, 9.0)
    x = T.simulate_lur_ar(T.LurSpec(c=0.0, gamma=1.0), 8, innov, x0=3.0)
    np.testing.assert_allclose(x, 3.0 + np.cumsum(innov))
    # the public simulator runs the same recursion on its standard normal draws
    x = T.simulate_lur_ar(T.LurSpec(c=0.0, gamma=1.0), 8, T.RngSpec(4), x0=3.0)
    np.testing.assert_allclose(x, 3.0 + np.cumsum(T.RngSpec(4).generator().standard_normal(8)))


def test_lur_deterministic_halving_recursion():
    # rho = 1 + c/n = 0.5 at c = -1.5, n = 3; no innovations
    x = T.simulate_lur_ar(T.LurSpec(c=-1.5, gamma=1.0), 3, np.zeros(3), x0=8.0)
    np.testing.assert_allclose(x, [4.0, 2.0, 1.0])


def test_lur_rejects_paths_off_the_finite_floats():
    with pytest.raises(ValueError, match=r"^x0 must be finite, got -inf$"):
        T.simulate_lur_ar(T.LurSpec(c=-5.0), 5, T.RngSpec(1), x0=-np.inf)
    # rho_n = 1 + 1e200 / 4: the third step passes the largest float
    with pytest.raises(ValueError, match=r"c=1e\+200, gamma=1.0, n=4 \(rho_n = 2.5e\+199\)"):
        T.simulate_lur_ar(T.LurSpec(c=1e200), 4, T.RngSpec(1))
    # a path that stays finite comes back, however large: rho_n = 5e149
    x = T.simulate_lur_ar(T.LurSpec(c=1e150), 2, T.RngSpec(1))
    v = T.RngSpec(1).generator().standard_normal(2)
    assert x.tolist() == [v[0], 5e149 * v[0] + v[1]]


def test_lur_near_stationary_variance_matches_ou_limit():
    # Var(x_n / sqrt(n)) -> sigma^2 / (2|c|) = 0.1 for c = -5
    gen = T.RngSpec(7, 3).generator()
    reps, n = 4000, 2000
    last = np.empty(reps)
    for i in range(reps):
        last[i] = T.simulate_lur_ar(T.LurSpec(c=-5.0, gamma=1.0), n, rng=gen)[-1]
    v = float(np.var(last / np.sqrt(n)))
    assert v == pytest.approx(0.1, rel=0.08)


def test_predictive_system_shapes_and_null():
    spec = T.SystemSpec(beta=(0.0,), lur=(T.LurSpec(c=-2.0, gamma=1.0),),
                        intercept=0.0,
                        sigma_ue=((1.0, 0.0), (0.0, 1.0)))
    y, x = T.simulate_predictive_system(spec, 500, T.RngSpec(1, 0))
    assert y.shape == (500,) and x.shape == (500, 1)
    # beta=0 and uncorrelated innovations: y is iid noise
    assert abs(float(autocovariance(y, 1)[0, 0])) < 3.0 / np.sqrt(500)


def test_predictive_system_innovation_correlation():
    corr = 0.9
    spec = T.SystemSpec(beta=(0.0,), lur=(T.LurSpec(c=0.0, gamma=1.0),),
                        intercept=0.0,
                        sigma_ue=((1.0, corr), (corr, 1.0)))
    y, x = T.simulate_predictive_system(spec, 20000, T.RngSpec(2, 0))
    v = np.diff(x[:, 0], prepend=0.0)  # c=0: innovations are the increments
    r = float(np.corrcoef(y, v)[0, 1])
    assert abs(r - corr) < 0.02


def test_ou_zero_drift_is_brownian_scaling():
    # c=0: J(horizon) ~ N(0, sigma^2 * horizon)
    last = np.array([T.simulate_ou_exact(0.0, 2.0, 20, T.RngSpec(3, k))[-1]
                     for k in range(20000)])
    assert float(np.var(last)) == pytest.approx(4.0, rel=0.05)


def test_ou_far_horizon_variance_is_stationary():
    last = np.array([T.simulate_ou_exact(-1.0, 1.0, 50, T.RngSpec(11, k),
                                         horizon=10.0)[-1]
                     for k in range(20000)])
    assert float(np.var(last)) == pytest.approx(0.5, rel=0.05)


def test_ou_zero_volatility_gives_zero_path():
    path = T.simulate_ou_exact(-1.0, 0.0, 25, T.RngSpec(1, 0))
    np.testing.assert_array_equal(path, np.zeros(25))


def test_ou_stationary_init_needs_mean_reversion():
    with pytest.raises(ValueError):
        T.simulate_ou_exact(0.0, 1.0, 10, T.RngSpec(0, 0), init="stationary")


def test_rng_spec_reproducible_and_stream_separated():
    a = T.simulate_linear_process(T.LinearProcessSpec((1.0,), 1.0), 64,
                                  T.RngSpec(9, 4))
    b = T.simulate_linear_process(T.LinearProcessSpec((1.0,), 1.0), 64,
                                  T.RngSpec(9, 4))
    c = T.simulate_linear_process(T.LinearProcessSpec((1.0,), 1.0), 64,
                                  T.RngSpec(9, 5))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_rng_substream_offsets_are_disjoint():
    base = T.RngSpec(9, 4)
    d0 = base.substream(0).generator().standard_normal(8)
    d1 = base.substream(1).generator().standard_normal(8)
    again = T.RngSpec(9, 4).substream(1).generator().standard_normal(8)
    np.testing.assert_array_equal(d1, again)
    assert not np.array_equal(d0, d1)
