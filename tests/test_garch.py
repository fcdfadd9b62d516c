"""Conditional variance filtering and quasi-likelihood estimation.

The QMLE's scoring iteration is checked against central differences of
its own objective, and against L-BFGS-B -- the optimizer the library
used before -- run here only, from the same first start and in the same
parametrization.
"""

import warnings

import numpy as np
import pytest
from scipy.optimize import minimize

import tsnet as T
import tsnet.garch as G

from oracles import garch_filter


def test_filter_hand_recursion():
    # sigma2_1 = 1 + 0.1*4 + 0.8*10 = 9.4, then rolls forward
    spec = T.GarchSpec(1.0, 0.1, 0.8, 0.0)
    s2 = garch_filter(np.array([2.0, 1.0, 1.0]), spec,
                      sigma2_0=10.0, eps2_0=4.0)
    np.testing.assert_allclose(s2, [9.4, 8.92, 8.236])


def test_filter_constant_when_alpha_beta_zero():
    spec = T.GarchSpec(0.7, 0.0, 0.0, 0.0)
    s2 = garch_filter(np.random.default_rng(0).standard_normal(40), spec)
    np.testing.assert_allclose(s2, 0.7)


def test_filter_matches_python_loop():
    gen = np.random.default_rng(1)
    eps = gen.standard_normal(200)
    spec = T.GarchSpec(0.2, 0.15, 0.7, 0.0)
    got = garch_filter(eps, spec, sigma2_0=1.5, eps2_0=0.5)
    s_prev, e_prev = 1.5, 0.5
    want = np.empty(200)
    for t in range(200):
        want[t] = 0.2 + 0.15 * e_prev + 0.7 * s_prev
        s_prev, e_prev = want[t], eps[t] ** 2
    np.testing.assert_allclose(got, want, rtol=1e-12)


def test_spec_validation():
    with pytest.raises(ValueError):
        T.GarchSpec(-0.1, 0.1, 0.8, 0.0)
    with pytest.raises(ValueError):
        T.GarchSpec(0.1, 0.6, 0.5, 0.0)  # alpha + beta >= 1
    for args, name in [((0.1, np.nan, 0.8), "alpha"), ((0.1, -0.1, 0.8), "alpha"),
                       ((0.1, 0.1, np.nan), "beta"), ((0.1, 0.1, 0.8, np.nan), "mu"),
                       ((0.1, 0.1, 0.8, np.inf), "mu")]:
        with pytest.raises(ValueError, match=name):
            T.GarchSpec(*args)


def test_simulate_matches_filter():
    spec = T.GarchSpec(0.1, 0.1, 0.8, 0.0)
    y, s2 = T.simulate_garch(spec, 500, T.RngSpec(2, 0))
    assert y.shape == (500,) and s2.shape == (500,)
    # simulated variance level near omega/(1-alpha-beta) = 1
    assert np.mean(s2) == pytest.approx(1.0, rel=0.3)


def test_qmle_flat_truth_recovers_sample_variance():
    # alpha = beta = 0 truth: the implied unconditional variance matches
    # the sample second moment
    e = 1.3 * T.RngSpec(53, 0).generator().standard_normal(4000)
    fit = T.garch_qmle(e)
    uncond = fit.spec.omega / (1.0 - fit.spec.alpha - fit.spec.beta)
    target = float(np.mean((e - e.mean()) ** 2))
    assert uncond == pytest.approx(target, rel=0.05)


def test_qmle_recovers_garch_parameters():
    spec = T.GarchSpec(0.1, 0.1, 0.8, 0.0)
    y, _ = T.simulate_garch(spec, 20000, T.RngSpec(54, 1))
    fit = T.garch_qmle(y)
    assert fit.converged
    err = max(abs(fit.spec.omega - 0.1), abs(fit.spec.alpha - 0.1),
              abs(fit.spec.beta - 0.8))
    assert err < 0.05


def test_qmle_objective_path_monotone():
    y, _ = T.simulate_garch(T.GarchSpec(0.1, 0.1, 0.8, 0.0), 5000,
                            T.RngSpec(54, 0))
    fit = T.garch_qmle(y)
    path = np.asarray(fit.objective_path)
    assert path.size >= 2
    assert np.all(np.diff(path) <= 0)
    assert path[-1] == fit.objective and fit.n_iter == path.size - 1


def test_qmle_loglik_is_the_gaussian_log_likelihood():
    y, _ = T.simulate_garch(T.GarchSpec(0.1, 0.1, 0.8, 0.0), 2000, T.RngSpec(56, 0))
    fit = T.garch_qmle(y)
    eps = y - fit.spec.mu
    want = -0.5 * np.sum(np.log(2.0 * np.pi * fit.sigma2) + eps**2 / fit.sigma2)
    assert fit.loglik == pytest.approx(want, rel=1e-12)
    assert fit.loglik == -0.5 * (fit.objective + fit.nobs * np.log(2.0 * np.pi))
    assert fit.loglik < 0.0 < fit.objective


def test_qmle_ar1_mean_two_step():
    gen = T.RngSpec(55, 0).generator()
    eps, _ = T.simulate_garch(T.GarchSpec(0.1, 0.1, 0.8, 0.0), 8000, gen)
    y = np.empty(8000)
    y[0] = eps[0]
    for t in range(1, 8000):
        y[t] = 0.5 * y[t - 1] + eps[t]
    fit = T.garch_qmle(y, mean="ar1")
    assert fit.ar_coeff == pytest.approx(0.5, abs=0.05)
    assert abs(fit.spec.beta - 0.8) < 0.1


def test_qmle_rejects_short_samples():
    with pytest.raises(ValueError):
        T.garch_qmle(np.random.default_rng(3).standard_normal(49))


def test_qmle_rejects_zero_variance_innovations():
    for y, mean in [(np.ones(200), "constant"), (np.full(200, 0.1), "constant"),
                    (np.zeros(200), "constant"), (np.ones(200), "ar1")]:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(ValueError) as exc:
                T.garch_qmle(y, mean=mean)
        assert caught == []
        if mean == "constant":
            assert "zero variance" in str(exc.value)


@pytest.mark.parametrize("scale", [1e10, 1e-9, 1e-10, 1e150, 3.0 * 2.0**40])
def test_qmle_does_not_move_with_the_scale_of_the_data(scale):
    # log omega past the box |theta| <= 40 once returned the first start,
    # alpha = 0.05 and beta = 0.85, as a converged fit after one iteration
    y, _ = T.simulate_garch(T.GarchSpec(0.1, 0.1, 0.8), 2000, T.RngSpec(5))
    base = T.garch_qmle(y)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = T.garch_qmle(y * scale)
    assert fit.n_iter == base.n_iter > 1 and fit.converged
    assert fit.spec.alpha == pytest.approx(base.spec.alpha, rel=1e-12)
    assert fit.spec.beta == pytest.approx(base.spec.beta, rel=1e-12)
    assert fit.spec.omega == pytest.approx(scale**2 * base.spec.omega, rel=1e-12)
    np.testing.assert_allclose(fit.sigma2, scale**2 * base.sigma2, rtol=1e-12)
    shift = 2 * fit.nobs * np.log(scale)
    assert fit.objective == pytest.approx(base.objective + shift, rel=1e-12)
    np.testing.assert_allclose(fit.objective_path, np.add(base.objective_path, shift), rtol=1e-12)


@pytest.mark.parametrize("scale", [1e160, 1e-160, 1e-300])
def test_qmle_variances_outside_the_normal_floats_raise(scale):
    y, _ = T.simulate_garch(T.GarchSpec(0.1, 0.1, 0.8), 2000, T.RngSpec(5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=r"^garch_qmle: the fitted variances \(omega = 10\^"):
            T.garch_qmle(y * scale)


def test_qmle_warns_when_it_stops_at_the_cap(monkeypatch):
    y, _ = T.simulate_garch(T.GarchSpec(0.1, 0.1, 0.8), 2000, T.RngSpec(56, 0))
    monkeypatch.setattr(G, "_MAX_ITER", 1)
    with pytest.warns(T.GarchConvergenceWarning):
        fit = T.garch_qmle(y)
    assert not fit.converged and fit.n_iter == 1
    assert issubclass(T.GarchConvergenceWarning, RuntimeWarning)


@pytest.mark.parametrize("theta", [(-2.0, 1.5, -1.0), (-1.0, -0.5, 0.8),
                                   (0.5, 3.0, -4.0), (-2.3, -3.0, 12.0)])
def test_score_matches_central_differences(theta):
    n = 3000
    y, _ = T.simulate_garch(T.GarchSpec(0.1, 0.1, 0.8), n, T.RngSpec(57, 0))
    q = G._QuasiLikelihood(y - y.mean())
    theta = np.array(theta)
    sigma2 = np.empty(n)
    f = q.value(theta, sigma2)
    grad, info = q.score(theta, sigma2)
    h = 1e-5
    value = np.empty((2, 3))
    path = np.empty((2, 3, n))
    for i, e in enumerate(np.eye(3)):
        value[0, i] = q.value(theta + h * e, path[0, i])
        value[1, i] = q.value(theta - h * e, path[1, i])
    np.testing.assert_allclose(grad, (value[0] - value[1]) / (2 * h),
                               rtol=1e-6, atol=1e-9 * abs(f))
    # the scoring matrix sum_t dsigma2_t dsigma2_t' / sigma2_t^2 from the
    # differenced variance paths
    w = (path[0] - path[1]) / (2 * h) / sigma2
    np.testing.assert_allclose(info, w @ w.T, rtol=1e-6, atol=1e-12 * np.max(info))


@pytest.mark.parametrize("n,seed", [(2000, 58), (20000, 59)])
def test_fit_is_smooth_in_the_data(n, seed):
    y, _ = T.simulate_garch(T.GarchSpec(0.1, 0.1, 0.8), n, T.RngSpec(seed, 0))
    a, b = T.garch_qmle(y).spec, T.garch_qmle(y * (1 + 1e-15)).spec
    for name in ("omega", "alpha", "beta"):
        assert getattr(a, name) == pytest.approx(getattr(b, name), rel=1e-9, abs=0)


def _lbfgsb_objective(eps):
    """The minimum L-BFGS-B reaches from the fit's first start."""
    q = G._QuasiLikelihood(eps)
    sigma2 = np.empty_like(eps)
    alpha0, beta0 = G._STARTS[0]
    theta0 = G._pack(q.s2_init * (1 - alpha0 - beta0), alpha0, beta0)
    res = minimize(lambda theta: q.value(theta, sigma2), theta0, method="L-BFGS-B",
                   bounds=[(-G._BOX, G._BOX)] * 3, options={"maxiter": 500})
    return res.fun


# interior truths, and truths on the alpha = 0 face where beta is not
# identified and the quasi-likelihood is flat or multimodal
_ORACLE_CASES = (
    [(truth, n, seed) for truth in [(0.1, 0.1, 0.8), (0.2, 0.3, 0.5), (0.05, 0.05, 0.9)]
     for n in (800, 20000) for seed in (0, 1)]
    + [(truth, n, seed) for truth in [(1.0, 0.0, 0.0), (0.5, 0.0, 0.5)]
       for n in (800, 5000, 20000) for seed in (0, 1)])


@pytest.mark.parametrize("truth,n,seed", _ORACLE_CASES)
def test_qmle_reaches_the_lbfgsb_objective(truth, n, seed):
    # one stream per truth: (1, 0, 0) and (0.5, 0, 0.5) simulate the same
    # series from the same stream
    stream = [(1.0, 0.0, 0.0), (0.5, 0.0, 0.5)].index(truth) if truth[1] == 0 else 0
    y, _ = T.simulate_garch(T.GarchSpec(*truth), n, T.RngSpec(60 + seed, stream))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        fit = T.garch_qmle(y)
    oracle = _lbfgsb_objective(y - y.mean())
    assert fit.converged
    assert fit.objective <= oracle + 1e-9 * abs(oracle)


def test_serial_heavy_fits_take_few_filter_passes(monkeypatch):
    passes = []
    filter_ = G.ar

    def counted(*args, **kwargs):
        passes.append(1)
        return filter_(*args, **kwargs)

    monkeypatch.setattr(G, "ar", counted)
    counts = []
    # the ten reps of the garch-recovery experiment at seed 110
    for r in range(10):
        y, _ = T.simulate_garch(T.GarchSpec(0.1, 0.1, 0.8), 20000,
                                T.RngSpec(110, 0).substream(r), burn=500)
        passes.clear()
        assert T.garch_qmle(y).converged
        counts.append(len(passes))
    assert np.median(counts) <= 25
