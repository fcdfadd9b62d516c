"""The banded AR filter and the MA filter against `scipy.signal.lfilter`,
and the `scipy.special` quantiles the harness uses against `scipy.stats`.

`_filter.ar` solves the recursion as a unit lower-banded system.  It is
bit-identical to lfilter wherever `a * y` is exact (rho = 0.5 or 1);
elsewhere the solve may fuse a multiply-add, so the path is pinned at
1e-12 of its largest value.
"""

import numpy as np
import pytest
from scipy import special, stats
from scipy.signal import lfilter

from tsnet import IvxSpec
from tsnet._filter import ar, ma
from tsnet.mc import _ks_normal

_IVX_RHO = IvxSpec(c_z=-1.0, beta_z=0.95).rho(500)


def _draws(shape, seed=0):
    return np.random.default_rng(seed).standard_normal(shape)


def _lfilter_ar(v, coeffs, start=None):
    """lfilter along the time axis (axis 1 of a panel), start as zi."""
    axis = 0 if v.ndim == 1 else 1
    a = np.r_[1.0, -np.asarray(coeffs, dtype=float)]
    if start is None:
        return lfilter([1.0], a, v, axis=axis)
    # start is the first state, the later ones zero
    first = v.shape[:axis] + (1,) + v.shape[axis + 1:]
    rest = np.zeros(v.shape[:axis] + (a.size - 2,) + v.shape[axis + 1:])
    zi = np.concatenate([np.broadcast_to(start, first), rest], axis=axis)
    return lfilter([1.0], a, v, axis=axis, zi=zi)[0]


def _start(shape):
    """One start value per series of a panel of this shape (scalar for a series)."""
    if len(shape) == 1:
        return 0.7
    return _draws(shape[:1] + (1,) + shape[2:], seed=5)


SHAPES = [(2000,), (16, 300), (6, 200, 3)]


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("with_start", [False, True])
@pytest.mark.parametrize("rho", [0.5, 1.0])
def test_ar1_is_bit_identical_where_the_product_is_exact(rho, with_start, shape):
    v = _draws(shape)
    start = _start(shape) if with_start else None
    got = ar(v, [rho], start)
    assert got.shape == v.shape and got.flags.c_contiguous
    assert np.array_equal(got, _lfilter_ar(v, [rho], start))


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("with_start", [False, True])
@pytest.mark.parametrize("coeffs", [[0.995], [-0.3], [_IVX_RHO], [0.5, -0.2],
                                    [0.3, 0.2, -0.1]])
def test_ar_matches_lfilter(coeffs, with_start, shape):
    v = _draws(shape, seed=1)
    start = _start(shape) if with_start else None
    got = ar(v, coeffs, start)
    want = _lfilter_ar(v, coeffs, start)
    assert got.shape == want.shape and got.flags.c_contiguous
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))


def test_ar_of_order_zero_is_the_input():
    v = _draws((4, 50))
    assert np.array_equal(ar(v, []), v)


@pytest.mark.parametrize("shape", [(64, 301), (64, 121, 2)])
def test_ar_batch_equals_each_rep_alone(shape):
    v = _draws(shape, seed=2)
    start = _start(shape)
    whole = ar(v, [0.995], start)
    assert np.array_equal(ar(v[:7], [0.995], start[:7]), whole[:7])
    for r in range(shape[0]):
        assert np.array_equal(ar(v[r:r + 1], [0.995], start[r:r + 1])[0], whole[r])


def test_ar_leaves_its_input_alone():
    v = _draws((5, 40))
    keep = v.copy()
    ar(v, [0.9], np.ones((5, 1)))
    ar(v, [0.9])
    assert np.array_equal(v, keep)


@pytest.mark.parametrize("shape", [(1,), (2,), (300,), (8, 300)])
@pytest.mark.parametrize("p", [1, 2])
def test_ar_with_coefficients_per_observation_matches_loop(p, shape):
    v = _draws(shape, seed=9)
    n = shape[-1] if len(shape) == 1 else shape[1]
    coeffs = np.random.default_rng(10).uniform(-0.6, 0.6, size=(p, n))
    start = _start(shape)
    got = ar(v, coeffs, start)
    panel = np.atleast_2d(v).copy()
    panel[:, 0] += np.ravel(start)
    want = np.empty_like(panel)
    for r in range(panel.shape[0]):
        for t in range(n):
            want[r, t] = panel[r, t] + sum(coeffs[k, t] * want[r, t - k - 1]
                                           for k in range(p) if t > k)
    want = want.reshape(v.shape)
    assert got.shape == v.shape
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
    # coefficients fixed in time give the path of the constant-coefficient filter
    fixed = np.repeat(coeffs[:, :1], n, axis=1)
    assert np.array_equal(ar(v, fixed, start), ar(v, coeffs[:, 0], start))


@pytest.mark.parametrize("shape", [(300,), (3, 300)])
@pytest.mark.parametrize("with_start", [False, True])
def test_ar_into_out_is_the_returned_path(shape, with_start):
    v = _draws(shape, seed=11)
    start = _start(shape) if with_start else None
    want = ar(v, [0.9], start)
    out = np.empty_like(v)
    assert ar(v, [0.9], start, out=out) is out
    assert np.array_equal(out, want)
    # in place: v is its own out
    assert ar(v, [0.9], start, out=v) is v
    assert np.array_equal(v, want)
    with pytest.raises(ValueError, match="out"):
        ar(np.zeros((2, 10, 2)), [0.5], out=np.zeros((2, 10, 2)))


@pytest.mark.parametrize("shape", [(500,), (16, 300)])
def test_ma1_is_bit_identical(shape):
    eps = _draws(shape, seed=3)
    axis = 0 if eps.ndim == 1 else 1
    want = np.delete(lfilter([1.0, 0.5], [1.0], eps, axis=axis), 0, axis=axis)
    assert np.array_equal(ma(eps, [1.0, 0.5]), want)


@pytest.mark.parametrize("coeffs", [[2.0], [1.0, 0.5, 0.3], [1.0, -0.4, 0.3, 0.2, 0.7]])
def test_maq_matches_lfilter(coeffs):
    eps = _draws((16, 300), seed=4)
    q = len(coeffs) - 1
    want = lfilter(coeffs, [1.0], eps, axis=1)[:, q:]
    got = ma(eps, coeffs)
    assert got.shape == (16, 300 - q)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * np.max(np.abs(want)))
    assert np.array_equal(ma(eps[3:4], coeffs)[0], got[3])


def test_ndtri_is_the_normal_quantile():
    q = np.random.default_rng(6).uniform(size=20000)
    q = np.r_[q, 0.95, 0.975, 0.995, 1e-12, 1 - 1e-12]
    assert np.array_equal(special.ndtri(q), stats.norm.ppf(q))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_gammaincinv_is_the_chi2_quantile(d):
    q = np.r_[np.random.default_rng(7).uniform(size=5000), 0.9, 0.95, 0.99]
    assert np.array_equal(2.0 * special.gammaincinv(d / 2.0, q), stats.chi2.ppf(q, d))


def test_ks_statistic_matches_kstest():
    gen = np.random.default_rng(8)
    for _ in range(300):
        n = int(gen.integers(2, 400))
        scale = float(gen.uniform(0.2, 2.0))
        z = gen.standard_normal(n) * float(gen.uniform(0.5, 1.5)) * scale
        want = stats.kstest(z, "norm", args=(0.0, scale)).statistic
        assert _ks_normal(z, scale) == want
