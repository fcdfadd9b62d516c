"""Resampling schemes for dependent data.

Block and stationary bootstraps resample the observed path directly;
the sieve bootstrap rebuilds it from an autoregressive fit; the wild
bootstrap reweights residuals in place; the residual-based unit root
bootstrap recolors a random walk from resampled first-difference
residuals.  Every scheme takes a statistic callback and returns the
replicate statistics plus the observed value, so p-values follow one
shared convention: (1 + #{replicates at least as extreme}) / (B + 1).

No scheme forms a (B, n) array.  The block, wild and residual unit
root bootstraps build their replicates in the `_panel.chunks` of B, and
a chunk's statistics are taken before the next chunk overwrites it.
`_block_resample` fills them for both block schemes: each drawn block is
a whole window of the series' `sliding_window_view` (the circular layout
appends length - 1 wrapped values first), so no index matrix is formed
either.  The unit root bootstrap's chunk is a panel of replicate walks:
the resampled residuals are gathered after a zero column x*_0, cumulated
in place and fitted by the normal equations alone (`_panel.ols_coef`),
since only rho* is kept; the panel kernels give each replicate the same
bits whatever chunk it lands in.  The sieve and stationary bootstraps
build one length-n replicate at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil
from typing import Callable

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ._checks import as_series, check_in, check_positive_int
from ._filter import ar
from ._panel import check_fit, chunks, ols_coef
from .series import RngSpec, _resolve_rng
from .unitroot import _ar_fit, ols_ar

__all__ = [
    "BlockSpec",
    "BootstrapResult",
    "block_bootstrap",
    "stationary_bootstrap",
    "sieve_bootstrap",
    "wild_bootstrap",
    "wild_conditional_variance",
    "residual_unitroot_bootstrap",
    "bootstrap_pvalue",
]


@dataclass(frozen=True)
class BlockSpec:
    """Block resampling layout.

    overlap=True draws block starts uniformly over all positions
    (wrapping around the end when circular=True); overlap=False
    resamples from the deterministic partition into floor(n/length)
    complete blocks, in which case `circular` is ignored.  Replicates
    concatenate ceil(n/length) blocks and truncate to length n.
    """

    length: int
    overlap: bool = True
    circular: bool = True

    def __post_init__(self):
        check_positive_int(self.length, "length")


@dataclass(frozen=True)
class BootstrapResult:
    """Replicate statistics plus the statistic on the original data."""

    stats: np.ndarray
    observed: float | np.ndarray
    B: int
    scheme: str


def _block_resample(x: np.ndarray, spec: BlockSpec, B: int,
                    gen: np.random.Generator, lead: int = 0):
    """Yield (lo, reps): the B block-bootstrap replicates of a length-n
    series x, in the `_panel.chunks` of B rows of lead + n, reps[i, lead:]
    holding replicate lo + i and the first `lead` columns left to the caller.

    Each replicate concatenates ceil(n/length) blocks, whole windows of
    x gathered from its `sliding_window_view`, and is truncated to n.
    For overlapping circular blocks x gets length - 1 wrapped values
    appended, so a block that runs past the end is one window too; for
    non-overlapping blocks the windows are every length-th one.  A
    chunk's block starts are drawn as it is gathered.
    """
    n, l = x.shape[0], spec.length
    if l > n:
        raise ValueError("block length exceeds series length")
    k = ceil(n / l)
    if spec.overlap and spec.circular:
        x = np.concatenate([x, x[:l - 1]])
    windows = sliding_window_view(x, l)[::1 if spec.overlap else l]
    for lo, reps in chunks(B, (lead + n,)):
        starts = gen.integers(0, len(windows), size=(len(reps), k))
        reps[:, lead:] = windows[starts].reshape(len(reps), k * l)[:, :n]
        yield lo, reps


def _stat_stack(stat: Callable, rows: np.ndarray) -> np.ndarray:
    return np.asarray([stat(row) for row in rows])


def block_bootstrap(ts, stat: Callable, B: int, rng,
                    block: BlockSpec | int) -> BootstrapResult:
    """Moving-block bootstrap of a statistic.

    Parameters
    ----------
    stat : callable
        Maps a length-n ndarray to a float (or fixed-shape array).
    block : BlockSpec or int
        An int means BlockSpec(length=int) with overlapping circular
        blocks.
    """
    x = as_series(ts, "ts")
    B = check_positive_int(B, "B")
    spec = block if isinstance(block, BlockSpec) else BlockSpec(int(block))
    gen = _resolve_rng(rng)
    stats = [_stat_stack(stat, reps) for _, reps in _block_resample(x, spec, B, gen)]
    return BootstrapResult(stats=np.concatenate(stats), observed=stat(x),
                           B=B, scheme="block")


def stationary_bootstrap(ts, stat: Callable, B: int, rng,
                         mean_block: float) -> BootstrapResult:
    """Stationary bootstrap with geometric block lengths.

    Each position either continues the current block (stepping to the
    next observation, wrapping circularly) or restarts at a fresh
    uniform position with probability 1/mean_block.
    """
    x = as_series(ts, "ts")
    B = check_positive_int(B, "B")
    if not mean_block >= 1:
        raise ValueError("mean_block must be >= 1")
    gen = _resolve_rng(rng)
    n = x.shape[0]
    p = 1.0 / mean_block
    pos = np.arange(n)
    stats = []
    for _ in range(B):
        flags = gen.random(n) < p
        flags[0] = True
        starts = gen.integers(0, n, size=int(flags.sum()))
        seg = np.cumsum(flags) - 1
        last = np.maximum.accumulate(np.where(flags, pos, -1))
        idx = (starts[seg] + (pos - last)) % n
        stats.append(stat(x[idx]))
    return BootstrapResult(stats=np.asarray(stats), observed=stat(x),
                           B=B, scheme="stationary")


def sieve_bootstrap(ts, stat: Callable, B: int, rng, p: int) -> BootstrapResult:
    """Autoregressive sieve bootstrap.

    Fits X_t - m = sum_{j<=p} a_j (X_{t-j} - m) + U_t by least squares
    (`ols_ar`) around the sample mean m, recenters the residuals, and
    rebuilds replicate paths by the fitted recursion driven by iid draws
    from the residuals, discarding a burn-in of 100 + p.  An explosive
    fit raises.
    """
    x = as_series(ts, "ts", min_len=p + 2)
    B = check_positive_int(B, "B")
    p = check_positive_int(p, "p", minimum=0)
    if p >= x.shape[0] / 2:
        raise ValueError(f"sieve order p={p} too large for n={x.shape[0]}")
    gen = _resolve_rng(rng)
    n = x.shape[0]
    m = x.mean()
    xc = x - m
    if p == 0:
        # iid residual bootstrap around the mean
        a = np.empty(0)
        resid = xc.copy()
    else:
        fit = ols_ar(xc, p)
        a, resid = fit.ar_coeffs, fit.residuals
        companion = np.zeros((p, p))
        companion[0] = a
        if p > 1:
            companion[1:, :-1] = np.eye(p - 1)
        radius = np.max(np.abs(np.linalg.eigvals(companion)))
        if radius >= 1.0:
            raise ValueError(f"fitted sieve is nonstationary "
                             f"(companion radius {radius:.4f})")
    resid = resid - resid.mean()
    burn = 100 + p
    stats = []
    for _ in range(B):
        u = resid[gen.integers(0, resid.shape[0], size=n + burn)]
        path = ar(u, a)
        stats.append(stat(m + path[burn:]))
    return BootstrapResult(stats=np.asarray(stats), observed=stat(x),
                           B=B, scheme="sieve")


def wild_bootstrap(residuals, stat: Callable, B: int, rng,
                   multiplier: str = "normal") -> BootstrapResult:
    """Wild bootstrap: y*_t = e_t eta*_t with iid mean-0 variance-1 eta*.

    multiplier is "normal" or "rademacher".
    """
    e = as_series(residuals, "residuals")
    B = check_positive_int(B, "B")
    gen = _resolve_rng(rng)
    check_in(multiplier, ("normal", "rademacher"), "multiplier")
    stats = []
    for _, eta in chunks(B, e.shape):
        if multiplier == "normal":
            gen.standard_normal(out=eta)
        else:
            np.multiply(gen.integers(0, 2, size=eta.shape), 2.0, out=eta)
            eta -= 1.0
        eta *= e
        stats.append(_stat_stack(stat, eta))
    return BootstrapResult(stats=np.concatenate(stats), observed=stat(e),
                           B=B, scheme="wild")


def wild_conditional_variance(residuals) -> float:
    """Conditional variance of n^{-1/2} sum_t y*_t given the data.

    For any mean-0 variance-1 multiplier this equals n^{-1} sum e_t^2
    exactly.  Criterion 09 of tests/test_acceptance.py reads it.
    """
    e = as_series(residuals, "residuals")
    return float(np.mean(e**2))


def residual_unitroot_bootstrap(ts, B: int, rng,
                                block: BlockSpec | int) -> BootstrapResult:
    """Unit root bootstrap from recolored difference residuals.

    Fits x_t = rho x_{t-1} + u_t without deterministics, recenters the
    residuals, block-resamples them, and rebuilds replicate random walks
    x*_t = x*_{t-1} + u*_t from x*_0 = 0.  The statistic is the
    normalized bias T(rho* - 1) with T = n - 1, matching the convention
    of the Dickey-Fuller limit tables.
    """
    x = as_series(ts, "ts", min_len=8)
    B = check_positive_int(B, "B")
    spec = block if isinstance(block, BlockSpec) else BlockSpec(int(block))
    gen = _resolve_rng(rng)
    fit, _ = _ar_fit(x[None], "none")
    m = x.shape[0] - 1
    rho_hat = float(fit.coef[0, 0])
    resid = fit.resid[0] - fit.resid[0].mean()
    # an exact AR(1) path leaves nothing to resample
    check_fit(resid @ resid, x[None, 1:], "Dickey-Fuller")
    rho_star = np.empty(B)
    for lo, walks in _block_resample(resid, spec, B, gen, lead=1):
        # after x*_0 = 0 the resampled residuals are cumulated in place
        walks[:, 0] = 0.0
        np.cumsum(walks[:, 1:], axis=1, out=walks[:, 1:])
        rho_star[lo:lo + len(walks)] = _ar_fit(walks, "none", fit=ols_coef)[0].coef[:, 0]
    stats = m * (rho_star - 1.0)
    observed = m * (rho_hat - 1.0)
    return BootstrapResult(stats=stats, observed=observed, B=B,
                           scheme="residual-unitroot")


def bootstrap_pvalue(observed: float, draws, tail: str = "two") -> float:
    """Finite-sample bootstrap p-value (1 + #extreme) / (B + 1)."""
    d = np.asarray(draws, dtype=float)
    check_in(tail, ("left", "right", "two"), "tail")
    if tail == "left":
        extreme = np.sum(d <= observed)
    elif tail == "right":
        extreme = np.sum(d >= observed)
    else:
        extreme = np.sum(np.abs(d) >= abs(observed))
    return float((1 + extreme) / (d.size + 1))
