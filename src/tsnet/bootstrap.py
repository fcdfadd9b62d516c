"""Resampling schemes for dependent data.

Block and stationary bootstraps resample the observed path directly;
the sieve bootstrap rebuilds it from an autoregressive fit; the wild
bootstrap reweights residuals in place; the residual-based unit root
bootstrap recolors a random walk from resampled first-difference
residuals.  Every scheme takes a statistic callback (the unit root
bootstrap's statistic is its own) and returns the replicate statistics
plus the observed value, so p-values follow one shared convention:
(1 + #{replicates at least as extreme}) / (B + 1).  The observed value
is taken first, and a nan raises before any replicate is drawn.

No scheme forms a (B, n) array.  One loop, `_bootstrap`, makes the
replicates of every scheme in the `_panel.chunks` of B: the scheme fills
a chunk from the generator, and the loop reduces the chunk before the
next fill overwrites it, by the callback row by row or, for the unit
root bootstrap, by one panel fit.  The fills:
- block (`_block_fill`): each drawn block is a whole window of the
  series' `sliding_window_view` (the circular layout appends length - 1
  wrapped values first), so no index matrix is formed either;
- stationary: row by row, the one sequential draw, since each
  replicate's restart flags and starts interleave in the generator;
- sieve: one draw of the chunk's residual indices, burn-in included, and
  one pass of the fitted recursion (`_filter.ar`) over them in place;
- wild: the chunk's multipliers, times the residuals in place;
- unit root: a zero column x*_0, the residuals block-resampled after it
  and cumulated in place into replicate walks, fitted by the normal
  equations alone (`_panel.ols_coef`), since only rho* is kept.
The generator's stream and the panel kernels give each replicate the
same bits whatever chunk it lands in.
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
from .series import _resolve_rng
from .unitroot import _ar_fit, ols_ar

__all__ = [
    "BlockSpec",
    "BootstrapResult",
    "block_bootstrap",
    "stationary_bootstrap",
    "sieve_bootstrap",
    "wild_bootstrap",
    "residual_unitroot_bootstrap",
    "bootstrap_pvalue",
]

# the choices of `wild_bootstrap`'s multiplier and `bootstrap_pvalue`'s tail
_MULTIPLIERS = ("normal", "rademacher")
_TAILS = ("two", "left", "right")


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


def _bootstrap(scheme: str, B: int, rng, width: int, fill: Callable, stat: Callable,
               observed, panel: bool = False) -> BootstrapResult:
    """The replicate loop of every scheme: B replicates, made in the
    `chunks` of B rows of `width` floats.

    fill(rows, gen) writes a chunk from the generator and returns the
    replicates in it (all of rows, or a view of them).  They are reduced
    before the next fill overwrites them: by stat(rep) for each replicate,
    stacked into one array per chunk, so a statistic that returns its
    input keeps a copy, or, with `panel`, by stat(reps) on them all.
    """
    B = check_positive_int(B, "B")
    gen = _resolve_rng(rng)
    stats = []
    for _, rows in chunks(B, (width,)):
        reps = fill(rows, gen)
        stats.append(stat(reps) if panel else np.asarray([stat(rep) for rep in reps]))
    return BootstrapResult(stats=np.concatenate(stats), observed=observed, B=B, scheme=scheme)


def _block_fill(x: np.ndarray, spec: BlockSpec) -> Callable:
    """The fill of rows (a chunk of length-n rows) with block-bootstrap
    replicates of the length-n series x.

    Each replicate concatenates ceil(n/length) blocks, whole windows of
    x gathered from its `sliding_window_view`, and is truncated to n.
    For overlapping circular blocks x gets length - 1 wrapped values
    appended, so a block that runs past the end is one window too; for
    non-overlapping blocks the windows are every length-th one.  A
    chunk's block starts are drawn as it is gathered.
    """
    if not isinstance(spec, BlockSpec):
        raise TypeError(f"block must be a BlockSpec, got {spec!r}")
    n, l = x.shape[0], spec.length
    if l > n:
        raise ValueError("block length exceeds series length")
    k = ceil(n / l)
    if spec.overlap and spec.circular:
        x = np.concatenate([x, x[:l - 1]])
    windows = sliding_window_view(x, l)[::1 if spec.overlap else l]

    def fill(rows, gen):
        starts = gen.integers(0, len(windows), size=(len(rows), k))
        rows[:] = windows[starts].reshape(len(rows), k * l)[:, :n]
        return rows

    return fill


def _observed(stat: Callable, x: np.ndarray):
    """stat(x), the statistic on the data, taken before any replicate is
    drawn: a nan (an overflow, say) raises a ValueError naming `stat`, in
    place of numpy's warnings and B replicates of nothing."""
    with np.errstate(over="ignore", invalid="ignore"):
        value = stat(x)
    if np.any(np.isnan(value)):
        name = getattr(stat, "__name__", repr(stat))
        raise ValueError(f"the statistic {name} is nan on the data; a bootstrap needs a number")
    return value


def block_bootstrap(ts, stat: Callable, B: int, rng, block: BlockSpec) -> BootstrapResult:
    """Moving-block bootstrap of a statistic.

    Parameters
    ----------
    stat : callable
        Maps a length-n ndarray to a float (or fixed-shape array).
    block : BlockSpec
    """
    x = as_series(ts, "ts")
    observed = _observed(stat, x)
    return _bootstrap("block", B, rng, x.shape[0], _block_fill(x, block), stat, observed)


def stationary_bootstrap(ts, stat: Callable, B: int, rng,
                         mean_block: float) -> BootstrapResult:
    """Stationary bootstrap with geometric block lengths.

    Each position either continues the current block (stepping to the
    next observation, wrapping circularly) or restarts at a fresh
    uniform position with probability 1/mean_block.
    """
    x = as_series(ts, "ts")
    if not mean_block >= 1:
        raise ValueError("mean_block must be >= 1")
    n = x.shape[0]
    p = 1.0 / mean_block
    pos = np.arange(n)
    observed = _observed(stat, x)

    def fill(rows, gen):
        # a replicate's restart flags, then its starts: the draws interleave
        for row in rows:
            flags = gen.random(n) < p
            flags[0] = True
            starts = gen.integers(0, n, size=int(flags.sum()))
            seg = np.cumsum(flags) - 1
            last = np.maximum.accumulate(np.where(flags, pos, -1))
            np.take(x, (starts[seg] + (pos - last)) % n, out=row)
        return rows

    return _bootstrap("stationary", B, rng, n, fill, stat, observed)


def sieve_bootstrap(ts, stat: Callable, B: int, rng, p: int) -> BootstrapResult:
    """Autoregressive sieve bootstrap.

    Fits X_t - m = sum_{j<=p} a_j (X_{t-j} - m) + U_t by least squares
    (`ols_ar`) around the sample mean m, recenters the residuals, and
    rebuilds replicate paths by the fitted recursion driven by iid draws
    from the residuals, discarding a burn-in of 100 + p.  An explosive
    fit raises.
    """
    x = as_series(ts, "ts", min_len=p + 2)
    p = check_positive_int(p, "p", minimum=0)
    if p >= x.shape[0] / 2:
        raise ValueError(f"sieve order p={p} too large for n={x.shape[0]}")
    observed = _observed(stat, x)
    m = x.mean()
    xc = x - m
    if p == 0:
        # iid residual bootstrap around the mean
        a, resid = np.empty(0), xc
    else:
        fit = ols_ar(xc, p)
        a, resid = fit.ar_coeffs, fit.residuals
        companion = np.zeros((p, p))
        companion[0] = a
        companion[1:, :-1] = np.eye(p - 1)
        radius = np.max(np.abs(np.linalg.eigvals(companion)))
        if radius >= 1.0:
            raise ValueError(f"fitted sieve is nonstationary "
                             f"(companion radius {radius:.4f})")
    resid = resid - resid.mean()
    burn = 100 + p

    def fill(paths, gen):
        # the burn-in, then the replicate: resampled residuals, filtered in place
        np.take(resid, gen.integers(0, resid.shape[0], size=paths.shape), out=paths)
        ar(paths, a, out=paths)
        reps = paths[:, burn:]
        reps += m
        return reps

    return _bootstrap("sieve", B, rng, x.shape[0] + burn, fill, stat, observed)


def wild_bootstrap(residuals, stat: Callable, B: int, rng,
                   multiplier: str = "normal") -> BootstrapResult:
    """Wild bootstrap: y*_t = e_t eta*_t with iid mean-0 variance-1 eta*.

    multiplier is "normal" or "rademacher".
    """
    e = as_series(residuals, "residuals")
    check_in(multiplier, _MULTIPLIERS, "multiplier")
    observed = _observed(stat, e)

    def fill(eta, gen):
        if multiplier == "normal":
            gen.standard_normal(out=eta)
        else:
            np.multiply(gen.integers(0, 2, size=eta.shape), 2.0, out=eta)
            eta -= 1.0
        eta *= e
        return eta

    return _bootstrap("wild", B, rng, e.shape[0], fill, stat, observed)


def residual_unitroot_bootstrap(ts, B: int, rng, block: BlockSpec) -> BootstrapResult:
    """Unit root bootstrap from recolored difference residuals.

    Fits x_t = rho x_{t-1} + u_t without deterministics, recenters the
    residuals, block-resamples them, and rebuilds replicate random walks
    x*_t = x*_{t-1} + u*_t from x*_0 = 0.  The statistic is the
    normalized bias T(rho* - 1) with T = n - 1, matching the convention
    of the Dickey-Fuller limit tables.
    """
    x = as_series(ts, "ts", min_len=8)
    fit, _ = _ar_fit(x[None], "none")
    m = x.shape[0] - 1
    resid = fit.resid[0] - fit.resid[0].mean()
    # an exact AR(1) path leaves nothing to resample
    check_fit(resid @ resid, x[None, 1:], "Dickey-Fuller")
    gather = _block_fill(resid, block)

    def fill(walks, gen):
        # after x*_0 = 0 the resampled residuals are cumulated in place
        walks[:, 0] = 0.0
        gather(walks[:, 1:], gen)
        np.cumsum(walks[:, 1:], axis=1, out=walks[:, 1:])
        return walks

    def bias(walks):
        return m * (_ar_fit(walks, "none", fit=ols_coef)[0].coef[:, 0] - 1.0)

    return _bootstrap("residual-unitroot", B, rng, x.shape[0], fill, bias,
                      m * (float(fit.coef[0, 0]) - 1.0), panel=True)


def bootstrap_pvalue(observed: float, draws, tail: str = "two") -> float:
    """Finite-sample bootstrap p-value (1 + #extreme) / (B + 1).

    A nan observed value or draw raises: it is neither extreme nor not.
    Infinite values count as the most extreme of their sign.
    """
    d = np.asarray(draws, dtype=float)
    check_in(tail, _TAILS, "tail")
    if np.any(np.isnan(observed)):
        raise ValueError("the observed statistic is nan; a p-value needs a number")
    if bad := np.count_nonzero(np.isnan(d)):
        raise ValueError(f"{bad} of the {d.size} bootstrap draws are nan; "
                         f"a p-value needs numbers")
    if tail == "left":
        extreme = np.sum(d <= observed)
    elif tail == "right":
        extreme = np.sum(d >= observed)
    else:
        extreme = np.sum(np.abs(d) >= abs(observed))
    return float((1 + extreme) / (d.size + 1))
