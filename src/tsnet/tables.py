"""Simulated quantile tables for nonstandard limit distributions, and
`_walk_batches`, the walk batcher that alone owns their draws' workspace."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["QuantileTable"]

# bytes a limit-table simulator's batch of draws holds at once.  About
# a core's L2 cache; it bounds the workspace and never a result.
_WORKSPACE_BYTES = 2**19

# the fewest replications a limit-table simulator accepts
_MIN_REPS = 100


def _walk_batches(gen, reps: int, shape: tuple[int, ...]):
    """Yield (lo, walks): `reps` standard-normal random walks of `shape`,
    drawn from `gen` in rep order into one reused buffer of
    `_WORKSPACE_BYTES` (at least one walk) and cumulated in place along
    time, the first axis of `shape`.  `walks` holds reps lo, lo + 1, ...
    until the next batch overwrites it, so a caller may scale it in place.
    """
    rows = min(reps, max(1, _WORKSPACE_BYTES // (8 * math.prod(shape))))
    buf = np.empty((rows, *shape))
    for lo in range(0, reps, rows):
        walks = gen.standard_normal(out=buf[:min(rows, reps - lo)])
        np.cumsum(walks, axis=1, out=walks)
        yield lo, walks


@dataclass(frozen=True, eq=False)
class QuantileTable:
    """Empirical quantiles of a simulated limit distribution.

    Parameters
    ----------
    draws : ndarray
        The simulated draws, sorted ascending and read-only.
    reps : int
        Number of Monte Carlo replications behind the table.
    detail : str
        Short description of the statistic and settings simulated.
    """

    draws: np.ndarray
    reps: int
    detail: str = ""

    def quantile(self, prob: float) -> float:
        """The empirical quantile at any `prob` in (0, 1), by `np.quantile`."""
        if not 0.0 < prob < 1.0:
            raise ValueError(f"quantile level must lie in (0, 1), got {prob!r}")
        return float(np.quantile(self.draws, prob))

    @classmethod
    def from_draws(cls, draws, reps: int | None = None,
                   detail: str = "") -> "QuantileTable":
        draws = np.sort(np.asarray(draws, dtype=float).ravel())
        draws.flags.writeable = False
        return cls(draws=draws, reps=int(reps if reps is not None else draws.size),
                   detail=detail)
