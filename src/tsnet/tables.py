"""Simulated quantile tables for nonstandard limit distributions, and
`_walk_batches`, the random walks their simulators draw.

A table holds only the sorted draws of its simulator: the caller knows
what it simulated, and the number of replications is the number of
draws."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._panel import chunks

__all__ = ["QuantileTable"]

# the fewest replications a limit-table simulator accepts
_MIN_REPS = 100


def _walk_batches(gen, reps: int, shape: tuple[int, ...]):
    """Yield (lo, walks): `reps` standard-normal random walks of `shape`,
    drawn from `gen` in rep order into the `_panel.chunks` of `reps` and
    cumulated in place along time, the first axis of `shape`.  `walks`
    holds reps lo, lo + 1, ... until the next chunk overwrites it, so a
    caller may scale it in place; the draws do not depend on the chunks.
    """
    for lo, walks in chunks(reps, shape):
        np.cumsum(gen.standard_normal(out=walks), axis=1, out=walks)
        yield lo, walks


@dataclass(frozen=True, eq=False)
class QuantileTable:
    """Empirical quantiles of a simulated limit distribution.

    draws holds the simulated draws, sorted ascending and read-only;
    their number is the table's number of replications.
    """

    draws: np.ndarray

    def quantile(self, prob: float) -> float:
        """The empirical quantile at any `prob` in (0, 1), by `np.quantile`."""
        if not 0.0 < prob < 1.0:
            raise ValueError(f"quantile level must lie in (0, 1), got {prob!r}")
        return float(np.quantile(self.draws, prob))

    @classmethod
    def from_draws(cls, draws) -> "QuantileTable":
        draws = np.sort(np.asarray(draws, dtype=float).ravel())
        draws.flags.writeable = False
        return cls(draws=draws)
