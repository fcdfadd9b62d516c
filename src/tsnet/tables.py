"""Simulated quantile tables for nonstandard limit distributions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["QuantileTable", "DEFAULT_PROBS"]

# Tail and central probabilities a table reports as its `values`.
DEFAULT_PROBS = (0.01, 0.025, 0.05, 0.10, 0.50, 0.90, 0.95, 0.99)

# bytes a limit-table simulator's batch of draws holds at once.  About
# a core's L2 cache; it bounds the workspace and never a result.
_WORKSPACE_BYTES = 2**19


def _workspace_rows(row_floats: int, limit: int) -> int:
    """Rows of `row_floats` floats that fill the workspace: at least one,
    at most `limit`."""
    return min(limit, max(1, _WORKSPACE_BYTES // (8 * row_floats)))


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

    @property
    def probs(self) -> tuple[float, ...]:
        """The levels `values` reports."""
        return DEFAULT_PROBS

    @property
    def values(self) -> tuple[float, ...]:
        """The quantiles at the levels `DEFAULT_PROBS`."""
        return tuple(self.quantile(p) for p in DEFAULT_PROBS)

    @classmethod
    def from_draws(cls, draws, reps: int | None = None,
                   detail: str = "") -> "QuantileTable":
        draws = np.sort(np.asarray(draws, dtype=float).ravel())
        draws.flags.writeable = False
        return cls(draws=draws, reps=int(reps if reps is not None else draws.size),
                   detail=detail)
