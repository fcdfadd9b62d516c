"""Input validation helpers shared across the package.

Series are plain one-dimensional float ndarrays, multivariate series are
(n, d) float ndarrays with observations in rows.  Kernels that run many
replications at once take panels with a leading rep axis: (R, n) series
or (R, n, d) matrices, checked rep by rep with the same messages.
Everything user-facing funnels through these coercions so downstream
code can assume clean input.
"""

from __future__ import annotations

import numpy as np

__all__ = ["as_series", "as_matrix", "as_panel", "as_yx", "check_positive_int", "check_in",
           "check_finite_path", "check_finite_result", "FINITE_RESULT"]

# the fewest observations `as_yx` takes for a regression, unless told otherwise
_MIN_OBS = 8

# the errstate of a statistic that reports a non-finite result by `check_finite_result`
FINITE_RESULT = np.errstate(over="ignore", invalid="ignore", divide="ignore")


def as_panel(x, name: str = "x", min_len: int = 1, matrix: bool = False) -> np.ndarray:
    """Coerce a stack of reps to a finite float panel, each rep >= min_len long.

    Without `matrix` every rep is a series and the panel is (R, n); with
    it every rep is a matrix, a series becoming a single column, and the
    panel is (R, n, d).  Messages describe one rep's shape.
    """
    arr = np.asarray(x, dtype=float)
    if matrix and arr.ndim == 2:
        arr = arr[:, :, None]
    if arr.ndim != (3 if matrix else 2):
        kind = "one- or two-dimensional" if matrix else "one-dimensional"
        raise ValueError(f"{name} must be {kind}, got shape {arr.shape[1:]}")
    if arr.shape[1] < min_len:
        unit = "rows" if matrix else "observations"
        raise ValueError(f"{name} needs at least {min_len} {unit}, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def as_yx(y, x, min_len: int = _MIN_OBS) -> tuple[np.ndarray, np.ndarray]:
    """Coerce a regression's (R, n) y and (R, n[, d]) x panels, of equal R and n."""
    y = as_panel(y, "y", min_len)
    if np.shape(x)[:1] != y.shape[:1]:
        raise ValueError(f"y holds {y.shape[0]} reps, so x must too, got shape {np.shape(x)}")
    x = as_panel(x, "x", min_len, matrix=True)
    if x.shape[1] != y.shape[1]:
        raise ValueError("y and x must have equal length")
    return y, x


def as_series(x, name: str = "x", min_len: int = 1) -> np.ndarray:
    """Coerce to a finite 1-d float array of length >= min_len."""
    return as_panel(np.asarray(x, dtype=float)[None], name, min_len)[0]


def as_matrix(x, name: str = "x", min_len: int = 1) -> np.ndarray:
    """Coerce to a finite (n, d) float array; 1-d input becomes a single column."""
    return as_panel(np.asarray(x, dtype=float)[None], name, min_len, matrix=True)[0]


def check_positive_int(value, name: str, minimum: int = 1) -> int:
    v = int(value)
    if v != value or v < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return v


def check_in(value, choices, name: str):
    if value not in choices:
        raise ValueError(f"{name} must be one of {sorted(choices)}, got {value!r}")
    return value


def check_finite_path(path, where: str):
    """Return `path`, a simulator's output (an array or a tuple of arrays),
    if every value is finite, else raise a ValueError naming `where`, the
    simulator's parameters as "name=value, ...".

    A simulator computes its path under np.errstate(over="ignore",
    invalid="ignore"), so that this error is the one report of a path
    that has left the finite floats.
    """
    parts = path if isinstance(path, tuple) else (path,)
    if not all(np.all(np.isfinite(part)) for part in parts):
        raise ValueError(f"the path leaves the finite floats at {where}")
    return path


def check_finite_result(fn: str, *values) -> None:
    """Raise a ValueError naming the statistic `fn` unless each of `values`,
    fields of its result on finite data, is finite.

    The statistic computes under `FINITE_RESULT`, so that this error is the
    one report of a result that has left the finite floats.
    """
    if not all(np.all(np.isfinite(v)) for v in values):
        raise ValueError(f"{fn}: the result is not finite: a sum of squares of the data "
                         f"overflows, or a divisor is 0")
