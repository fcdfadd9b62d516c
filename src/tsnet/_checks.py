"""Input validation helpers shared across the package.

Series are plain one-dimensional float ndarrays, multivariate series are
(n, d) float ndarrays with observations in rows.  Kernels that run many
replications at once take panels with a leading rep axis: (R, n) series
or (R, n, d) matrices, checked rep by rep with the same messages.
Everything user-facing funnels through these coercions so downstream
code can assume clean input.

`as_panel` and `as_yx` hold the one rank rule of the statistics that
take one rep or a panel of reps: a panel has one more axis than one rep,
and that axis leads.  Such a statistic reads each input with one of
them, which gives one rep a rep axis of length 1 and says whether it
did, runs its panel body and takes the axis off again (`first_rep`).
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["as_series", "as_matrix", "as_panel", "as_yx", "first_rep", "check_positive_int",
           "check_in", "check_finite_result", "check_squares", "FINITE_RESULT"]

# the fewest observations `as_yx` takes for a regression, unless told otherwise
_MIN_OBS = 8

# the errstate of a statistic that reports a non-finite result by `check_finite_result`
FINITE_RESULT = np.errstate(over="ignore", invalid="ignore", divide="ignore")
# the smallest positive normal float
_TINY = np.finfo(float).tiny


def _reps(arr: np.ndarray, name: str, min_len: int, matrix: bool) -> np.ndarray:
    """`arr`, a float array with a leading rep axis, as a finite panel, each
    rep >= min_len long.

    Without `matrix` every rep is a series and the panel is (R, n); with
    it every rep is a matrix, a series becoming a single column, and the
    panel is (R, n, d).  Messages describe one rep's shape.
    """
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


def as_panel(x, name: str = "x", min_len: int = 1,
             matrix: bool = False) -> tuple[np.ndarray, bool]:
    """The finite float panel of one rep or a panel of reps, and whether
    `x` is one rep.

    One rep is a series, or with `matrix` a series or a matrix; a panel
    has one more, leading, rep axis.  One rep gains a rep axis of length
    1, which `first_rep` takes off the statistic's result.  The panel is
    checked as `_reps` says.
    """
    arr = np.asarray(x, dtype=float)
    one = arr.ndim <= (2 if matrix else 1)
    return _reps(arr[None] if one else arr, name, min_len, matrix), one


def as_yx(y, x, min_len: int = _MIN_OBS) -> tuple[np.ndarray, np.ndarray, bool]:
    """A regression's (R, n) y and (R, n, d) x panels, of equal R and n, and
    whether y is one rep (`as_panel`), in which case x is one rep too."""
    y, one = as_panel(y, "y", min_len)
    x = np.asarray(x, dtype=float)
    x = x[None] if one else x
    if x.shape[:1] != y.shape[:1]:
        raise ValueError(f"y holds {y.shape[0]} reps, so x must too, got shape {x.shape}")
    x = _reps(x, "x", min_len, matrix=True)
    if x.shape[1] != y.shape[1]:
        raise ValueError("y and x must have equal length")
    return y, x, one


def first_rep(res, shared=()):
    """The single rep of a panel result computed with R = 1.

    Every ndarray field carries the rep axis and loses it (a per-rep
    scalar becomes a Python number).  Fields named in `shared` hold one
    value for all reps and are kept whole, as are non-array fields.
    """
    out = {}
    for f in dataclasses.fields(res):
        v = getattr(res, f.name)
        if f.name not in shared and isinstance(v, np.ndarray):
            v = v[0].item() if v.ndim == 1 else v[0]
        out[f.name] = v
    return dataclasses.replace(res, **out)


def as_series(x, name: str = "x", min_len: int = 1) -> np.ndarray:
    """Coerce to a finite 1-d float array of length >= min_len."""
    return _reps(np.asarray(x, dtype=float)[None], name, min_len, False)[0]


def as_matrix(x, name: str = "x", min_len: int = 1) -> np.ndarray:
    """Coerce to a finite (n, d) float array; 1-d input becomes a single column."""
    return _reps(np.asarray(x, dtype=float)[None], name, min_len, True)[0]


def check_positive_int(value, name: str, minimum: int = 1) -> int:
    v = int(value)
    if v != value or v < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return v


def check_in(value, choices, name: str):
    if value not in choices:
        raise ValueError(f"{name} must be one of {sorted(choices)}, got {value!r}")
    return value


def check_finite_result(fn: str, *values) -> None:
    """Raise a ValueError naming the statistic `fn` unless each of `values`,
    fields of its result on finite data, is finite.

    The statistic computes under `FINITE_RESULT`, so that this error is the
    one report of a result that has left the finite floats.
    """
    if not all(np.all(np.isfinite(v)) for v in values):
        raise ValueError(f"{fn}: the result is not finite: a sum of squares of the data "
                         f"overflows, or a divisor is 0")


def check_squares(gram) -> None:
    """Raise a ValueError if a diagonal entry of `gram`, a (..., k, k) stack
    of sums of squares of the data, is positive but below the smallest
    normal float.

    Such a sum has underflowed: its squares lie among the subnormals,
    which keep fewer digits, or at 0, so a statistic built on it would be
    a quietly wrong number.  A zero sum is left to the caller's own rule.
    """
    diag = np.diagonal(gram, axis1=-2, axis2=-1)
    if np.any((diag > 0.0) & (diag < _TINY)):
        raise ValueError(f"a sum of squares of the data underflows below the normal floats "
                         f"({_TINY:.3g}); rescale the data")
