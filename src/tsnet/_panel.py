"""Helpers for kernels that run on a leading replication axis.

A panel kernel computes the same statistic for R replications at once,
one rep per leading index.  Its linear algebra is built from stacked
`matmul`, `solve` and `inv`, which call the same BLAS/LAPACK routine per
rep as the 2-d call on one rep would, so every rep's numbers are
bit-identical to a single-rep run whatever R is.  (`einsum` or
`(a * b).sum(axis)` would sum in another order.)
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = ["rowdot", "first_rep"]


def rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Per-rep dot product of two (R, n) panels, as `a[r] @ b[r]` computes it."""
    return (a[:, None, :] @ b[:, :, None])[:, 0, 0]


def first_rep(res, shared=()):
    """The single rep of a panel result computed with R = 1.

    Every ndarray field carries the rep axis and loses it (a per-rep
    scalar becomes a Python number); nested results are unpacked the
    same way.  Fields named in `shared` hold one value for all reps and
    are kept whole, as are non-array fields.
    """
    out = {}
    for f in dataclasses.fields(res):
        v = getattr(res, f.name)
        if f.name in shared:
            pass
        elif dataclasses.is_dataclass(v):
            v = first_rep(v)
        elif isinstance(v, np.ndarray):
            v = v[0].item() if v.ndim == 1 else v[0]
        out[f.name] = v
    return dataclasses.replace(res, **out)
