"""Autoregressive and moving-average filters along the time axis.

Every recursion of the package -- local-to-unity and sieve
autoregressions, the IVX instrument, the GARCH variance filter -- runs
through `ar`, and every finite moving average through `ma`.

A series is (n,); a panel is (R, n) or (R, n, d) with time along axis 1.

`ar` writes y_t = v_t + a_1 y_{t-1} + ... + a_p y_{t-p} as the unit
lower-banded triangular system L y = v, with ones on the diagonal and
-a_k on the k-th subdiagonal, and solves it with LAPACK `dtbtrs`
(bandwidth p).  The coefficients may change with t (the GARCH variance
recursion s_t = omega + a_t s_{t-1}): the subdiagonals then vary along
the band.  LAPACK solves each right-hand side on its own, so a rep's
path does not depend on which other reps share its panel.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg.lapack import dtbtrs

__all__ = ["ar", "ma"]


def ar(v, coeffs, start=None, out=None) -> np.ndarray:
    """Run y_t = v_t + sum_k a_k(t) y_{t-k} from a zero presample.

    `coeffs` holds a_1..a_p: p numbers fixed in time, or a (p, n) array
    whose column t holds the coefficients of observation t (column 0
    only reaches the presample, which is zero).  Every series of a panel
    shares them.  `start`, when given, is added to the first
    observation: for an AR(1) from presample value y_0 it is a_1 * y_0.
    It is a scalar or, for a panel, one value per series: an (R, 1) or
    (R, 1, d) array.  Returns an array shaped like v: `out` when given,
    a C-contiguous float array shaped like a series or (R, n) panel v
    (v itself allowed), which LAPACK then solves in place.
    """
    v = np.asarray(v, dtype=float)
    if v.ndim == 3:
        if out is not None:
            raise ValueError("out takes a series or an (R, n) panel")
        # one series per (rep, column)
        R, n, d = v.shape
        if start is not None:
            start = np.broadcast_to(start, (R, 1, d)).transpose(0, 2, 1).reshape(R * d, 1)
        y = ar(v.transpose(0, 2, 1).reshape(R * d, n), coeffs, start)
        return np.ascontiguousarray(y.reshape(R, d, n).transpose(0, 2, 1))
    # time first, one column per series: the transpose of a C-ordered
    # (R, n) panel is the Fortran-ordered (n, R) LAPACK wants, without a copy
    b = v[:, None] if v.ndim == 1 else v.T
    if out is not None:
        out_b = out[:, None] if out.ndim == 1 else out.T
        out_b[...] = b
        b = out_b
    elif start is not None:
        b = b.copy(order="F")
    if start is not None:
        b[0] += np.ravel(start)
    # the band in LAPACK's layout, Fortran-ordered (the transpose of a
    # C-ordered array): f2py would copy a C-ordered one.  Row k, column j
    # holds -a_k(j + k), the entry of L in row j + k.
    n = b.shape[0]
    a = np.asarray(coeffs, dtype=float)
    if a.ndim == 2:
        ab = np.zeros((n, a.shape[0] + 1))
        ab[:, 0] = 1.0
        for k in range(1, ab.shape[1]):
            np.negative(a[k - 1, k:], out=ab[:n - k, k])
    else:
        ab = np.repeat(np.concatenate(([1.0], -a))[None], n, axis=0)
    y, info = dtbtrs(ab.T, b, uplo="L", diag="U",
                     overwrite_b=out is not None or start is not None)
    if info:
        raise ValueError(f"dtbtrs failed with info={info}")
    if out is not None:
        if y is not b:  # f2py solves a Fortran-ordered float b in place, else copies
            b[...] = y
        return out
    return y[:, 0] if v.ndim == 1 else y.T


def ma(eps, coeffs) -> np.ndarray:
    """Return y_t = sum_j coeffs[j] eps_{t-j} over every full window.

    With q = len(coeffs) - 1 the first q entries of eps along the time
    axis are presample: the output is q observations shorter.  The sum
    runs from the longest lag down, the order of a direct-form filter.
    """
    eps = np.asarray(eps, dtype=float)
    c = np.asarray(coeffs, dtype=float).ravel()
    axis = 0 if eps.ndim == 1 else 1
    q = c.size - 1
    n = eps.shape[axis] - q
    lead = (slice(None),) * axis
    y = c[q] * eps[lead + (slice(0, n),)]
    for j in range(q - 1, -1, -1):
        y += c[j] * eps[lead + (slice(q - j, q - j + n),)]
    return y
