"""Data-generating processes and the reproducibility contract.

Every stochastic routine in the package draws through an `RngSpec`: a
(seed, stream) pair mapped onto a counter-based Philox generator, so that
the pair fully determines the output and replication r of an experiment
can use stream `base + r` without any cross-stream correlation concerns.
All seven simulators -- `simulate_lur_ar`, `simulate_linear_process`,
`simulate_predictive_system`, `simulate_ou_exact`, `garch.simulate_garch`,
`netdep.simulate_graph_ma` and `randmat.sample_cov_spectrum` -- take a
required rng argument and draw through `_simulate`: an `RngSpec` or a
numpy Generator, from which they draw their own standard normals, or
the normals themselves.  Those are one rep's draws, or a panel of them
with one more, leading, rep axis, which gives the panel of paths, each
rep bit-identical to its own call.  `simulate_ou_exact` takes n normals,
or n + 1 under init="stationary", J(0)'s draw first.  The Monte Carlo
harness passes the simulators its panels of draws, as it passes the
statistics panels of reps (`_checks.as_panel`).

Series are returned as plain 1-d float ndarrays; multivariate series as
(n, d) arrays with time in rows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._checks import check_in, check_positive_int
from ._filter import ar, ma

__all__ = [
    "RngSpec",
    "LinearProcessSpec",
    "LurSpec",
    "SystemSpec",
    "simulate_linear_process",
    "simulate_lur_ar",
    "simulate_predictive_system",
    "simulate_ou_exact",
]

_UINT64_MAX = 2**64 - 1
# the starts of `simulate_ou_exact`
_OU_INITS = ("zero", "stationary")


@dataclass(frozen=True)
class RngSpec:
    """Seed/stream pair identifying one reproducible random stream.

    Both fields are unsigned 64-bit integers.  The pair keys a Philox
    counter-based generator, so streams with different (seed, stream)
    are statistically independent and the mapping is stable across runs,
    platforms, and degrees of parallelism.
    """

    seed: int
    stream: int = 0

    def __post_init__(self):
        for name, v in (("seed", self.seed), ("stream", self.stream)):
            if not isinstance(v, (int, np.integer)) or not 0 <= int(v) <= _UINT64_MAX:
                raise ValueError(f"{name} must be an unsigned 64-bit integer, got {v!r}")

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=_philox_key(self.seed, self.stream)))

    def substream(self, offset: int) -> "RngSpec":
        """Stream for replication `offset` relative to this spec."""
        return RngSpec(self.seed, (self.stream + offset) % (_UINT64_MAX + 1))


def _philox_key(seed: int, stream: int) -> np.ndarray:
    """The Philox key of stream (seed, stream): seed in the first word, stream in the second."""
    return np.array([seed, stream], dtype=np.uint64)


def _rekey(bitgen: np.random.Philox, seed: int, stream: int) -> None:
    """Put `bitgen` in the state of a fresh `RngSpec(seed, stream).generator()`.

    That state is the key of `_philox_key`, counter zero and no buffered
    output.  Setting it costs a fifth of building a new generator, whose
    constructor also draws a seed sequence from OS entropy that the key
    then overrides.
    """
    bitgen.state = {"bit_generator": "Philox",
                    "state": {"counter": np.zeros(4, dtype=np.uint64),
                              "key": _philox_key(seed, stream)},
                    "buffer": np.zeros(4, dtype=np.uint64), "buffer_pos": 4,
                    "has_uint32": 0, "uinteger": 0}


def _resolve_rng(rng) -> np.random.Generator:
    if isinstance(rng, RngSpec):
        return rng.generator()
    if isinstance(rng, np.random.Generator):
        return rng
    raise TypeError("rng must be an RngSpec or numpy Generator")


def _simulate(path, rng, shape: tuple[int, ...], where: str):
    """`path` of a simulator's standard normals, for one rep or a panel of reps.

    An `RngSpec` or Generator rng draws one rep's normals, of `shape`; an
    ndarray rng is the normals, of `shape` or with one more, leading, rep
    axis.  `path` maps the (R, *shape) panel to an array, or a tuple of
    arrays, with a leading rep axis, under np.errstate(over="ignore",
    invalid="ignore"), so that a ValueError naming `where`, the
    simulator's parameters as "name=value, ...", is the one report of a
    path that leaves the finite floats.  One rep's result loses the rep
    axis.
    """
    if isinstance(rng, np.ndarray):
        z = np.asarray(rng, dtype=float)
        one = z.ndim <= len(shape)
        z = z[None] if one else z
        if z.shape[1:] != shape:
            dims = ", ".join(map(str, shape))
            raise ValueError(f"rng must be normals of shape {shape} or (R, {dims}), "
                             f"got shape {rng.shape}")
        if not np.all(np.isfinite(z)):
            raise ValueError("rng contains non-finite values")
    else:
        z, one = _resolve_rng(rng).standard_normal((1, *shape)), True
    with np.errstate(over="ignore", invalid="ignore"):
        out = path(z)
    parts = out if isinstance(out, tuple) else (out,)
    if not all(np.all(np.isfinite(part)) for part in parts):
        raise ValueError(f"the path leaves the finite floats at {where}")
    if one:
        out = tuple(part[0] for part in parts) if isinstance(out, tuple) else out[0]
    return out


@dataclass(frozen=True)
class LinearProcessSpec:
    """Finite-order linear process X_t = sum_j coeffs[j] * eps_{t-j}.

    `coeffs` holds (c_0, ..., c_q); innovations are iid N(0, sigma^2).
    """

    coeffs: tuple[float, ...]
    sigma: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "coeffs", tuple(float(c) for c in self.coeffs))
        if len(self.coeffs) == 0:
            raise ValueError("coeffs must be non-empty")
        if not all(np.isfinite(self.coeffs)):
            raise ValueError("coeffs must be finite")
        if not (np.isfinite(self.sigma) and self.sigma > 0):
            raise ValueError("sigma must be positive")


def simulate_linear_process(spec: LinearProcessSpec, n: int, rng) -> np.ndarray:
    """Draw n observations of the moving average defined by `spec`.

    The presample innovations eps_{1-q}, ..., eps_0 are drawn too, so the
    output is exactly stationary from the first observation.  rng may be
    the standard normals themselves (`_simulate`), presample first: (n + q,)
    for one path, or (R, n + q) for the (R, n) panel of paths.  A path that
    leaves the finite floats raises ValueError.
    """
    n = check_positive_int(n, "n")
    return _simulate(lambda eps: ma(eps * spec.sigma, spec.coeffs), rng,
                     (n + len(spec.coeffs) - 1,),
                     f"coeffs={spec.coeffs!r}, sigma={spec.sigma!r}, n={n}")


@dataclass(frozen=True)
class LurSpec:
    """Autoregressive root local to unity: rho_n = 1 + c / n^gamma.

    c < 0 gives the near-stationary side, c > 0 the mildly explosive
    side, and gamma in (0, 1) the mildly integrated range.  gamma = 1
    with c = 0 is an exact unit root.
    """

    c: float
    gamma: float = 1.0

    def __post_init__(self):
        if not np.isfinite(self.c):
            raise ValueError("c must be finite")
        if not (0 < self.gamma <= 1):
            raise ValueError("gamma must lie in (0, 1]")

    def rho(self, n: int) -> float:
        return 1.0 + self.c / float(n) ** self.gamma


def simulate_lur_ar(spec: LurSpec, n: int, rng, x0=0.0) -> np.ndarray:
    """Simulate x_t = rho_n x_{t-1} + v_t, t = 1..n, from x_0 = x0.

    The innovations v_t are iid standard normal, drawn from rng; rho_n
    is `spec` evaluated at this n.  rng may be the innovations themselves
    (`_simulate`): (n,) for one path, or (R, n) for the (R, n) panel of
    paths, whose x0 is one start for all or one per rep.  A non-finite
    x0, or a path that leaves the finite floats (a root far on the
    explosive side), raises ValueError.
    """
    n = check_positive_int(n, "n")
    x0 = np.asarray(x0, dtype=float)
    if not np.all(np.isfinite(x0)):
        raise ValueError(f"x0 must be finite, got {x0.tolist()!r}")
    rho = spec.rho(n)

    def path(v):
        if x0.ndim and x0.shape != v.shape[:1]:
            raise ValueError(f"x0 must be one start or one per rep, got shape {x0.shape}")
        return ar(v, [rho], rho * x0)

    return _simulate(path, rng, (n,),
                     f"c={spec.c!r}, gamma={spec.gamma!r}, n={n} (rho_n = {rho!r})")


@dataclass(frozen=True)
class SystemSpec:
    """Predictive system y_t = intercept + beta' x_{t-1} + u_t.

    The d regressors follow x_t = R_n x_{t-1} + v_t with diagonal R_n
    from per-column LurSpecs and x_0 = 0.  The base innovations
    (u_t, e_t) are jointly Gaussian with covariance `sigma_ue` (first
    row/column is the y error).  If `v_ar` is given, the regressor
    innovations are AR(1)-filtered: v_t = diag(v_ar) v_{t-1} + e_t.
    beta and intercept must be finite, sigma_ue finite, symmetric and
    positive definite, and v_ar inside the unit circle (nan is not).
    """

    beta: tuple[float, ...]
    lur: tuple[LurSpec, ...]
    intercept: float = 0.0
    sigma_ue: tuple[tuple[float, ...], ...] | None = None
    v_ar: tuple[float, ...] | None = None

    def __post_init__(self):
        object.__setattr__(self, "beta", tuple(float(b) for b in self.beta))
        d = len(self.beta)
        if d == 0:
            raise ValueError("beta must be non-empty")
        if not np.all(np.isfinite(self.beta)):
            raise ValueError(f"beta must be finite, got {self.beta!r}")
        if not np.isfinite(self.intercept):
            raise ValueError(f"intercept must be finite, got {self.intercept!r}")
        if len(self.lur) != d:
            raise ValueError("need one LurSpec per regressor")
        if self.sigma_ue is not None:
            sig = np.asarray(self.sigma_ue, dtype=float)
            if sig.shape != (d + 1, d + 1):
                raise ValueError(f"sigma_ue must be ({d + 1}, {d + 1})")
            if not np.all(np.isfinite(sig)):
                raise ValueError(f"sigma_ue must be finite, got {sig.tolist()!r}")
            if not np.allclose(sig, sig.T):
                raise ValueError("sigma_ue must be symmetric")
            try:
                np.linalg.cholesky(sig)
            except np.linalg.LinAlgError:
                raise ValueError(f"sigma_ue must be positive definite, "
                                 f"got {sig.tolist()!r}") from None
            object.__setattr__(self, "sigma_ue", tuple(tuple(row) for row in sig))
        if self.v_ar is not None:
            var = tuple(float(a) for a in self.v_ar)
            if len(var) != d:
                raise ValueError("need one v_ar coefficient per regressor")
            if not all(abs(a) < 1 for a in var):
                raise ValueError(f"v_ar coefficients must be inside the unit circle, got {var!r}")
            object.__setattr__(self, "v_ar", var)

    @property
    def dim(self) -> int:
        return len(self.beta)


def simulate_predictive_system(spec: SystemSpec, n: int, rng):
    """Simulate (y, x) of length n from a SystemSpec.

    Returns
    -------
    y : ndarray, shape (n,)
    x : ndarray, shape (n, d)
        x[t] is x_{t+1} in model time; regressions of y_t on x_{t-1}
        should pair y[1:] with x[:-1].

    rng may be the standard normals themselves (`_simulate`): (n, d + 1)
    for one system, or (R, n, d + 1) for a panel, whose y is (R, n) and x
    (R, n, d).  A path that leaves the finite floats raises ValueError.
    """
    n = check_positive_int(n, "n", minimum=2)
    d = spec.dim
    sig = np.eye(d + 1) if spec.sigma_ue is None else np.asarray(spec.sigma_ue)
    chol = np.linalg.cholesky(sig)

    def path(z):
        shocks = z @ chol.T
        u = shocks[:, :, 0]
        e = shocks[:, :, 1:]
        if spec.v_ar is not None:
            v = np.empty_like(e)
            for i, a in enumerate(spec.v_ar):
                v[:, :, i] = ar(e[:, :, i], [a])
        else:
            v = e
        x = np.empty((len(z), n, d))
        for i, lur in enumerate(spec.lur):
            x[:, :, i] = ar(v[:, :, i], [lur.rho(n)])
        xlag = np.concatenate([np.zeros((len(z), 1, d)), x[:, :-1]], axis=1)
        # intercept + xlag beta + u, summed in that order into one buffer
        y = xlag @ np.asarray(spec.beta)
        y += spec.intercept
        y += u
        return y, x

    return _simulate(path, rng, (n, d + 1),
                     f"beta={spec.beta!r}, c={tuple(l.c for l in spec.lur)!r}, "
                     f"gamma={tuple(l.gamma for l in spec.lur)!r}, n={n}")


def simulate_ou_exact(c: float, sigma: float, n: int, rng, horizon: float = 1.0,
                      init: str = "zero") -> np.ndarray:
    """Sample an Ornstein-Uhlenbeck path dJ = c J dr + sigma dW exactly.

    The path is returned at the n grid points r_i = i * horizon / n,
    simulated through the exact Gaussian transition density, so there is
    no discretization bias at any step size.

    Parameters
    ----------
    init : {"zero", "stationary"}
        "zero" starts from J(0) = 0 (the stochastic-integral form
        int_0^r e^{(r-s)c} dW).  "stationary" draws J(0) from the
        stationary law N(0, sigma^2 / (-2c)); requires c < 0.

    rng may be the standard normals themselves (`_simulate`): (n,) for
    one path, (n + 1,) under "stationary" with J(0)'s draw first, or
    either with a leading rep axis for the (R, n) panel of paths.  A
    non-finite horizon, or a path that leaves the finite floats, raises
    ValueError.
    """
    n = check_positive_int(n, "n")
    if not (np.all(np.isfinite((c, sigma, horizon))) and sigma >= 0 and horizon > 0):
        raise ValueError("need finite c, sigma >= 0, horizon > 0")
    check_in(init, _OU_INITS, "init")
    # a stationary start's normals lead with J(0)'s draw
    lead = int(init == "stationary")
    if lead and c >= 0:
        raise ValueError("stationary initialization requires c < 0")

    def path(z):
        dt = horizon / n
        if c == 0.0:
            step_sd = sigma * np.sqrt(dt)
            phi = 1.0
        else:
            phi = np.exp(c * dt)
            step_sd = sigma * np.sqrt(np.expm1(2 * c * dt) / (2 * c))
        j0 = z[:, :1] * sigma / np.sqrt(-2 * c) if lead else 0.0
        return ar(z[:, lead:] * step_sd, [phi], phi * j0)

    return _simulate(path, rng, (n + lead,),
                     f"c={c!r}, sigma={sigma!r}, horizon={horizon!r}, n={n}")
