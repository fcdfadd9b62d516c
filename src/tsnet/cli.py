"""Command line front end.

Subcommands mirror the library layout: `simulate` writes draws as CSV,
`estimate` and `test` read CSV data and print key = value lines,
`bootstrap` resamples a series, `netdep` works with edge-list graph
files, `spectrum` samples covariance eigenvalues, and `mc` drives the
experiment harness from a config file.

Each command is declared once: `@_command` enters its path ("test adf"),
its plain handler function and the flags that handler reads, mostly
shared flag groups, in the table `COMMANDS`.  `build_parser` makes every
subparser from it, so no command offers a flag its handler ignores.

Every command that consumes randomness takes --seed (and --stream), so
reruns are exactly reproducible.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bootstrap import (
    _MULTIPLIERS,
    _TAILS,
    BlockSpec,
    block_bootstrap,
    bootstrap_pvalue,
    residual_unitroot_bootstrap,
    sieve_bootstrap,
    stationary_bootstrap,
    wild_bootstrap,
)
from .breaks import lm_nyblom, me_monitor, split_wald, sup_wald
from .coint import fk_break_test, fmols, shin_vn
from .garch import _MEANS, GarchSpec, garch_qmle, simulate_garch
from .lrv import KERNEL_FAMILIES, KernelSpec, hac_lrv
from .mc import (
    parse_config_file,
    read_csv,
    run_experiment,
    size_power_grid,
    write_csv,
    EXPERIMENTS,
    _HARNESS,
    _csv_lines,
    _fmt,
)
from .netdep import (
    cycle_graph,
    denseness_stats,
    network_hac,
    read_edgelist,
    simulate_graph_ma,
    star_graph,
    write_edgelist,
)
from .predreg import IvxSpec, ivx_estimate
from .randmat import mp_support, sample_cov_spectrum
from .series import (
    _OU_INITS,
    LinearProcessSpec,
    LurSpec,
    RngSpec,
    SystemSpec,
    simulate_linear_process,
    simulate_lur_ar,
    simulate_ou_exact,
    simulate_predictive_system,
)
from .unitroot import _DETERMINISTICS, _PHILLIPS_DETERMINISTICS, adf_test, df_limit_mc, phillips_z

STAT_FUNCS = {"mean": np.mean, "variance": np.var, "median": np.median,
              "sum": np.sum}


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


def _rng(args) -> RngSpec:
    return RngSpec(args.seed, args.stream)


def _kernel(args) -> KernelSpec:
    return KernelSpec(family=args.family, bandwidth=args.bandwidth)


def _block(args) -> BlockSpec:
    return BlockSpec(length=args.block_length, overlap=not args.no_overlap,
                     circular=not args.no_circular)


def _wrote(*paths):
    for path in paths:
        print(f"wrote {path}", file=sys.stderr)


def _emit_csv(out, schema, columns, *values, start=1):
    """A CSV of a counter from `start` beside the `values` arrays, one row per
    step: written to `out`, or printed when `out` is None."""
    rows = ((i, *row) for i, row in enumerate(zip(*values), start))
    if out is None:
        print("\n".join([f"#schema={schema}", *_csv_lines(columns, rows)]))
    else:
        _wrote(write_csv(out, schema, columns, rows))


def _emit_series(args, x):
    _emit_csv(args.out, "series/v1", ("t", "value"), x)


def _print_kv(pairs):
    for key, value in pairs:
        print(f"{key} = {_fmt(value)}")


def _print_fields(res, *names, **more):
    """`_print_kv` of the named fields of `res`, then of the `more` pairs."""
    _print_kv([*((name, getattr(res, name)) for name in names), *more.items()])


_META_COLS = ("t", "rep", "node")


def _load_table(args):
    """The columns of --data, its rows, and the columns other than t, rep and node.

    Every value must be finite; the first that is not is named by column
    and data row (1 for the row under the header).
    """
    _, cols, data = read_csv(args.data)
    if data.size == 0:
        raise ValueError(f"no data rows in {args.data}")
    bad = np.argwhere(~np.isfinite(data))
    if bad.size:
        row, col = bad[0]
        raise ValueError(f"{args.data}: column {cols[col]!r} holds {float(data[row, col])!r} "
                         f"in data row {row + 1}; values must be finite")
    return cols, data, [c for c in cols if c not in _META_COLS]


def _load_series(args) -> np.ndarray:
    """The --column column of --data; by default 'value' or the first non-meta column."""
    cols, data, names = _load_table(args)
    column = args.column
    if column is None:
        candidates = ["value"] if "value" in cols else names
        if not candidates:
            raise ValueError(f"no data column found in {args.data}")
        column = candidates[0]
    if column not in cols:
        raise ValueError(f"column {column!r} not in {args.data} (have {cols})")
    return data[:, cols.index(column)]


def _load_yx(args, x_optional=False):
    """First non-meta column (or 'y') of --data is the response, the rest regressors.

    Without regressor columns x is None, which only an `x_optional` test accepts.
    """
    cols, data, names = _load_table(args)
    if not names:
        raise ValueError(f"no data columns found in {args.data}")
    ycol = "y" if "y" in names else names[0]
    xnames = [c for c in names if c != ycol]
    if not xnames and not x_optional:
        raise ValueError(f"{args.kind} needs regressor columns")
    y = data[:, cols.index(ycol)]
    x = data[:, [cols.index(c) for c in xnames]] if xnames else None
    return y, x


# ---------------------------------------------------------------------------
# the command table and the shared flag groups


def _flag(*names, **kwargs):
    return names, kwargs


def _list_flag(name, text, **kwargs):
    """A comma-list flag with help `text`.  argparse reads "-5,-1" after a
    space as a flag, so the help names the `--flag=-5,-1` form."""
    return _flag(name, help=f"{text}; a list that starts with a negative number "
                            f"takes the = form, e.g. {name}=-5,-1", **kwargs)


_OUT = (_flag("--out", default=None),)
_RNG = (_flag("--seed", type=int, default=0), _flag("--stream", type=int, default=0))
_DRAW = (_flag("--n", type=int, required=True),) + _OUT + _RNG
_DATA = (_flag("--data", required=True, help="input CSV"),)
_SERIES = _DATA + (_flag("--column", default=None, help="data column name"),)
_KERNEL = (_flag("--family", default="bartlett", choices=KERNEL_FAMILIES),
           _flag("--bandwidth", type=float, default=None))
_TRIM = (_flag("--trim", type=float, nargs=2, default=(0.15, 0.85)),)
_BLOCKS = (_flag("--block-length", type=int, required=True),
           _flag("--no-overlap", action="store_true"),
           _flag("--no-circular", action="store_true"))
# every resampling scheme: the series, the draws, the replicates, the report
_RESAMPLE = _SERIES + _RNG + (_flag("-B", "--B", type=int, default=999),)
_REPORT = (_flag("--tail", default="two", choices=_TAILS),) + _OUT
_STAT_RESAMPLE = (_RESAMPLE + (_flag("--stat", default="mean", choices=sorted(STAT_FUNCS)),)
                  + _REPORT)
_MC = ((_flag("config", help="experiment config file"),) + _OUT
       # the harness keys, as tokens over the config file's, read and checked by `resolve`
       + tuple(_flag(f"--{key}", default=None) for key in _HARNESS))

_HELP = {"simulate": "draw series and write CSV", "estimate": "fit estimators on CSV data",
         "test": "hypothesis tests on CSV data", "bootstrap": "resampling on CSV data",
         "netdep": "graph dependence tools", "spectrum": "sample covariance eigenvalues",
         "mc": "Monte Carlo experiments"}

# command path -> (handler, flags), in the order of `tsnet --help`
COMMANDS: dict[str, tuple] = {}


def _command(path, *flags):
    """Enter the decorated handler in `COMMANDS` as the command `path` taking `flags`."""
    def enter(handler):
        COMMANDS[path] = (handler, flags)
        return handler
    return enter


# ---------------------------------------------------------------------------
# simulate


@_command("simulate linear", _list_flag("--coeffs", "comma list, e.g. 1,0.5", required=True),
          _flag("--sigma", type=float, default=1.0), *_DRAW)
def _simulate_linear(args):
    rng = _rng(args)
    spec = LinearProcessSpec(coeffs=_floats(args.coeffs), sigma=args.sigma)
    _emit_series(args, simulate_linear_process(spec, args.n, rng))


@_command("simulate lur", _flag("--c", type=float, required=True),
          _flag("--gamma", type=float, default=1.0), _flag("--x0", type=float, default=0.0),
          *_DRAW)
def _simulate_lur(args):
    rng = _rng(args)
    spec = LurSpec(c=args.c, gamma=args.gamma)
    _emit_series(args, simulate_lur_ar(spec, args.n, rng=rng, x0=args.x0))


@_command("simulate ou", _flag("--c", type=float, required=True),
          _flag("--sigma", type=float, default=1.0), _flag("--horizon", type=float, default=1.0),
          _flag("--init", default="zero", choices=_OU_INITS), *_DRAW)
def _simulate_ou(args):
    _emit_series(args, simulate_ou_exact(args.c, args.sigma, args.n, _rng(args),
                                         horizon=args.horizon, init=args.init))


@_command("simulate system", _list_flag("--beta", "comma list of slopes", required=True),
          _list_flag("--c", "comma list of local-to-unity c (or one for all)", required=True),
          _flag("--gamma", type=float, default=1.0),
          _flag("--intercept", type=float, default=0.0),
          _flag("--corr", type=float, default=None, help="corr(u, v), single regressor only"),
          _list_flag("--v-ar", "comma list of AR(1) coefficients for the regressor innovations",
                     default=None),
          *_DRAW)
def _simulate_system(args):
    rng = _rng(args)
    beta = _floats(args.beta)
    cs = _floats(args.c)
    if len(cs) == 1:
        cs = cs * len(beta)
    if len(cs) != len(beta):
        raise ValueError("--c must give one value, or one per --beta entry")
    sigma_ue = None
    if args.corr is not None:
        if len(beta) != 1:
            raise ValueError("--corr is only supported for one regressor")
        sigma_ue = ((1.0, args.corr), (args.corr, 1.0))
    spec = SystemSpec(beta=beta,
                      lur=tuple(LurSpec(c=c, gamma=args.gamma) for c in cs),
                      intercept=args.intercept, sigma_ue=sigma_ue,
                      v_ar=_floats(args.v_ar) if args.v_ar else None)
    y, x = simulate_predictive_system(spec, args.n, rng)
    cols = ("t", "y") + tuple(f"x{i + 1}" for i in range(x.shape[1]))
    _emit_csv(args.out, "system/v1", cols, y, *x.T)


@_command("simulate garch", _flag("--omega", type=float, required=True),
          _flag("--alpha", type=float, required=True), _flag("--beta", type=float, required=True),
          _flag("--burn", type=int, default=500), *_DRAW)
def _simulate_garch(args):
    rng = _rng(args)
    spec = GarchSpec(omega=args.omega, alpha=args.alpha, beta=args.beta)
    y, sigma2 = simulate_garch(spec, args.n, rng, burn=args.burn)
    _emit_csv(args.out, "garch/v1", ("t", "y", "sigma2"), y, sigma2)


# graph-ma draws one value per node, so it takes no --n
@_command("simulate graph-ma", _flag("--graph", required=True, help="edge-list file"),
          _list_flag("--weights", "comma list by distance", required=True), *_OUT, *_RNG)
def _simulate_graph_ma(args):
    rng = _rng(args)
    g = read_edgelist(args.graph)
    y = simulate_graph_ma(g, _floats(args.weights), rng)
    _emit_csv(args.out, "nodes/v1", ("node", "value"), y)


# ---------------------------------------------------------------------------
# estimate


@_command("estimate hac", *_SERIES, *_KERNEL)
def _estimate_hac(args):
    x = _load_series(args)
    est = hac_lrv(x, kernel=_kernel(args))
    _print_kv([("omega", est.scalar), ("gamma0", float(est.gamma0[0, 0])),
               ("family", est.family), ("bandwidth", est.bandwidth),
               ("n", len(x))])


@_command("estimate fmols", *_DATA, *_KERNEL)
def _estimate_fmols(args):
    res = fmols(*_load_yx(args), kernel=_kernel(args))
    pairs = [("intercept", res.beta_plus[0])]
    for i, (b, se, t) in enumerate(zip(res.beta_plus[1:], res.se[1:],
                                       res.t_plus[1:])):
        pairs += [(f"beta{i + 1}", b), (f"se{i + 1}", se), (f"t{i + 1}", t)]
    pairs += [("omega_cond", res.omega_cond), ("nobs", res.nobs)]
    _print_kv(pairs)


@_command("estimate ivx", *_DATA, _flag("--cz", type=float, default=-1.0),
          _flag("--bz", type=float, default=0.95))
def _estimate_ivx(args):
    res = ivx_estimate(*_load_yx(args), spec=IvxSpec(c_z=args.cz, beta_z=args.bz))
    pairs = []
    for i, (b, se) in enumerate(zip(res.beta, res.se)):
        pairs += [(f"beta{i + 1}", b), (f"se{i + 1}", se)]
    _print_kv(pairs)
    _print_fields(res, "wald", "pvalue", "rho_nz", "nobs")


@_command("estimate garch", *_SERIES,
          _flag("--mean", default="constant", choices=_MEANS))
def _estimate_garch(args):
    fit = garch_qmle(_load_series(args), mean=args.mean)
    _print_fields(fit.spec, "omega", "alpha", "beta", "mu")
    if args.mean == "ar1":
        _print_fields(fit, "ar_coeff")
    _print_fields(fit, "loglik", "converged", "n_iter", "nobs")


# ---------------------------------------------------------------------------
# test


@_command("test adf", *_SERIES, _flag("--lags", type=int, default=0),
          _flag("--det", default="none", choices=_DETERMINISTICS))
def _test_adf(args):
    res = adf_test(_load_series(args), p=args.lags, deterministic=args.det)
    _print_fields(res, "stat_coef", "stat_t", "alpha_hat", "nobs")


@_command("test phillips", *_SERIES, *_KERNEL,
          _flag("--det", default="none", choices=_PHILLIPS_DETERMINISTICS),
          _flag("--crit", action="store_true", help="also simulate finite-sample critical values"),
          _flag("--reps", type=int, default=20000), *_RNG)
def _test_phillips(args):
    x = _load_series(args)
    res = phillips_z(x, kernel=_kernel(args), deterministic=args.det)
    pairs = [("z_alpha", res.stat_coef), ("z_t", res.stat_t),
             ("alpha_hat", res.alpha_hat), ("bandwidth", res.bandwidth),
             ("nobs", res.nobs)]
    if args.crit:
        tables = df_limit_mc(len(x), deterministic=args.det,
                             reps=args.reps, rng=_rng(args))
        pairs += [("crit_coef_05", float(np.quantile(tables.coef, 0.05))),
                  ("crit_t_05", float(np.quantile(tables.t, 0.05)))]
    _print_kv(pairs)


@_command("test shin", *_DATA, *_KERNEL, _flag("--short-run", action="store_true"))
def _test_shin(args):
    res = shin_vn(*_load_yx(args, x_optional=True), kernel=_kernel(args),
                  short_run=args.short_run)
    _print_fields(res, "v_n", "sigma2", "nobs")


@_command("test fk", *_DATA, *_KERNEL, *_TRIM)
def _test_fk(args):
    res = fk_break_test(*_load_yx(args), kernel=_kernel(args), trim=tuple(args.trim))
    _print_fields(res, "stat", "k_star", "dof")


@_command("test supwald", *_DATA, *_TRIM)
def _test_supwald(args):
    res = sup_wald(*_load_yx(args), trim=tuple(args.trim))
    _print_fields(res, "stat", "k_star", "pi_star", "nobs")


@_command("test split", *_DATA, _flag("--pi0", type=float, default=0.5))
def _test_split(args):
    res = split_wald(*_load_yx(args), pi0=args.pi0)
    _print_fields(res, "stat", "k", "pi", "nobs")


@_command("test lm", *_DATA)
def _test_lm(args):
    res = lm_nyblom(*_load_yx(args))
    _print_fields(res, "lm", "lm1", "lm2", "nobs")


@_command("test me", *_DATA, _flag("--n-hist", type=int, required=True),
          _flag("--h", type=float, default=0.1))
def _test_me(args):
    res = me_monitor(*_load_yx(args), n_hist=args.n_hist, h=args.h)
    _print_fields(res, "stat", "window", path_max_at=int(res.k_grid[int(np.argmax(res.path))]))


# ---------------------------------------------------------------------------
# bootstrap


def _report_bootstrap(args, res):
    qs = np.quantile(res.stats, [0.05, 0.5, 0.95])
    _print_fields(res, "scheme", observed=float(res.observed), B=res.B,
                  q05=qs[0], q50=qs[1], q95=qs[2],
                  pvalue=bootstrap_pvalue(float(res.observed), res.stats, tail=args.tail))
    if args.out is not None:
        _emit_csv(args.out, "bootstrap/v1", ("rep", "stat"), res.stats, start=0)


@_command("bootstrap block", *_BLOCKS, *_STAT_RESAMPLE)
def _bootstrap_block(args):
    _report_bootstrap(args, block_bootstrap(_load_series(args), STAT_FUNCS[args.stat], B=args.B,
                                            rng=_rng(args), block=_block(args)))


@_command("bootstrap stationary", _flag("--mean-block", type=float, required=True),
          *_STAT_RESAMPLE)
def _bootstrap_stationary(args):
    _report_bootstrap(args, stationary_bootstrap(_load_series(args), STAT_FUNCS[args.stat],
                                                 B=args.B, rng=_rng(args),
                                                 mean_block=args.mean_block))


@_command("bootstrap sieve", _flag("--order", type=int, required=True), *_STAT_RESAMPLE)
def _bootstrap_sieve(args):
    _report_bootstrap(args, sieve_bootstrap(_load_series(args), STAT_FUNCS[args.stat], B=args.B,
                                            rng=_rng(args), p=args.order))


@_command("bootstrap wild", _flag("--multiplier", default="normal",
                                  choices=_MULTIPLIERS), *_STAT_RESAMPLE)
def _bootstrap_wild(args):
    _report_bootstrap(args, wild_bootstrap(_load_series(args), STAT_FUNCS[args.stat], B=args.B,
                                           rng=_rng(args), multiplier=args.multiplier))


@_command("bootstrap unitroot", *_BLOCKS, *_RESAMPLE, *_REPORT)
def _bootstrap_unitroot(args):
    _report_bootstrap(args, residual_unitroot_bootstrap(_load_series(args), B=args.B,
                                                        rng=_rng(args), block=_block(args)))


# ---------------------------------------------------------------------------
# netdep


@_command("netdep make", _flag("--family", required=True, choices=("cycle", "star")),
          _flag("--n", type=int, required=True), _flag("--out", required=True))
def _netdep_make(args):
    g = cycle_graph(args.n) if args.family == "cycle" else star_graph(args.n - 1)
    write_edgelist(g, args.out)
    _wrote(args.out)


@_command("netdep stats", _flag("--graph", required=True), _flag("-s", type=int, required=True),
          _flag("-m", type=int, required=True), _flag("-k", type=float, default=1.0))
def _netdep_stats(args):
    g = read_edgelist(args.graph)
    res = denseness_stats(g, s=args.s, m=args.m, k=args.k)
    _print_kv([("n", g.n)])
    _print_fields(res, "delta_shell", "delta_overlap", "c_n", "s", "m", "k")


@_command("netdep hac", _flag("--graph", required=True), *_SERIES, *_KERNEL)
def _netdep_hac(args):
    g = read_edgelist(args.graph)
    v = network_hac(g, _load_series(args), kernel=_kernel(args))
    _print_kv([("v", float(v[0, 0])), ("n", g.n)])


# ---------------------------------------------------------------------------
# spectrum


@_command("spectrum", _flag("--n", type=int, required=True), _flag("--p", type=int, required=True),
          *_OUT, *_RNG)
def _spectrum(args):
    res = sample_cov_spectrum(args.n, args.p, _rng(args))
    lo, hi = mp_support(res.gamma)
    _print_fields(res, "n", "p", "gamma", "lambda_min", "lambda_max", edge_lower=lo,
                  edge_upper=hi, trace_gap=abs(res.trace - res.trace_gram))
    if args.out is not None:
        _emit_csv(args.out, "spectrum/v1", ("index", "eigenvalue"), res.eigenvalues)


# ---------------------------------------------------------------------------
# mc


def _mc_config(args):
    """The config file with the harness keys given as flags written over it."""
    cfg = parse_config_file(args.config)
    for key in _HARNESS:
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
    return cfg


@_command("mc run", *_MC)
def _mc_run(args):
    res = run_experiment(_mc_config(args), out=args.out)
    _print_kv(sorted(res.summary.items()))
    _wrote(*res.files)


@_command("mc grid", *_MC)
def _mc_grid(args):
    columns, rows, _, files = size_power_grid(_mc_config(args), out=args.out)
    print("\n".join(_csv_lines(columns, rows)))
    _wrote(*files)


@_command("mc list")
def _mc_list(args):
    print("\n".join(sorted(EXPERIMENTS)))


def build_parser() -> argparse.ArgumentParser:
    """One subparser per `COMMANDS` entry, with its flags, its handler as
    `func` and itself as `leaf`."""
    parser = argparse.ArgumentParser(
        prog="tsnet",
        description="simulation and inference for nonstationary and "
                    "network-dependent data")
    sub = parser.add_subparsers(dest="command", required=True)
    groups = {}
    for path, (handler, flags) in COMMANDS.items():
        head, *kind = path.split()
        if not kind:
            p = sub.add_parser(head, help=_HELP[head])
        else:
            if head not in groups:
                groups[head] = sub.add_parser(head, help=_HELP[head]).add_subparsers(
                    dest="kind", required=True)
            p = groups[head].add_parser(kind[0])
        for names, kwargs in flags:
            p.add_argument(*names, **kwargs)
        p.set_defaults(func=handler, leaf=p)
    return parser


def main(argv=None) -> int:
    """Run one command.

    A ValueError (bad input) or an OSError (a file that cannot be read
    or written) becomes one `tsnet: error: <msg>` line on stderr and
    exit code 2, with no traceback.  So does a flag the command does not
    take, after the command's own usage line.
    """
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.leaf.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"tsnet: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
