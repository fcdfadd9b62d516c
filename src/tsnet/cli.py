"""Command line front end.

Subcommands mirror the library layout: `simulate` writes draws as CSV,
`estimate` and `test` read CSV data and print key = value lines,
`bootstrap` resamples a series, `netdep` works with edge-list graph
files, `spectrum` samples covariance eigenvalues, and `mc` drives the
experiment harness from a config file.

Every command that consumes randomness takes --seed (and --stream), so
reruns are exactly reproducible.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .bootstrap import (
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
from .garch import GarchSpec, garch_qmle, simulate_garch
from .lrv import KernelSpec, hac_lrv
from .mc import (
    parse_config_file,
    read_csv,
    run_experiment,
    size_power_grid,
    write_csv,
    EXPERIMENTS,
    _RESERVED,
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
    LinearProcessSpec,
    LurSpec,
    RngSpec,
    SystemSpec,
    simulate_linear_process,
    simulate_lur_ar,
    simulate_ou_exact,
    simulate_predictive_system,
)
from .unitroot import adf_test, df_limit_mc, phillips_z

# the harness keys `mc run` and `mc grid` take as flags over the config file
_OVERRIDES = [key for key in _RESERVED if key != "experiment"]

STAT_FUNCS = {"mean": np.mean, "variance": np.var, "median": np.median,
              "sum": np.sum}


def _floats(text: str) -> tuple[float, ...]:
    return tuple(float(tok) for tok in text.split(","))


def _rng(args) -> RngSpec:
    return RngSpec(args.seed, getattr(args, "stream", 0))


def _kernel(args) -> KernelSpec:
    return KernelSpec(family=args.family, bandwidth=args.bandwidth)


def _emit_csv(out, schema, columns, rows):
    if out is None:
        print(f"#schema={schema}")
        print(",".join(columns))
        for row in rows:
            print(",".join(_fmt(v) for v in row))
    else:
        path = write_csv(out, schema, columns, rows)
        print(f"wrote {path}", file=sys.stderr)


def _print_kv(pairs):
    for key, value in pairs:
        print(f"{key} = {_fmt(value)}")


_META_COLS = ("t", "rep", "node")


def _load_table(path):
    _, cols, data = read_csv(path)
    if data.size == 0:
        raise ValueError(f"no data rows in {path}")
    return cols, data


def _load_series(path, column=None) -> np.ndarray:
    cols, data = _load_table(path)
    if column is None:
        if "value" in cols:
            column = "value"
        else:
            candidates = [c for c in cols if c not in _META_COLS]
            if not candidates:
                raise ValueError(f"no data column found in {path}")
            column = candidates[0]
    if column not in cols:
        raise ValueError(f"column {column!r} not in {path} (have {cols})")
    return data[:, cols.index(column)]


def _load_yx(args, x_optional=False):
    """First non-meta column (or 'y') of --data is the response, the rest regressors.

    Without regressor columns x is None, which only an `x_optional` test accepts.
    """
    path = args.data
    cols, data = _load_table(path)
    names = [c for c in cols if c not in _META_COLS]
    if not names:
        raise ValueError(f"no data columns found in {path}")
    ycol = "y" if "y" in names else names[0]
    xnames = [c for c in names if c != ycol]
    if not xnames and not x_optional:
        raise ValueError(f"{args.kind} needs regressor columns")
    y = data[:, cols.index(ycol)]
    x = data[:, [cols.index(c) for c in xnames]] if xnames else None
    return y, x


# ---------------------------------------------------------------------------
# simulate


def _cmd_simulate(args):
    rng = _rng(args)
    kind = args.kind
    if kind == "linear":
        spec = LinearProcessSpec(coeffs=_floats(args.coeffs), sigma=args.sigma)
        x = simulate_linear_process(spec, args.n, rng)
        rows = ((t + 1, v) for t, v in enumerate(x))
        _emit_csv(args.out, "series/v1", ("t", "value"), rows)
    elif kind == "lur":
        spec = LurSpec(c=args.c, gamma=args.gamma)
        x = simulate_lur_ar(spec, args.n, rng=rng, x0=args.x0)
        rows = ((t + 1, v) for t, v in enumerate(x))
        _emit_csv(args.out, "series/v1", ("t", "value"), rows)
    elif kind == "ou":
        x = simulate_ou_exact(args.c, args.sigma, args.n, rng,
                              horizon=args.horizon, init=args.init)
        rows = ((t + 1, v) for t, v in enumerate(x))
        _emit_csv(args.out, "series/v1", ("t", "value"), rows)
    elif kind == "system":
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
        rows = ((t + 1, y[t], *x[t]) for t in range(args.n))
        _emit_csv(args.out, "system/v1", cols, rows)
    elif kind == "garch":
        spec = GarchSpec(omega=args.omega, alpha=args.alpha, beta=args.beta)
        y, sigma2 = simulate_garch(spec, args.n, rng, burn=args.burn)
        rows = ((t + 1, y[t], sigma2[t]) for t in range(args.n))
        _emit_csv(args.out, "garch/v1", ("t", "y", "sigma2"), rows)
    else:  # graph-ma
        g = read_edgelist(args.graph)
        y = simulate_graph_ma(g, _floats(args.weights), rng)
        rows = ((i + 1, y[i]) for i in range(g.n))
        _emit_csv(args.out, "nodes/v1", ("node", "value"), rows)


# ---------------------------------------------------------------------------
# estimate


def _cmd_estimate(args):
    if args.kind == "hac":
        x = _load_series(args.data, args.column)
        est = hac_lrv(x, kernel=_kernel(args))
        _print_kv([("omega", est.scalar), ("gamma0", float(est.gamma0[0, 0])),
                   ("family", est.family), ("bandwidth", est.bandwidth),
                   ("n", len(x))])
    elif args.kind == "fmols":
        y, x = _load_yx(args)
        res = fmols(y, x, kernel=_kernel(args))
        pairs = [("intercept", res.beta_plus[0])]
        for i, (b, se, t) in enumerate(zip(res.beta_plus[1:], res.se[1:],
                                           res.t_plus[1:])):
            pairs += [(f"beta{i + 1}", b), (f"se{i + 1}", se), (f"t{i + 1}", t)]
        pairs += [("omega_cond", res.omega_cond), ("nobs", res.nobs)]
        _print_kv(pairs)
    elif args.kind == "ivx":
        y, x = _load_yx(args)
        res = ivx_estimate(y, x, spec=IvxSpec(c_z=args.cz, beta_z=args.bz))
        pairs = []
        for i, (b, se) in enumerate(zip(res.beta, res.se)):
            pairs += [(f"beta{i + 1}", b), (f"se{i + 1}", se)]
        pairs += [("wald", res.wald), ("pvalue", res.pvalue),
                  ("rho_nz", res.rho_nz), ("nobs", res.nobs)]
        _print_kv(pairs)
    elif args.kind == "garch":
        y = _load_series(args.data, args.column)
        fit = garch_qmle(y, mean=args.mean)
        _print_kv([("omega", fit.spec.omega), ("alpha", fit.spec.alpha),
                   ("beta", fit.spec.beta), ("mu", fit.spec.mu),
                   ("loglik", fit.loglik), ("converged", fit.converged),
                   ("n_iter", fit.n_iter), ("nobs", fit.nobs)])


# ---------------------------------------------------------------------------
# test


def _cmd_test(args):
    kind = args.kind
    if kind == "adf":
        x = _load_series(args.data, args.column)
        res = adf_test(x, p=args.lags, deterministic=args.det)
        _print_kv([("stat_coef", res.stat_coef), ("stat_t", res.stat_t),
                   ("alpha_hat", res.alpha_hat), ("nobs", res.nobs)])
    elif kind == "phillips":
        x = _load_series(args.data, args.column)
        res = phillips_z(x, kernel=_kernel(args), deterministic=args.det)
        pairs = [("z_alpha", res.stat_coef), ("z_t", res.stat_t),
                 ("alpha_hat", res.alpha_hat), ("bandwidth", res.bandwidth),
                 ("nobs", res.nobs)]
        if args.crit:
            tables = df_limit_mc(len(x), deterministic=args.det,
                                 reps=args.reps, rng=_rng(args))
            pairs += [("crit_coef_05", tables.coef.quantile(0.05)),
                      ("crit_t_05", tables.t.quantile(0.05))]
        _print_kv(pairs)
    elif kind == "shin":
        y, x = _load_yx(args, x_optional=True)
        res = shin_vn(y, x=x, kernel=_kernel(args), short_run=args.short_run)
        _print_kv([("v_n", res.v_n), ("sigma2", res.sigma2),
                   ("nobs", res.nobs)])
    elif kind == "fk":
        y, x = _load_yx(args)
        res = fk_break_test(y, x, kernel=_kernel(args),
                            trim=(args.trim[0], args.trim[1]))
        _print_kv([("stat", res.stat), ("k_star", res.k_star),
                   ("dof", res.dof)])
    elif kind == "supwald":
        y, x = _load_yx(args)
        res = sup_wald(y, x, trim=(args.trim[0], args.trim[1]))
        _print_kv([("stat", res.stat), ("k_star", res.k_star),
                   ("pi_star", res.pi_star), ("nobs", res.nobs)])
    elif kind == "split":
        y, x = _load_yx(args)
        res = split_wald(y, x, pi0=args.pi0)
        _print_kv([("stat", res.stat), ("k", res.k), ("pi", res.pi),
                   ("nobs", res.nobs)])
    elif kind == "lm":
        y, x = _load_yx(args)
        res = lm_nyblom(y, x)
        _print_kv([("lm", res.lm), ("lm1", res.lm1), ("lm2", res.lm2),
                   ("nobs", res.nobs)])
    elif kind == "me":
        y, x = _load_yx(args)
        res = me_monitor(y, x, n_hist=args.n_hist, h=args.h)
        _print_kv([("stat", res.stat), ("window", res.window),
                   ("path_max_at", int(res.k_grid[int(np.argmax(res.path))])
                    if len(res.path) else -1)])


# ---------------------------------------------------------------------------
# bootstrap


def _cmd_bootstrap(args):
    x = _load_series(args.data, args.column)
    rng = _rng(args)
    kind = args.kind
    if kind == "unitroot":
        res = residual_unitroot_bootstrap(
            x, B=args.B, rng=rng,
            block=BlockSpec(length=args.block_length,
                            overlap=not args.no_overlap,
                            circular=not args.no_circular))
    else:
        stat = STAT_FUNCS[args.stat]
        if kind == "block":
            res = block_bootstrap(
                x, stat, B=args.B, rng=rng,
                block=BlockSpec(length=args.block_length,
                                overlap=not args.no_overlap,
                                circular=not args.no_circular))
        elif kind == "stationary":
            res = stationary_bootstrap(x, stat, B=args.B, rng=rng,
                                       mean_block=args.mean_block)
        elif kind == "sieve":
            res = sieve_bootstrap(x, stat, B=args.B, rng=rng, p=args.order)
        else:  # wild
            res = wild_bootstrap(x, stat, B=args.B, rng=rng,
                                 multiplier=args.multiplier)
    qs = np.quantile(res.stats, [0.05, 0.5, 0.95])
    _print_kv([("scheme", res.scheme), ("observed", float(res.observed)),
               ("B", res.B), ("q05", qs[0]), ("q50", qs[1]), ("q95", qs[2]),
               ("pvalue", bootstrap_pvalue(float(res.observed), res.stats,
                                           tail=args.tail))])
    if args.out is not None:
        rows = ((b, res.stats[b]) for b in range(res.B))
        _emit_csv(args.out, "bootstrap/v1", ("rep", "stat"), rows)


# ---------------------------------------------------------------------------
# netdep


def _cmd_netdep(args):
    kind = args.kind
    if kind == "make":
        g = cycle_graph(args.n) if args.family == "cycle" else star_graph(args.n - 1)
        write_edgelist(g, args.out)
        print(f"wrote {args.out}", file=sys.stderr)
        return
    g = read_edgelist(args.graph)
    if kind == "stats":
        res = denseness_stats(g, s=args.s, m=args.m, k=args.k)
        _print_kv([("n", g.n), ("delta_shell", res.delta_shell),
                   ("delta_overlap", res.delta_overlap), ("c_n", res.c_n),
                   ("s", res.s), ("m", res.m), ("k", res.k)])
    elif kind == "hac":
        y = _load_series(args.data, args.column)
        v = network_hac(g, y, kernel=_kernel(args))
        _print_kv([("v", float(v[0, 0])), ("n", g.n)])


# ---------------------------------------------------------------------------
# spectrum


def _cmd_spectrum(args):
    res = sample_cov_spectrum(args.n, args.p, _rng(args))
    lo, hi = mp_support(res.gamma)
    _print_kv([("n", res.n), ("p", res.p), ("gamma", res.gamma),
               ("lambda_min", res.lambda_min), ("lambda_max", res.lambda_max),
               ("edge_lower", lo), ("edge_upper", hi),
               ("trace_gap", abs(res.trace - res.trace_gram))])
    if args.out is not None:
        rows = ((i + 1, v) for i, v in enumerate(res.eigenvalues))
        _emit_csv(args.out, "spectrum/v1", ("index", "eigenvalue"), rows)


# ---------------------------------------------------------------------------
# mc


def _cmd_mc(args):
    if args.kind == "list":
        for name in sorted(EXPERIMENTS):
            print(name)
        return
    cfg = parse_config_file(args.config)
    for key in _OVERRIDES:
        if getattr(args, key) is not None:
            setattr(cfg, key, getattr(args, key))
    if args.kind == "run":
        res = run_experiment(cfg, out=args.out)
        _print_kv(sorted(res.summary.items()))
        for path in res.files:
            print(f"wrote {path}", file=sys.stderr)
    else:  # grid
        columns, rows, _, files = size_power_grid(cfg, out=args.out)
        print(",".join(columns))
        for row in rows:
            print(",".join(_fmt(v) for v in row))
        for path in files:
            print(f"wrote {path}", file=sys.stderr)


# ---------------------------------------------------------------------------
# parser


def _add_rng_args(p):
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)


def _add_kernel_args(p):
    p.add_argument("--family", default="bartlett",
                   choices=("truncated", "bartlett", "parzen",
                            "quadratic-spectral"))
    p.add_argument("--bandwidth", type=float, default=None)


def _add_data_args(p):
    p.add_argument("--data", required=True, help="input CSV")
    p.add_argument("--column", default=None, help="data column name")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tsnet",
        description="simulation and inference for nonstationary and "
                    "network-dependent data")
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw series and write CSV")
    sim.set_defaults(func=_cmd_simulate)
    simsub = sim.add_subparsers(dest="kind", required=True)
    p = simsub.add_parser("linear")
    p.add_argument("--coeffs", required=True, help="comma list, e.g. 1,0.5")
    p.add_argument("--sigma", type=float, default=1.0)
    p = simsub.add_parser("lur")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--x0", type=float, default=0.0)
    p = simsub.add_parser("ou")
    p.add_argument("--c", type=float, required=True)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--horizon", type=float, default=1.0)
    p.add_argument("--init", default="zero", choices=("zero", "stationary"))
    p = simsub.add_parser("system")
    p.add_argument("--beta", required=True, help="comma list of slopes")
    p.add_argument("--c", required=True,
                   help="comma list of local-to-unity c (or one for all)")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--intercept", type=float, default=0.0)
    p.add_argument("--corr", type=float, default=None,
                   help="corr(u, v), single regressor only")
    p.add_argument("--v-ar", default=None, help="comma list of AR(1) "
                   "coefficients for the regressor innovations")
    p = simsub.add_parser("garch")
    p.add_argument("--omega", type=float, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--beta", type=float, required=True)
    p.add_argument("--burn", type=int, default=500)
    p = simsub.add_parser("graph-ma")
    p.add_argument("--graph", required=True, help="edge-list file")
    p.add_argument("--weights", required=True, help="comma list by distance")
    for name, p in simsub.choices.items():
        if name != "graph-ma":  # graph-ma draws one value per node
            p.add_argument("--n", type=int, required=True)
        p.add_argument("--out", default=None)
        _add_rng_args(p)

    est = sub.add_parser("estimate", help="fit estimators on CSV data")
    est.set_defaults(func=_cmd_estimate)
    estsub = est.add_subparsers(dest="kind", required=True)
    p = estsub.add_parser("hac")
    _add_data_args(p)
    _add_kernel_args(p)
    p = estsub.add_parser("fmols")
    _add_data_args(p)
    _add_kernel_args(p)
    p = estsub.add_parser("ivx")
    _add_data_args(p)
    p.add_argument("--cz", type=float, default=-1.0)
    p.add_argument("--bz", type=float, default=0.95)
    p = estsub.add_parser("garch")
    _add_data_args(p)
    p.add_argument("--mean", default="constant", choices=("constant", "ar1"))

    tst = sub.add_parser("test", help="hypothesis tests on CSV data")
    tst.set_defaults(func=_cmd_test)
    tstsub = tst.add_subparsers(dest="kind", required=True)
    p = tstsub.add_parser("adf")
    _add_data_args(p)
    p.add_argument("--lags", type=int, default=0)
    p.add_argument("--det", default="none", choices=("none", "const", "trend"))
    p = tstsub.add_parser("phillips")
    _add_data_args(p)
    _add_kernel_args(p)
    p.add_argument("--det", default="none", choices=("none", "const"))
    p.add_argument("--crit", action="store_true",
                   help="also simulate finite-sample critical values")
    p.add_argument("--reps", type=int, default=20000)
    _add_rng_args(p)
    p = tstsub.add_parser("shin")
    _add_data_args(p)
    _add_kernel_args(p)
    p.add_argument("--short-run", action="store_true")
    p = tstsub.add_parser("fk")
    _add_data_args(p)
    _add_kernel_args(p)
    p.add_argument("--trim", type=float, nargs=2, default=(0.15, 0.85))
    p = tstsub.add_parser("supwald")
    _add_data_args(p)
    p.add_argument("--trim", type=float, nargs=2, default=(0.15, 0.85))
    p = tstsub.add_parser("split")
    _add_data_args(p)
    p.add_argument("--pi0", type=float, default=0.5)
    p = tstsub.add_parser("lm")
    _add_data_args(p)
    p = tstsub.add_parser("me")
    _add_data_args(p)
    p.add_argument("--n-hist", type=int, required=True)
    p.add_argument("--h", type=float, default=0.1)

    boot = sub.add_parser("bootstrap", help="resampling on CSV data")
    boot.set_defaults(func=_cmd_bootstrap)
    bootsub = boot.add_subparsers(dest="kind", required=True)
    p = bootsub.add_parser("block")
    p.add_argument("--block-length", type=int, required=True)
    p.add_argument("--no-overlap", action="store_true")
    p.add_argument("--no-circular", action="store_true")
    p = bootsub.add_parser("stationary")
    p.add_argument("--mean-block", type=float, required=True)
    p = bootsub.add_parser("sieve")
    p.add_argument("--order", type=int, required=True)
    p = bootsub.add_parser("wild")
    p.add_argument("--multiplier", default="normal",
                   choices=("normal", "rademacher"))
    p = bootsub.add_parser("unitroot")
    p.add_argument("--block-length", type=int, required=True)
    p.add_argument("--no-overlap", action="store_true")
    p.add_argument("--no-circular", action="store_true")
    for p in bootsub.choices.values():
        _add_data_args(p)
        _add_rng_args(p)
        p.add_argument("-B", "--B", type=int, default=999)
        p.add_argument("--stat", default="mean", choices=sorted(STAT_FUNCS))
        p.add_argument("--tail", default="two", choices=("two", "left", "right"))
        p.add_argument("--out", default=None)

    net = sub.add_parser("netdep", help="graph dependence tools")
    net.set_defaults(func=_cmd_netdep)
    netsub = net.add_subparsers(dest="kind", required=True)
    p = netsub.add_parser("make")
    p.add_argument("--family", required=True, choices=("cycle", "star"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--out", required=True)
    p = netsub.add_parser("stats")
    p.add_argument("--graph", required=True)
    p.add_argument("-s", type=int, required=True)
    p.add_argument("-m", type=int, required=True)
    p.add_argument("-k", type=float, default=1.0)
    p = netsub.add_parser("hac")
    p.add_argument("--graph", required=True)
    _add_data_args(p)
    _add_kernel_args(p)

    spec = sub.add_parser("spectrum", help="sample covariance eigenvalues")
    spec.set_defaults(func=_cmd_spectrum)
    spec.add_argument("--n", type=int, required=True)
    spec.add_argument("--p", type=int, required=True)
    spec.add_argument("--out", default=None)
    _add_rng_args(spec)

    mc = sub.add_parser("mc", help="Monte Carlo experiments")
    mc.set_defaults(func=_cmd_mc)
    mcsub = mc.add_subparsers(dest="kind", required=True)
    for kind in ("run", "grid"):
        p = mcsub.add_parser(kind)
        p.add_argument("config", help="experiment config file")
        p.add_argument("--out", default=None)
        for key in _OVERRIDES:
            p.add_argument(f"--{key}", type=_RESERVED[key], default=None)
    mcsub.add_parser("list")

    return parser


def main(argv=None) -> int:
    """Run one command.

    A ValueError (bad input) or an OSError (a file that cannot be read
    or written) becomes one `tsnet: error: <msg>` line on stderr and
    exit code 2, with no traceback.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"tsnet: error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
