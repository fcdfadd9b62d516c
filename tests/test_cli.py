"""End-to-end command line tests, run in process through main()."""

import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import tsnet as T
from tsnet import mc
from tsnet.cli import COMMANDS, main
from tsnet.mc import read_csv


def run_cli(*argv):
    assert main(list(argv)) == 0


def kv_from(capsys):
    out = capsys.readouterr().out
    pairs = {}
    for line in out.splitlines():
        if " = " in line:
            key, _, val = line.partition(" = ")
            pairs[key.strip()] = val.strip()
    return pairs


def _simulate_series(tmp_path, name="x.csv", seed=1):
    path = tmp_path / name
    run_cli("simulate", "linear", "--coeffs", "1,0.5", "--n", "400",
            "--seed", str(seed), "--out", str(path))
    return path


def _simulate_system(tmp_path, name="sys.csv", n="300", beta="0.2", c="-5"):
    path = tmp_path / name
    run_cli("simulate", "system", "--beta", beta, "--c", c, "--corr", "0.5",
            "--n", n, "--seed", "4", "--out", str(path))
    return path


def test_simulate_linear_csv_and_determinism(tmp_path, capsys):
    p1 = _simulate_series(tmp_path, "a.csv")
    p2 = _simulate_series(tmp_path, "b.csv")
    assert p1.read_bytes().split(b"\n", 1)[1] == p2.read_bytes().split(b"\n", 1)[1]
    schema, cols, data = read_csv(p1)
    assert schema == "series/v1"
    assert cols == ["t", "value"]
    assert data.shape == (400, 2)
    p3 = tmp_path / "c.csv"
    run_cli("simulate", "linear", "--coeffs", "1,0.5", "--n", "400",
            "--seed", "1", "--stream", "7", "--out", str(p3))
    assert not np.array_equal(read_csv(p3)[2], data)
    capsys.readouterr()
    # without --out the CSV goes to stdout
    run_cli("simulate", "linear", "--coeffs", "1", "--n", "5", "--seed", "0")
    out = capsys.readouterr().out
    assert out.startswith("#schema=series/v1")
    assert out.splitlines()[1] == "t,value"


def test_simulate_other_kinds(tmp_path, capsys):
    run_cli("simulate", "lur", "--c", "-5", "--gamma", "0.75", "--n", "50",
            "--seed", "2", "--out", str(tmp_path / "lur.csv"))
    assert read_csv(tmp_path / "lur.csv")[2].shape == (50, 2)
    run_cli("simulate", "ou", "--c", "-1", "--sigma", "1", "--n", "40",
            "--seed", "2", "--out", str(tmp_path / "ou.csv"))
    assert read_csv(tmp_path / "ou.csv")[2].shape == (40, 2)
    run_cli("simulate", "garch", "--omega", "0.1", "--alpha", "0.1",
            "--beta", "0.8", "--n", "300", "--seed", "2",
            "--out", str(tmp_path / "g.csv"))
    schema, cols, data = read_csv(tmp_path / "g.csv")
    assert cols == ["t", "y", "sigma2"] and data.shape == (300, 3)
    sys_path = _simulate_system(tmp_path)
    schema, cols, data = read_csv(sys_path)
    assert cols == ["t", "y", "x1"]
    capsys.readouterr()
    # --corr pairs with exactly one regressor
    assert main(["simulate", "system", "--beta", "0.2,0.1", "--c", "-5",
                 "--corr", "0.5", "--n", "50", "--seed", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "tsnet: error: --corr is only supported for one regressor"]


def test_simulate_system_multivariate(tmp_path):
    path = tmp_path / "sys2.csv"
    run_cli("simulate", "system", "--beta", "0.2,0.1", "--c", "-5",
            "--n", "200", "--seed", "4", "--out", str(path))
    schema, cols, data = read_csv(path)
    assert cols == ["t", "y", "x1", "x2"]
    assert data.shape == (200, 4)


def test_estimate_hac(tmp_path, capsys):
    data = _simulate_series(tmp_path)
    run_cli("estimate", "hac", "--data", str(data), "--family", "bartlett")
    kv = kv_from(capsys)
    assert float(kv["omega"]) > 0.0
    assert kv["family"] == "bartlett"
    assert int(kv["n"]) == 400


def test_estimate_fmols_and_ivx(tmp_path, capsys):
    data = _simulate_system(tmp_path)
    run_cli("estimate", "fmols", "--data", str(data))
    kv = kv_from(capsys)
    assert "beta1" in kv and "se1" in kv and "omega_cond" in kv
    run_cli("estimate", "ivx", "--data", str(data))
    kv = kv_from(capsys)
    assert "beta1" in kv and "wald" in kv
    assert 0.0 <= float(kv["pvalue"]) <= 1.0


def test_estimate_garch(tmp_path, capsys):
    path = tmp_path / "g.csv"
    run_cli("simulate", "garch", "--omega", "0.1", "--alpha", "0.1",
            "--beta", "0.8", "--n", "500", "--seed", "3", "--out", str(path))
    run_cli("estimate", "garch", "--data", str(path), "--column", "y")
    kv = kv_from(capsys)
    assert float(kv["omega"]) > 0.0
    assert float(kv["loglik"]) < 0.0  # the log-likelihood, not the minimized objective
    assert kv["converged"] in ("0", "1")
    assert "ar_coeff" not in kv


def test_estimate_garch_ar1_prints_the_ar_coefficient(tmp_path, capsys):
    path = tmp_path / "g.csv"
    run_cli("simulate", "garch", "--omega", "0.1", "--alpha", "0.1",
            "--beta", "0.8", "--n", "500", "--seed", "3", "--out", str(path))
    run_cli("estimate", "garch", "--data", str(path), "--column", "y", "--mean", "ar1")
    fit = T.garch_qmle(read_csv(path)[2][:, 1], mean="ar1")
    kv = kv_from(capsys)
    assert list(kv)[3:5] == ["mu", "ar_coeff"]
    assert float(kv["ar_coeff"]) == fit.ar_coeff
    assert float(kv["mu"]) == fit.spec.mu


def test_estimate_garch_on_a_constant_column_is_one_line(tmp_path, capsys):
    path = tmp_path / "flat.csv"
    path.write_text("t,y\n" + "".join(f"{t},2.5\n" for t in range(1, 201)))
    assert main(["estimate", "garch", "--data", str(path), "--column", "y"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("tsnet: error: ")
    assert "zero variance" in lines[0]


def test_unitroot_subcommands(tmp_path, capsys):
    data = _simulate_series(tmp_path)
    run_cli("test", "adf", "--data", str(data), "--lags", "2")
    kv = kv_from(capsys)
    assert "stat_coef" in kv and "stat_t" in kv
    run_cli("test", "phillips", "--data", str(data), "--det", "const")
    kv = kv_from(capsys)
    assert "z_alpha" in kv and float(kv["bandwidth"]) >= 1.0
    run_cli("test", "phillips", "--data", str(data), "--det", "const", "--crit",
            "--reps", "500", "--seed", "3", "--stream", "2")
    kv = kv_from(capsys)
    tables = T.df_limit_mc(400, deterministic="const", reps=500, rng=T.RngSpec(3, 2))
    assert float(kv["crit_coef_05"]) == float(np.quantile(tables.coef, 0.05))
    assert float(kv["crit_t_05"]) == float(np.quantile(tables.t, 0.05))


def test_stability_subcommands(tmp_path, capsys):
    data = _simulate_system(tmp_path)
    run_cli("test", "shin", "--data", str(data))
    assert "v_n" in kv_from(capsys)
    run_cli("test", "fk", "--data", str(data))
    kv = kv_from(capsys)
    assert "stat" in kv and "dof" in kv
    run_cli("test", "supwald", "--data", str(data), "--trim", "0.2", "0.8")
    assert "pi_star" in kv_from(capsys)
    run_cli("test", "split", "--data", str(data), "--pi0", "0.5")
    assert "stat" in kv_from(capsys)
    run_cli("test", "lm", "--data", str(data))
    kv = kv_from(capsys)
    assert "lm1" in kv and "lm2" in kv
    run_cli("test", "me", "--data", str(data), "--n-hist", "150", "--h", "0.2")
    kv = kv_from(capsys)
    assert "window" in kv and int(kv["window"]) == 30


def test_bootstrap_subcommands(tmp_path, capsys):
    data = _simulate_series(tmp_path)
    out = tmp_path / "boot.csv"
    run_cli("bootstrap", "block", "--data", str(data), "--block-length", "10",
            "-B", "99", "--seed", "6", "--out", str(out))
    kv = kv_from(capsys)
    assert kv["scheme"] == "block" and int(kv["B"]) == 99
    assert 0.0 < float(kv["pvalue"]) <= 1.0
    schema, cols, body = read_csv(out)
    assert schema == "bootstrap/v1" and body.shape == (99, 2)

    run_cli("bootstrap", "stationary", "--data", str(data),
            "--mean-block", "8", "-B", "50", "--seed", "6")
    assert kv_from(capsys)["scheme"] == "stationary"
    run_cli("bootstrap", "sieve", "--data", str(data), "--order", "1",
            "-B", "50", "--seed", "6", "--stat", "variance")
    assert kv_from(capsys)["scheme"] == "sieve"
    run_cli("bootstrap", "wild", "--data", str(data), "-B", "50",
            "--seed", "6", "--multiplier", "rademacher")
    assert kv_from(capsys)["scheme"] == "wild"
    run_cli("bootstrap", "unitroot", "--data", str(data),
            "--block-length", "10", "-B", "50", "--seed", "6", "--tail", "left")
    kv = kv_from(capsys)
    assert kv["scheme"] == "residual-unitroot"
    assert float(kv["q05"]) < float(kv["q95"])


def test_bootstrap_of_a_nan_statistic_is_one_line(tmp_path):
    # the mean of these finite values overflows to inf - inf = nan; a fresh
    # process, since pytest would record numpy's warnings in place of stderr
    data = tmp_path / "huge.csv"
    data.write_text("t,value\n" + "".join(f"{t},{v}\n" for t, v in
                                          enumerate([1e308] * 4 + [-1e308] * 4, 1)))
    env = dict(os.environ)
    src = str(Path(T.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "tsnet.cli", "bootstrap", "block", "--data",
                           str(data), "--block-length", "2", "-B", "9", "--stat", "mean"],
                          env=env, capture_output=True, text=True, timeout=120)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines() == ["tsnet: error: the statistic mean is nan on the data; "
                                        "a bootstrap needs a number"]


def test_netdep_subcommands(tmp_path, capsys):
    graph = tmp_path / "cycle.edges"
    run_cli("netdep", "make", "--family", "cycle", "--n", "60",
            "--out", str(graph))
    assert graph.exists()
    run_cli("netdep", "stats", "--graph", str(graph), "-s", "1", "-m", "1")
    kv = kv_from(capsys)
    assert float(kv["delta_shell"]) == pytest.approx(2.0, rel=1e-9)
    assert int(kv["n"]) == 60

    nodes = tmp_path / "nodes.csv"
    run_cli("simulate", "graph-ma", "--graph", str(graph),
            "--weights", "1,0.3", "--seed", "8", "--out", str(nodes))
    schema, cols, body = read_csv(nodes)
    assert cols == ["node", "value"] and body.shape == (60, 2)
    run_cli("netdep", "hac", "--graph", str(graph), "--data", str(nodes),
            "--bandwidth", "3")
    assert float(kv_from(capsys)["v"]) > 0.0

    star = tmp_path / "star.edges"
    run_cli("netdep", "make", "--family", "star", "--n", "6", "--out", str(star))
    run_cli("netdep", "stats", "--graph", str(star), "-s", "1", "-m", "1")
    kv = kv_from(capsys)
    assert float(kv["delta_shell"]) == pytest.approx(10.0 / 6.0, rel=1e-9)


def test_spectrum_subcommand(tmp_path, capsys):
    out = tmp_path / "eig.csv"
    run_cli("spectrum", "--n", "400", "--p", "100", "--seed", "9",
            "--out", str(out))
    kv = kv_from(capsys)
    assert float(kv["lambda_max"]) > float(kv["lambda_min"]) > 0.0
    assert float(kv["edge_upper"]) == pytest.approx(2.25)
    schema, cols, body = read_csv(out)
    assert body.shape == (100, 2)


def test_mc_list_and_run(tmp_path, capsys):
    run_cli("mc", "list")
    names = capsys.readouterr().out.split()
    assert "ar1-clt" in names and "nethac-coverage" in names

    cfg = tmp_path / "fw.cfg"
    cfg.write_text("experiment = fixed-wald\nreps = 20\nseed = 12\nn = 150\n")
    out = tmp_path / "fw.csv"
    run_cli("mc", "run", str(cfg), "--reps", "8", "--out", str(out))
    kv = kv_from(capsys)
    assert "q95_empirical" in kv
    schema, cols, body = read_csv(out)
    assert body.shape == (8, 2)  # --reps override wins over the file
    assert (tmp_path / "fw-summary.csv").exists()


def test_mc_grid(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("experiment = fixed-wald\nreps = 5\nseed = 12\nn = 120\n"
                   "grid.pi0 = 0.3,0.6\n")
    out = tmp_path / "grid.csv"
    run_cli("mc", "grid", str(cfg), "--out", str(out))
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("grid_pi0,")
    assert len(lines) == 3
    schema, cols, body = read_csv(out)
    assert cols[0] == "grid_pi0" and body.shape[0] == 2


def test_mc_run_reads_none_as_a_string_parameter(tmp_path, capsys):
    cfg = tmp_path / "pz.cfg"
    cfg.write_text("experiment = phillips-size\nreps = 3\nseed = 4\nn = 60\n"
                   "cv_reps = 100\ndeterministic = none\n")
    run_cli("mc", "run", str(cfg), "--out", str(tmp_path))
    assert "size_zalpha" in kv_from(capsys)
    lines = (tmp_path / "phillips-size.csv").read_text().splitlines()
    assert "deterministic=none;" in lines[1]


@pytest.mark.parametrize("experiment,line", [
    ("ivx-null", "corrr = 0.99"),      # not a parameter of the experiment
    ("ivx-null", "n = 120.7"),         # not an integer
    ("supwald-nbb", "trim = 0.3"),     # one fraction, not two
    ("fmols-size", "family = parzen"),  # fmols-size has no kernel to set
])
def test_mc_bad_parameter_is_one_line(tmp_path, capsys, experiment, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"experiment = {experiment}\nreps = 2\n{line}\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["mc", "run", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("tsnet: error: ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("n_small", [-1, 3, 5])
def test_mc_nested_forecast_without_extra_regressors_is_one_line(tmp_path, capsys,
                                                                 monkeypatch, n_small):
    # the default system has three regressors, so at 3 or 5 nothing is left to
    # nest, and -1 would slice x[:, :-1]; each stops in resolve, naming n_small
    def no_draws(*args, **kwargs):
        raise AssertionError("the reps were simulated")

    monkeypatch.setattr(mc, "_rep_streams", no_draws)
    cfg = tmp_path / "nf.cfg"
    cfg.write_text(f"experiment = nested-forecast\nreps = 2\nn = 100\nn_small = {n_small}\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["mc", "run", str(cfg), "--out", str(out)]) == 2
    assert _one_error_line(capsys) == (
        "tsnet: error: experiment 'nested-forecast': parameter 'n_small' must be in "
        f"[0, len(beta) - 1], got {n_small}")
    assert list(out.iterdir()) == []


_TRIM = ("two fractions 0 < lo < hi < 1 holding a break date of n - 1 pairs and a point "
         "i / nbb_grid")


@pytest.mark.parametrize("kind,experiment,line,message", [
    ("run", "phillips-size", "family = foo",
     "experiment 'phillips-size': parameter 'family' must be one of ['bartlett', 'parzen', "
     "'quadratic-spectral', 'truncated'], got 'foo'"),
    ("run", "unitroot-boot", "block = 2000",
     "experiment 'unitroot-boot': parameter 'block' must be in [1, n - 1], got 2000"),
    ("run", "unitroot-boot", "block = 0",
     "experiment 'unitroot-boot': parameter 'block' must be in [1, n - 1], got 0"),
    # a trend is a limit table's deterministic, but not the Phillips corrections'
    ("run", "phillips-size", "deterministic = trend",
     "experiment 'phillips-size': parameter 'deterministic' must be one of ['const', 'none'], "
     "got 'trend'"),
    # each below used to name an internal argument: T or reps of df_limit_mc,
    # reps or grid of nbb_sup_mc, ms of the HAC estimator, y of a regression
    # or of the GARCH fit, n of cycle_graph, or the AR(1) fit's degrees of freedom
    ("run", "phillips-size", "n = 8",
     "experiment 'phillips-size': parameter 'n' must be at least 10, got 8"),
    ("run", "phillips-size", "cv_reps = 50",
     "experiment 'phillips-size': parameter 'cv_reps' must be at least 100, got 50"),
    ("run", "unitroot-boot", "n = 8",
     "experiment 'unitroot-boot': parameter 'n' must be at least 10, got 8"),
    ("run", "unitroot-boot", "cv_reps = 50",
     "experiment 'unitroot-boot': parameter 'cv_reps' must be at least 100, got 50"),
    ("run", "supwald-nbb", "nbb_reps = 50",
     "experiment 'supwald-nbb': parameter 'nbb_reps' must be at least 100, got 50"),
    ("run", "supwald-nbb", "nbb_grid = 0",
     "experiment 'supwald-nbb': parameter 'nbb_grid' must be at least 1, got 0"),
    ("run", "hac-lrv", "n = 1", "experiment 'hac-lrv': parameter 'n' must be at least 2, got 1"),
    # each below used to fail after the limit table, without naming the parameter
    ("run", "supwald-nbb", "n = 50\ngamma = 1.5",
     "experiment 'supwald-nbb': parameter 'gamma' must be in (0, 1], got 1.5"),
    ("run", "supwald-nbb", "c = nan",
     "experiment 'supwald-nbb': parameter 'c' must be finite, got nan"),
    ("run", "supwald-nbb", "intercept = inf",
     "experiment 'supwald-nbb': parameter 'intercept' must be finite, got inf"),
    ("run", "supwald-nbb", "beta = -inf",
     "experiment 'supwald-nbb': parameter 'beta' must be finite, got -inf"),
    ("run", "phillips-size", "theta = nan",
     "experiment 'phillips-size': parameter 'theta' must be finite, got nan"),
    ("run", "unitroot-boot", "B = 0",
     "experiment 'unitroot-boot': parameter 'B' must be at least 1, got 0"),
    ("run", "fmols-size", "n = 7",
     "experiment 'fmols-size': parameter 'n' must be at least 8, got 7"),
    ("run", "ivx-null", "n = 7", "experiment 'ivx-null': parameter 'n' must be at least 8, got 7"),
    ("run", "supwald-nbb", "n = 7",
     "experiment 'supwald-nbb': parameter 'n' must be at least 8, got 7"),
    ("run", "fixed-wald", "n = 7",
     "experiment 'fixed-wald': parameter 'n' must be at least 8, got 7"),
    ("run", "nested-forecast", "n = 7",
     "experiment 'nested-forecast': parameter 'n' must be at least 8, got 7"),
    ("run", "garch-recovery", "n = 49",
     "experiment 'garch-recovery': parameter 'n' must be at least 50, got 49"),
    ("run", "nethac-coverage", "n_nodes = 2",
     "experiment 'nethac-coverage': parameter 'n_nodes' must be at least 3, got 2"),
    ("run", "ar1-clt", "n = 2", "experiment 'ar1-clt': parameter 'n' must be at least 3, got 2"),
    # a zero long-run variance, and a bad n blamed on gamma, round(gamma * n)
    ("run", "nethac-coverage", "n_nodes = 30\nw1 = -0.5",
     "experiment 'nethac-coverage': parameter 'w1' must be finite with 1 + 2 * w1 != 0, "
     "got -0.5"),
    ("run", "mp-edges", "n = -4\ngamma = 0.5",
     "experiment 'mp-edges': parameter 'n' must be at least 1, got -4"),
    # parameters once checked only by the library, in the first rep
    ("run", "ivx-null", "n = 50\ngamma = 1.5",
     "experiment 'ivx-null': parameter 'gamma' must be in (0, 1], got 1.5"),
    ("run", "garch-recovery", "burn = -1",
     "experiment 'garch-recovery': parameter 'burn' must be at least 0, got -1"),
    ("run", "nested-forecast", "k0 = -3",
     "experiment 'nested-forecast': parameter 'k0' must be none or an integer in [1, n - 2], "
     "got -3"),
    # a grid checks every cell before the first cell's table is simulated
    ("grid", "phillips-size", "grid.n = 500, 8",
     "experiment 'phillips-size': parameter 'n' must be at least 10, got 8"),
    ("grid", "unitroot-boot", "n = 1000\ngrid.block = 10, 2000",
     "experiment 'unitroot-boot': parameter 'block' must be in [1, n - 1], got 2000"),
    # each below used to fail in the library, in setup or the first rep, naming no parameter
    ("run", "supwald-nbb", "n = 8\nnbb_reps = 100\nnbb_grid = 100\ntrim = 0.49, 0.5",
     f"experiment 'supwald-nbb': parameter 'trim' must be {_TRIM}, got (0.49, 0.5)"),
    ("run", "supwald-nbb", "n = 200\nnbb_reps = 100\nnbb_grid = 1",
     f"experiment 'supwald-nbb': parameter 'trim' must be {_TRIM}, got (0.15, 0.85)"),
    ("run", "nethac-coverage", "family = quadratic-spectral",
     "experiment 'nethac-coverage': parameter 'family' must be one of ['bartlett', 'parzen', "
     "'truncated'], got 'quadratic-spectral'"),
    ("run", "hac-lrv", "family = foo",
     "experiment 'hac-lrv': parameter 'family' must be one of ['bartlett', 'parzen', "
     "'quadratic-spectral', 'truncated'], got 'foo'"),
], ids=["phillips-family", "urboot-block-past-n", "urboot-block-zero",
        "phillips-deterministic", "phillips-n",
        "phillips-cv-reps", "urboot-n", "urboot-cv-reps", "supwald-nbb-reps",
        "supwald-nbb-grid", "hac-lrv-n", "supwald-gamma", "supwald-c", "supwald-intercept",
        "supwald-beta", "phillips-theta", "urboot-B", "fmols-n", "ivx-n", "supwald-n",
        "fixed-wald-n", "nested-n", "garch-n", "nethac-n-nodes", "ar1-clt-n", "nethac-w1", "mp-edges-n",
        "ivx-gamma", "garch-burn", "nested-k0", "grid-phillips-n", "grid-urboot-block",
        "supwald-trim-no-break-date", "supwald-trim-no-grid-point", "nethac-family",
        "hac-lrv-family"])
def test_mc_bad_input_fails_before_the_limit_table(tmp_path, capsys, monkeypatch,
                                                   kind, experiment, line, message):
    def nothing_simulated(*args, **kwargs):
        raise AssertionError("a limit table or a rep was simulated")

    for name in ("df_limit_mc", "nbb_sup_mc", "_rep_streams"):
        monkeypatch.setattr(mc, name, nothing_simulated)
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(f"experiment = {experiment}\nreps = 2\n{line}\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["mc", kind, str(cfg), "--out", str(out)]) == 2
    assert _one_error_line(capsys) == f"tsnet: error: {message}"
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("kind", ["run", "grid"])
@pytest.mark.parametrize("line,flags", [("level = 1.5", []), ("level = 0", []),
                                        ("", ["--level", "1"]), ("", ["--level", "nan"]),
                                        ("", ["--level", "-0.05"])])
def test_mc_level_outside_the_unit_interval_is_one_line(tmp_path, capsys, monkeypatch,
                                                       kind, line, flags):
    def no_setup(*args, **kwargs):
        raise AssertionError("the table was simulated")

    monkeypatch.setattr(mc, "df_limit_mc", no_setup)
    cfg = tmp_path / "pz.cfg"
    cfg.write_text(f"experiment = phillips-size\nreps = 4\nn = 60\ncv_reps = 100\n"
                   f"grid.theta = 0.3, 0.5\n{line}\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["mc", kind, str(cfg), "--out", str(out), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("tsnet: error: experiment 'phillips-size': level must be in (0, 1), "
                               "got ")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("experiment,key,value", [
    ("ar1-clt", "rho", "1"), ("ar1-clt", "rho", "-1.5"),
    ("hac-lrv", "phi", "1"), ("fixed-wald", "phi_x", "1"),
])
def test_mc_nonstationary_root_is_one_line(tmp_path, capsys, monkeypatch,
                                           experiment, key, value):
    def no_draws(*args, **kwargs):
        raise AssertionError("the reps were simulated")

    monkeypatch.setattr(mc, "_rep_streams", no_draws)
    cfg = tmp_path / "root.cfg"
    cfg.write_text(f"experiment = {experiment}\nreps = 2\nn = 300\n{key} = {value}\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["mc", "run", str(cfg), "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"tsnet: error: experiment {experiment!r}: parameter {key!r} must be a "
        f"stationary root in (-1, 1), got {float(value)!r}"]
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("line,flags", [("level = 0.1", []), ("", ["--level", "0.1"])])
def test_mc_level_an_experiment_does_not_read_is_one_line(tmp_path, capsys, monkeypatch,
                                                         line, flags):
    def no_setup(*args, **kwargs):
        raise AssertionError("the table was simulated")

    monkeypatch.setattr(mc, "nbb_sup_mc", no_setup)
    cfg = tmp_path / "sw.cfg"
    cfg.write_text(f"experiment = supwald-nbb\nreps = 2\nn = 150\nnbb_reps = 200\n{line}\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["mc", "run", str(cfg), "--out", str(out), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "tsnet: error: experiment 'supwald-nbb' does not read level; "
        "leave it at 0.05, got 0.1"]
    assert list(out.iterdir()) == []


def test_mc_phillips_size_at_an_untabulated_level(tmp_path, capsys):
    cfg = tmp_path / "pz.cfg"
    cfg.write_text("experiment = phillips-size\nreps = 4\nseed = 4\nn = 60\n"
                   "cv_reps = 200\nlevel = 0.07\n")
    run_cli("mc", "run", str(cfg), "--out", str(tmp_path))
    kv = kv_from(capsys)
    tables = T.df_limit_mc(60, reps=200, rng=T.RngSpec(4, 0).substream(4))
    assert float(kv["level"]) == 0.07
    assert float(kv["cv_coef"]) == float(np.quantile(tables.coef, 0.07))
    assert float(kv["cv_t"]) == float(np.quantile(tables.t, 0.07))


@pytest.mark.parametrize("kind", ["run", "grid"])
@pytest.mark.parametrize("flag,value", [("--reps", "0"), ("--reps", "-3"), ("--jobs", "0")])
def test_mc_bad_count_flag_is_one_line(tmp_path, capsys, kind, flag, value):
    cfg = tmp_path / "fw.cfg"
    cfg.write_text("experiment = fixed-wald\nreps = 4\nn = 120\ngrid.pi0 = 0.3, 0.5\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["mc", kind, str(cfg), "--out", str(out), flag, value]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"tsnet: error: experiment 'fixed-wald': {flag[2:]} must be at least 1, got {value}"]
    assert list(out.iterdir()) == []


_WORD = "in [0, 2**64 - 1]"


@pytest.mark.parametrize("kind", ["run", "grid"])
@pytest.mark.parametrize("as_flag", [False, True], ids=["line", "flag"])
@pytest.mark.parametrize("key,value,message", [
    ("reps", "0", "reps must be at least 1, got 0"),
    ("reps", "abc", "reps must be an integer, got 'abc'"),
    ("jobs", "0", "jobs must be at least 1, got 0"),
    ("jobs", "1.5", "jobs must be an integer, got 1.5"),
    ("seed", "-1", f"seed must be {_WORD}, got -1"),
    ("seed", str(2**64), f"seed must be {_WORD}, got {2**64}"),
    ("stream", str(2**64), f"stream must be {_WORD}, got {2**64}"),
    ("level", "0", "level must be in (0, 1), got 0.0"),
    ("level", "1", "level must be in (0, 1), got 1.0"),
    ("level", "nan", "level must be in (0, 1), got nan"),
])
def test_mc_harness_value_outside_its_domain_is_one_line(tmp_path, capsys, monkeypatch, kind,
                                                         as_flag, key, value, message):
    # harness keys are read and checked by `resolve` as parameters are, from a
    # config line or a flag alike, before any setup or rep
    def nothing_built(*args, **kwargs):
        raise AssertionError("shells were built or a rep was simulated")

    for name in ("graph_shells", "_rep_streams"):
        monkeypatch.setattr(mc, name, nothing_built)
    cfg = tmp_path / "nh.cfg"
    cfg.write_text(f"experiment = nethac-coverage\nn_nodes = 30\ngrid.w1 = 0.1, 0.2\n"
                   f"{'' if as_flag else f'{key} = {value}'}\n")
    out = tmp_path / "out"
    out.mkdir()
    flags = [f"--{key}", value] if as_flag else []
    assert main(["mc", kind, str(cfg), "--out", str(out), *flags]) == 2
    assert _one_error_line(capsys) == f"tsnet: error: experiment 'nethac-coverage': {message}"
    assert list(out.iterdir()) == []


def test_mc_worker_error_is_one_line(tmp_path, capfd, monkeypatch):
    def failing_rep(cfg, ctx, rs):
        raise ValueError(f"rep {rs[0]} failed")

    # pool workers are forked, so they see the patched registry too
    monkeypatch.setitem(mc.EXPERIMENTS, "fixed-wald",
                        replace(mc.EXPERIMENTS["fixed-wald"], rep=failing_rep))
    cfg = tmp_path / "fw.cfg"
    cfg.write_text("experiment = fixed-wald\nreps = 4\nn = 120\ngrid.pi0 = 0.3, 0.5\n")
    for jobs in ("1", "2"):
        assert main(["mc", "grid", str(cfg), "--jobs", jobs]) == 2
        captured = capfd.readouterr()
        assert captured.out == ""
        assert captured.err == "tsnet: error: rep 0 failed\n"


_FLAT = "value\n" + "1.0\n" * 40
_Y_ONLY = "t,y\n" + "".join(f"{t},{t % 7}.5\n" for t in range(60))


def test_cli_singular_design_is_one_line(tmp_path, capsys):
    data = tmp_path / "flat.csv"
    data.write_text(_FLAT)
    assert main(["test", "adf", "--data", str(data), "--det", "const"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("tsnet: error: ")
    assert "collinear or constant" in lines[0]


@pytest.mark.parametrize("argv,body,message", [
    (["test", "adf"], _FLAT, "residuals of the Dickey-Fuller fit are numerically zero"),
    (["test", "adf", "--column", "nope"], "t,value\n1,0.5\n2,0.25\n",
     "column 'nope' not in"),
    (["test", "shin"], "t\n1\n2\n", "no data columns found"),
    *[(argv, _Y_ONLY, f"{argv[1]} needs regressor columns") for argv in (
        ["estimate", "fmols"], ["estimate", "ivx"], ["test", "fk"], ["test", "supwald"],
        ["test", "split"], ["test", "lm"], ["test", "me", "--n-hist", "20"])],
    # a non-finite value is named by file, column and data row
    (["estimate", "hac"], "t,value\n1,0.5\n2,nan\n3,0.25\n",
     "data.csv: column 'value' holds nan in data row 2; values must be finite"),
    (["test", "adf"], "t,value\n" + "".join(f"{t},{t % 5}.5\n" for t in range(1, 40))
     + "40,inf\n", "data.csv: column 'value' holds inf in data row 40"),
    (["estimate", "ivx"], "y,x\n0.5,1.0\n0.25,-inf\n",
     "data.csv: column 'x' holds -inf in data row 2"),
    (["test", "adf"], "t\n1\n2\n", "no data column found"),
    (["test", "adf"], "t,value\n", "no data rows in"),
    # a malformed file is named by file and line, and a bad field by column
    *[(["test", "adf", "--column", "y"], body, message) for body, message in (
        ("t,y\n1,0.5\n2\n3,0.25\n", "data.csv:3: expected 2 fields as in the header, got 1"),
        ("t,y\n1,0.5\n2,abc\n", "data.csv:3: column 'y': expected a number, got 'abc'"),
        ("#schema=x\nt,y\n" + "".join(f"{t},{t % 7}.5,9\n" for t in range(50)),
         "data.csv:3: expected 2 fields as in the header, got 3"),
        ("t,y,y\n1,0.5,0.75\n", "data.csv:1: column 'y' is named twice"))],
])
def test_cli_bad_data_is_one_line(tmp_path, capsys, argv, body, message):
    data = tmp_path / "data.csv"
    data.write_text(body)
    assert main(argv + ["--data", str(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("tsnet: error: ")
    assert message in lines[0]


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("tsnet: error: "), lines
    return lines[0]


@pytest.mark.parametrize("flags,message", [
    (["--c", "1e308"], "the path leaves the finite floats at c=1e+308, gamma=1.0, n=5 "),
    (["--c", "1e300", "--gamma", "0.5"], "the path leaves the finite floats at c=1e+300, "
                                         "gamma=0.5, n=5 "),
    (["--c", "-5", "--x0", "inf"], "x0 must be finite, got inf"),
    (["--c", "-5", "--x0", "nan"], "x0 must be finite, got nan"),
    # LurSpec checks its own fields
    (["--c", "nan"], "c must be finite"),
    (["--c", "-5", "--gamma", "1.5"], "gamma must lie in (0, 1]"),
])
def test_simulate_lur_off_the_finite_floats_is_one_line(tmp_path, capsys, flags, message):
    out = tmp_path / "lur.csv"
    assert main(["simulate", "lur", "--n", "5", *flags, "--out", str(out)]) == 2
    assert _one_error_line(capsys).startswith(f"tsnet: error: {message}")
    assert not out.exists()


@pytest.mark.parametrize("argv,message", [
    (["linear", "--coeffs", "1e308,1e308", "--n", "5"],
     "the path leaves the finite floats at coeffs=(1e+308, 1e+308), sigma=1.0, n=5"),
    (["ou", "--c", "1e308", "--n", "5"],
     "the path leaves the finite floats at c=1e+308, sigma=1.0, horizon=1.0, n=5"),
    (["garch", "--omega", "1e308", "--alpha", "0.1", "--beta", "0.8", "--n", "5"],
     "the path leaves the finite floats at omega=1e+308, alpha=0.1, beta=0.8, n=5, burn=500"),
    (["system", "--beta", "1", "--c", "1e308", "--n", "5"],
     "the path leaves the finite floats at beta=(1.0,), c=(1e+308,), gamma=(1.0,), n=5"),
    (["system", "--beta", "1e308", "--c", "-1", "--n", "5"],
     "the path leaves the finite floats at beta=(1e+308,), c=(-1.0,), gamma=(1.0,), n=5"),
    (["graph-ma", "--weights", "1e308,1e308"],
     "the path leaves the finite floats at weights=(1e+308, 1e+308) on 10 nodes"),
    # SystemSpec checks its own fields
    (["system", "--beta", "1", "--c", "-1", "--n", "5", "--intercept", "inf"],
     "intercept must be finite, got inf"),
    (["system", "--beta", "inf", "--c", "-1", "--n", "5"], "beta must be finite, got (inf,)"),
    (["system", "--beta", "1", "--c", "-1", "--n", "5", "--corr", "2"],
     "sigma_ue must be positive definite, got [[1.0, 2.0], [2.0, 1.0]]"),
    (["system", "--beta", "1", "--c", "-1", "--n", "5", "--corr", "nan"],
     "sigma_ue must be finite, got [[1.0, nan], [nan, 1.0]]"),
    (["system", "--beta", "1", "--c", "-1", "--n", "5", "--v-ar", "nan"],
     "v_ar coefficients must be inside the unit circle, got (nan,)"),
    (["system", "--beta", "1,2", "--c", "-1", "--n", "5", "--v-ar", "0.5"],
     "need one v_ar coefficient per regressor"),
    (["system", "--beta", "1,2", "--c=-1,-2,-3", "--n", "5"],
     "--c must give one value, or one per --beta entry"),
    # and so do LinearProcessSpec, RngSpec and the OU simulator
    (["linear", "--coeffs", "1,nan", "--n", "5"], "coeffs must be finite"),
    (["linear", "--coeffs", "1", "--sigma", "0", "--n", "5"], "sigma must be positive"),
    (["linear", "--coeffs", "1", "--n", "5", "--seed", "-1"],
     "seed must be an unsigned 64-bit integer, got -1"),
    (["ou", "--c", "nan", "--n", "5"], "need finite c, sigma >= 0, horizon > 0"),
])
def test_simulate_off_the_finite_floats_is_one_line(tmp_path, capsys, argv, message):
    if argv[0] == "graph-ma":
        T.write_edgelist(T.cycle_graph(10), tmp_path / "c10.csv")
        argv = argv + ["--graph", str(tmp_path / "c10.csv")]
    out = tmp_path / "path.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["simulate", *argv, "--out", str(out)]) == 2
    assert _one_error_line(capsys) == f"tsnet: error: {message}"
    assert not out.exists()


def test_wide_spectrum_is_one_line_without_advice(tmp_path, capsys):
    assert main(["spectrum", "--n", "10", "--p", "10000"]) == 2
    assert _one_error_line(capsys) == "tsnet: error: need p <= n, got p=10000 > n=10"
    cfg = tmp_path / "mp.cfg"
    cfg.write_text("experiment = mp-edges\nreps = 2\nn = 20\ngamma = 1.5\n")
    assert main(["mc", "run", str(cfg), "--out", str(tmp_path)]) == 2
    assert _one_error_line(capsys) == (
        "tsnet: error: experiment 'mp-edges': parameter 'gamma' must be in (0, 1] with "
        "round(gamma * n) >= 1, got 1.5")


@pytest.mark.parametrize("n,gamma", [(1, 0.25), (100, -0.5), (100, 1.5), (100, 0.0),
                                     (100, 0.004)])
def test_mp_edges_bad_gamma_or_n_is_one_line(tmp_path, capsys, monkeypatch, n, gamma):
    # named in the experiment's own parameters, not the derived p, before a draw or a file
    def no_draws(*args, **kwargs):
        raise AssertionError("the reps were simulated")

    monkeypatch.setattr(mc, "_rep_streams", no_draws)
    cfg = tmp_path / "mp.cfg"
    cfg.write_text(f"experiment = mp-edges\nreps = 2\nn = {n}\ngamma = {gamma}\n")
    out = tmp_path / "out"
    out.mkdir()
    assert main(["mc", "run", str(cfg), "--out", str(out)]) == 2
    assert _one_error_line(capsys) == (
        "tsnet: error: experiment 'mp-edges': parameter 'gamma' must be in (0, 1] with "
        f"round(gamma * n) >= 1, got {float(gamma)!r}")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("kind,lag", [("split", 1), ("fk", 0), ("supwald", 1), ("lm", 1),
                                      ("shin", 0), ("fmols", 0), ("ivx", 1)])
def test_cli_exact_fit_is_one_line(tmp_path, capsys, kind, lag):
    x = np.cumsum(np.random.default_rng(18).standard_normal(120))
    y = 1.0 + 0.5 * np.r_[np.zeros(lag), x[:x.size - lag]]
    data = tmp_path / "exact.csv"
    rows = zip(y.tolist(), x.tolist())
    data.write_text("y,x\n" + "".join(f"{a!r},{b!r}\n" for a, b in rows))
    group = "estimate" if kind in ("fmols", "ivx") else "test"
    assert main([group, kind, "--data", str(data)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("tsnet: error: ")
    assert "fit are numerically zero" in lines[0]


def test_mc_override_flags_match_the_reserved_keys(tmp_path, capsys):
    cfg = tmp_path / "fm.cfg"
    cfg.write_text("experiment = fmols-size\nreps = 20\nseed = 12\nn = 120\n")
    run_cli("mc", "run", str(cfg), "--seed", "3", "--stream", "2", "--reps", "4",
            "--jobs", "2", "--level", "0.1", "--out", str(tmp_path / "a.csv"))
    cfg.write_text("experiment = fmols-size\nreps = 4\nseed = 3\nstream = 2\n"
                   "jobs = 2\nlevel = 0.1\nn = 120\n")
    run_cli("mc", "run", str(cfg), "--out", str(tmp_path / "b.csv"))
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a-summary.csv").read_bytes() == \
        (tmp_path / "b-summary.csv").read_bytes()


def test_netdep_reach_past_the_graph_is_the_largest_distance(tmp_path, capsys):
    # no two of 20 nodes lie farther apart than 19: a longer reach reads nothing more
    graph = tmp_path / "c20.edges"
    run_cli("netdep", "make", "--family", "cycle", "--n", "20", "--out", str(graph))
    capsys.readouterr()
    outs = []
    for m in ("1000000000", "19"):
        run_cli("netdep", "stats", "--graph", str(graph), "-s", "1", "-m", m)
        outs.append(capsys.readouterr().out.splitlines())
    assert "m = 1000000000" in outs[0]
    assert outs[0] == [line if line != "m = 19" else "m = 1000000000" for line in outs[1]]


@pytest.mark.parametrize("k,message", [
    ("nan", "k must be finite and > 0, got nan"),
    ("inf", "k must be finite and > 0, got inf"),
    ("1e308", "the moments of order k = 1e+308 overflow the floats"),
])
def test_netdep_bad_moment_order_is_one_line(tmp_path, capsys, k, message):
    graph = tmp_path / "c20.edges"
    run_cli("netdep", "make", "--family", "cycle", "--n", "20", "--out", str(graph))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["netdep", "stats", "--graph", str(graph), "-s", "1", "-m", "1",
                     "-k", k]) == 2
        assert _one_error_line(capsys) == f"tsnet: error: {message}"
        run_cli("netdep", "stats", "--graph", str(graph), "-s", "1", "-m", "1", "-k", "50")
    kv = kv_from(capsys)
    assert all(np.isfinite(float(kv[key])) for key in ("delta_shell", "delta_overlap", "c_n"))


def test_cli_value_error_is_one_line(tmp_path, capsys):
    graph = tmp_path / "zero-based.edges"
    graph.write_text("0,1\n")
    assert main(["netdep", "stats", "--graph", str(graph),
                 "-s", "1", "-m", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("tsnet: error: ")
    assert "n=<count>" in lines[0]


@pytest.mark.parametrize("body,lineno,token", [
    ("n=abc\n1 2\n", 1, "'abc'"),
    ("# header next\nn=3\n1 2\n1 x\n", 4, "'x'"),
    ("n=4\n1 2\n3 5\n", 3, "edge (3, 5) outside 1..4"),
    ("n=4\n1 2\n\n1 1\n", 4, "self-loop at node 1"),
])
def test_cli_bad_edgelist_token_names_file_and_line(tmp_path, capsys, body, lineno, token):
    graph = tmp_path / "bad.edges"
    graph.write_text(body)
    assert main(["netdep", "stats", "--graph", str(graph), "-s", "1", "-m", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"tsnet: error: {graph}:{lineno}: ")
    assert token in lines[0]


def test_cli_os_error_is_one_line(tmp_path, capsys):
    missing = tmp_path / "missing.edges"
    assert main(["netdep", "stats", "--graph", str(missing),
                 "-s", "1", "-m", "1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("tsnet: error: ")
    assert "missing.edges" in lines[0]


@pytest.mark.parametrize("path", sorted(COMMANDS))
def test_every_command_has_help(capsys, path):
    with pytest.raises(SystemExit) as exc:
        main([*path.split(), "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith(f"usage: tsnet {path} ")


@pytest.mark.parametrize("argv,flag", [
    *[(argv, ["--column", "x1"]) for argv in (
        ["estimate", "fmols"], ["estimate", "ivx"], ["test", "shin"], ["test", "fk"],
        ["test", "supwald"], ["test", "split"], ["test", "lm"],
        ["test", "me", "--n-hist", "150"])],
    (["bootstrap", "unitroot", "--block-length", "10"], ["--stat", "median"]),
])
def test_cli_rejects_flags_the_command_ignores(tmp_path, capsys, argv, flag):
    # these commands never read the flag, so taking it would hide a typo or a wrong column
    data = _simulate_system(tmp_path)
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--data", str(data), *flag])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    # reported by the command's own parser, after its usage line
    command = f"tsnet {argv[0]} {argv[1]}"
    assert captured.err.startswith(f"usage: {command} ")
    assert captured.err.splitlines()[-1] == (
        f"{command}: error: unrecognized arguments: {' '.join(flag)}")


def test_comma_list_starting_negative_takes_the_equals_form(tmp_path):
    path = tmp_path / "neg.csv"
    run_cli("simulate", "system", "--beta=0.2,0.1", "--c=-5,-1", "--v-ar=-0.3,0.2",
            "--n", "40", "--seed", "4", "--out", str(path))
    assert read_csv(path)[2].shape == (40, 4)


def test_cli_argument_errors():
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "linear", "--n", "10"])  # missing --coeffs
    assert exc.value.code != 0
    with pytest.raises(SystemExit):
        main(["no-such-command"])
