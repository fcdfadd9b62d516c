"""Acceptance suite: twelve pinned criteria at full Monte Carlo scale.

One test per criterion, named test_criterion_NN_*, so the verbose runner
shows one pass/fail line each.  Every test also prints a one-line
summary with the measured quantities (visible with -s or on failure).
Seeds are fixed per criterion; reruns are bit-reproducible.
"""

import itertools
import time

import numpy as np

import tsnet as T
from tsnet.mc import ExperimentConfig, run_experiment

from oracles import wild_conditional_variance

SEEDS = {
    "ar1-clt": 101,
    "hac-lrv": 102,
    "phillips-size": 103,
    "fmols-size": 104,
    "ivx-null": 105,
    "supwald-nbb": 106,
    "fixed-wald": 107,
    "nethac-coverage": 108,
    "unitroot-boot": 109,
    "garch-recovery": 110,
    "mp-edges": 111,
    "nested-forecast": 112,
}


def _run(name, reps, **params):
    cfg = ExperimentConfig(experiment=name, reps=reps, seed=SEEDS[name],
                           params=params)
    t0 = time.monotonic()
    res = run_experiment(cfg)
    return res.summary, time.monotonic() - t0


def _report(num, label, dt, limit, checks):
    ok = all(v for _, v in checks) and dt < limit
    detail = "; ".join(name for name, _ in checks)
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}: "
          f"{detail}; wall {dt:.1f}s (< {limit}s)")
    assert dt < limit, f"criterion {num}: runtime {dt:.1f}s over {limit}s"
    for name, v in checks:
        assert v, f"criterion {num}: {name}"


def test_criterion_01_ar1_clt():
    s, dt = _run("ar1-clt", 10000, n=5000, rho=0.5)
    _report(1, "stationary AR(1) CLT", dt, 30.0, [
        (f"var {s['var_z']:.5f} within 5% of 0.75", s["var_rel_err"] < 0.05),
        (f"KS {s['ks_stat']:.5f} < 0.02", s["ks_stat"] < 0.02),
    ])


def test_criterion_02_hac_lrv():
    s, dt = _run("hac-lrv", 50, n=100000, phi=0.5)
    _report(2, "Bartlett long-run variance", dt, 30.0, [
        (f"mean {s['mean_omega']:.4f} within 10% of 4", s["rel_err"] < 0.10),
    ])


def test_criterion_03_phillips_size():
    s, dt = _run("phillips-size", 5000, n=1000, theta=0.5, cv_reps=20000)
    _report(3, "Phillips Z under MA(1) errors", dt, 180.0, [
        (f"Z_alpha size {s['size_zalpha']:.4f} in [0.035, 0.065]",
         0.035 <= s["size_zalpha"] <= 0.065),
        (f"raw coefficient size {s['size_raw']:.4f} outside the band",
         not 0.035 <= s["size_raw"] <= 0.065),
    ])


def test_criterion_04_fmols_size():
    s, dt = _run("fmols-size", 5000, n=1000, corr=0.9)
    _report(4, "FM-OLS t-plus size", dt, 180.0, [
        (f"FM size {s['size_fm']:.4f} in [0.03, 0.07]",
         0.03 <= s["size_fm"] <= 0.07),
        (f"OLS size {s['size_ols']:.4f} > 0.10", s["size_ols"] > 0.10),
    ])


def test_criterion_05_ivx_size_across_persistence():
    checks = []
    total = 0.0
    for c in (0.0, -5.0, -20.0):
        s, dt = _run("ivx-null", 5000, n=1000, c=c, corr=0.9)
        total += dt
        checks.append((f"c={c:g} rejection {s['rejection_rate']:.4f} in "
                       "[0.035, 0.065]",
                       0.035 <= s["rejection_rate"] <= 0.065))
    _report(5, "IVX null rejection", total, 300.0, checks)


def test_criterion_06_supwald_vs_nbb():
    s, dt = _run("supwald-nbb", 5000, n=2000, c=-20.0, gamma=0.75,
                 nbb_reps=5000)
    _report(6, "sup-Wald 95% quantile vs NBB limit", dt, 300.0, [
        (f"q95 {s['q95_empirical']:.4f} vs {s['q95_limit']:.4f} "
         f"rel {s['rel_diff']:.4f} < 0.05", s["rel_diff"] < 0.05),
    ])


def test_criterion_07_fixed_pi_wald():
    s, dt = _run("fixed-wald", 5000, n=1000, pi0=0.5)
    _report(7, "fixed-break Wald chi-square limit", dt, 60.0, [
        (f"q95 {s['q95_empirical']:.4f} within 10% of 3.84",
         abs(s["q95_empirical"] - 3.84) / 3.84 < 0.10),
    ])


def test_criterion_08_network_hac_coverage():
    s, dt = _run("nethac-coverage", 5000, n_nodes=200, w1=0.04,
                 bandwidth=3.0, low_bandwidth=0.5)
    _report(8, "network HAC confidence coverage", dt, 120.0, [
        (f"coverage {s['coverage']:.4f} in [0.93, 0.97]",
         0.93 <= s["coverage"] <= 0.97),
        (f"sub-radius bandwidth coverage {s['coverage_low_bw']:.4f} "
         "strictly lower", s["coverage_low_bw"] < s["coverage"]),
    ])


def test_criterion_09_bootstrap_identities():
    t0 = time.monotonic()
    # (a) full-length non-overlapping blocks reproduce the sample, so the
    # replicate distribution is a point mass: zero spread, bit for bit
    # (np.var on the constant array would add its own summation roundoff)
    x = T.RngSpec(109, 1000).generator().standard_normal(64)
    res = T.block_bootstrap(x, lambda z: float(z.mean()), 100, T.RngSpec(1),
                            T.BlockSpec(length=64, overlap=False))
    zero_var = (bool(np.all(res.stats == res.observed))
                and float(np.ptp(res.stats)) == 0.0)

    # (b) wild bootstrap conditional variance: enumerate every rademacher
    # sign vector at n=10 and compare the exact conditional moments
    e = T.RngSpec(109, 1001).generator().standard_normal(10)
    taus = np.array([(e * np.array(signs)).sum() / np.sqrt(10.0)
                     for signs in itertools.product((-1.0, 1.0), repeat=10)])
    cond_mean = float(taus.mean())
    cond_var = float(taus.var())
    formula = wild_conditional_variance(e)
    wild_ok = (abs(cond_mean) < 1e-12
               and abs(cond_var - formula) < 1e-12
               and formula == float(np.mean(e**2)))

    # (c) residual unit-root bootstrap quantile vs the simulated limit
    s, _ = _run("unitroot-boot", 200, n=1000, B=2000, block=10,
                cv_reps=20000)
    dt = time.monotonic() - t0
    _report(9, "bootstrap identities", dt, 300.0, [
        ("(a) degenerate blocks give zero replicate variance", zero_var),
        ("(b) wild conditional variance equals mean squared residual",
         wild_ok),
        (f"(c) bootstrap q05 {s['mean_q05_boot']:.4f} vs limit "
         f"{s['q05_limit']:.4f} rel {s['rel_err']:.4f} < 0.10",
         s["rel_err"] < 0.10),
    ])


def test_criterion_10_garch_qmle_recovery():
    s, dt = _run("garch-recovery", 200, n=20000, omega=0.1, alpha=0.1,
                 beta=0.8)
    _report(10, "GARCH(1,1) QMLE recovery", dt, 120.0, [
        (f"median max error {s['median_max_abs_err']:.5f} < 0.05",
         s["median_max_abs_err"] < 0.05),
        (f"filter mean {s['mean_filter_var']:.4f} within 5% of 1.0",
         s["filter_rel_err"] < 0.05),
    ])


def test_criterion_11_mp_edges():
    s, dt = _run("mp-edges", 50, n=4000, gamma=0.25)
    p = round(s["gamma"] * s["n"])  # trace of the gram scales with p
    _report(11, "Marchenko-Pastur support edges", dt, 60.0, [
        (f"median lambda_min err {s['err_min']:.5f} < 0.05",
         s["err_min"] < 0.05),
        (f"median lambda_max err {s['err_max']:.5f} < 0.05",
         s["err_max"] < 0.05),
        (f"trace identity gap {s['max_trace_gap']:.2e} < 1e-8 relative",
         s["max_trace_gap"] < 1e-8 * p),
    ])


_TINY = {
    "ar1-clt": (5, {"n": 200}),
    "hac-lrv": (3, {"n": 2000}),
    "phillips-size": (5, {"n": 120, "cv_reps": 500}),
    "fmols-size": (5, {"n": 150}),
    "ivx-null": (5, {"n": 150}),
    "supwald-nbb": (5, {"n": 150, "nbb_reps": 200, "nbb_grid": 100}),
    "fixed-wald": (5, {"n": 120}),
    "nethac-coverage": (5, {"n_nodes": 30}),
    "unitroot-boot": (3, {"n": 150, "B": 50, "cv_reps": 500}),
    "garch-recovery": (2, {"n": 800}),
    "mp-edges": (3, {"n": 200}),
    "nested-forecast": (3, {"n": 150}),
}


def test_criterion_12_determinism(tmp_path):
    t0 = time.monotonic()
    mismatches = []
    for name, (reps, params) in _TINY.items():
        payloads = []
        for tag in ("a", "b"):
            d = tmp_path / f"{name}-{tag}"
            d.mkdir()
            cfg = ExperimentConfig(experiment=name, reps=reps,
                                   seed=SEEDS[name], params=dict(params))
            res = run_experiment(cfg, out=d)
            assert len(res.files) == 2, name  # per-rep CSV plus summary
            payloads.append(tuple(p.read_bytes() for p in res.files))
        if payloads[0] != payloads[1]:
            mismatches.append(name)
    # parallel execution must not leak into the bytes either
    files = []
    for jobs in (1, 2):
        d = tmp_path / f"jobs{jobs}"
        d.mkdir()
        cfg = ExperimentConfig(experiment="fixed-wald", reps=6,
                               seed=SEEDS["fixed-wald"], jobs=jobs,
                               params={"n": 120})
        res = run_experiment(cfg, out=d)
        files.append(tuple(p.read_bytes() for p in res.files))
    jobs_same = files[0] == files[1]
    dt = time.monotonic() - t0
    _report(12, "byte-identical CSV reruns", dt, 120.0, [
        (f"reruns identical for all {len(_TINY)} experiments "
         f"(mismatches: {mismatches or 'none'})", not mismatches),
        ("jobs=1 and jobs=2 write identical bytes", jobs_same),
    ])
