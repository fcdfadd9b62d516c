"""Simulation and inference tools for nonstationary and network data.

The package collects the estimators and tests used in our simulation
studies of near-unit-root autoregressions, cointegrating and predictive
regressions, structural-break diagnostics, dependence on graphs, block
and residual bootstraps, GARCH quasi-likelihood fitting, and sample
covariance spectra, together with a reproducible Monte Carlo harness
(`tsnet.mc`) and a command line front end (`tsnet.cli`).

All randomness flows through `RngSpec(seed, stream)` pairs backed by a
counter-based generator, so every experiment is replayable and
parallelism never changes results.
"""

from .bootstrap import (
    BlockSpec,
    BootstrapResult,
    block_bootstrap,
    bootstrap_pvalue,
    residual_unitroot_bootstrap,
    sieve_bootstrap,
    stationary_bootstrap,
    wild_bootstrap,
    wild_conditional_variance,
)
from .breaks import (
    LmResult,
    MeResult,
    NestedForecastResult,
    SupWaldResult,
    WaldBreakResult,
    lm_nyblom,
    me_monitor,
    nbb_sup_mc,
    nested_forecast_test,
    split_wald,
    sup_wald,
)
from .coint import (
    FkResult,
    FmolsResult,
    ShinResult,
    fk_break_test,
    fmols,
    shin_vn,
)
from .garch import (
    GarchConvergenceWarning,
    GarchFit,
    GarchSpec,
    garch_filter,
    garch_qmle,
    simulate_garch,
)
from .lrv import (
    KERNEL_FAMILIES,
    KernelSpec,
    LrvEstimate,
    autocovariance,
    default_bandwidth,
    hac_lrv,
    kernel_weight,
)
from .mc import (
    EXPERIMENTS,
    ExperimentConfig,
    McResult,
    parse_config,
    parse_config_file,
    run_experiment,
    size_power_grid,
)
from .netdep import (
    Graph,
    NetStats,
    Shells,
    cycle_graph,
    denseness_stats,
    graph_distance,
    graph_shells,
    neighborhood,
    network_hac,
    network_hac_radius,
    read_edgelist,
    shell,
    simulate_graph_ma,
    star_graph,
    write_edgelist,
)
from .predreg import IvxResult, IvxSpec, ivx_estimate, ivx_instrument, ivx_wald
from .randmat import (
    SpectrumResult,
    mp_cdf,
    mp_density,
    mp_support,
    sample_cov_spectrum,
)
from .series import (
    LinearProcessSpec,
    LurSpec,
    RngSpec,
    SystemSpec,
    autocovariance_true,
    long_run_variance_true,
    partial_sum_process,
    simulate_linear_process,
    simulate_lur_ar,
    simulate_ou_exact,
    simulate_predictive_system,
)
from .tables import DEFAULT_PROBS, QuantileTable
from .unitroot import (
    AROls,
    DfLimitTables,
    UnitRootResult,
    adf_test,
    default_adf_lags,
    df_limit_mc,
    ols_ar,
    phillips_z,
)

__version__ = "0.1.0"
