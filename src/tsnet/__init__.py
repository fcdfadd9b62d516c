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

The package namespace is the union of the modules' `__all__` lists,
each re-exported as is: a public name is declared once, in its module.
"""

from .bootstrap import *
from .breaks import *
from .coint import *
from .garch import *
from .lrv import *
from .mc import *
from .netdep import *
from .predreg import *
from .randmat import *
from .series import *
from .unitroot import *

__version__ = "0.1.0"
