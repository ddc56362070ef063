"""Simulation and exact-computation laboratory for masked random matrix products.

The package studies the squared norm of a deep product of random rectangular
matrices with diagonal Bernoulli masks applied to a fixed unit vector: its
log is approximately normal with closed-form mean and variance, its integer
moments admit an exact path-sum evaluation, and at mask rate 1/2 the whole
ensemble coincides in law with input-output Jacobians of randomly
initialized ReLU networks.

Importing the package loads no numpy: the closed form (``compute_beta``) and
the exact moments (``exact_moment``, ``brute_force_moment``) run on Python
integers and fractions.  The sampler side (the modules in ``_LAZY_MODULES``
and the names they export) loads on first access.
"""

__version__ = "0.1.0"

import importlib as _importlib
import os as _os

# The block engine is the process's only thread pool: idle OpenBLAS workers
# busy-wait on a CPU, and a long dot product they split sums in an order set
# by their number, so the last digits of a statistic would follow the CPU count.
_os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .distributions import (
    DistributionSpec,
    discrete_symmetric,
    law_from_name,
    rademacher,
    standard_gaussian,
    uniform_symmetric,
    validate_distribution,
)
from .ensemble import (
    BetaParams,
    EnsembleConfig,
    ErrorBudget,
    UnitVector,
    compute_beta,
    error_budget,
)
from .errors import (
    AsymmetryError,
    AtomicLawError,
    BudgetExceeded,
    DimensionMismatch,
    EmptyBatch,
    FloatRangeError,
    InsufficientSamples,
    MatprodError,
    NormalizationError,
    UsageError,
)
from .pathsum import (
    brute_force_moment,
    exact_moment,
    theory_moment,
)

# The sampler side needs numpy, which takes longer to import than the rest
# of the package together, so its modules and their names below load on
# first access (PEP 562).
_LAZY_MODULES = {
    "ksstats": ("KSReport", "SummaryStats", "one_sample_ks", "summary", "two_sample_ks"),
    "montecarlo": ("MomentEstimate", "SampleBatch", "chi_square_product_sampler",
                   "empirical_moment", "run_trials"),
    "relunets": ("ReluNetConfig",),
}
_LAZY = {name: module for module, names in _LAZY_MODULES.items() for name in names}

__all__ = sorted({name for name in dir() if not name.startswith("_")} | {*_LAZY_MODULES, *_LAZY})


def __getattr__(name):
    if name in _LAZY_MODULES:
        # importing a submodule binds it in this namespace
        return _importlib.import_module(f".{name}", __name__)
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_importlib.import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
