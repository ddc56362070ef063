"""Simulation and exact-computation laboratory for masked random matrix products.

The package studies the squared norm of a deep product of random rectangular
matrices with diagonal Bernoulli masks applied to a fixed unit vector: its
log is approximately normal with closed-form mean and variance, its integer
moments admit an exact path-sum evaluation, and at mask rate 1/2 the whole
ensemble coincides in law with input-output Jacobians of randomly
initialized ReLU networks.
"""

__version__ = "0.1.0"

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
    Architecture,
    BetaParams,
    EnsembleConfig,
    ErrorBudget,
    UnitVector,
    ZeroEventEstimate,
    compute_beta,
    error_budget,
    make_config,
    predict_layer_variance,
    zero_event_probability,
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
from .ksstats import (
    KSReport,
    SummaryStats,
    normal_cdf,
    one_sample_critical_5pct,
    one_sample_ks,
    summary,
    two_sample_ks,
)
from .montecarlo import (
    MomentEstimate,
    SampleBatch,
    chi_square_product_sampler,
    empirical_moment,
    ks_to_gaussian,
    run_trials,
)
from .pathsum import (
    CollisionRegimeWarning,
    brute_force_moment,
    exact_moment,
    theory_moment,
)
from .relunets import (
    JacobianComparison,
    ReluNetConfig,
    compare_jacobian_vs_product,
)

__all__ = [name for name in dir() if not name.startswith("_")]
