"""Lambda-parallel unary unbiased search toolkit.

Bit-string search spaces, the benchmark objective suite, (1+lambda)
evolutionary algorithms with fixed and adaptive mutation rates, the
generic lambda-parallel framework, exact progress-law verification, and
runtime-bound curves with an experiment harness on top.
"""

from .algorithms import (
    GENERIC_PARALLEL,
    ONE_PLUS_LAMBDA_ADAPTIVE,
    ONE_PLUS_LAMBDA_FIXED,
    RLS,
    AlgoConfig,
    ContractViolationError,
    HistoryView,
    PotentialTracker,
    RunRecord,
    adaptive_rate,
    make_best_so_far_policy,
    run_generic_parallel,
    run_one_plus_lambda,
    run_rls,
)
from .bitstring import (
    BitString,
    hamming_ball_size,
    hamming_distance,
    random_bitstring,
)
from .harness import (
    CSV_COLUMNS,
    ConfigError,
    ExperimentSpec,
    LambdaStats,
    SweepSummary,
    append_rows,
    check_lower_bound,
    read_runs,
    run_experiment,
)
from .rng import derive_rng, derive_run_seed
from .variation import (
    UnaryOperator,
    apply,
    complement_op,
    exact_distribution,
    flip_exact,
    mirrored,
    radius_pmf,
    resolve_p,
    sample_distinct_positions,
    sample_radius,
    single_bit,
    standard_mutation,
    transition_prob,
)

from . import objectives, theory

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
