"""Noisy sorting from pairwise comparisons.

A library and CLI for the noisy sorting model: items carry a latent total
order, a stronger item wins each comparison with probability at least
1/2 + lambda, and the task is to recover the order from partial comparison
data.  The package covers data generation under two sampling schemes, a fast
multistage sorting estimator plus baselines, exact permutation-by-inversions
combinatorics with packing/covering constructions, closed-form information
quantities, and a seeded experiment harness.
"""

from .counting import (
    PackingSet,
    ball_members,
    check_lemma_inversion_bounds,
    count_at_most_k_inversions,
    count_exactly_k_inversions,
    entropy_bounds,
    greedy_maximal_packing,
    sparse_packing_cardinality_floor,
    sparse_vg_packing,
)
from .errors import ResourceCapError, SizeMismatchError
from .estimators import (
    CALIBRATED_THRESHOLD_SCALE,
    MsConfig,
    MsState,
    agreements,
    borda_sort,
    brute_force_mle,
    estimate_lambda,
    ms_sort,
    sieve_mle,
)
from .experiments import (
    ExperimentSpec,
    LambdaResult,
    ResultRow,
    draw_stages,
    emit_regions,
    loglog_slope,
    rows_to_csv,
    run_experiment,
    run_lambda_accuracy,
    summarize,
)
from .model import (
    WITH_REPLACEMENT,
    WITHOUT_REPLACEMENT,
    ComparisonDataset,
    ProbabilityMatrix,
    SamplingTag,
    StageSource,
    derive_seed,
    read_dataset,
    sample_with_replacement,
    sample_without_replacement,
    split_with_replacement,
    stage_budgets,
    star_matrix,
    write_dataset,
)
from .perms import (
    InversionTable,
    Permutation,
    compose,
    enumerate_permutations,
    from_inversion_table,
    invert,
    kendall_tau,
    l1_distance,
    linf_distance,
    random_permutation,
    to_inversion_table,
)
from .theory import (
    bernoulli_kl,
    binomial_tail_bounds,
    model_kl,
    rate_curve,
)

__version__ = "0.1.0"
