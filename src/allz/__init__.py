"""Generalized period decomposition (all-z) factoring toolkit.

A library and CLI that, given the multiplicative order r of a base a
modulo a semiprime n, recover a factor of n by trying every distinct
prime divisor z of r via gcd(a**(r/z) - 1, n), with a perfect-square
fallback, plus the machinery to benchmark that method against baselines
over seeded Monte Carlo campaigns.
"""

from .campaign import (
    BOUND_CLASSES,
    CampaignConfig,
    CampaignResult,
    CampaignStats,
    RandomStream,
    Semiprime,
    TrialCase,
    TrialRecord,
    case_seed,
    cochran_sample_size,
    compute_metrics,
    failure_reason,
    merge_stats,
    mix64,
    random_prime,
    run_campaign,
    run_trial,
    sample_base,
    sample_semiprime,
)
from .numtheory import (
    Factorization,
    distinct_primes_bounded,
    factorize,
    is_probable_prime,
    perfect_square_root,
)
from .period_oracle import (
    PeriodRecord,
    carmichael_exponent,
    multiplicative_order,
    order_mod_primes,
)
from .strategies import (
    AttemptResult,
    FactorOutcome,
    all_z,
    dong2023,
    traditional_shor,
)

__version__ = "0.1.0"

__all__ = [
    "AttemptResult",
    "BOUND_CLASSES",
    "CampaignConfig",
    "CampaignResult",
    "CampaignStats",
    "FactorOutcome",
    "Factorization",
    "PeriodRecord",
    "RandomStream",
    "Semiprime",
    "TrialCase",
    "TrialRecord",
    "all_z",
    "carmichael_exponent",
    "case_seed",
    "cochran_sample_size",
    "compute_metrics",
    "distinct_primes_bounded",
    "dong2023",
    "factorize",
    "failure_reason",
    "is_probable_prime",
    "merge_stats",
    "mix64",
    "multiplicative_order",
    "order_mod_primes",
    "perfect_square_root",
    "random_prime",
    "run_campaign",
    "run_trial",
    "sample_base",
    "sample_semiprime",
    "traditional_shor",
]
