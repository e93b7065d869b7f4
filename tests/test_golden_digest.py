"""Golden digest: campaign records are byte-identical to a committed hash.

The grid covers every digit class, both base modes, the unbounded and two
bounded all-z variants and both baselines, with one same-n retry allowed,
so sampling, the order oracle, every strategy, the retry path and the
JSONL encoding all feed the hash. A change that alters any record byte
changes the digest; a pure speed-up must leave it as committed here.
"""

import hashlib

from allz.campaign import BASE_MODES, CampaignConfig, run_campaign
from allz.cli import record_json_line

TRIALS_PER_CONFIG = 3

STRATEGY_VARIANTS = (
    ("allz", None),
    ("allz", 9),
    ("allz", 9999),
    ("traditional", None),
    ("dong2023", None),
)

GOLDEN_SHA256 = "451f8f9e38d1ee3e7b4944b12881fbd0f3a887e4e9f4f7f32ea66fbcd5cb6698"


def grid_configs():
    for digits in range(2, 13):
        for base_mode in BASE_MODES:
            for strategy, bound in STRATEGY_VARIANTS:
                yield CampaignConfig(
                    digits=digits,
                    trials=TRIALS_PER_CONFIG,
                    base_mode=base_mode,
                    strategy=strategy,
                    bound=bound,
                    master_seed=digits,
                    retry_limit=1,
                )


def grid_digest():
    h = hashlib.sha256()
    for config in grid_configs():
        for record in run_campaign(config).records:
            h.update(record_json_line(record).encode("utf-8"))
            h.update(b"\n")
    return h.hexdigest()


def test_grid_covers_every_variant():
    configs = list(grid_configs())
    assert len(configs) == 11 * 2 * 5
    assert {c.digits for c in configs} == set(range(2, 13))


def test_campaign_records_match_golden_digest():
    assert grid_digest() == GOLDEN_SHA256
