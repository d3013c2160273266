"""A seeded scan of the model space against the certified upper bound.

The gate checks the bound sandwich on one model. This scan draws 40 models
from a fixed seed, over user counts up to 64, edge probabilities, scan and
response flips up to 0.35, uniform and zipf priors, thresholds, retry budgets
and group counts, and runs a short campaign on each. Every campaign must
find its victim in every trial without asking more queries than there are
groups and users, and its mean query count must not exceed the certified
upper bound by more than four standard errors, whichever of the bound's
stated conditions hold. A campaign above the bound is a finding about the
bound, not a reason to change the seed.
"""

import math
import random

from deanonlab import ExperimentConfig, run_experiment

SCAN_SEED = 20261020
CAMPAIGNS = 40
TRIALS = 300


def scanned_models():
    rng = random.Random(SCAN_SEED)
    for index in range(CAMPAIGNS):
        yield ExperimentConfig(
            users=rng.randint(2, 64),
            groups=rng.choice([64, 1024, 8192]),
            p0=rng.choice([0.05, 0.1, 0.2, 0.3, 0.5]),
            edge_flip=rng.choice([0.0, 0.05, 0.1, 0.2, 0.35]),
            gm_flip=rng.choice([0.0, 0.05, 0.1, 0.2, 0.35]),
            prior=rng.choice(["uniform", "zipf:0.5", "zipf:1.0", "zipf:2.0"]),
            epsilon=rng.choice([0.05, 0.1, 0.2, 0.4, 0.8]),
            steps=rng.choice([1, 2, 3, 5]),
            trials=TRIALS,
            master_seed=SCAN_SEED + index,
        )


def test_no_scanned_campaign_exceeds_the_certified_upper_bound():
    held = {"finite_groups": 0, "asymptotic_groups": 0, "coverage": 0}
    worst_z, worst = -math.inf, None
    failures = []
    for config in scanned_models():
        summary = run_experiment(config)
        report = summary.bound_report
        for condition, met in report.conditions_met.items():
            held[condition] += met
        upper = report.upper_finite
        se = summary.std_q / math.sqrt(summary.trials)
        excess = summary.mean_q - upper
        z = excess / se if se > 0 else math.copysign(math.inf, excess)
        if z > worst_z:
            worst_z, worst = z, (config, report.conditions_met)
        largest_q = summary.q_histogram[-1][0]
        if summary.success_rate != 1.0:
            failures.append(f"{config}: success rate {summary.success_rate}")
        if largest_q > config.groups + config.users:
            failures.append(f"{config}: {largest_q} queries")
        if summary.mean_q - 4 * se > upper:
            failures.append(f"{config}: mean_Q {summary.mean_q} > certified {upper} (z={z:.2f})")
    print(f"conditions held in {CAMPAIGNS} campaigns: cond_eq3 {held['finite_groups']}, "
          f"cond_eq4 {held['asymptotic_groups']}, coverage {held['coverage']}")
    print(f"worst z = {worst_z:.2f} at {worst[0]}, conditions {worst[1]}")
    assert not failures, failures
