"""deanonlab: a Monte Carlo laboratory for active de-anonymization.

Simulates an attacker who identifies an anonymous visitor by querying group
memberships in a social graph, scoring every candidate user with an
information-density accumulator against a confidence threshold, and verifies
the measured query cost against closed-form upper and lower bounds.
"""

from .attacker import (
    AttackTranscript,
    ITSConfig,
    ITSState,
    auto_epsilon_steps,
    gm_update,
    init_state,
    run_its,
    run_uid_scan,
    select_candidate,
    threshold_check,
)
from .bounds import (
    BoundReport,
    build_report,
    converse_lower_bound,
    group_sufficiency,
    query_upper_bound,
)
from .graph import BigraphPair, generate_cprb
from .harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentSummary,
    TrialStreams,
    emit_results,
    run_experiment,
    run_sweep,
    trial_seeds,
)
from .oracle import VictimInstance, expected_response_column
from .stochastics import (
    EdgeJointDistribution,
    InfoMeasures,
    JointUYZ,
    QueryChannel,
    VictimPrior,
    build_joint_uyz,
    entropy,
    make_prior,
    sample_victim,
)

__version__ = "0.1.0"

__all__ = [
    "AttackTranscript",
    "BigraphPair",
    "BoundReport",
    "ConfigError",
    "EdgeJointDistribution",
    "ExperimentConfig",
    "ExperimentSummary",
    "ITSConfig",
    "ITSState",
    "InfoMeasures",
    "JointUYZ",
    "QueryChannel",
    "TrialStreams",
    "VictimInstance",
    "VictimPrior",
    "auto_epsilon_steps",
    "build_joint_uyz",
    "build_report",
    "converse_lower_bound",
    "emit_results",
    "entropy",
    "expected_response_column",
    "generate_cprb",
    "gm_update",
    "group_sufficiency",
    "init_state",
    "make_prior",
    "query_upper_bound",
    "run_experiment",
    "run_its",
    "run_sweep",
    "run_uid_scan",
    "sample_victim",
    "select_candidate",
    "threshold_check",
    "trial_seeds",
]
