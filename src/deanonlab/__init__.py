"""deanonlab: a Monte Carlo laboratory for active de-anonymization.

Simulates an attacker who identifies an anonymous visitor by querying group
memberships in a social graph, scoring every candidate user with an
information-density accumulator against a confidence threshold, and verifies
the measured query cost against closed-form upper and lower bounds.
"""

from .attacker import AttackTranscript, ITSConfig, auto_epsilon_steps, run_its
from .bounds import BoundReport, build_report
from .graph import BigraphPair, generate_cprb
from .harness import (
    ConfigError,
    ExperimentConfig,
    ExperimentSummary,
    emit_results,
    run_experiment,
    run_sweep,
)
from .oracle import VictimInstance
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
    "InfoMeasures",
    "JointUYZ",
    "QueryChannel",
    "VictimInstance",
    "VictimPrior",
    "auto_epsilon_steps",
    "build_joint_uyz",
    "build_report",
    "emit_results",
    "entropy",
    "generate_cprb",
    "make_prior",
    "run_experiment",
    "run_its",
    "run_sweep",
    "sample_victim",
]
