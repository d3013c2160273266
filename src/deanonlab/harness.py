"""Reproducible Monte Carlo campaigns: config, trial driver, statistics, output.

Trial k draws from four substreams of one PCG64 stream seeded by master_seed:
stream s (0 graph, 1 victim, 2 noise, 3 fallback or scan order) is
``Generator(PCG64(master_seed).jumped(4k + s))``, so results do not depend on
execution order or on how trials are distributed over worker processes. A
block of trials builds four generators once and, for each trial, rewinds them
to the master state and advances each to its jump offset, which costs a few
microseconds where building a generator from a seed costs a seed hash.
Aggregation is a single pass over the per-trial arrays in trial order, which
keeps repeated runs byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

import numpy as np

from . import bounds as bounds_mod
from .bounds import _finite_or_none
from .attacker import (
    FINAL_PHASE_ORDERS,
    ITSConfig,
    auto_epsilon_steps,
    run_its,
)
from .graph import generate_cprb
from .oracle import VictimInstance
from .stochastics import (
    EdgeJointDistribution,
    InfoMeasures,
    QueryChannel,
    VictimPrior,
    build_joint_uyz,
    entropy,
    make_prior,
    sample_victim,
)

STRATEGIES = ("its", "uid_scan")
OUTPUT_FORMATS = ("csv", "json")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_real(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


class ConfigError(ValueError):
    """Invalid experiment configuration; ``field`` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name


@dataclass
class ExperimentConfig:
    """Everything that determines a campaign's output.

    ``epsilon`` and ``steps`` accept the string "auto" to use the
    size-dependent defaults. ``prior`` is "uniform", "zipf:S", or an explicit
    probability vector.
    """

    users: int
    groups: int
    p0: float = 0.5
    edge_flip: float = 0.0
    gm_flip: float = 0.0
    prior: object = "uniform"
    epsilon: object = "auto"
    steps: object = "auto"
    trials: int = 2000
    master_seed: int = 0
    strategy: str = "its"
    final_phase_order: str = "by_info_value_desc"
    workers: int = 1
    allow_degenerate: bool = False
    out: str | None = None
    format: str = "csv"

    def validate(self):
        for name in ("users", "groups", "trials", "workers"):
            value = getattr(self, name)
            if not _is_int(value) or value < 1:
                raise ConfigError(name, "must be a positive integer")
        if not _is_int(self.master_seed) or self.master_seed < 0:
            raise ConfigError("master_seed", "must be a nonnegative integer")
        if not _is_real(self.p0) or not 0.0 < self.p0 < 1.0:
            raise ConfigError("p0", "must be a number strictly inside (0, 1)")
        for name in ("edge_flip", "gm_flip"):
            value = getattr(self, name)
            if not _is_real(value) or not 0.0 <= value <= 1.0:
                raise ConfigError(name, "must be a number in [0, 1]")
        if isinstance(self.prior, str):
            if self.prior != "uniform" and not self.prior.startswith("zipf:"):
                raise ConfigError("prior", "must be 'uniform', 'zipf:S', or a vector")
        if self.epsilon != "auto" and not (
            _is_real(self.epsilon) and 0.0 < self.epsilon < 1.0
        ):
            raise ConfigError("epsilon", "must be 'auto' or a number in (0, 1)")
        if self.steps != "auto" and not (_is_int(self.steps) and self.steps >= 1):
            raise ConfigError("steps", "must be 'auto' or an integer >= 1")
        if self.strategy not in STRATEGIES:
            raise ConfigError("strategy", f"must be one of {STRATEGIES}")
        if self.final_phase_order not in FINAL_PHASE_ORDERS:
            raise ConfigError(
                "final_phase_order", f"must be one of {FINAL_PHASE_ORDERS}"
            )
        if self.format not in OUTPUT_FORMATS:
            raise ConfigError("format", f"must be one of {OUTPUT_FORMATS}")
        if not isinstance(self.allow_degenerate, bool):
            raise ConfigError("allow_degenerate", "must be true or false")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError("out", "must be a file path")
        try:
            make_prior(self.prior, self.users)
        except (TypeError, ValueError) as exc:
            raise ConfigError("prior", str(exc)) from exc

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ConfigError("config", "must be a JSON object of fields")
        known = {f.name for f in dataclasses.fields(cls)}
        for key in data:
            if key not in known:
                raise ConfigError(key, "unknown configuration field")
        if "users" not in data or "groups" not in data:
            missing = "users" if "users" not in data else "groups"
            raise ConfigError(missing, "required field is missing")
        return cls(**data)


@dataclass(frozen=True)
class _ResolvedModel:
    """Config turned into concrete model objects plus resolved (epsilon, steps)."""

    edge_joint: EdgeJointDistribution
    gm: QueryChannel
    prior: VictimPrior
    measures: InfoMeasures
    epsilon: float
    steps: int

    def bound_report(self, n: int) -> bounds_mod.BoundReport:
        """The analytic bound report for this model over n groups."""
        return bounds_mod.build_report(
            n=n,
            m=self.prior.m,
            entropy_bits=entropy(self.prior),
            mutual_info_bits=self.measures.mutual_info,
            i_max_bits=self.measures.i_max,
            epsilon=self.epsilon,
            steps=self.steps,
        )


def resolve_model(config: ExperimentConfig) -> _ResolvedModel:
    edge_joint = EdgeJointDistribution.from_marginal_flip(config.p0, config.edge_flip)
    gm = QueryChannel.bsc(config.gm_flip)
    prior = make_prior(config.prior, config.users)
    joint = build_joint_uyz(edge_joint, gm)
    measures = InfoMeasures.from_joint(joint)
    if config.epsilon == "auto" or config.steps == "auto":
        auto_eps, auto_steps = auto_epsilon_steps(config.users)
    eps = auto_eps if config.epsilon == "auto" else float(config.epsilon)
    steps = auto_steps if config.steps == "auto" else int(config.steps)
    return _ResolvedModel(edge_joint, gm, prior, measures, eps, steps)


# PCG64.jumped(j) advances the state by j times this step, mod 2**128.
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835
# Substreams per trial: graph, victim, noise, fallback or scan order.
_STREAMS = 4


class TrialStreams:
    """One set of reusable generators for the trial substreams of a campaign."""

    __slots__ = ("generators", "master_state")

    def __init__(self, master_seed: int):
        self.generators = tuple(
            np.random.Generator(np.random.PCG64(master_seed)) for _ in range(_STREAMS)
        )
        self.master_state = self.generators[0].bit_generator.state


def trial_seeds(streams: TrialStreams, trial_index: int) -> tuple[np.random.Generator, ...]:
    """The (graph, victim, noise, order) generators of one trial.

    Stream s of trial k is ``Generator(PCG64(master_seed).jumped(4k + s))``.
    The generators of ``streams`` are repositioned in place and returned, so
    they hold trial k's streams only until the next call on ``streams``.
    """
    for s, gen in enumerate(streams.generators):
        bit_gen = gen.bit_generator
        bit_gen.state = streams.master_state
        bit_gen.advance((_STREAMS * trial_index + s) * _JUMP % (1 << 128))
    return streams.generators


def _run_one_trial(
    config: ExperimentConfig, model: _ResolvedModel, its: ITSConfig, streams: TrialStreams, k: int
):
    graph_rng, victim_rng, noise_rng, order_rng = trial_seeds(streams, k)
    pair = generate_cprb(config.groups, config.users, model.edge_joint, graph_rng)
    victim = sample_victim(model.prior, victim_rng)
    inst = VictimInstance(pair, victim, model.gm, noise_rng)
    return run_its(pair, inst, model.prior, model.measures, its, order_rng)


def _trial_block(config: ExperimentConfig, start: int, count: int):
    """Run trials [start, start + count) and return compact per-trial arrays."""
    model = resolve_model(config)
    if config.strategy == "its":
        its = ITSConfig(model.epsilon, model.steps, config.final_phase_order)
    else:  # the identity scan: no threshold step, users in a random order
        its = ITSConfig(model.epsilon, 1, "random")
    streams = TrialStreams(config.master_seed)
    verify_slots = max(model.steps - 1, 0)
    qs = np.empty(count, dtype=np.int64)
    successes = np.empty(count, dtype=bool)
    verify = np.full((count, verify_slots), -1, dtype=np.int8)
    for i in range(count):
        transcript = _run_one_trial(config, model, its, streams, start + i)
        qs[i] = transcript.q_count
        successes[i] = transcript.success
        for s, response in enumerate(transcript.step_uid_responses()):
            verify[i, s] = response
    return qs, successes, verify


# The output fields, in column order: (name, raw value of a summary). CSV
# writes exactly these; JSON writes them first.
_FIELDS = (
    ("m", lambda s: s.config.users),
    ("n", lambda s: s.config.groups),
    ("p0", lambda s: s.config.p0),
    ("edge_flip", lambda s: s.config.edge_flip),
    ("gm_flip", lambda s: s.config.gm_flip),
    ("prior", lambda s: s.config.prior if isinstance(s.config.prior, str) else "explicit"),
    ("epsilon", lambda s: s.epsilon),
    ("l", lambda s: s.steps),
    ("trials", lambda s: s.trials),
    ("mean_Q", lambda s: s.mean_q),
    ("std_Q", lambda s: s.std_q),
    ("ci95_lo", lambda s: s.ci95_lo),
    ("ci95_hi", lambda s: s.ci95_hi),
    ("lower_bound", lambda s: s.bound_report.lower_converse),
    ("upper_bound_stated", lambda s: s.bound_report.upper_finite_stated),
    ("upper_bound_certified", lambda s: s.bound_report.upper_finite),
    ("cond_eq3", lambda s: s.bound_report.conditions_met["finite_groups"]),
    ("cond_eq4", lambda s: s.bound_report.conditions_met["asymptotic_groups"]),
)
CSV_COLUMNS = [name for name, _ in _FIELDS]


@dataclass
class ExperimentSummary:
    """Aggregated campaign result plus the matching bound report."""

    config: ExperimentConfig
    epsilon: float
    steps: int
    trials: int
    mean_q: float
    std_q: float
    ci95_lo: float
    ci95_hi: float
    success_rate: float
    per_step_failure_rates: list
    q_histogram: list
    bound_report: bounds_mod.BoundReport

    def csv_row(self) -> list[str]:
        return [_format_cell(value(self)) for _, value in _FIELDS]

    def to_json(self) -> dict:
        """The output fields, then the fields only JSON carries; null where unbounded."""
        fields = {name: _finite_or_none(value(self)) for name, value in _FIELDS}
        return dict(
            fields,
            strategy=self.config.strategy,
            master_seed=self.config.master_seed,
            success_rate=self.success_rate,
            per_step_failure_rates=list(self.per_step_failure_rates),
            q_histogram=[list(pair) for pair in self.q_histogram],
            bound_report=self.bound_report.to_json(),
        )


def _format_cell(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(value)
    return str(value)


def run_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Run one campaign and aggregate it into a summary.

    Trial k is fully determined by (master_seed, k); the worker count only
    changes scheduling, never the numbers.
    """
    config.validate()
    model = resolve_model(config)
    if (
        config.strategy == "its"
        and model.measures.mutual_info <= 0.0
        and not config.allow_degenerate
    ):
        raise ConfigError(
            "strategy",
            "its needs a model with positive mutual information; "
            "set allow_degenerate to run it anyway",
        )
    trials = config.trials
    # More processes than trials or cores would only add start-up cost.
    workers = min(config.workers, trials, os.cpu_count() or 1)
    if workers == 1:
        blocks = [_trial_block(config, 0, trials)]
    else:
        chunk = max(1, math.ceil(trials / (workers * 4)))
        starts = list(range(0, trials, chunk))
        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(
                pool.map(
                    _trial_block,
                    [config] * len(starts),
                    starts,
                    [min(chunk, trials - s) for s in starts],
                )
            )
    qs = np.concatenate([b[0] for b in blocks])
    successes = np.concatenate([b[1] for b in blocks])
    verify = np.vstack([b[2] for b in blocks])

    mean_q = float(qs.mean())
    std_q = float(qs.std(ddof=1)) if trials > 1 else 0.0
    half = 1.959963984540054 * std_q / math.sqrt(trials)
    rates = []
    for s in range(verify.shape[1]):
        attempts = int((verify[:, s] >= 0).sum())
        failures = int((verify[:, s] == 0).sum())
        rates.append(failures / attempts if attempts else None)
    values, counts = np.unique(qs, return_counts=True)
    histogram = [[int(v), int(c)] for v, c in zip(values, counts)]
    report = model.bound_report(config.groups)
    return ExperimentSummary(
        config=config,
        epsilon=model.epsilon,
        steps=model.steps,
        trials=trials,
        mean_q=mean_q,
        std_q=std_q,
        ci95_lo=mean_q - half,
        ci95_hi=mean_q + half,
        success_rate=float(successes.mean()),
        per_step_failure_rates=rates,
        q_histogram=histogram,
        bound_report=report,
    )


SWEEP_AXES = ("m", "noise", "zipf")


def run_sweep(
    base: ExperimentConfig,
    axis: str,
    points,
    common_random_numbers: bool = False,
) -> list[ExperimentSummary]:
    """One experiment per axis point.

    Axis "m" varies the user count, "noise" the response flip probability,
    "zipf" the prior exponent. Each point gets its own master seed offset
    unless common random numbers are requested, in which case all points
    share the base seed (and thereby graphs, victims and noise draws, up to
    the model differences themselves).
    """
    if axis not in SWEEP_AXES:
        raise ConfigError("axis", f"must be one of {SWEEP_AXES}")
    if not points:
        raise ConfigError("points", "need at least one sweep point")
    overrides = []
    for point in points:
        try:
            if axis == "m":
                overrides.append({"users": int(point)})
            elif axis == "noise":
                overrides.append({"gm_flip": float(point)})
            else:
                overrides.append({"prior": f"zipf:{float(point)}"})
        except (TypeError, ValueError):
            raise ConfigError("points", f"{point!r} is not a valid {axis} value") from None
    summaries = []
    for index, override in enumerate(overrides):
        seed = base.master_seed if common_random_numbers else base.master_seed + index
        config = dataclasses.replace(base, master_seed=seed, **override)
        summaries.append(run_experiment(config))
    return summaries


def open_output(path: str | None):
    """The output target opened for writing: the file at ``path``, or standard output when None.

    A path that cannot be opened raises a ``ConfigError`` naming ``out``.
    """
    if path is None:
        return nullcontext(sys.stdout)
    try:
        return open(path, "w", newline="")
    except OSError as exc:
        raise ConfigError("out", f"cannot write the file: {exc}") from None


def write_results(summaries, format: str, handle):
    """Write summaries to an open text stream as a CSV table or a JSON list with the same fields.

    JSON output is strict: an unbounded value is written as null, never as
    Infinity.
    """
    if not summaries:
        raise ValueError("no summaries to emit")
    if format not in OUTPUT_FORMATS:
        raise ValueError(f"format must be one of {OUTPUT_FORMATS}")
    if format == "csv":
        writer = csv.writer(handle)
        writer.writerow(CSV_COLUMNS)
        for summary in summaries:
            writer.writerow(summary.csv_row())
    else:
        json.dump([s.to_json() for s in summaries], handle, indent=2, allow_nan=False)
        handle.write("\n")


def emit_results(summaries, format: str, path: str | None = None):
    """Write summaries to the file at ``path``, or to standard output when it is None."""
    with open_output(path) as handle:
        write_results(summaries, format, handle)
