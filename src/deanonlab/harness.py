"""Reproducible Monte Carlo campaigns: config, trial driver, statistics, output.

Trial streams. Trial k draws from four substreams of one PCG64 stream seeded
by master_seed: stream s (0 graph, 1 victim, 2 noise, 3 identity-scan order)
is ``Generator(PCG64(master_seed).jumped(4k + s))``, so results do not
depend on execution order or on how trials are spread over worker
processes. A block of trials seeds its generators from one seed sequence:
one per stream, and for each further slot of a batch of trials its own
graph and noise generators, so no trial's streams are repositioned while
it runs (``TrialStreams``). ``trial_seeds`` positions a slot's generators
by one of two rules. From trial k to trial k + 1 each stream moves four
jumps, an affine map of the 128-bit PCG64 state whose constants are
integers computed at import: one multiply-add on the previous call's
state, assigned through the one state dict each stream keeps. Any other
trial is reached by one advance from the master state, the far rule; a
block takes its trials in order, so the far rule serves only the first
trial it reads. Stream 3 is read only by the identity scan (strategy
"uid_scan"), which asks its users in a random order; the threshold
attack's fallback goes by score, so its campaigns never position that
stream.

A trial is one pass: ``trial_seeds``, ``sample_victim``, then the attack's
block scan (``attacker._block_scan``) over the blocks that
``oracle._BlockReader`` reads from the trial's graph and noise streams, in
batches of trials as the ``oracle`` module describes. No graph pair, victim
instance, attacker state or transcript is built. Every result of a trial is
an entry of a per-trial array; one concatenation merges the arrays of the
blocks in trial order, and aggregation is a single pass over them, which
keeps repeated runs byte-identical.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import math
import os
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from . import bounds as bounds_mod
from .bounds import _finite_or_none
from .attacker import _block_scan, _first_steps, _tiled_limits, auto_epsilon_steps
from .graph import _batch_trials, _block_width
from .oracle import _BlockReader, _density_table, identity_answer
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

# Not called here: the benchmark's tracer patches these two names on this module.
from .attacker import run_its  # noqa: F401
from .graph import generate_cprb  # noqa: F401

STRATEGIES = ("its", "uid_scan")
OUTPUT_FORMATS = ("csv", "json")
# The types an output path may have, for both the config check and open_output.
_PATH_TYPES = (str, os.PathLike)


class ConfigError(ValueError):
    """Invalid experiment configuration; ``field`` names the offending entry."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field = field_name
        self.message = message

    def __reduce__(self):
        # Rebuilt from both arguments, so an error raised in a pool worker reaches the caller.
        return type(self), (self.field, self.message)


def _check_number(name: str, value, rule: str, inside, kinds=(int, float)) -> None:
    """Refuse ``value`` unless it is of one of ``kinds`` (no bool) and ``inside`` holds for it.

    A value of another type is refused naming its type, so a numpy scalar
    or array reads as such.
    """
    if isinstance(value, bool) or not isinstance(value, kinds):
        names = " or a ".join(kind.__name__ for kind in kinds)
        raise ConfigError(name, f"must be {rule}, as an {names}, not {type(value).__name__}")
    if not inside(value):
        raise ConfigError(name, f"must be {rule}")


def _is_auto(value) -> bool:
    """Whether an ``epsilon`` or ``steps`` value is the string "auto"; no array is compared."""
    return isinstance(value, str) and value == "auto"


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
    workers: int = 1
    out: str | os.PathLike | None = None
    format: str = "csv"

    def validate(self) -> VictimPrior:
        """Check every field, and return the victim prior that checking ``prior`` builds."""
        for name in ("users", "groups", "trials", "workers"):
            _check_number(name, getattr(self, name), "a positive integer", lambda v: v >= 1, (int,))
        rule = "a nonnegative integer"
        _check_number("master_seed", self.master_seed, rule, lambda v: v >= 0, (int,))
        _check_number("p0", self.p0, "a number strictly inside (0, 1)", lambda v: 0.0 < v < 1.0)
        for name in ("edge_flip", "gm_flip"):
            rule = "a number in [0, 1]"
            _check_number(name, getattr(self, name), rule, lambda v: 0.0 <= v <= 1.0)
        if isinstance(self.prior, str):
            if self.prior != "uniform" and not self.prior.startswith("zipf:"):
                raise ConfigError("prior", "must be 'uniform', 'zipf:S', or a vector")
        if not _is_auto(self.epsilon):
            rule = "'auto' or a number in (0, 1)"
            _check_number("epsilon", self.epsilon, rule, lambda v: 0.0 < v < 1.0)
        if not _is_auto(self.steps):
            rule = "'auto' or an integer >= 1"
            _check_number("steps", self.steps, rule, lambda v: v >= 1, (int,))
        if self.strategy not in STRATEGIES:
            raise ConfigError("strategy", f"must be one of {STRATEGIES}")
        if self.format not in OUTPUT_FORMATS:
            raise ConfigError("format", f"must be one of {OUTPUT_FORMATS}")
        if self.out is not None and not isinstance(self.out, _PATH_TYPES):
            raise ConfigError("out", "must be a file path")
        try:
            if self.users > np.iinfo(np.intp).max // 8:
                raise MemoryError  # numpy refuses so long a float64 vector with ValueError
            return make_prior(self.prior, self.users)
        except (TypeError, ValueError) as exc:
            raise ConfigError("prior", str(exc)) from exc
        except MemoryError:
            raise ConfigError("users", "too many users: the prior does not fit in memory") from None

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
    """Config turned into concrete model objects plus the resolved attack it runs."""

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
    """Check ``config`` and build its model, with the prior that checking builds."""
    prior = config.validate()
    edge_joint = EdgeJointDistribution.from_marginal_flip(config.p0, config.edge_flip)
    gm = QueryChannel.bsc(config.gm_flip)
    joint = build_joint_uyz(edge_joint, gm)
    measures = InfoMeasures.from_joint(joint)
    if config.epsilon == "auto" or config.steps == "auto":
        auto_eps, auto_steps = auto_epsilon_steps(config.users)
    eps = auto_eps if config.epsilon == "auto" else float(config.epsilon)
    steps = auto_steps if config.steps == "auto" else int(config.steps)
    if config.strategy == "uid_scan":  # the attack with no threshold step
        steps = 1
    return _ResolvedModel(edge_joint, gm, prior, measures, eps, steps)


# One PCG64 step maps the 128-bit state s to (_PCG_MUL*s + inc) mod 2**128.
_PCG_MUL = 0x2360ED051FC65DA44385DF649FCCF645
# PCG64.jumped(j) advances the state by j times this step, mod 2**128.
_JUMP = 0x9E3779B97F4A7C15F39CC0605CEDC835
# Substreams per trial: graph, victim, noise, identity-scan order.
_STREAMS = 4
# The substreams each batch slot reads with its own generator: graph and noise.
_OWN = (0, 2)
_MASK = (1 << 128) - 1


def _advance_map(d: int) -> tuple[int, int]:
    """(a, c) such that advancing a PCG64 state d steps maps s to (a*s + inc*c) mod 2**128.

    With M = _PCG_MUL, a = M**d and c = (M**d - 1)/(M - 1), the sum
    1 + M + ... + M**(d-1). Taking the power mod (M - 1)*2**128 keeps that
    quotient exact mod 2**128.
    """
    inc = (pow(_PCG_MUL, d, (_PCG_MUL - 1) << 128) - 1) // (_PCG_MUL - 1)
    return pow(_PCG_MUL, d, 1 << 128), inc


# Moving a stream from trial k to trial k + 1 advances it _STREAMS jumps.
_TRIAL_MUL, _TRIAL_INC = _advance_map(_STREAMS * _JUMP & _MASK)


@cache
def _unseeded():
    """A seed sequence of all-zero state, for a generator whose state is assigned before any read.

    It hashes nothing, where a ``SeedSequence`` hashes its seed for each
    generator built on it (about 5 of the 6 us a generator takes). Made on
    first use: its base class loads ``numpy.random``, which importing this
    package does not.
    """
    from numpy.random.bit_generator import ISeedSequence

    class Unseeded(ISeedSequence):
        def generate_state(self, n_words, dtype=np.uint32):
            return np.zeros(n_words, dtype=dtype)

    return Unseeded()


class TrialStreams:
    """Reusable generators for the first ``count`` substreams of each trial of a campaign.

    ``generators[u]`` holds the generators of batch slot u. Slot 0 has one
    per stream; every other slot has its own graph and noise generators and
    shares slot 0's victim and order generators, which a batch reads only
    as it draws its block 0 or, in a batch of one, as the trial runs. Only
    slot 0's graph generator hashes the master seed, which gives the master
    state; every other generator is built unseeded (``_unseeded``), as
    ``trial_seeds`` assigns each generator's state before it is read. Each
    stream keeps one PCG64 state dict, which ``trial_seeds`` updates and
    assigns to the slot's generator, so a trial builds no dict.
    """

    __slots__ = ("generators", "master_state", "_add", "_states", "_next")

    def __init__(self, master_seed: int, count: int = _STREAMS, slots: int = 1):
        if not 1 <= count <= _STREAMS:
            raise ValueError(f"count must lie in [1, {_STREAMS}]")
        Generator, PCG64 = np.random.Generator, np.random.PCG64
        master = Generator(PCG64(np.random.SeedSequence(master_seed)))
        first = (master,) + tuple(Generator(PCG64(_unseeded())) for _ in range(count - 1))
        self.generators = (first,) + tuple(
            tuple(Generator(PCG64(_unseeded())) if s in _OWN else shared
                  for s, shared in enumerate(first))
            for _ in range(slots - 1)
        )
        self.master_state = master.bit_generator.state
        inc = self.master_state["state"]["inc"]
        self._add = inc * _TRIAL_INC & _MASK
        self._states = tuple(
            {
                "bit_generator": "PCG64",
                "state": {"state": 0, "inc": inc},
                "has_uint32": 0,
                "uinteger": 0,
            }
            for _ in range(count)
        )
        self._next = None  # the trial index one step of the map reaches


def trial_seeds(streams: TrialStreams, trial_index: int, slot: int = 0) -> tuple:
    """The (graph, victim, noise[, order]) generators of one trial, in batch slot ``slot``.

    Stream s of trial k is ``Generator(PCG64(master_seed).jumped(4k + s))``.
    The slot's generators are repositioned in place and returned: one step
    of the map when k follows the previous call's trial, whichever slot it
    took, the far rule otherwise (module docstring). They hold trial k's
    streams until the next call on the slot, and the shared victim and
    order generators only until the next call on ``streams``. A negative
    k, which is no trial, is refused with ``ValueError``.
    """
    generators = streams.generators[slot]
    if trial_index == streams._next:
        add = streams._add
        for gen, state in zip(generators, streams._states):
            inner = state["state"]
            inner["state"] = (_TRIAL_MUL * inner["state"] + add) & _MASK
            gen.bit_generator.state = state
    elif trial_index < 0:
        raise ValueError(f"trial index must be nonnegative, got {trial_index}")
    else:
        for s, (gen, state) in enumerate(zip(generators, streams._states)):
            gen.bit_generator.state = streams.master_state
            gen.bit_generator.advance((_STREAMS * trial_index + s) * _JUMP & _MASK)
            state["state"]["state"] = gen.bit_generator.state["state"]["state"]
    streams._next = trial_index + 1
    return generators


def _trial_block(config: ExperimentConfig, start: int, count: int, model: _ResolvedModel):
    """Run trials [start, start + count) and return their results.

    ``model`` is ``resolve_model(config)``. Everything a trial reads that
    depends only on the campaign is looked up once, here; the trials run in
    batches through one block reader (``oracle`` module docstring). Returns
    four arrays of ``count`` entries, one per trial: the query count, the
    success, the verifications and the failed verifications.
    """
    n, m, steps, prior = config.groups, config.users, model.steps, model.prior
    try:
        qs = np.empty(count, dtype=np.int64)
        successes = np.empty(count, dtype=bool)
        # A trial verifies at most once per step after the first, and once per user.
        verified, failed = np.empty((2, count), dtype=np.min_scalar_type(min(steps - 1, m)))
    except (MemoryError, ValueError):  # ValueError: more entries than numpy can index
        raise ConfigError("trials", "too many trials: the results do not fit in memory") from None
    width, cuts = _block_width(m), model.edge_joint.generation_cuts
    density, p_one = _density_table(model.measures.density, m), model.gm.p_one_by_bit
    surprisal = prior.surprisal
    # With no threshold step a scan reads no block, and the identity scan
    # reads its order stream as it runs: such trials run one at a time.
    size = _batch_trials(m) if steps > 1 else 1
    # Only the identity scan reads stream 3: its order_seed draws a random order.
    streams = TrialStreams(
        config.master_seed, _STREAMS if config.strategy == "uid_scan" else _STREAMS - 1, size
    )
    reader = _BlockReader(n, m, width, cuts, p_one, density, size)
    limits = _tiled_limits(prior, model.epsilon, reader.rows)
    victims, order, summed = [0] * size, None, None
    for i, trial in enumerate(range(start, start + count)):
        t = i % size
        if size == 1:
            graph_rng, victim_rng, noise_rng, *order_rng = trial_seeds(streams, trial)
            order = order_rng[0] if order_rng else None
            victim = sample_victim(prior, victim_rng)
            blocks = reader.blocks(graph_rng, noise_rng, victim)
        else:
            if t == 0:  # the batch of this trial and the next size - 1
                batch = range(trial, min(trial + size, start + count))
                for u, k in enumerate(batch):
                    graph_rng, victim_rng, noise_rng = trial_seeds(streams, k, u)
                    victims[u] = sample_victim(prior, victim_rng)
                    reader.draw(u, graph_rng, noise_rng, victims[u])
                index, ys = reader.answer(len(batch))
                firsts = _first_steps(reader.sums[: len(batch)], limits, surprisal)
            # Blocks 1 on come from the slot's generators, where its block 0 left them.
            graph_rng, _, noise_rng = streams.generators[t]
            victim, summed = victims[t], firsts[t]
            blocks = reader.blocks(graph_rng, noise_rng, victim, t, (index[t], ys[t]))
        gm_answers, uid_queries, taus = _block_scan(
            blocks, n, width, density, limits, surprisal, steps,
            partial(identity_answer, victim), order, victim - 1, summed,
        )
        qs[i] = len(gm_answers) + len(uid_queries)
        successes[i] = uid_queries[-1][1] == 1
        # Step s + 1's verification is identity query s, and the scan stops at
        # the first answer 1: every verification failed unless no query followed.
        verified[i] = len(taus)
        failed[i] = len(taus) - (len(uid_queries) == len(taus))
    return qs, successes, verified, failed


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
        return repr(float(value))  # a numpy float's own repr names its type
    return str(value)


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the OS has one, else the host's."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _campaign_model(config: ExperimentConfig) -> _ResolvedModel:
    """``resolve_model(config)``, refusing the threshold attack where no score moves."""
    model = resolve_model(config)
    if config.strategy == "its" and model.measures.mutual_info <= 0.0:
        raise ConfigError("strategy", "its needs a model with positive mutual information")
    return model


def run_experiment(config: ExperimentConfig) -> ExperimentSummary:
    """Run one campaign and aggregate it into a summary.

    Trial k is fully determined by (master_seed, k); the worker count only
    changes scheduling, never the numbers. The model is built once, here,
    and every block of trials runs on it. A one-worker campaign (the
    default) runs in this process and imports no process pool; the pool is
    imported on the first multi-worker campaign. The threshold attack is
    refused on a model with zero mutual information, where no score moves.
    """
    return _run_campaign(config, _campaign_model(config))


def _run_campaign(config: ExperimentConfig, model: _ResolvedModel) -> ExperimentSummary:
    """The campaign of ``config`` on ``model``, which ``_campaign_model(config)`` built."""
    trials = config.trials
    # More processes than trials or usable CPUs would only add start-up cost.
    workers = min(config.workers, trials)
    if workers > 1:
        workers = min(workers, _usable_cpus())
    chunk = trials if workers == 1 else max(1, math.ceil(trials / (workers * 4)))
    starts = range(0, trials, chunk)
    args = (
        [config] * len(starts), starts, [min(chunk, trials - s) for s in starts],
        [model] * len(starts),
    )
    if workers == 1:
        blocks = list(map(_trial_block, *args))
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            blocks = list(pool.map(_trial_block, *args))
    qs, successes, verified, failed = (np.concatenate(parts) for parts in zip(*blocks))
    del blocks  # so the blocks are not alive beside the per-trial temporaries below

    # The statistics equal numpy's mean, std(ddof=1) and unique, from fewer
    # calls: the integer sum is exact, the squared deviations go through the
    # pairwise add.reduce that np.std uses, and the histogram counts each
    # query count from the smallest up instead of sorting.
    mean_q = int(np.add.reduce(qs)) / trials
    deviations = qs - mean_q
    deviations *= deviations
    std_q = math.sqrt(float(np.add.reduce(deviations)) / (trials - 1)) if trials > 1 else 0.0
    half = 1.959963984540054 * std_q / math.sqrt(trials)
    # A trial verifies at most one candidate per user, so min(steps - 1,
    # users) steps can verify. Step s + 1 verified in the trials with more
    # than s verifications, and failed in those with more than s failed ones:
    # suffix sums of the counts per number. A step no trial verified has no rate.
    reach = min(model.steps - 1, config.users)
    tried, fails = (
        np.cumsum(np.bincount(per_trial, minlength=reach + 1)[:0:-1])[::-1].tolist()
        for per_trial in (verified, failed)
    )
    rates = [f / t if t else None for f, t in zip(fails, tried)]
    low = int(np.minimum.reduce(qs))
    counts = np.bincount(qs - low)
    values = counts.nonzero()[0]
    histogram = [
        [value, count] for value, count in zip((values + low).tolist(), counts[values].tolist())
    ]
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
        success_rate=int(np.count_nonzero(successes)) / trials,
        per_step_failure_rates=rates,
        q_histogram=histogram,
        bound_report=report,
    )


SWEEP_AXES = ("m", "noise", "zipf")


def _user_count(point) -> int:
    """An "m" sweep point as an int; a non-integral number is refused, not truncated.

    A string is read as the number it spells, so "16.0" and "1e3" are counts
    as 16.0 and 1e3 are.
    """
    if isinstance(point, str):
        try:
            return int(point)
        except ValueError:
            point = float(point)
    count = int(point)
    if count != point:
        raise ValueError("a user count must be integral")
    return count


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
    the model differences themselves). The base is checked first, so a
    malformed field is refused even where every point overrides it; then
    every point is, so a bad point is refused before any campaign runs.
    ``points`` may be any iterable; it is read once.
    """
    base.validate()
    if axis not in SWEEP_AXES:
        raise ConfigError("axis", f"must be one of {SWEEP_AXES}")
    points = list(points)
    if not points:
        raise ConfigError("points", "need at least one sweep point")
    configs = []
    for index, point in enumerate(points):
        if isinstance(point, (bool, np.bool_)):
            raise ConfigError("points", f"{point!r} is a bool, not a {axis} value")
        try:
            if axis == "m":
                override = {"users": _user_count(point)}
            elif axis == "noise":
                override = {"gm_flip": float(point)}
            else:
                override = {"prior": f"zipf:{float(point)}"}
        except (TypeError, ValueError, OverflowError):
            raise ConfigError("points", f"{point!r} is not a valid {axis} value") from None
        seed = base.master_seed if common_random_numbers else base.master_seed + index
        configs.append(dataclasses.replace(base, master_seed=seed, **override))
    # Every point is checked before the first campaign runs.
    models = [_campaign_model(config) for config in configs]
    return list(map(_run_campaign, configs, models))


def open_output(path: str | None):
    """A context manager giving the output stream: the file at ``path``, or standard output when None.

    The path is checked now, as writing it would be: one that is not a
    ``str`` or ``os.PathLike``, or cannot be written, raises a
    ``ConfigError`` naming ``out``. The file itself is written only when the
    block completes, from what the block wrote, so a run that fails leaves
    an existing file as it was and creates none.
    """
    if path is None:
        return nullcontext(sys.stdout)
    if not isinstance(path, _PATH_TYPES):
        raise ConfigError("out", "must be a file path")
    existed = os.path.lexists(path)
    try:
        # Append mode checks the path as writing does and truncates nothing.
        open(path, "a").close()
    except OSError as exc:
        raise ConfigError("out", f"cannot write the file: {exc}") from None
    if not existed:
        os.remove(path)
    return _written_on_success(path)


@contextmanager
def _written_on_success(path: str):
    buffer = io.StringIO()
    yield buffer
    with open(path, "w", newline="") as handle:
        handle.write(buffer.getvalue())


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
