"""Campaign-throughput benchmark for deanonlab.

Run from the repository root, once per workload:

    for w in sandwich noisy_small; do
        python3 benchmarks/run.py --workload $w --seed 1 --seconds 55 --trace 0
    done

One client, this process, runs seeded ``run_experiment`` campaigns one at a
time (a closed loop). A run's inputs are the workload's campaign set:
``campaigns`` campaigns of ``trials`` trials, campaign c with master seed
``seed * 1_000_000 + c``, so a seed fixes every input. The set runs once,
then its first ``timed`` campaigns run again in passes until ``--seconds``
seconds are over. Every campaign is checked for correctness, the pooled
query cost of the set is checked against the certified bound, and a
repeated campaign must return the same summary; a failed check makes the
run exit with code 1. Because passes replay the same seeds, a cache kept
across campaigns would be measured as a gain; ``graph.generate_calls`` of
the traced run shows it. Campaign times are taken relative to a fixed
reference kernel run next to them, which keeps ``trials_per_s`` steady on a
machine shared with other tenants (see ``measure_end_to_end``).

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs the set
once plain and once with the per-layer tracer of ``layers.py`` installed,
campaign by campaign, and reports per-layer metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A fuller record with
provenance goes to ``.bench_results/BENCH_<workload>[_trace].json``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = ROOT / ".bench_results"

sys.path.insert(0, str(BENCH_DIR))
from layers import Tracer  # noqa: E402

SEED_STRIDE = 1_000_000
# What reference_seconds() and import_seconds() take on an idle core of a
# 2-vCPU Intel Xeon VM; trials_per_s and setup_s are given at that speed.
REF_SECONDS = 0.0095
IMPORT_REF_SECONDS = 0.135
SETUP_PROBES = 11
INVARIANCE_TRIALS = 48
INVARIANCE_WORKERS = 2

SANDWICH = dict(
    users=256, groups=8192, p0=0.5, edge_flip=0.05, gm_flip=0.05,
    prior="uniform", epsilon=0.1, steps=4,
)


@dataclass(frozen=True)
class Workload:
    """One campaign shape and the size of a run's campaign set.

    A campaign of ``trials`` trials takes a fraction of a second. The set's
    ``campaigns * trials`` trials are enough for their pooled mean query
    count to sit well below the certified upper bound it is checked
    against, and to vary little from seed to seed. They define ``mean_Q``
    and the traced work, so both are fixed by the seed. The first ``timed``
    campaigns are repeated for ``trials_per_s``: few enough that each runs
    some twenty times in a run, many enough that the work they hold varies
    little from seed to seed. ``acceptance_checks`` adds the acceptance
    gate's converse floor and worker-count invariance.
    """

    config: dict
    trials: int
    campaigns: int
    timed: int
    acceptance_checks: bool = False


WORKLOADS = {
    # The acceptance "sandwich" config: graph column materialization
    # dominates the wall time, the attack loop is about a tenth.
    "sandwich": Workload(SANDWICH, trials=25, campaigns=48, timed=8, acceptance_checks=True),
    # Low mutual information and a skewed prior: many cheap queries, so the
    # attacker and oracle layers dominate and graph generation is small.
    "noisy_small": Workload(
        dict(SANDWICH, users=16, groups=65536, edge_flip=0.15, gm_flip=0.25,
             prior="zipf:1.0"),
        trials=100, campaigns=10, timed=10,
    ),
}

END_TO_END = {
    "trials_per_s": "trials/s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "mean_Q": "queries",
}

_GRAPH_LAYERS = ("graph.generate", "graph.column", "graph.bit")
_TIMED_LAYERS = _GRAPH_LAYERS + ("oracle.gm", "oracle.uid")
_SELF_TIMES = {
    "attacker.self_s": "attacker.run",
    "attacker.update_s": "attacker.update",
    "attacker.threshold_s": "attacker.threshold",
    "attacker.select_s": "attacker.select",
    "stochastics.model_s": "stochastics.model",
    "stochastics.sample_victim_s": "stochastics.sample_victim",
    "bounds.report_s": "bounds.report",
    "harness.self_s": "harness.run",
    "harness.trial_seeds_s": "harness.trial_seeds",
}
_ATTACK_UNITS = {
    "steps_mean": "steps",
    "gm_per_step": "queries",
    "verify_fail_rate": "fraction",
    "fallback_q_mean": "queries",
    "overshoot_mean": "bits",
    "overshoot_max": "bits",
}

PER_LAYER = {}
for _layer in _TIMED_LAYERS:
    PER_LAYER[f"{_layer}_calls"] = "count"
    PER_LAYER[f"{_layer}_s"] = "s"
PER_LAYER.update({name: "s" for name in _SELF_TIMES})
PER_LAYER.update({f"attacker.{k}": unit for k, unit in _ATTACK_UNITS.items()})
PER_LAYER.update({
    "graph.wall_frac": "fraction",
    "trace.wall_s": "s",
    "trace.overhead_frac": "fraction",
    "trace.coverage": "fraction",
})


def import_deanonlab():
    """Import the package from this checkout's ``src``; exit 2 if absent."""
    if not (SRC / "deanonlab" / "__init__.py").is_file():
        print(f"benchmark: no deanonlab package under {SRC}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import deanonlab

    if Path(deanonlab.__file__).resolve().parent != SRC / "deanonlab":
        print(f"benchmark: imported deanonlab from {deanonlab.__file__}", file=sys.stderr)
        raise SystemExit(2)
    return deanonlab


def campaign_config(dl, workload: Workload, seed: int, index: int, **overrides):
    return dl.ExperimentConfig(
        **dict(workload.config, **overrides),
        trials=workload.trials,
        master_seed=seed * SEED_STRIDE + index,
    )


def prepare(dl, workload: Workload, seed: int):
    """What a user does before the first campaign: validate, resolve, bound.

    The bound report is built as the CLI's ``bounds`` command builds it.
    """
    config = campaign_config(dl, workload, seed, 0)
    config.validate()
    model = dl.harness.resolve_model(config)
    return dl.build_report(
        n=config.groups,
        m=config.users,
        entropy_bits=dl.entropy(model.prior),
        mutual_info_bits=model.measures.mutual_info,
        i_max_bits=model.measures.i_max,
        epsilon=model.epsilon,
        steps=model.steps,
    )


def setup_probe(workload_name: str, seed: int) -> float:
    """Wall seconds from spawning a fresh interpreter to its end of set-up."""
    start = perf_counter()
    with subprocess.Popen(
        [sys.executable, __file__, "--workload", workload_name,
         "--seed", str(seed), "--seconds", "0", "--setup-only"],
        stdout=subprocess.PIPE, text=True,
    ) as probe:
        line = probe.stdout.readline()
        elapsed = perf_counter() - start
        probe.stdout.read()
    if probe.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with code {probe.returncode}")
    return elapsed


def import_seconds() -> float:
    """Wall seconds of a fresh interpreter that imports numpy and exits."""
    start = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return perf_counter() - start


def setup_sample(workload_name: str, seed: int) -> tuple[float, float]:
    """A set-up probe's seconds, and their ratio to two bracketing import probes."""
    before = import_seconds()
    elapsed = setup_probe(workload_name, seed)
    return elapsed, 2 * elapsed / (before + import_seconds())


def failed_trials(config, summary) -> int:
    """Trials that were unsuccessful or used more than n + m queries."""
    unsuccessful = round((1.0 - summary.success_rate) * summary.trials)
    limit = config.groups + config.users
    over = sum(count for q, count in summary.q_histogram if q > limit)
    return min(summary.trials, unsuccessful + over)


def check_campaign(config, summary) -> list[str]:
    """Every correctness problem of one campaign's summary, empty if none."""
    problems = []
    limit = config.groups + config.users
    if summary.trials != config.trials or sum(c for _, c in summary.q_histogram) != config.trials:
        problems.append(f"summary covers {summary.trials} trials, expected {config.trials}")
    if summary.success_rate != 1.0:
        problems.append(f"success_rate {summary.success_rate} != 1")
    if summary.q_histogram and summary.q_histogram[-1][0] > limit:
        problems.append(f"a trial used {summary.q_histogram[-1][0]} > n + m = {limit} queries")
    return problems


def check_query_cost(workload: Workload, summaries) -> list[str]:
    """The set's pooled mean query count against the bound report.

    A campaign is too short for its own mean to be held to the bound: a
    few unlucky trials would fail it by chance. The whole set is not.
    """
    mean_q = pooled_mean_q(summaries)
    report = summaries[0].bound_report
    problems = []
    if not mean_q <= report.upper_finite:
        problems.append(f"mean_Q {mean_q} above certified bound {report.upper_finite}")
    if workload.acceptance_checks and not mean_q >= 0.9 * report.lower_converse:
        problems.append(f"mean_Q {mean_q} below 0.9 * H/I = {0.9 * report.lower_converse}")
    return problems


def pooled_mean_q(summaries) -> float:
    return sum(s.mean_q * s.trials for s in summaries) / sum(s.trials for s in summaries)


def csv_line(summary) -> bytes:
    out = io.StringIO()
    csv.writer(out).writerow(summary.csv_row())
    return out.getvalue().encode()


@dataclass
class Campaign:
    master_seed: int
    trials: int
    wall_s: float
    failed: int
    mean_q: float | None
    queries: int  # sum of per-trial query counts
    problems: list


def run_campaign(dl, config, call=None) -> tuple[Campaign, object]:
    """One timed campaign plus its checks; a raise fails all its trials."""
    call = call or dl.run_experiment
    start = perf_counter()
    try:
        summary = call(config)
    except Exception:  # the campaign boundary: record and report, keep the result line
        wall = perf_counter() - start
        traceback.print_exc()
        return Campaign(config.master_seed, config.trials, wall, config.trials, None, 0,
                        ["campaign raised"]), None
    wall = perf_counter() - start
    campaign = Campaign(
        master_seed=config.master_seed,
        trials=config.trials,
        wall_s=wall,
        failed=failed_trials(config, summary),
        mean_q=summary.mean_q,
        queries=sum(q * c for q, c in summary.q_histogram),
        problems=check_campaign(config, summary),
    )
    return campaign, summary


def reference_seconds() -> float:
    """Wall seconds of a fixed piece of work shaped like a campaign's.

    Seeded generators built per row, short uniform draws, threshold
    compares and bit packing, then an interpreted loop: what the graph and
    attack layers spend their time on, so that a busy machine slows it
    about as much as it slows a campaign.
    """
    start = perf_counter()
    rows = np.empty((64, 128), dtype=bool)
    for block in range(4):
        for i in range(64):
            seq = np.random.SeedSequence(entropy=block, spawn_key=(i,))
            u = np.random.default_rng(seq).random(256)
            rows[i] = u[1::2] < np.where(u[0::2] < 0.5, 0.95, 0.05)
        np.packbits(rows, axis=1)
        total = 0
        for k in range(20_000):
            total += k % 7
    return perf_counter() - start


def measure_end_to_end(dl, name: str, workload: Workload, seed: int, seconds: float) -> dict:
    """The campaign set once, then passes over its timed campaigns.

    On a shared machine other tenants slow each processor to as little as
    half speed, for a fraction of a second to minutes at a time, so neither the
    fastest nor the median campaign time is steady from run to run. Each
    timed campaign is therefore bracketed by two runs of
    ``reference_seconds()`` on the same processor, and its time is taken in
    units of their mean. That ratio moves by a few percent between quiet and
    busy spells where the campaign time moves by half. Throughput is the
    timed trials over REF_SECONDS times the sum of the timed campaigns'
    median ratios. The unscaled rate of the fastest runs is kept in the
    record. A campaign runs on another processor in each pass.

    Set-up is mostly interpreter start and imports, which the kernel does
    not follow; a fresh interpreter that only imports numpy does. So each
    set-up probe is bracketed by two of those and ``setup_s`` is
    IMPORT_REF_SECONDS times the median ratio. The probes are spread over
    the run.
    """
    configs = [campaign_config(dl, workload, seed, c) for c in range(workload.campaigns)]
    fastest = [math.inf] * workload.timed
    ratios = [[] for _ in range(workload.timed)]
    setup, campaigns, summaries, rows = [], [], [], []
    cpus = sorted(os.sched_getaffinity(0))
    start = perf_counter()
    index = 0
    while index < len(configs) or perf_counter() - start < seconds:
        if index < len(configs):
            which, repeat = index, 0
        else:
            repeat, which = divmod(index - len(configs), workload.timed)
            repeat += 1
        os.sched_setaffinity(0, {cpus[(which + repeat) % len(cpus)]})
        due = max(1, math.ceil(SETUP_PROBES * (perf_counter() - start) / seconds)) if seconds else 1
        while len(setup) < min(due, SETUP_PROBES):
            setup.append(setup_sample(name, seed))
        timed = which < workload.timed
        before = reference_seconds() if timed else 0.0
        campaign, summary = run_campaign(dl, configs[which])
        campaigns.append(campaign)
        index += 1
        if summary is None:
            break
        if timed:
            ratios[which].append(2 * campaign.wall_s / (before + reference_seconds()))
            fastest[which] = min(fastest[which], campaign.wall_s)
        if repeat == 0:
            summaries.append(summary)
            rows.append(csv_line(summary))
        elif csv_line(summary) != rows[which]:
            campaign.problems.append("a repeated campaign returned another summary")
    os.sched_setaffinity(0, cpus)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_sample(name, seed))
    complete = len(summaries) == len(configs)
    timed_trials = workload.timed * workload.trials
    problems = [f"campaign {c.master_seed}: {p}" for c in campaigns for p in c.problems]
    if complete:
        problems += check_query_cost(workload, summaries)
    if workload.acceptance_checks:
        problems += check_worker_invariance(dl, workload, seed)
    metrics = {
        "trials_per_s": timed_trials / (REF_SECONDS * sum(map(statistics.median, ratios)))
        if complete else math.nan,
        "setup_s": IMPORT_REF_SECONDS * statistics.median(r for _, r in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "mean_Q": pooled_mean_q(summaries) if complete else math.nan,
    }
    return {
        "metrics": metrics,
        "campaigns": campaigns,
        "problems": problems,
        "samples": {
            "campaign_ref_ratios": ratios,
            "unscaled_fastest_trials_per_s": timed_trials / sum(fastest),
            "campaign_trials_per_s": [c.trials / c.wall_s for c in campaigns],
            "setup_s": [s for s, _ in setup],
            "setup_import_ratios": [r for _, r in setup],
        },
    }


def check_worker_invariance(dl, workload: Workload, seed: int) -> list[str]:
    """A shortened, untimed campaign must give the same CSV row on a process pool."""
    rows = {}
    for workers in (INVARIANCE_WORKERS, 1):
        config = dataclasses.replace(
            campaign_config(dl, workload, seed, 0, workers=workers),
            trials=INVARIANCE_TRIALS,
        )
        rows[workers] = csv_line(dl.run_experiment(config))
    if len(set(rows.values())) != 1:
        return [f"CSV rows differ across worker counts: {rows}"]
    return []


def measure_layers(dl, workload: Workload, seed: int) -> dict:
    tracer = Tracer()
    traced_run = tracer.timed("harness.run", dl.run_experiment)
    campaigns, summaries = [], []
    plain_wall = traced_wall = 0.0
    histogram_queries = 0
    report = None
    for index in range(workload.campaigns):
        config = campaign_config(dl, workload, seed, index)
        plain, plain_summary = run_campaign(dl, config)
        with tracer.installed(dl):
            traced, traced_summary = run_campaign(dl, config, call=traced_run)
        campaigns += [plain, traced]
        if plain_summary is None or traced_summary is None:
            break
        if csv_line(plain_summary) != csv_line(traced_summary):
            traced.problems.append("traced campaign output differs from the plain one")
        summaries.append(plain_summary)
        report = traced_summary.bound_report
        plain_wall += plain.wall_s
        traced_wall += traced.wall_s
        histogram_queries += traced.queries
    problems = [f"campaign {c.master_seed}: {p}" for c in campaigns for p in c.problems]
    if len(summaries) == workload.campaigns:
        problems += check_query_cost(workload, summaries)

    metrics = {}
    for layer in _TIMED_LAYERS:
        metrics[f"{layer}_calls"] = tracer.calls[layer]
        metrics[f"{layer}_s"] = tracer.self_s[layer]
    for name, layer in _SELF_TIMES.items():
        metrics[name] = tracer.self_s[layer]
    counts = tracer.attack_counts()
    for key in _ATTACK_UNITS:
        metrics[f"attacker.{key}"] = counts[key]
    oracle_calls = tracer.calls["oracle.gm"] + tracer.calls["oracle.uid"]
    graph_s = sum(tracer.self_s[layer] for layer in _GRAPH_LAYERS)
    metrics.update({
        "graph.wall_frac": graph_s / traced_wall if traced_wall else math.nan,
        "trace.wall_s": traced_wall,
        "trace.overhead_frac": traced_wall / plain_wall - 1.0 if plain_wall else math.nan,
        "trace.coverage": oracle_calls / histogram_queries if histogram_queries else math.nan,
    })
    return {
        "metrics": metrics,
        "campaigns": campaigns,
        "problems": problems,
        "attack_counts": counts,
        "closed_forms": closed_forms(report) if report else {},
        "complete": metrics["trace.coverage"] == 1.0,
    }


def closed_forms(report) -> dict:
    """The bound term each attack counter is compared with."""
    p = report.params_used
    return {
        "gm_per_step": ("(H + log2(1/eps))/I",
                        (p["entropy_bits"] + math.log2(1.0 / p["epsilon"])) / p["mutual_info_bits"]),
        "verify_fail_rate": ("eps", p["epsilon"]),
        "fallback_q_mean": ("(m/2)*eps^(l-1)", p["m"] / 2 * p["epsilon"] ** (p["l"] - 1)),
        "overshoot_max": ("i_max", p["i_max_bits"]),
    }


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() or None


def provenance(args, workload: Workload) -> dict:
    import numpy

    return {
        "commit": git_commit(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "trials_per_campaign": workload.trials,
        "campaigns_per_set": workload.campaigns,
        "timed_campaigns": workload.timed,
        "ref_seconds": REF_SECONDS,
        "import_ref_seconds": IMPORT_REF_SECONDS,
        "config": workload.config,
    }


def strict(value):
    """``value`` with every non-finite float replaced by None (strict JSON)."""
    if isinstance(value, float) and not math.isfinite(value):
        return None
    if isinstance(value, dict):
        return {k: strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [strict(v) for v in value]
    return value


def dumps(value, **kwargs) -> str:
    return json.dumps(strict(value), allow_nan=False, **kwargs)


def print_report(name, args, result, units, prov):
    campaigns = result["campaigns"]
    attempted = sum(c.trials for c in campaigns)
    failed = sum(c.failed for c in campaigns)
    mode = "traced (each campaign of the set runs plain, then traced)" if args.trace else "untraced"
    print(f"workload {name}  seed {args.seed}  {mode}  {len(campaigns)} campaigns x "
          f"{campaigns[0].trials if campaigns else 0} trials  commit {prov['commit']}  "
          f"nproc {prov['nproc']}  python {prov['python']}  numpy {prov['numpy']}")
    for metric, value in result["metrics"].items():
        print(f"  {metric:30s} {value:14.6g} {units[metric]}")
    if not args.trace:
        rates = result["samples"]["campaign_trials_per_s"]
        runs = [len(r) for r in result["samples"]["campaign_ref_ratios"]]
        print(f"  trials_per_s: at the speed where the reference takes {REF_SECONDS} s, "
              f"from each timed campaign's median of {min(runs)}-{max(runs)} runs; unscaled, "
              f"fastest runs {result['samples']['unscaled_fastest_trials_per_s']:.4g}, "
              f"campaign rates median "
              f"{statistics.median(rates):.4g}, min {min(rates):.4g}, max {max(rates):.4g}")
        setup = result["samples"]["setup_s"]
        print(f"  setup_s: at the speed where importing numpy takes {IMPORT_REF_SECONDS} s, "
              f"median of {len(setup)} fresh-process set-ups; unscaled median "
              f"{statistics.median(setup):.4g}, min {min(setup):.4g}, max {max(setup):.4g}")
        print(f"  trial_fail_frac {failed / attempted if attempted else math.nan:.6g} "
              f"fraction ({failed}/{attempted})")
    else:
        metrics = result["metrics"]
        for key, (formula, value) in result["closed_forms"].items():
            print(f"  attacker.{key} = {metrics[f'attacker.{key}']:.6g}  vs  {formula} = {value:.6g}")
        if not result["complete"]:
            print(f"  WARNING: trace.coverage {metrics['trace.coverage']} != 1.0; "
                  "per-layer numbers are incomplete")
    for problem in result["problems"]:
        print(f"  CHECK FAILED: {problem}")
    return attempted, failed


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    dl = import_deanonlab()
    workload = WORKLOADS[args.workload]
    prepare(dl, workload, args.seed)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    if args.trace:
        result, units = measure_layers(dl, workload, args.seed), PER_LAYER
    else:
        result, units = measure_end_to_end(dl, args.workload, workload, args.seed, args.seconds), END_TO_END
    prov = provenance(args, workload)
    attempted, failed = print_report(args.workload, args, result, units, prov)
    correct = not result["problems"] and failed == 0 and attempted > 0

    record = {
        "workload": args.workload,
        "provenance": prov,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "trial_fail_frac": failed / attempted if attempted else math.nan,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in result["metrics"].items()},
        "problems": result["problems"],
        "campaigns": [dataclasses.asdict(c) for c in result["campaigns"]],
    }
    if args.trace:
        record["closed_forms"] = {k: {"formula": f, "value": v}
                                  for k, (f, v) in result["closed_forms"].items()}
        record["attack_counts"] = result["attack_counts"]
        record["complete"] = result["complete"]
    else:
        record["samples"] = result["samples"]
    RESULTS_DIR.mkdir(exist_ok=True)
    suffix = "_trace" if args.trace else ""
    (RESULTS_DIR / f"BENCH_{args.workload}{suffix}.json").write_text(dumps(record, indent=2) + "\n")

    print(dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
