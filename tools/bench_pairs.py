#!/usr/bin/env python3
"""Run the campaign benchmark in two checkouts in alternating pairs, and compare the sides.

Each pair runs

    python3 benchmarks/run.py --workload W --seed S --seconds T --trace 0

once in the BASE checkout and once in the CHANGE checkout. The side that
runs first alternates from pair to pair, so a drift in machine speed falls
on both sides alike. The tool then prints, for each end-to-end metric, each
side's median and quartiles over the pairs, and in how many pairs the change
had the higher ``trials_per_s``, and whether the pairs show a gain in it:
the change higher in at least nine tenths of the pairs, ties counting for
neither side, and its median above the base's by more than the distance
between the base's quartiles. Last, for each end-to-end metric that the
CHANGE checkout's BENCHMARK.json declares, it prints how far the change's
median moved in the metric's worse direction beside the metric's bound, and
whether the base runs spread too widely to tell. Each run's last output line
is echoed to standard error as it finishes. Standard library only.

Each run writes its result file to ``.bench_results/`` inside the checkout
it runs in, so run the pairs on scratch copies of both commits (made with
``git archive`` or ``git clone``), not on a working tree.

Usage: python tools/bench_pairs.py BASE CHANGE --workload W [--seed S] [--seconds T] [--pairs N]
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

# The metric the pairs are won on; higher is better.
WIN_METRIC = "trials_per_s"


def run_once(checkout: str, workload: str, seed: int, seconds: float) -> str:
    """The last line of standard output of one untraced benchmark run in ``checkout``."""
    command = [
        "python3", "benchmarks/run.py", "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", "0",
    ]
    proc = subprocess.run(command, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"bench_pairs: no result from {checkout}: {proc.stderr.strip()}")
    return lines[-1]


def _quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), all three the value itself for one value."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summarize(base_lines: list[str], change_lines: list[str]) -> str:
    """Per metric, each side's median [q1, q3]; then the pairs the change won on ``WIN_METRIC``.

    The lines are the benchmark's last output lines, one per run, paired by
    position. A run whose result is not ``correct`` is counted on a line of
    its own.
    """
    if len(base_lines) != len(change_lines) or not base_lines:
        raise ValueError("need the same positive number of runs on both sides")
    base = [json.loads(line) for line in base_lines]
    change = [json.loads(line) for line in change_lines]
    out = []
    for name, entry in base[0]["metrics"].items():
        cells, medians = [], []
        for side, runs in (("base", base), ("change", change)):
            q1, median, q3 = _quartiles([run["metrics"][name]["value"] for run in runs])
            cells.append(f"{side} {median:.6g} [{q1:.6g}, {q3:.6g}]")
            medians.append(median)
        ratio = f"{medians[1] / medians[0]:.4f}" if medians[0] else "-"
        out.append(f"{name} ({entry['unit']}): {'  '.join(cells)}  change/base {ratio}")
    wins = sum(
        c["metrics"][WIN_METRIC]["value"] > b["metrics"][WIN_METRIC]["value"]
        for b, c in zip(base, change)
    )
    out.append(f"{WIN_METRIC}: the change is higher in {wins} of {len(base)} pairs")
    incorrect = [sum(not run["correct"] for run in runs) for runs in (base, change)]
    if any(incorrect):
        out.append(f"runs not correct: base {incorrect[0]}, change {incorrect[1]}")
    return "\n".join(out)


def gain_verdict(base_lines: list[str], change_lines: list[str]) -> str:
    """Whether the pairs show a gain in ``WIN_METRIC``, and if not, why not.

    A gain is shown when the change is higher in at least nine tenths of
    the pairs, a tie counting for neither side, and the change's median
    exceeds the base's by more than the base's quartile spread (third
    quartile minus first). The lines are paired by position, as for
    :func:`summarize`.
    """
    base = [json.loads(line)["metrics"][WIN_METRIC]["value"] for line in base_lines]
    change = [json.loads(line)["metrics"][WIN_METRIC]["value"] for line in change_lines]
    wins = sum(c > b for b, c in zip(base, change))
    q1, median, q3 = _quartiles(base)
    lead, spread = _quartiles(change)[1] - median, q3 - q1
    faults = []
    if 10 * wins < 9 * len(base):
        faults.append(f"higher in only {wins} of {len(base)} pairs")
    if lead <= spread:
        faults.append(f"the median leads by {lead:.6g}, not more than the base's spread {spread:.6g}")
    return f"{WIN_METRIC} gain: " + ("not shown, " + "; ".join(faults) if faults else "shown")


def check_bounds(base_lines: list[str], change_lines: list[str], benchmark) -> str:
    """Per end-to-end metric of the BENCHMARK.json at ``benchmark``: its worsening and bound.

    The worsening is the change's median minus the base's, in the direction
    the metric's ``better`` names as worse, as a fraction of the base's
    median; a gain reads negative. The bound is the metric's ``bound``, a
    fraction of the base as well. A metric is unresolved when the base's
    quartiles lie further apart than its bound, relative to the base's
    median, unless every change run reads better than every base run.
    """
    spec = json.loads(Path(benchmark).read_text())
    base = [json.loads(line)["metrics"] for line in base_lines]
    change = [json.loads(line)["metrics"] for line in change_lines]
    out = []
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        # Signed so that larger is worse.
        sign = 1 if metric["better"] == "lower" else -1
        base_values = [sign * run[name]["value"] for run in base]
        change_values = [sign * run[name]["value"] for run in change]
        q1, median, q3 = _quartiles(base_values)
        worse = (_quartiles(change_values)[1] - median) / abs(median)
        spread = (q3 - q1) / abs(median)
        if spread > bound and max(change_values) >= min(base_values):
            verdict = f"unresolved: the base's quartiles spread {spread:.4f}"
        else:
            verdict = "exceeds its bound" if worse > bound else "within its bound"
        out.append(f"{name}: worse by {worse:.4f} (bound {bound}), {verdict}")
    return "\n".join(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("base", help="checkout of the parent")
    parser.add_argument("change", help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=55)
    parser.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args(argv)
    sides = (("base", args.base, []), ("change", args.change, []))
    for pair in range(args.pairs):
        for side, checkout, lines in sides if pair % 2 == 0 else sides[::-1]:
            lines.append(run_once(checkout, args.workload, args.seed, args.seconds))
            print(f"pair {pair + 1} {side}: {lines[-1]}", file=sys.stderr, flush=True)
    print(summarize(sides[0][2], sides[1][2]))
    print(gain_verdict(sides[0][2], sides[1][2]))
    print(check_bounds(sides[0][2], sides[1][2], Path(args.change) / "BENCHMARK.json"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
