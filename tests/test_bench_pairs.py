"""The summaries of tools/bench_pairs.py, on canned benchmark result lines."""

import json
import types
from pathlib import Path

PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def load_tool():
    # Executed from its source text, so nothing is written next to it.
    tool = types.ModuleType("bench_pairs")
    exec(compile(PATH.read_text(), str(PATH), "exec"), vars(tool))
    return tool


def result_line(trials_per_s, setup_s, correct=True):
    metrics = {
        "trials_per_s": {"value": trials_per_s, "unit": "trials/s"},
        "setup_s": {"value": setup_s, "unit": "s"},
    }
    return json.dumps({"correct": correct, "attempted": 100, "failed": 0, "metrics": metrics})


def test_summary_gives_medians_quartiles_and_pair_wins():
    base = [result_line(v, 0.2) for v in (100.0, 110.0, 120.0, 130.0, 140.0)]
    change = [result_line(v, 0.2) for v in (150.0, 105.0, 160.0, 170.0, 180.0)]
    change[4] = result_line(180.0, 0.2, correct=False)
    lines = load_tool().summarize(base, change).splitlines()
    assert lines == [
        "trials_per_s (trials/s): base 120 [110, 130]  change 160 [150, 170]  change/base 1.3333",
        "setup_s (s): base 0.2 [0.2, 0.2]  change 0.2 [0.2, 0.2]  change/base 1.0000",
        "trials_per_s: the change is higher in 4 of 5 pairs",
        "runs not correct: base 0, change 1",
    ]


def test_gain_verdict_needs_nine_tenths_of_pairs_and_a_lead_over_the_spread():
    tool = load_tool()
    base = [result_line(v, 0.2) for v in (100.0, 101.0, 102.0, 103.0, 104.0) * 2]
    # Base quartiles 101 and 103: a spread of 2.
    change = [result_line(v, 0.2) for v in (106.0,) * 9 + (100.0,)]
    assert tool.gain_verdict(base, change) == "trials_per_s gain: shown"
    # A tie in one pair more counts for neither side: 8 of 10.
    change[0] = result_line(100.0, 0.2)
    assert tool.gain_verdict(base, change) == (
        "trials_per_s gain: not shown, higher in only 8 of 10 pairs"
    )
    # Every pair won, but the median leads by 1, less than the spread.
    change = [result_line(v + 1.0, 0.2) for v in (100.0, 101.0, 102.0, 103.0, 104.0) * 2]
    assert tool.gain_verdict(base, change) == (
        "trials_per_s gain: not shown, the median leads by 1, not more than the base's spread 2"
    )
    # Neither.
    change = [result_line(104.0, 0.2)] * 10
    assert tool.gain_verdict(base, change) == (
        "trials_per_s gain: not shown, higher in only 8 of 10 pairs; "
        "the median leads by 2, not more than the base's spread 2"
    )


def metric_line(**values):
    metrics = {name: {"value": value, "unit": "-"} for name, value in values.items()}
    return json.dumps({"correct": True, "attempted": 100, "failed": 0, "metrics": metrics})


def test_bound_check_reads_direction_and_bound_from_the_benchmark_file(tmp_path):
    spec = {"end_to_end": [
        {"name": "trials_per_s", "unit": "trials/s", "better": "higher", "bound": 0.15},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "peak_rss_mb", "unit": "MiB", "better": "lower", "bound": 0.1},
        {"name": "mean_Q", "unit": "queries", "better": "lower", "bound": 0.1},
    ]}
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(spec))
    # trials_per_s: the base's quartiles (110, 130) spread 20/120, wider than
    # 0.15, but every change run is faster than every base run. mean_Q: the
    # base spreads 20/90 and the change does not read better throughout.
    base = [
        metric_line(trials_per_s=t, setup_s=0.2, peak_rss_mb=40.0, mean_Q=q)
        for t, q in zip((100.0, 110.0, 120.0, 130.0, 140.0), (70.0, 80.0, 90.0, 100.0, 110.0))
    ]
    change = [
        metric_line(trials_per_s=t, setup_s=0.3, peak_rss_mb=41.0, mean_Q=90.0)
        for t in (150.0, 160.0, 170.0, 180.0, 190.0)
    ]
    lines = load_tool().check_bounds(base, change, tmp_path / "BENCHMARK.json").splitlines()
    assert lines == [
        "trials_per_s: worse by -0.4167 (bound 0.15), within its bound",
        "setup_s: worse by 0.5000 (bound 0.25), exceeds its bound",
        "peak_rss_mb: worse by 0.0250 (bound 0.1), within its bound",
        "mean_Q: worse by 0.0000 (bound 0.1), unresolved: the base's quartiles spread 0.2222",
    ]
