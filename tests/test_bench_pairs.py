"""The summary of tools/bench_pairs.py, on canned benchmark result lines."""

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
