"""Outside-in per-layer tracing for the campaign benchmark.

The tracer wraps deanonlab's public functions at the module attributes
through which the harness and the attack call them, so the program itself
is not edited. Each wrapped call is a span; a span's self time is its
duration minus the time of the spans it encloses. Spans are aggregated per
layer name (calls and self seconds) instead of being stored one by one,
because a traced campaign makes millions of them.

The attack-behaviour counters are read from what passes through the
wrappers: the transcripts ``run_its`` returns and the attacker state handed
to ``threshold_check`` at each threshold crossing.
"""

from __future__ import annotations

import contextlib
import functools
import math
from collections import Counter, defaultdict
from time import perf_counter

# (module or class, attribute, layer). The attribute is looked up on the
# owner at call time by its callers, so replacing it intercepts every call.
# ``attacker.run`` and ``harness.run`` keep the self time of run_its and
# run_experiment, i.e. the attack loop and the harness glue.
_CALL_SITES = (
    ("harness", "trial_seeds", "harness.trial_seeds"),
    ("harness", "generate_cprb", "graph.generate"),
    ("harness", "sample_victim", "stochastics.sample_victim"),
    ("harness", "run_its", "attacker.run"),
    ("harness", "make_prior", "stochastics.model"),
    ("harness", "build_joint_uyz", "stochastics.model"),
    ("stochastics.InfoMeasures", "from_joint", "stochastics.model"),
    ("bounds", "build_report", "bounds.report"),
    ("attacker", "expected_response_column", "graph.column"),
    ("attacker", "gm_update", "attacker.update"),
    ("attacker", "threshold_check", "attacker.threshold"),
    ("attacker", "select_candidate", "attacker.select"),
    ("oracle.VictimInstance", "noisy_gm_response", "oracle.gm"),
    ("oracle.VictimInstance", "uid_response", "oracle.uid"),
    ("graph.BigraphPair", "bit", "graph.bit"),
)


def _resolve(dl, dotted: str):
    obj = dl
    for part in dotted.split("."):
        obj = getattr(obj, part)
    return obj


class Tracer:
    """Per-layer call counts, self times and attack-behaviour samples."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.transcripts: list = []
        self.overshoots: list[float] = []
        self._open: list[float] = []  # child time accumulated per open span

    def timed(self, layer: str, fn):
        """``fn`` wrapped as a span of ``layer``."""
        open_spans = self._open
        calls = self.calls
        self_s = self.self_s

        @functools.wraps(fn)
        def span(*args, **kwargs):
            open_spans.append(0.0)
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self_s[layer] += elapsed - open_spans.pop()
                calls[layer] += 1
                if open_spans:
                    open_spans[-1] += elapsed

        return span

    def _wrapper(self, layer: str, fn):
        timed = self.timed(layer, fn)
        if layer == "attacker.run":
            def run_its(*args, **kwargs):
                transcript = timed(*args, **kwargs)
                self.transcripts.append(transcript)
                return transcript
            return run_its
        if layer == "attacker.threshold":
            # Reading the scores costs a pass over all m candidates; its own
            # span keeps that cost out of the attack loop's self time.
            note = self.timed("trace.bookkeeping", self._note_overshoot)

            def threshold_check(state, epsilon):
                stop, crossed = timed(state, epsilon)
                if stop:
                    note(state, epsilon)
                return stop, crossed
            return threshold_check
        return timed

    def _note_overshoot(self, state, epsilon: float):
        self.overshoots.append(float(state.scores().max()) - math.log2(1.0 / epsilon))

    @contextlib.contextmanager
    def installed(self, dl):
        """Patch every call site of the ``dl`` package while the block runs."""
        undo = []
        try:
            for owner_name, attr, layer in _CALL_SITES:
                owner = _resolve(dl, owner_name)
                raw = owner.__dict__[attr]
                if isinstance(raw, classmethod):
                    patched = classmethod(self._wrapper(layer, raw.__func__))
                else:
                    patched = self._wrapper(layer, raw)
                undo.append((owner, attr, raw))
                setattr(owner, attr, patched)
            yield self
        finally:
            for owner, attr, raw in reversed(undo):
                setattr(owner, attr, raw)

    def attack_counts(self) -> dict:
        """Attack-behaviour means over the transcripts and crossings seen."""
        trials = len(self.transcripts)
        step_gms = [g for t in self.transcripts for g in t.tau_star_per_step]
        verifications = [r for t in self.transcripts for r in t.step_uid_responses()]
        fallback = [t.uid_count() - len(t.tau_star_per_step) for t in self.transcripts]
        return {
            "steps_mean": _mean([t.steps_used for t in self.transcripts]),
            "gm_per_step": _mean(step_gms),
            "verify_fail_rate": _mean([1 - r for r in verifications]),
            "fallback_q_mean": sum(fallback) / trials if trials else 0.0,
            "overshoot_mean": _mean(self.overshoots),
            "overshoot_max": max(self.overshoots, default=0.0),
            "trials": trials,
            "steps": len(step_gms),
            "verifications": len(verifications),
            "crossings": len(self.overshoots),
        }


def _mean(values) -> float:
    return sum(values) / len(values) if values else 0.0
