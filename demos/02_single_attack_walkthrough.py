#!/usr/bin/env python3
"""Run one seeded attack on a small graph and narrate its first step.

One ``run_its`` call runs the attack. Its first threshold step is then told
from the transcript: the candidate scores (accumulated density minus prior
surprisal) after each group-membership response, the threshold crossing and
the verification query. The full transcript follows.
"""

import math

import numpy as np

from deanonlab import (
    EdgeJointDistribution,
    ITSConfig,
    InfoMeasures,
    QueryChannel,
    VictimInstance,
    build_joint_uyz,
    generate_cprb,
    make_prior,
    run_its,
)

M, N = 8, 64
EPSILON, STEPS = 0.25, 3
GRAPH_SEED, NOISE_SEED = 7, 11

edge = EdgeJointDistribution.from_marginal_flip(0.5, 0.05)
gm = QueryChannel.bsc(0.1)
measures = InfoMeasures.from_joint(build_joint_uyz(edge, gm))
prior = make_prior("zipf:1.0", M)
pair = generate_cprb(N, M, edge, seed=GRAPH_SEED)
victim = 3
inst = VictimInstance(pair, victim, gm, noise_seed=NOISE_SEED)
transcript = run_its(pair, inst, prior, measures, ITSConfig(EPSILON, STEPS))

threshold = math.log2(1.0 / EPSILON)
print(f"m={M} users, n={N} groups, victim secretly = user {victim}")
print(f"threshold: score >= log2(1/{EPSILON}) = {threshold:.2f} bits\n")
print("prior surprisal per user:", np.round(prior.surprisal, 2))

# Group query k asks group k. Column k - 1 of the scores is every candidate's
# score after query k: the running density sums, added in query order.
tau = transcript.tau_star_per_step[0]
answers = np.frombuffer(transcript.gm_answers, dtype=np.uint8)[:tau]
scores = np.cumsum(measures.density[pair.sig1[:, :tau], answers], axis=1) - prior.surprisal[:, None]
for query, y in enumerate(answers, start=1):
    leader = int(np.argmax(scores[:, query - 1])) + 1
    print(f"query {query:2d}: group {query:2d} -> response {y} | "
          f"leader user {leader} at {scores[leader - 1, query - 1]:6.2f} bits")

crossers = np.flatnonzero(scores[:, -1] >= threshold) + 1
guess, answer = transcript.uid_queries[0]
print(f"\nthreshold crossed by user(s) {crossers.tolist()} after {tau} group queries")
print(f"verification: is the victim user {guess}? -> {answer}")

print("\nFull transcript via run_its (identical queries, fresh replay):")
for kind, target, response in transcript.queries:
    print(f"  {kind:3s} target={target:3d} response={response}")
print(f"success={transcript.success}, identified={transcript.identified}, "
      f"Q={transcript.q_count}, steps={transcript.steps_used}")
