#!/usr/bin/env python3
"""Replay one seeded attack on a small graph and narrate every query.

Shows the candidate scores (accumulated density minus prior surprisal)
evolving after each group-membership response, the threshold crossing, the
verification query, and the final transcript.
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
    expected_response_column,
    generate_cprb,
    gm_update,
    init_state,
    make_prior,
    run_its,
    select_candidate,
    threshold_check,
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

threshold = math.log2(1.0 / EPSILON)
print(f"m={M} users, n={N} groups, victim secretly = user {victim}")
print(f"threshold: score >= log2(1/{EPSILON}) = {threshold:.2f} bits\n")

state = init_state(prior, ITSConfig(EPSILON, STEPS))
print("prior surprisal per user:", np.round(state.prior_surprisal, 2))

# Query k asks group k, so one counter is both the ordinal and the group.
ordinal = 0
stop, crossers = threshold_check(state, EPSILON)
while not stop:
    ordinal += 1
    group = ordinal
    column = expected_response_column(pair, group)
    y = inst.noisy_gm_response(group, ordinal)
    gm_update(state, column, y, measures)
    scores = state.info - state.prior_surprisal
    leader = int(np.argmax(scores)) + 1
    print(f"query {ordinal:2d}: group {group:2d} -> response {y} | "
          f"leader user {leader} at {scores[leader - 1]:6.2f} bits")
    stop, crossers = threshold_check(state, EPSILON)

guess = select_candidate(state)
print(f"\nthreshold crossed by user(s) {crossers.tolist()} after {ordinal} group queries")
print(f"verification: is the victim user {guess}? -> {inst.uid_response(guess)}")

print("\nFull transcript via run_its (identical queries, fresh replay):")
pair2 = generate_cprb(N, M, edge, seed=GRAPH_SEED)
inst2 = VictimInstance(pair2, victim, gm, noise_seed=NOISE_SEED)
transcript = run_its(pair2, inst2, prior, measures, ITSConfig(EPSILON, STEPS))
for kind, target, response in transcript.queries:
    print(f"  {kind:3s} target={target:3d} response={response}")
print(f"success={transcript.success}, identified={transcript.identified}, "
      f"Q={transcript.q_count}, steps={transcript.steps_used}")
