"""Golden digests of campaign outputs and attack transcripts.

Each case runs one small campaign and hashes three things: its CSV, its JSON
and, in trial order, every trial's transcript (queries, success, identified
user, steps used and group queries per step). The digests pin every output
byte and every query of these campaigns, so a change meant to leave the
results alone shows here if it does not. A change that declares a new random
stream records new digests.

The cases cover both benchmark workloads at one and two workers, the three
accumulate forms of the block scan (even m below 512, odd m, m from 512 up),
a zipf prior on a small m whose failed verifications fall back by score, the
identity scan in its random order, a noiseless model whose candidates drop
out and fail verification, a graph smaller than one block, more steps than
users, and long scans of a wide graph that cross dozens of graph and noise
blocks per trial.
"""

import hashlib
import io

import pytest

from deanonlab import harness

SANDWICH = dict(
    users=256, groups=8192, p0=0.5, edge_flip=0.05, gm_flip=0.05,
    prior="uniform", epsilon=0.1, steps=4,
)
CASES = {
    "sandwich": dict(SANDWICH, trials=25, master_seed=11),
    "noisy_small": dict(
        SANDWICH, users=16, groups=65536, edge_flip=0.15, gm_flip=0.25,
        prior="zipf:1.0", trials=25, master_seed=12,
    ),
    "zipf_small": dict(
        users=11, groups=4096, edge_flip=0.1, gm_flip=0.1, prior="zipf:1.5",
        epsilon=0.3, steps=2, trials=40, master_seed=13,
    ),
    "uid_scan": dict(users=40, groups=64, strategy="uid_scan", trials=30, master_seed=14),
    "m513": dict(users=513, groups=2048, edge_flip=0.05, gm_flip=0.05, trials=6, master_seed=15),
    "noiseless_eliminations": dict(
        users=64, groups=256, edge_flip=0.0, gm_flip=0.0, prior="zipf:1.5",
        epsilon=0.4, steps=6, trials=40, master_seed=16,
    ),
    "n_below_one_block": dict(
        users=16, groups=20, edge_flip=0.1, gm_flip=0.3, epsilon=0.01, steps=3,
        trials=30, master_seed=17,
    ),
    "steps_over_m": dict(
        users=8, groups=512, edge_flip=0.2, gm_flip=0.2, epsilon=0.45, steps=50,
        trials=30, master_seed=18,
    ),
    "long_wide_scan": dict(
        users=4096, groups=8192, edge_flip=0.05, gm_flip=0.4, prior="zipf:1.2",
        trials=6, master_seed=19,
    ),
}

# SHA-256 of (CSV, JSON, transcripts) per case.
GOLDEN = {
    'sandwich': (
        '8ae7a400d9253102ee6c5e3344c7676faa6b70d0700694900494b0ba48595841',
        '96ccc8f5f936a46f745233583abd71120da685191f5ca6dbfeef53ecdf52f0a7',
        '4818cc5bfe5b6795fef493e902f0f217611cb7e2a44842603e44e95f826b408c',
    ),
    'noisy_small': (
        '14cbeb3b91eef58974b34dc6c69e4c8956e6949ed3dcc11dd38209c8e2781dc9',
        '3076f86441d49d7f0bcf9061e6580b9635f3e23aabcc2a9554ca7665aa22bcd9',
        '7bf95b1be9b3cbe8bd2fbfa92ca0838f1769396193bcff4ae3534e216e72990b',
    ),
    'zipf_small': (
        '3cfd1610fd813499b80424cc43f616dd81b32cd1a3648d0f0ed004dffc80eac9',
        '2acb155232a9b179f076a443efa0539b8a55ffbd2d56ebe0122ab8f04491f769',
        'c0d73d55b0917273a857d11cf99a7b7c2e0e1909aa8536a95c307ba68e22d516',
    ),
    'uid_scan': (
        'c6932bec7fa9e299da3bab70f1279d035329100bc15c893f83eb4cc489c15baa',
        'dbd85818353dcf04801151c0d24d156f236e57ab77c9ab639008dcaa77c2b69c',
        'c817e0733c5bf60fe9805052a0697fb5f510736709b86d449a1c7d0c40fb7a1d',
    ),
    'm513': (
        '8b3c76da59d6f35428da8e700ae539256da831c589b8c1e9e4cf1d80fe003359',
        'db72fc8ba286ae54f3caab5bcffc2772e41a590febd4e642abaafe7c727a07d8',
        'f7ea2d8384a1be3651f25e7a1d1bf5b7cf68cb276da0333e54722dd6f80b400d',
    ),
    'noiseless_eliminations': (
        '0134f395d9ec96c9c8a76ee99d040f43b42fe801d95d4e45d5e1b614dcdd4418',
        '3cd11467d2ffe60e732fdf57f63c97240502230eea2b358457e818fd4ea61457',
        '6b4fc6bee11512ddeff4280eb274b5846f9c3e9e98c60639bcc054f914b90332',
    ),
    'n_below_one_block': (
        '1a7066f32f22e71a83d79d527e4d9e1140b8e94eb4cbc9925733204d3b86aa8e',
        'b36951efbf1931f94a54fa7a2c48fdcba5e89692d017ff57edb82aba0893227b',
        'd9ea02ec14e4d237490d795ff35f33ff80313eedaf371070b89176101880aec9',
    ),
    'steps_over_m': (
        '136cedf01ba201590fe80492b871f0177925e47bc8291a7a80468a597d01aa5a',
        'e1de2ed9fb7337f9d878186c1df66491f56fdc1af7123cc3ea7e7fdd56dec9bc',
        '9107f9da9a0dcc58b707ab1d595cf691e9e021eafb3db5950cbb11cea91056dd',
    ),
    'long_wide_scan': (
        'b6133b19e2537ea069a9764c45ba30913e02536193713c6bd7a38bf66e44453b',
        '678d4d77010485df3fff46c103c7b9a6f3374c7332a9f43c33fe38fc41a42750',
        'e57b80b596fd50f8260dd73886c08c06a8b9481780e8d3c86a496db8c904166b',
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def campaign_digests(fields: dict, monkeypatch) -> tuple[str, str, str]:
    """(CSV, JSON, transcripts) digests of one campaign run with ``fields``."""
    transcripts = []
    run_its = harness.run_its

    def recording_run_its(*args):
        transcripts.append(run_its(*args))
        return transcripts[-1]

    monkeypatch.setattr(harness, "run_its", recording_run_its)
    summary = harness.run_experiment(harness.ExperimentConfig(**fields))
    outputs = []
    for fmt in harness.OUTPUT_FORMATS:
        handle = io.StringIO()
        harness.write_results([summary], fmt, handle)
        outputs.append(_sha(handle.getvalue()))
    records = [
        repr((t.queries, t.success, t.identified, t.steps_used, t.tau_star_per_step))
        for t in transcripts
    ]
    assert len(records) == fields["trials"]
    return (*outputs, _sha("\n".join(records)))


@pytest.mark.parametrize(
    "case, workers",
    [(name, 1) for name in CASES] + [("sandwich", 2), ("noisy_small", 2)],
)
def test_campaign_outputs_and_transcripts_match_golden_digests(
    case, workers, monkeypatch, in_process_pool
):
    # Two workers split the campaign into blocks that each start mid-stream;
    # the blocks run in this process so their transcripts can be recorded.
    fields = dict(CASES[case], workers=workers)
    assert campaign_digests(fields, monkeypatch) == GOLDEN[case]
