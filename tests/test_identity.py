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
from deanonlab.attacker import AttackTranscript

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
        '4e06c2ee4be840ea98102f597c806a0b5575b350991df565806782efccbecc2c',
        '036ca2425a3befaac5ed3dff6b0ccfdc8b35fbb39ebeb34fbb75bc9b06f7d182',
        'faa9092fade413b19377f0d0dfbeeb7cc9f3b6d4a0163255bb0d79b0569ddda4',
    ),
    'noisy_small': (
        '93d5c23024d9290b552d755665946d6938c264f232a5c036da7bc305d97b3d9c',
        '65e857a8a264f40260f75508f6564eb7373e8278890c2f77a4fff8a3b6376c23',
        'ca419a1788564a4b0c08dad25df9907a4cd1efb49a8a60b04003d99ca9676105',
    ),
    'zipf_small': (
        '1f44f3717c9e5e3fa2faa41e854c26460d6368ab5d1fdf10f9bdf27c1e088530',
        'ec200c950a81e8314a0f27da7ca8bc66cd9fd7c5ba8c04ed14a1a67bfd962849',
        '1809381ca3e3ba0035496228dc0bba474a72a3287c9981809ee0f7c381f7c8e5',
    ),
    'uid_scan': (
        'c6932bec7fa9e299da3bab70f1279d035329100bc15c893f83eb4cc489c15baa',
        'dbd85818353dcf04801151c0d24d156f236e57ab77c9ab639008dcaa77c2b69c',
        'c817e0733c5bf60fe9805052a0697fb5f510736709b86d449a1c7d0c40fb7a1d',
    ),
    'm513': (
        '370f7e6ade3ba4cda003259e1d11a93f54468aa7f0180c5f13524332f0d848e4',
        '932fda1a510d8f10caae5bbb4edfbe724dc62f5c3dde8019fed2547aae087269',
        'baf1c4d94b4cbb1ebb971c815bf8e0f364e1c2a2c566ec35bd4f3ba5612a84f1',
    ),
    'noiseless_eliminations': (
        'f0fdcbfd9e5c9b22f0c223bfffce29da71de7922fed342ad3f169e8030c68b45',
        '789ae4d78c3541df6083445ca15b7b104526582762f06bd2e5f583c2b65fc707',
        '2eec74d40c46bb477cda26ca62a6a1b2a2e526093fa19508b7cf8a4c995a3d13',
    ),
    'n_below_one_block': (
        '127d3e32fd120a1e37a8fb5020311d06f56b21cc60e5d26300b5974e8765bc46',
        '2c791635e533b72e0db13120e1e7581c3638dce67756aed29124bc7fef6388b8',
        'fd1e9d70b8811fbf5e16b591df98e4426a179788c51709e8480648565053aeb7',
    ),
    'steps_over_m': (
        'b221a05282290b8e6c74ec9214541a249cfb0aac99c4f7e959944b7c363ec454',
        '17eb986a70f6bf241d54bdf502b04aad262cd80e6b707b14dfb8fdb2f10b5f95',
        '0f835957d0a661bf3a3fce70a97b85b18526f4cfc4752da597fa810c866a4867',
    ),
    'long_wide_scan': (
        '02f82aa68a62c604b083171f054364f791ecfe4b1715e66b3dbaaae3aa93c929',
        'd8ae843d77495e7f1c0f867534834ef32ea56ed2ffa2b60436f2eacb76adb59c',
        'f334ab6df1a082c76a6bfe91bd8bfa0b5429ea9e14f48239a1d9579d5ab1f145',
    ),
}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def campaign_digests(fields: dict, monkeypatch) -> tuple[str, str, str]:
    """(CSV, JSON, transcripts) digests of one campaign run with ``fields``."""
    transcripts = []
    scan = harness._block_scan

    def recording_scan(*args):
        fields = scan(*args)
        transcripts.append(AttackTranscript(*fields))
        return fields

    monkeypatch.setattr(harness, "_block_scan", recording_scan)
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
