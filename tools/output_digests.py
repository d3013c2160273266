#!/usr/bin/env python3
"""Print a digest of every demo's and of a fixed set of CLI calls' output.

Each demo in ``demos/`` and each CLI call below runs in a fresh temporary
working directory, with ``PYTHONPATH`` set to the given source tree, so two
trees can be compared output for output: run the tool once per tree and
diff the two listings. A line reads ``name exit_code sha256``, the digest
taken over the run's standard output, a separator, then its standard error.
The CLI calls use small trial counts, so the whole set takes a few seconds
beyond the demos. Standard library only.

Usage: python tools/output_digests.py [SRC]   (default: src of this checkout)
"""

from __future__ import annotations

import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_SANDWICH = [
    "--users", "256", "--groups", "8192", "--p0", "0.5", "--edge-flip", "0.05",
    "--gm-flip", "0.05", "--epsilon", "0.1", "--steps", "4",
]
_SMALL = [
    "--users", "64", "--groups", "1024", "--p0", "0.3", "--edge-flip", "0.05",
    "--gm-flip", "0.1", "--prior", "zipf:1.0", "--seed", "3",
]

# (name, arguments of ``python -m deanonlab.cli``)
CLI_CALLS = (
    ("simulate-csv", ["simulate", *_SMALL, "--trials", "200"]),
    ("simulate-json-workers-2", ["simulate", *_SMALL, "--trials", "200",
                                 "--format", "json", "--workers", "2"]),
    ("simulate-uid-scan-workers-3", ["simulate", *_SMALL, "--trials", "200",
                                     "--strategy", "uid-scan", "--workers", "3"]),
    # Verifications fail often enough that trials reach a fourth step.
    ("simulate-json-million-steps", [
        "simulate", "--users", "64", "--groups", "4096", "--edge-flip", "0.3",
        "--gm-flip", "0.35", "--epsilon", "0.9", "--steps", "1000000",
        "--trials", "50", "--seed", "4", "--format", "json",
    ]),
    # The benchmark's noisy_small model over two workers: several blocks of
    # trials, each in batches of 8, with trials that read a second block of
    # groups and verifications that fail.
    ("simulate-noisy-small-workers-2", [
        "simulate", "--users", "16", "--groups", "65536", "--edge-flip", "0.15",
        "--gm-flip", "0.25", "--prior", "zipf:1.0", "--epsilon", "0.1", "--steps", "4",
        "--trials", "300", "--workers", "2", "--format", "json",
    ]),
    # One-trial batches at m = 96, below the scan's victim bound, with
    # verifications that fail inside a block.
    ("simulate-one-trial-batches-failed-verifications", [
        "simulate", "--users", "96", "--groups", "2048", "--edge-flip", "0.1",
        "--gm-flip", "0.2", "--epsilon", "0.6", "--steps", "4", "--trials", "200",
    ]),
    # The same model at m = 256, where the scan's victim bound starts: trials
    # whose step 1 fails inside block 0 run both the bound and the lookup of
    # the rest of the block.
    ("simulate-victim-bound-failed-verifications", [
        "simulate", "--users", "256", "--groups", "2048", "--edge-flip", "0.1",
        "--gm-flip", "0.2", "--epsilon", "0.6", "--steps", "4", "--trials", "200",
        "--seed", "9", "--format", "json",
    ]),
    # An odd user count in batches of 8: the plain accumulate of a stack.
    ("simulate-odd-m-batches", [
        "simulate", "--users", "15", "--groups", "4096", "--edge-flip", "0.15",
        "--gm-flip", "0.25", "--prior", "zipf:1.0", "--epsilon", "0.1", "--steps", "4",
        "--trials", "300", "--seed", "5", "--format", "json",
    ]),
    # Batches of 8 at low information: most trials read a third block of
    # groups or further after the rest of their batch drew.
    ("simulate-third-block-batches", [
        "simulate", "--users", "16", "--groups", "4096", "--edge-flip", "0.2",
        "--gm-flip", "0.35", "--prior", "zipf:1.0", "--epsilon", "0.02", "--steps", "4",
        "--trials", "300", "--seed", "6", "--format", "json",
    ]),
    # Both flips 0 at an even user count in batches of 8: every answer a
    # candidate's bit makes impossible looks up a density of -inf.
    ("simulate-noiseless-even-m-batches", [
        "simulate", "--users", "32", "--groups", "512", "--edge-flip", "0", "--gm-flip", "0",
        "--trials", "300", "--seed", "8", "--format", "json",
    ]),
    ("sweep-zipf-crn",["sweep", *_SMALL, "--trials", "100", "--axis", "zipf",
                        "--points", "0.5,1.0,2.0", "--crn"]),
    ("sweep-m", ["sweep", *_SMALL, "--trials", "100", "--axis", "m",
                 "--points", "16,32,64"]),
    ("bounds-sandwich", ["bounds", *_SANDWICH]),
    ("bounds-zero-information", ["bounds", "--users", "64", "--groups", "1024",
                                 "--gm-flip", "0.5"]),
    ("refused-p0", ["simulate", *_SMALL, "--p0", "1.5"]),
    ("refused-its-without-information", ["simulate", "--users", "64", "--groups", "1024",
                                         "--gm-flip", "0.5", "--trials", "10"]),
)


def _digest(command: list[str], src: Path) -> tuple[int, str]:
    env = dict(os.environ, PYTHONPATH=str(src))
    with tempfile.TemporaryDirectory() as cwd:
        result = subprocess.run(command, cwd=cwd, env=env, capture_output=True, timeout=600)
    blob = result.stdout + b"\n--- stderr ---\n" + result.stderr
    return result.returncode, hashlib.sha256(blob).hexdigest()


def main(argv: list[str]) -> int:
    src = Path(argv[0] if argv else ROOT / "src").resolve()
    if not (src / "deanonlab" / "__init__.py").is_file():
        print(f"error: no deanonlab package under {src}", file=sys.stderr)
        return 2
    runs = [(path.name, [sys.executable, str(path)]) for path in sorted((ROOT / "demos").glob("*.py"))]
    runs += [(name, [sys.executable, "-m", "deanonlab.cli", *args]) for name, args in CLI_CALLS]
    for name, command in runs:
        code, digest = _digest(command, src)
        print(f"{name} {code} {digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
