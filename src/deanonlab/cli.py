"""Command line front end.

Three subcommands:

* ``simulate`` runs one Monte Carlo campaign and writes a CSV/JSON summary;
* ``sweep`` repeats a campaign along one axis (m, noise, or zipf exponent);
* ``bounds`` prints the analytic bound report for a configuration without
  simulating.

Parameters come from ``--config file.json`` and/or inline flags; inline
flags win. Exits 0 on success, 2 with a diagnostic on a configuration error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .harness import (
    OUTPUT_FORMATS,
    STRATEGIES,
    SWEEP_AXES,
    ConfigError,
    ExperimentConfig,
    open_output,
    resolve_model,
    run_experiment,
    run_sweep,
    write_results,
)


def _add_model_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--config", help="JSON file with configuration fields")
    parser.add_argument("--users", type=int, help="user count m")
    parser.add_argument("--groups", type=int, help="group count n")
    parser.add_argument("--p0", type=float, help="true-graph edge probability")
    parser.add_argument("--edge-flip", type=float, dest="edge_flip",
                        help="scan error probability per edge")
    parser.add_argument("--gm-flip", type=float, dest="gm_flip",
                        help="membership response flip probability")
    parser.add_argument("--prior", help="'uniform' or 'zipf:S'")
    parser.add_argument("--epsilon", help="threshold parameter in (0,1), or 'auto'")
    parser.add_argument("--steps", help="retry budget (integer >= 1), or 'auto'")


def _add_run_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--trials", type=int, help="number of Monte Carlo trials")
    parser.add_argument("--seed", type=int, dest="master_seed", help="master seed")
    parser.add_argument("--strategy", choices=(*STRATEGIES, "uid-scan"),
                        help="attack strategy")
    parser.add_argument("--workers", type=int, help="parallel worker processes")
    parser.add_argument("--out", help="output path (default: stdout)")
    parser.add_argument("--format", choices=OUTPUT_FORMATS, help="output format")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="deanonlab",
        description="Monte Carlo lab for information-threshold de-anonymization",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="run one campaign")
    _add_model_flags(p_sim)
    _add_run_flags(p_sim)

    p_sweep = sub.add_parser("sweep", help="run a campaign per axis point")
    _add_model_flags(p_sweep)
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--axis", required=True, choices=SWEEP_AXES)
    p_sweep.add_argument("--points", required=True,
                         help="comma-separated axis values")
    p_sweep.add_argument("--crn", action="store_true",
                         help="share random numbers across axis points")

    p_bounds = sub.add_parser("bounds", help="print the bound report only")
    _add_model_flags(p_bounds)

    return parser


def _load_config(args: argparse.Namespace) -> ExperimentConfig:
    data = {}
    if getattr(args, "config", None):
        try:
            with open(args.config) as handle:
                text = handle.read()
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError("config", f"cannot read the file: {exc}") from None
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError("config", f"not valid JSON: {exc}") from None
    for key in (field.name for field in dataclasses.fields(ExperimentConfig)):
        value = getattr(args, key, None)
        if value is None:
            continue
        if key in ("epsilon", "steps") and value != "auto":
            try:
                value = float(value) if key == "epsilon" else int(value)
            except ValueError:
                kind = "a number" if key == "epsilon" else "an integer"
                raise ConfigError(key, f"must be 'auto' or {kind}") from None
        elif key == "strategy":
            value = value.replace("-", "_")
        data[key] = value
    return ExperimentConfig.from_dict(data)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # The campaign or the model build checks the config, once.
        config = _load_config(args)
        if args.command in ("simulate", "sweep"):
            # Open the output first, so a path that cannot be written fails
            # before the campaign runs rather than after.
            with open_output(config.out) as handle:
                if args.command == "simulate":
                    summaries = [run_experiment(config)]
                else:
                    points = [p for p in args.points.split(",") if p]
                    summaries = run_sweep(config, args.axis, points,
                                          common_random_numbers=args.crn)
                write_results(summaries, config.format, handle)
        else:  # bounds
            report = resolve_model(config).bound_report(config.groups)
            print(json.dumps(report.to_json(), indent=2, allow_nan=False))
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
