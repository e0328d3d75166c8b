"""Command line entry point.

Subcommands:
  run     execute an experiment config and write artifacts
  sweep   same as run but requires at least one sweep axis in the config
  replay  re-run from a stored config_resolved.json; byte-identical output
  verify  run the built-in invariant suite

Exit codes: 0 success, 1 config error, 2 invariant-suite failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from dataclasses import replace

from .harness import CONFIG_FILENAME, ConfigError, ExperimentConfig, emit_results, run_experiment
from .invariants import run_invariant_checks


def _add_override_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")
    parser.add_argument("--output-dir", default=None, help="override the config output directory")
    parser.add_argument(
        "--format", choices=("tabular", "structured"), default=None,
        help="which artifact to echo to stdout",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twoway-qkd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="execute an experiment config")
    run_p.add_argument("--config", required=True, help="path to the JSON config")
    _add_override_flags(run_p)

    sweep_p = sub.add_parser("sweep", help="execute a sweep grid (config must define axes)")
    sweep_p.add_argument("--config", required=True, help="path to the JSON config")
    _add_override_flags(sweep_p)

    replay_p = sub.add_parser("replay", help="re-run a stored experiment")
    replay_p.add_argument("--input-dir", required=True, help="directory holding config_resolved.json")
    replay_p.add_argument("--output-dir", required=True, help="where to write the replayed artifacts")

    sub.add_parser("verify", help="run the built-in invariant suite")
    return parser


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if args.seed is not None:
        try:
            config = replace(config, run=replace(config.run, seed=args.seed))
        except ValueError as exc:
            raise ConfigError(f"--seed: {exc}") from exc
    if args.output_dir is not None:
        config = replace(config, output_dir=args.output_dir)
    if args.format is not None:
        config = replace(config, output_format=args.format)
    return config


def _execute(config: ExperimentConfig) -> int:
    stats = run_experiment(config)
    written = emit_results(stats, config.output_dir)
    if config.output_format == "tabular":
        sys.stdout.write(stats.csv_text())
    else:
        sys.stdout.write(stats.summary_json_text())
    sys.stderr.write("wrote: " + ", ".join(str(p) for p in written) + "\n")
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command in ("run", "sweep"):
            config = _apply_overrides(ExperimentConfig.from_json_file(args.config), args)
            if args.command == "sweep" and not config.has_sweep:
                raise ConfigError("sweep: config defines no sweep axes; use `run` for a single cell")
            return _execute(config)
        if args.command == "replay":
            stored = Path(args.input_dir) / CONFIG_FILENAME
            config = ExperimentConfig.from_json_file(stored)
            config = replace(config, output_dir=args.output_dir)
            return _execute(config)
        # verify
        failures = 0
        for name, ok in run_invariant_checks():
            sys.stdout.write(f"{'PASS' if ok else 'FAIL'}  {name}\n")
            failures += int(not ok)
        return 2 if failures else 0
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
