"""Command line entry point.

Subcommands:
  run     execute an experiment config and write artifacts
  sweep   same as run, with the same options, but requires at least one sweep axis in the config;
          the ready-made experiments, scripts/*.json, are sweep configs
  replay  re-run from a stored config_resolved.json; byte-identical output
  verify  check this install's bytes against pinned digests: a session, a star, a sweep

Exit codes: 0 success, 1 config error, 2 a verify check's bytes differ from its pin.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from dataclasses import replace

from .harness import (CONFIG_FILENAME, CSV_FILENAME, FORMATS, SUMMARY_FILENAME, ConfigError, ExperimentConfig, _build,
                      emit_results, run_experiment)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="twoway-qkd", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (("run", "execute an experiment config"),
                            ("sweep", "execute a sweep grid (config must define axes)")):
        command = sub.add_parser(name, help=help_text)
        command.add_argument("--config", required=True, help="path to the JSON config")
        command.add_argument("--seed", type=int, default=None, help="override the config seed")
        command.add_argument("--output-dir", default=None, help="override the config output directory")
        command.add_argument("--format", choices=FORMATS, default=None, help="which artifact to echo to stdout")

    replay_p = sub.add_parser("replay", help="re-run a stored experiment")
    replay_p.add_argument("--input-dir", required=True, help="directory holding config_resolved.json")
    replay_p.add_argument("--output-dir", required=True, help="where to write the replayed artifacts")

    sub.add_parser("verify", help="check this install's bytes against pinned digests")
    return parser


def _apply_overrides(config: ExperimentConfig, args: argparse.Namespace) -> ExperimentConfig:
    if args.seed is not None:
        config = replace(config, run=_build("--seed: ", replace, config.run, seed=args.seed))
    if args.output_dir is not None:
        config = replace(config, output_dir=args.output_dir)
    if args.format is not None:
        config = replace(config, output_format=args.format)
    return config


def _execute(config: ExperimentConfig) -> int:
    stats = run_experiment(config)
    written = emit_results(stats, config.output_dir)
    echoed = CSV_FILENAME if config.output_format == "tabular" else SUMMARY_FILENAME
    sys.stdout.write(written[Path(config.output_dir, echoed)])
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
        # verify; imported here, so that no run loads the verify cases
        from .invariants import run_invariant_checks

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
