#!/usr/bin/env python3
"""Sweep bit-flip noise against repetition factor for the block-repetition
variant and print the resulting error/agreement table.

The config is scripts/noise_sweep.json; this runs what
`twoway-qkd sweep --config scripts/noise_sweep.json [--output-dir output_dir]` does.

Usage: python3 scripts/noise_sweep.py [output_dir]
"""

import json
import sys
from dataclasses import replace
from pathlib import Path

from twoway_qkd import ExperimentConfig, cli

if __name__ == "__main__":
    data = json.loads(Path(__file__).with_suffix(".json").read_text())
    output_dir = sys.argv[1] if len(sys.argv) > 1 else data["output_dir"]
    del data["output_dir"]
    raise SystemExit(cli._execute(replace(ExperimentConfig.from_dict(data), output_dir=output_dir)))
