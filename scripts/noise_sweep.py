#!/usr/bin/env python3
"""Sweep bit-flip noise against repetition factor for the block-repetition
variant and print the resulting error/agreement table.

Usage: python3 scripts/noise_sweep.py [output_dir]
"""

import math
import sys
from pathlib import Path

from twoway_qkd import ExperimentConfig, emit_results, run_experiment


def main() -> None:
    output_dir = sys.argv[1] if len(sys.argv) > 1 else "results/noise_sweep"
    config = ExperimentConfig.from_dict(
        {
            "variant": "V2",
            "n_bits": 16,
            "repetition": 3,
            "basis_pool": [0.0, math.pi / 8, math.pi / 4],
            "tag_length": 8,
            "seed": 20260823,
            "repetitions": 500,
            "sweep": {
                "p_bitflip": [0.0, 0.01, 0.02, 0.05, 0.1, 0.2],
                "repetition": [3, 5, 7],
            },
        }
    )
    stats = run_experiment(config)
    written = emit_results(stats, output_dir)
    print(written[Path(output_dir, "results.csv")], end="")
    print(f"# artifacts written to {output_dir}", file=sys.stderr)


if __name__ == "__main__":
    main()
