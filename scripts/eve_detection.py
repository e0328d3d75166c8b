#!/usr/bin/env python3
"""Measure how tamper-detection probability grows with tag length under the
two active eavesdropper strategies.

Usage: python3 scripts/eve_detection.py [output_dir]
"""

import math
import sys
from pathlib import Path

from twoway_qkd import ExperimentConfig, emit_results, run_experiment


def main() -> None:
    output_dir = sys.argv[1] if len(sys.argv) > 1 else "results/eve_detection"
    config = ExperimentConfig.from_dict(
        {
            "variant": "V1",
            "n_bits": 64,
            "basis_pool": [0.0, math.pi / 4],
            "seed": 7,
            "repetitions": 1000,
            "eve": {
                "kind": "intercept_resend",
                "basis_pool": [0.0, math.pi / 4],
                "legs": ["forward"],
            },
            "sweep": {
                "eve": ["absent", "intercept_resend", "substitute"],
                "tag_length": [0, 4, 8, 16, 32, 64],
            },
        }
    )
    stats = run_experiment(config)
    written = emit_results(stats, output_dir)
    print(written[Path(output_dir, "results.csv")], end="")
    print(f"# artifacts written to {output_dir}", file=sys.stderr)


if __name__ == "__main__":
    main()
