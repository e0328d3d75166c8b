"""Peak memory of a process that runs only one workload unit.

Run by run_bench.py as a child process: imports the package from the
checkout's src/, builds the workload's full-size inputs, runs one unit and
prints one JSON line with its peak resident set size and its output digest.
A fresh process keeps the figure free of the allocation history of the
benchmark process (its set-ups and earlier units), which otherwise moves the
allocator's high-water mark from run to run.

    python3 bench/peak_rss.py <workload> <seed> <workdir>
"""

from __future__ import annotations

import json
import resource
import sys
from pathlib import Path

from workloads import WORKLOADS, digest

SRC = Path(__file__).resolve().parent.parent / "src"


def main(argv: list[str]) -> int:
    name, seed, workdir = argv
    sys.path.insert(0, str(SRC))
    import twoway_qkd

    work = WORKLOADS[name](twoway_qkd, int(seed), Path(workdir))
    _, parts = work.unit()
    print(json.dumps({
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "sha256": digest(parts),
        "problems": work.problems(parts),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
