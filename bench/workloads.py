"""The benchmark's workloads, built from a seed and driven only through the
package's public calls.

Each workload builds its inputs in its constructor and runs one unit of work
per `unit()` call: the simulation plus rendering its output bytes. A unit
returns its phase timings and the output as a list of byte strings, which
`Checker` compares with the pinned digest (default seed) or with the first
unit of the run (any other seed), and `problems()` checks for invariants.

Why these three (see README.md for the layer table):

* sweep - the two `scripts/` configs, i.e. Monte Carlo grids of many small
  round trips (48-112 qubits). Per-session fixed cost dominates.
* bulk  - one 1 000 000-qubit V2 session and its transcript. Per-qubit
  kernels, erasure resolution (even t) and transcript rendering dominate.
* star  - a 200-leaf star with wire frames; the only user of `network` and
  of per-link generators.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import struct
from pathlib import Path
from time import perf_counter
from typing import NamedTuple

DEFAULT_SEED = 0
GOLDEN_PATH = Path(__file__).with_name("golden.json")

# The configs of scripts/noise_sweep.py and scripts/eve_detection.py. The
# benchmark changes only `repetitions` (run length) and offsets `seed` by the
# benchmark seed, so seed 0 runs the scripts' own grids.
NOISE_SWEEP = {
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
EVE_DETECTION = {
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
SWEEP_REPETITIONS = 20

POOL_2 = (0.0, math.pi / 4)
POOL_3 = (0.0, math.pi / 8, math.pi / 4)

TRANSCRIPT_HEADER_LINES = 20
TRANSCRIPT_FIRST_LINE = b"# twoway-qkd session transcript v1\n"
FRAME = struct.Struct("<HBQdddd")


class Timing(NamedTuple):
    wall_s: float
    sim_s: float
    render_s: float


class Sweep:
    """Both `scripts/` configs: from_dict -> run_experiment -> emit_results."""

    name = "sweep"

    def __init__(self, pkg, seed: int, workdir: Path, tiny: bool = False):
        self.pkg = pkg
        repetitions = 1 if tiny else SWEEP_REPETITIONS
        self.dicts = [
            dict(base, seed=base["seed"] + seed, repetitions=repetitions)
            for base in (NOISE_SWEEP, EVE_DETECTION)
        ]
        self.out_dirs = [Path(workdir) / "noise_sweep", Path(workdir) / "eve_detection"]
        self.qubits = 0
        for data in self.dicts:
            config = pkg.ExperimentConfig.from_dict(data)
            self.qubits += sum(
                repetitions * config.run.n_bits * cell["repetition"] for cell in config.cells()
            )

    def unit(self) -> tuple[Timing, list[bytes]]:
        pkg = self.pkg
        sim = render = 0.0
        start = perf_counter()
        for data, out_dir in zip(self.dicts, self.out_dirs):
            config = pkg.ExperimentConfig.from_dict(data)
            t0 = perf_counter()
            stats = pkg.run_experiment(config)
            t1 = perf_counter()
            pkg.emit_results(stats, out_dir)
            t2 = perf_counter()
            sim += t1 - t0
            render += t2 - t1
        wall = perf_counter() - start
        parts = [
            (out_dir / name).read_bytes()
            for out_dir in self.out_dirs
            for name in ("results.csv", "summary.json")
        ]
        return Timing(wall, sim, render), parts

    def problems(self, parts: list[bytes]) -> list[str]:
        """The noiseless V2 cells and the eve-absent V1 cells are exact."""
        found = []
        for index, (label, column, exact_value) in enumerate(
            (("noise_sweep", "p_bitflip", "0.0"), ("eve_detection", "eve", "absent"))
        ):
            csv_bytes, summary_bytes = parts[2 * index], parts[2 * index + 1]
            try:
                rows = list(csv.DictReader(io.StringIO(csv_bytes.decode("ascii"))))
                json.loads(summary_bytes)
            except (UnicodeDecodeError, ValueError, csv.Error) as exc:
                found.append(f"{label}: unreadable output: {exc}")
                continue
            if len(rows) != 18:
                found.append(f"{label}: {len(rows)} rows, expected 18")
            exact = [row for row in rows if row.get(column) == exact_value]
            if not exact:
                found.append(f"{label}: no {column}={exact_value} rows")
            for row in exact:
                if row.get("qber") != "0.0" or row.get("agreement_rate") != "1.0":
                    found.append(f"{label}: {column}={exact_value} row not exact: {row}")
        return found


class Bulk:
    """One large V2 session (t=4) with Pauli noise on both legs, then its transcript."""

    name = "bulk"

    def __init__(self, pkg, seed: int, workdir: Path, tiny: bool = False):
        self.pkg = pkg
        n_bits = 64 if tiny else 250_000
        self.config = pkg.RunConfig(
            n_bits=n_bits, repetition=4, variant="V2",
            basis_pool=tuple(pkg.Basis(theta) for theta in POOL_3),
            tag_length=8, seed=seed,
        )
        self.noise = pkg.NoiseModel(p_bitflip=0.02, p_phaseflip=0.01, p_both=0.005)
        self.qubits = 4 * n_bits

    def unit(self) -> tuple[Timing, list[bytes]]:
        t0 = perf_counter()
        result = self.pkg.run_session(self.config, self.noise, self.noise)
        t1 = perf_counter()
        text = result.transcript_text()
        t2 = perf_counter()
        return Timing(t2 - t0, t1 - t0, t2 - t1), [text.encode("ascii")]

    def problems(self, parts: list[bytes]) -> list[str]:
        """The transcript is its header plus one row per qubit."""
        (text,) = parts
        found = []
        if not text.startswith(TRANSCRIPT_FIRST_LINE):
            found.append("transcript header missing")
        lines = text.count(b"\n")
        if lines != TRANSCRIPT_HEADER_LINES + self.qubits:
            found.append(f"transcript has {lines} lines, expected header + {self.qubits} rows")
        last_row = text[text.rfind(b"\n", 0, len(text) - 1) + 1:]
        if not last_row.startswith(b"%d " % (self.qubits - 1)):
            found.append("last transcript row is not the last qubit")
        return found


class Star:
    """A 200-leaf star, V1, with recorded wire frames and Eve on every 10th link."""

    name = "star"

    def __init__(self, pkg, seed: int, workdir: Path, tiny: bool = False):
        self.pkg = pkg
        self.leaves, self.n_bits = (12, 16) if tiny else (200, 256)
        names = tuple(f"leaf{i:03d}" for i in range(self.leaves))
        noise = pkg.NoiseModel(p_bitflip=0.02)
        tapped = pkg.LinkSettings(noise, noise, pkg.EveStrategy.intercept_resend(POOL_2, legs=("backward",)))
        clean = pkg.LinkSettings(noise, noise, pkg.EveStrategy.absent())
        links = {leaf: tapped if i % 10 == 9 else clean for i, leaf in enumerate(names)}
        self.topology = pkg.Topology(leaves=names, links=links)
        self.config = pkg.RunConfig(
            n_bits=self.n_bits, variant="V1",
            basis_pool=tuple(pkg.Basis(theta) for theta in POOL_2),
            tag_length=16, seed=seed,
        )
        self.qubits = self.leaves * self.n_bits

    def unit(self) -> tuple[Timing, list[bytes]]:
        t0 = perf_counter()
        result = self.pkg.run_star_session(self.topology, self.config, record_frames=True)
        t1 = perf_counter()
        frames = b"".join(outcome.frames_bytes() for outcome in result.outcomes.values())
        t2 = perf_counter()
        return Timing(t2 - t0, t1 - t0, t2 - t1), [frames]

    def problems(self, parts: list[bytes]) -> list[str]:
        """leaves x 2 directions x qubits frames of 43 bytes, link 0 first."""
        (frames,) = parts
        expected = self.leaves * 2 * self.n_bits * FRAME.size
        if len(frames) != expected:
            return [f"frames are {len(frames)} bytes, expected {expected}"]
        link, direction, sequence = FRAME.unpack_from(frames)[:3]
        if (link, direction, sequence) != (0, 0, 0):
            return [f"first frame header is {(link, direction, sequence)}, expected (0, 0, 0)"]
        return []


WORKLOADS = {cls.name: cls for cls in (Sweep, Bulk, Star)}


def load_golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text())


def digest(parts: list[bytes]) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part)
    return h.hexdigest()


class Checker:
    """Checks each unit's output bytes.

    With an expected digest (the pinned one, for the default seed) every
    unit must match it; without one, every unit must match the first.
    """

    def __init__(self, workload, expected: str | None = None):
        self.workload = workload
        self.expected = expected
        self.last_digest: str | None = None

    def check(self, parts: list[bytes]) -> list[str]:
        return self.workload.problems(parts) + self.match(digest(parts))

    def match(self, found: str) -> list[str]:
        """Compare one output digest with the expected one."""
        self.last_digest = found
        if self.expected is None:
            self.expected = found
        elif found != self.expected:
            return [f"output sha256 {found} != expected {self.expected}"]
        return []
