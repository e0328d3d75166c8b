#!/usr/bin/env python3
"""Benchmark of the twoway-qkd simulator, run from the repository root:

    python3 bench/run_bench.py --workload sweep|bulk|star \\
        [--seed N] [--seconds S] [--trace 0|1]

--trace 0 measures the end-to-end metrics with tracing off; every unit is
timed right after a fixed calibration loop, and the unit timings are
reported in calibration-loop times (see calibration_s). --trace 1 alternates
untraced and traced units and reports the per-layer metrics plus the tracing
overhead; its spans are written to .bench_out/ afterwards.
Every unit's output bytes are checked (see workloads.Checker). Human-readable
lines come first; the last stdout line is one JSON object with the keys
correct, attempted, failed and metrics. The package is imported from this
checkout's src/, never from an installed copy.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

import tracer as tracing
from workloads import DEFAULT_SEED, WORKLOADS, Checker, load_golden

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
PACKAGE = "twoway_qkd"

#: Set-ups per untraced run; setup_s is their median.
SETUPS = 10
#: Units per run at least, so that two outputs can always be compared.
MIN_UNITS = 2
#: The calibration before a unit lasts at least this share of the previous
#: unit's wall time, so that a long unit is set against more than a moment.
CALIBRATION_SHARE = 0.1

#: Every end-to-end metric the untraced mode reports: (name, unit, better).
END_TO_END_METRICS = (
    ("setup_s", "s", "lower"),
    ("wall_cal", "cal", "lower"),
    ("qubits_per_cal", "1/cal", "higher"),
    ("render_cal", "cal", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)


def load_package():
    """Import the package afresh from SRC, dropping any earlier import of it."""
    for name in [n for n in sys.modules if n == PACKAGE or n.startswith(PACKAGE + ".")]:
        del sys.modules[name]
    pkg = importlib.import_module(PACKAGE)
    if Path(pkg.__file__).resolve().parent != SRC / PACKAGE:
        raise ImportError(f"{PACKAGE} was imported from {pkg.__file__}, not from {SRC}")
    return pkg


def _calibration_pass() -> int:
    """Fixed work in the package's own mix, using none of its code: an
    integer loop, tuples, f-strings, a dict, a join and whole-array numpy
    arithmetic. About 0.08 s on the reference box."""
    import numpy as np  # already imported by the package; see main()

    total = 0
    for i in range(500_000):
        total += i * i
    rows, index = [], {}
    for i in range(15_000):
        row = (i, i * 3, "x")
        rows.append(f"{i} {row[1]} {row[2]}")
        index[i & 1023] = row
    values = np.arange(100_000)
    for _ in range(50):
        mixed = (values * 7) % 13
    return total + len("\n".join(rows)) + int(mixed.sum())


def calibration_s(min_seconds: float = 0.0) -> float:
    """Mean time of one calibration pass, over as many passes as take
    `min_seconds` (at least one).

    The reference box is a shared VM whose speed drifts by 20-40% over
    minutes, for CPU time as much as wall time, so seconds measured minutes
    apart do not compare. Timed right before every unit, the pass tracks the
    speed of the moment; a unit's time divided by it (a "cal") does compare.
    The pass mixes the kinds of work the workloads do because no single kind
    tracks them all: a pure integer loop tracked `star` best and `bulk`
    worst, string and numpy work the other way round.
    """
    start = perf_counter()
    passes = 0
    while True:
        _calibration_pass()
        passes += 1
        elapsed = perf_counter() - start
        if elapsed >= min_seconds:
            return elapsed / passes


def _time_left(start: float, step: float, seconds: float) -> bool:
    """Whether another step fits: one as long as the step begun at `step`
    would end less than half a step past `start + seconds`."""
    now = perf_counter()
    return now + (now - step) / 2 < start + seconds


class Session:
    """One benchmark run: set-ups, units, and the checks of their outputs."""

    def __init__(self, cls, seed: int, workdir: Path, expected: str | None):
        self.cls, self.seed, self.workdir = cls, seed, workdir
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.setups: list[float] = []
        self.work = None
        self.checker = None
        self.warm_checker = None

    def record(self, found: list[str]) -> bool:
        self.attempted += 1
        if found:
            self.failed += 1
            for problem in found:
                print(f"check failed: {problem}", file=sys.stderr)
        return not found

    def set_up(self) -> None:
        """Import the package, build the inputs and make one warm-up call (at
        the workload's tiny size); the timed part is appended to setups."""
        gc.collect()
        start = perf_counter()
        pkg = load_package()
        work = self.cls(pkg, self.seed, self.workdir)
        warm = self.cls(pkg, self.seed, self.workdir / "warmup", tiny=True)
        _, parts = warm.unit()
        self.setups.append(perf_counter() - start)
        self.warm_checker = self.warm_checker or Checker(warm)
        self.record(self.warm_checker.check(parts))
        self.work = work
        self.checker = self.checker or Checker(work, self.expected)

    def unit(self, unit=None):
        """Run one unit (default: the workload's own) and check its output;
        returns its Timing, or None if it failed."""
        gc.collect()
        try:
            timing, parts = (unit or self.work.unit)()
            found = self.checker.check(parts)
        except Exception:  # a crashing unit is counted, reported and survived
            timing, found = None, [traceback.format_exc()]
        return timing if self.record(found) else None

    def peak_rss(self) -> float | None:
        """Run one full-size unit in a fresh child process (peak_rss.py) and
        return its peak RSS in MiB; its output is checked like any unit's.
        None if the child failed to report."""
        command = [sys.executable, str(BENCH_DIR / "peak_rss.py"),
                   self.cls.name, str(self.seed), str(self.workdir / "child")]
        try:
            done = subprocess.run(command, capture_output=True, text=True, timeout=170, check=True)
            child = json.loads(done.stdout.strip().splitlines()[-1])
        except (OSError, subprocess.SubprocessError, ValueError, IndexError) as exc:
            stderr = getattr(exc, "stderr", None) or ""
            self.record([f"peak-memory child failed: {exc} {stderr}"])
            return None
        self.record(child["problems"] + self.checker.match(child["sha256"]))
        return child["peak_rss_mb"]

    def measure(self, seconds: float) -> tuple[list, list[float], float | None]:
        """Untraced units for `seconds`, each right after a calibration (see
        CALIBRATION_SHARE), with the SETUPS set-ups spread evenly over the run so that setup_s
        samples the same machine state. The peak-memory child runs first,
        inside the same `seconds`. Returns the completed units' timings, the
        calibration time taken before each, and the peak memory."""
        start = perf_counter()
        self.set_up()
        peak = self.peak_rss()
        timings, calibrations = [], []
        units = 0
        step = perf_counter()
        while units < MIN_UNITS or _time_left(start, step, seconds):
            while len(self.setups) < min(SETUPS, 1 + int(SETUPS * (perf_counter() - start) / seconds)):
                self.set_up()
            step = perf_counter()
            calibration = calibration_s(CALIBRATION_SHARE * timings[-1].wall_s if timings else 0.0)
            timing = self.unit()
            units += 1
            if timing is not None:
                timings.append(timing)
                calibrations.append(calibration)
        while len(self.setups) < SETUPS:
            self.set_up()
        return timings, calibrations, peak

    def measure_traced(self, seconds: float):
        """Alternate untraced and traced units for `seconds`; returns the
        per-layer medians (None if no pair completed) and the last tracer."""
        self.set_up()
        target_list = tracing.targets(self.work.pkg)
        untraced, traced, per_unit = [], [], []
        last = None

        def traced_unit():
            nonlocal last
            last = tracing.Tracer()
            with last.installed(target_list), last.span(tracing.ROOT_SPAN):
                return self.work.unit()

        pairs = 0
        start = step = perf_counter()
        while pairs < 1 or _time_left(start, step, seconds):
            pairs += 1
            step = perf_counter()
            timing = self.unit()
            if timing is not None:
                untraced.append(timing.wall_s)
            timing = self.unit(traced_unit)
            if timing is not None:
                traced.append(timing.wall_s)
                per_unit.append(tracing.unit_metrics(last))
        if not (untraced and per_unit):
            return None, last
        metrics = tracing.median_metrics(per_unit)
        metrics["trace.untraced_wall_s"] = statistics.median(untraced)
        metrics["trace.traced_wall_s"] = statistics.median(traced)
        metrics["trace.overhead_ratio"] = metrics["trace.traced_wall_s"] / metrics["trace.untraced_wall_s"]
        return metrics, last


def end_to_end(timings: list, calibrations: list[float], setups: list[float],
               qubits: int, peak_rss_mb: float) -> dict[str, float]:
    """The listed end-to-end metrics: medians over the run's units, each
    unit's times divided by the calibration time taken right before it."""
    pairs = list(zip(timings, calibrations))
    return {
        "setup_s": statistics.median(setups),
        "wall_cal": statistics.median(t.wall_s / cal for t, cal in pairs),
        "qubits_per_cal": statistics.median(qubits / (t.sim_s / cal) for t, cal in pairs),
        "render_cal": statistics.median(t.render_s / cal for t, cal in pairs),
        "peak_rss_mb": peak_rss_mb,
    }


def seconds_metrics(timings: list, calibrations: list[float], qubits: int) -> dict[str, tuple]:
    """The same unit timings in seconds (medians), printed for people, as
    name -> (value, unit)."""
    return {
        "wall_s": (statistics.median(t.wall_s for t in timings), "s"),
        "qubits_per_s": (statistics.median(qubits / t.sim_s for t in timings), "1/s"),
        "render_s": (statistics.median(t.render_s for t in timings), "s"),
        "calibration_s": (statistics.median(calibrations), "s"),
        "units": (len(timings), "count"),
    }


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip()


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": _cpu_model(),
        "commit": _git_commit(),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def report(metrics: dict[str, float], units: dict[str, str], result: dict) -> None:
    for name, value in metrics.items():
        print(f"# {name} = {value!r} {units[name]}")
    result["metrics"] = {name: {"value": value, "unit": units[name]} for name, value in metrics.items()}
    print(json.dumps(result))


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")
    return args


def run(args) -> int:
    cls = WORKLOADS[args.workload]
    expected = load_golden()[args.workload] if args.seed == DEFAULT_SEED else None
    OUT_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR))
    session = Session(cls, args.seed, workdir, expected)
    last = None
    try:
        if args.trace == 0:
            timings, calibrations, peak = session.measure(args.seconds)
            metrics = None
            if timings and peak is not None:
                metrics = end_to_end(timings, calibrations, session.setups, session.work.qubits, peak)
                for name, (value, unit) in seconds_metrics(timings, calibrations, session.work.qubits).items():
                    print(f"# {name} = {value!r} {unit}")
            units = {name: unit for name, unit, _ in END_TO_END_METRICS}
        else:
            metrics, last = session.measure_traced(args.seconds)
            units = {name: unit for name, unit, _ in tracing.PER_LAYER_METRICS}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    print(f"# env {json.dumps(env)}")
    if last is not None:
        if last.missing:
            print(f"untraced (missing) targets: {', '.join(last.missing)}", file=sys.stderr)
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
        spans_path.write_text(json.dumps({
            "workload": args.workload, "seed": args.seed, "env": env,
            "missing": last.missing, "metrics": metrics, "spans": last.spans,
        }))
        print(f"# spans of the last traced unit: {spans_path.relative_to(ROOT)}")
    pinned = "pinned digest" if expected is not None else "first unit"
    print(f"# workload={args.workload} seed={args.seed} trace={args.trace} "
          f"attempted={session.attempted} failed={session.failed} "
          f"sha256={session.checker.last_digest} (checked against {pinned})")
    if args.trace == 0:
        print(f"# error_rate = {session.failed / session.attempted!r} ratio")
    if metrics is None:
        print("no unit completed; no metrics to report", file=sys.stderr)
        return 1
    report(metrics, units, {
        "correct": session.failed == 0, "attempted": session.attempted, "failed": session.failed,
    })
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    # Single-threaded numpy: pinned before the package (and numpy) is imported.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"run_bench: no {PACKAGE} package under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    try:
        return run(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
