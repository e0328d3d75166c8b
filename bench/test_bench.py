"""Tests of the benchmark itself. Run from the repository root:

    python -m pytest bench
"""

from __future__ import annotations

import importlib
import json
import runpy
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run_bench
import tracer as tracing
from workloads import DEFAULT_SEED, EVE_DETECTION, NOISE_SWEEP, WORKLOADS, Checker, Timing, digest, load_golden

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


@pytest.fixture(scope="module")
def pkg():
    if str(run_bench.SRC) not in sys.path:
        sys.path.insert(0, str(run_bench.SRC))
    module = importlib.import_module(run_bench.PACKAGE)
    assert Path(module.__file__).resolve().parent == run_bench.SRC / run_bench.PACKAGE
    return module


def _corrupt(parts: list[bytes]) -> list[bytes]:
    last = bytearray(parts[-1])
    last[len(last) // 2] ^= 0x01
    return parts[:-1] + [bytes(last)]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_every_workload_runs_at_tiny_size(pkg, tmp_path, name):
    work = WORKLOADS[name](pkg, 5, tmp_path, tiny=True)
    checker = Checker(work)
    for _ in range(2):
        timing, parts = work.unit()
        assert checker.check(parts) == []
        assert timing.wall_s >= timing.sim_s > 0
        assert timing.render_s > 0
    assert work.qubits > 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_one_corrupted_byte_fails_the_check(pkg, tmp_path, name):
    work = WORKLOADS[name](pkg, 5, tmp_path, tiny=True)
    _, parts = work.unit()
    pinned = Checker(work, expected=digest(parts))
    assert pinned.check(parts) == []
    assert pinned.check(_corrupt(parts)) != []
    first_unit = Checker(work)
    assert first_unit.check(parts) == []
    assert first_unit.check(_corrupt(parts)) != []


def test_invariants_catch_wrong_sizes(pkg, tmp_path):
    bulk = WORKLOADS["bulk"](pkg, 5, tmp_path, tiny=True)
    _, (text,) = bulk.unit()
    assert bulk.problems([text[: text.rfind(b"\n", 0, len(text) - 1) + 1]]) != []
    star = WORKLOADS["star"](pkg, 5, tmp_path, tiny=True)
    _, (frames,) = star.unit()
    assert star.problems([frames[:-43]]) != []


def test_self_times_on_synthetic_nested_spans():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 2.0, 3.0, 1],
        ["a", 5.0, 9.0, 0],
        ["b", 6.0, 8.0, 3],
        ["b", 7.0, 7.5, 4],  # same name nested in itself
    ]
    selfs = tracing.self_times(spans)
    assert selfs == pytest.approx({"root": 3.0, "a": 4.0, "b": 3.0})
    assert sum(selfs.values()) == pytest.approx(10.0)
    # Overlapping children count once; a child is clipped to its parent.
    overlapping = [["p", 0.0, 10.0, -1], ["c", 1.0, 5.0, 0], ["c", 3.0, 7.0, 0], ["c", 9.0, 12.0, 0]]
    assert tracing.self_times(overlapping)["p"] == pytest.approx(3.0)


def test_unit_metrics_arithmetic_with_a_fake_clock():
    ticks = iter(range(100))
    tracer = tracing.Tracer(clock=lambda: float(next(ticks)))
    round_trip = tracer._wrap_function("protocol.round_trip", lambda ok: type("R", (), {"accepted": ok})(),
                                       tracing._accepted)
    with tracer.span(tracing.ROOT_SPAN):  # root 0..5
        round_trip(True)                  # 1..2
        round_trip(False)                 # 3..4
    metrics = tracing.unit_metrics(tracer)
    assert metrics["protocol.round_trip.calls"] == 2
    assert metrics["protocol.round_trip.self_s"] == pytest.approx(2.0)
    assert metrics["protocol.accept_ratio"] == pytest.approx(0.5)
    assert metrics["protocol.session.calls"] == 0
    assert metrics["channel.perturb.trivial_ratio"] == 0.0
    assert tracing.self_times(tracer.spans)[tracing.ROOT_SPAN] == pytest.approx(3.0)


def test_calibration_reports_the_mean_pass_time():
    one_pass = run_bench.calibration_s()
    start = time.perf_counter()
    mean = run_bench.calibration_s(4 * one_pass)
    total = time.perf_counter() - start
    assert total >= 4 * one_pass
    assert 0 < mean < total / 2


def test_end_to_end_divides_each_unit_by_its_calibration():
    # Three units of the same work, each timed while the machine ran at another speed.
    timings = [Timing(2.0, 1.0, 0.5), Timing(6.0, 3.0, 1.5), Timing(4.0, 2.0, 1.0)]
    metrics = run_bench.end_to_end(timings, [1.0, 3.0, 2.0], [0.3, 0.1, 0.2], qubits=10, peak_rss_mb=5.0)
    assert metrics == pytest.approx(
        {"setup_s": 0.2, "wall_cal": 2.0, "qubits_per_cal": 10.0, "render_cal": 0.5, "peak_rss_mb": 5.0})


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_wrappers_are_gone_after_a_traced_run(pkg, tmp_path, name):
    target_list = tracing.targets(pkg)
    originals = [(owner, attr, vars(owner)[attr]) for _, owner, attr, _ in target_list]
    work = WORKLOADS[name](pkg, 5, tmp_path, tiny=True)
    _, untraced_parts = work.unit()
    tracer = tracing.Tracer()
    with tracer.installed(target_list), tracer.span(tracing.ROOT_SPAN):
        assert all(vars(owner)[attr] is not original for owner, attr, original in originals)
        _, traced_parts = work.unit()
    assert all(vars(owner)[attr] is original for owner, attr, original in originals)
    assert tracer.missing == []
    assert traced_parts == untraced_parts
    metrics = tracing.unit_metrics(tracer)
    for layer in ("qubit.encode", "qubit.apply_pauli", "qubit.measure", "channel.perturb",
                  "protocol.prepare", "protocol.derive", "protocol.round_trip"):
        assert metrics[f"{layer}.calls"] > 0, layer
    used = {"sweep": "harness.run_experiment", "bulk": "protocol.transcript", "star": "network.pack"}
    assert metrics[f"{used[name]}.calls"] > 0


@pytest.mark.parametrize("script, config", [("noise_sweep.py", NOISE_SWEEP), ("eve_detection.py", EVE_DETECTION)])
def test_sweep_configs_are_the_scripts_configs(pkg, monkeypatch, tmp_path, script, config):
    captured = {}

    class Captured(Exception):
        pass

    def capture(cls, data):
        captured.update(data)
        raise Captured

    monkeypatch.setattr(pkg.ExperimentConfig, "from_dict", classmethod(capture))
    monkeypatch.setattr(sys, "argv", [script, str(tmp_path)])
    with pytest.raises(Captured):
        runpy.run_path(str(ROOT / "scripts" / script), run_name="__main__")
    assert captured == config


def test_default_seed_outputs_match_the_pinned_digests(pkg, tmp_path):
    golden = load_golden()
    assert sorted(golden) == sorted(WORKLOADS)
    for name, cls in WORKLOADS.items():
        work = cls(pkg, DEFAULT_SEED, tmp_path)
        _, parts = work.unit()
        checker = Checker(work, golden[name])
        assert checker.check(parts) == [], name


def test_benchmark_json_lists_what_the_runner_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["bench"]
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]] == list(run_bench.END_TO_END_METRICS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER_METRICS)


def _run(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run_bench.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
def test_cli_prints_one_result_line_with_every_metric(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    done = _run("--workload", "star", "--seed", "1", "--seconds", "0.1", "--trace", trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 2
    listed = spec["end_to_end"] if trace == "0" else spec["per_layer"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in listed}


def test_cli_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    done = _run("--workload", "sweep", "--seconds", "1", cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
