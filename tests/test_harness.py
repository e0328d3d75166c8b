import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import re
import runpy
import subprocess
import sys
import tempfile
from dataclasses import fields, is_dataclass, replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import twoway_qkd
from twoway_qkd import (Basis, ConfigError, EveStrategy, ExperimentConfig, LinkSettings, NoiseModel, RunConfig, Topology,
                        emit_results, invariants, protocol, run_experiment, run_session, run_star_session)
from twoway_qkd import cli
from twoway_qkd.cli import main
from twoway_qkd.harness import (
    CONFIG_FILENAME,
    CONFIG_KEYS,
    CSV_FILENAME,
    SUMMARY_FILENAME,
    SWEEP_AXES,
    CellStats,
    RunStatistics,
    _json,
)
from twoway_qkd.protocol import HUB_SPAWN_KEY, VARIANTS, _key_rng
from twoway_qkd.qubit import RowStreams, _row_seed_words, _SeedRows

BASE = {
    "variant": "V1",
    "n_bits": 16,
    "basis_pool": [0.0, math.pi / 4],
    "seed": 5,
    "repetitions": 20,
}


def make_config(**extra):
    return ExperimentConfig.from_dict({**BASE, **extra})


def test_config_roundtrip_through_dict():
    config = make_config(sweep={"p_bitflip": [0.0, 0.1]}, tag_length=4)
    rebuilt = ExperimentConfig.from_dict(config.to_dict())
    assert rebuilt.to_dict() == config.to_dict()


def test_the_schema_is_the_config_types_own():
    # Every section set: to_dict writes CONFIG_KEYS but output_dir, and the results.csv
    # header is the sweep axes, then every CellStats field but params.
    config = make_config(tag_length=2, tag_bits=[0, 1], noise={"p_bitflip": 0.1}, repetitions=1,
                         eve={"kind": "substitute", "basis_pool": [0.3]}, sweep={"p_bitflip": [0.0, 0.1]},
                         format="structured", output_dir="elsewhere")
    assert set(config.to_dict()) | {"output_dir"} == set(CONFIG_KEYS)
    header = run_experiment(config).texts()[CSV_FILENAME].splitlines()[0]
    assert header == ",".join([*SWEEP_AXES, *(f.name for f in fields(CellStats) if f.name != "params")])


def test_config_errors_name_the_field():
    with pytest.raises(ConfigError, match="n_bits"):
        ExperimentConfig.from_dict({})
    with pytest.raises(ConfigError, match="noise"):
        make_config(noise={"p_bitflip": 1.5})
    with pytest.raises(ConfigError, match="eve"):
        make_config(eve={"kind": "quantum_memory"})
    with pytest.raises(ConfigError, match="sweep"):
        make_config(sweep={"wavelength": [1]})
    with pytest.raises(ConfigError, match="repetitions"):
        make_config(repetitions=0)
    with pytest.raises(ConfigError, match="format"):
        make_config(format="xml")


@pytest.mark.parametrize(
    "fields, field",
    [
        ({"repetitions": True}, "repetitions"),
        ({"repetitions": 2.5}, "repetitions"),
        ({"repetitions": "3"}, "repetitions"),
        ({"noise": "x"}, "noise"),
        ({"eve": "x"}, "eve"),
        ({"run": "x"}, "run"),
        ({"sweep_repetition": (2.0,)}, "sweep.repetition[0]"),
        ({"sweep_tag_length": (0, True)}, "sweep.tag_length[1]"),
        ({"sweep_p_bitflip": ("0.1",)}, "sweep.p_bitflip[0]"),
        ({"sweep_eve": (None,)}, "sweep.eve[0]"),
        # A sweep value its cell's config type rejects fails here too, not in run_experiment.
        ({"sweep_eve": ("absent", "mitm")}, "sweep.eve[1]"),
        ({"sweep_repetition": (0,)}, "sweep.repetition[0]"),
        ({"sweep_p_bitflip": (2.0,)}, "sweep.p_bitflip[0]"),
        ({"sweep_tag_length": (99,)}, "sweep.tag_length[0]"),
        ({"run": RunConfig(n_bits=4, tag_length=1, tag_bits=(1,)), "sweep_tag_length": (2,)}, "sweep.tag_length[0]"),
    ],
)
def test_experiment_config_checks_field_types(fields, field):
    with pytest.raises(ConfigError, match=rf"^{re.escape(field)}:"):
        ExperimentConfig(**{"run": RunConfig(n_bits=4), **fields})


def test_experiment_config_takes_numpy_integers_as_ints():
    config = ExperimentConfig(RunConfig(n_bits=4), repetitions=np.int64(3), sweep_repetition=(np.int64(2),))
    plain = ExperimentConfig(RunConfig(n_bits=4), repetitions=3, sweep_repetition=(2,))
    assert config.json_text() == plain.json_text()
    assert run_experiment(config).texts() == run_experiment(plain).texts()
    run = RunConfig(n_bits=np.int64(4), repetition=np.int32(2), tag_length=np.int8(1), seed=np.uint16(3),
                    tag_bits=(np.uint8(0),))
    plain = ExperimentConfig(RunConfig(n_bits=4, repetition=2, tag_length=1, seed=3, tag_bits=(0,)), repetitions=2)
    assert ExperimentConfig(run, repetitions=2).json_text() == plain.json_text()


def test_python_built_config_with_int_probabilities_replays_byte_for_byte(tmp_path):
    config = ExperimentConfig(RunConfig(n_bits=4), repetitions=2, noise=NoiseModel(p_bitflip=0, p_both=1),
                              sweep_tag_length=(0, 2))
    emit_results(run_experiment(config), tmp_path / "a")
    replayed = ExperimentConfig.from_json_file(tmp_path / "a" / CONFIG_FILENAME)
    emit_results(run_experiment(replayed), tmp_path / "b")
    for name in (CONFIG_FILENAME, CSV_FILENAME, SUMMARY_FILENAME):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    assert "0.0,1," in (tmp_path / "a" / CSV_FILENAME).read_text()


def test_single_cell_noiseless_grid():
    stats = run_experiment(make_config())
    assert len(stats.cells) == 1
    cell = stats.cells[0]
    assert cell.qber == 0.0
    assert cell.agreement_rate == 1.0
    assert cell.detection_rate == 0.0
    assert cell.runs == 20


def test_sweep_produces_rows_in_product_order():
    config = make_config(
        repetitions=2,
        sweep={"p_bitflip": [0.0, 0.1], "repetition": [1, 2, 3]},
    )
    stats = run_experiment(config)
    assert len(stats.cells) == 6
    order = [(c.params["p_bitflip"], c.params["repetition"]) for c in stats.cells]
    assert order == [(0.0, 1), (0.0, 2), (0.0, 3), (0.1, 1), (0.1, 2), (0.1, 3)]
    csv = stats.texts()[CSV_FILENAME].strip().splitlines()
    assert len(csv) == 7  # header + 6 rows


def test_rates_are_probabilities_with_sample_counts():
    config = make_config(
        variant="V2",
        n_bits=8,
        repetition=3,
        tag_length=4,
        repetitions=30,
        sweep={"p_bitflip": [0.05, 0.2]},
    )
    stats = run_experiment(config)
    for cell in stats.cells:
        assert cell.runs == 30
        for rate in (cell.qber, cell.agreement_rate, cell.detection_rate, cell.erasure_rate):
            assert 0.0 <= rate <= 1.0


def binomial_se(rate: float, n: int) -> float:
    """One rate's binomial standard error over n trials, in scalar arithmetic."""
    return math.sqrt(max(0.0, rate * (1.0 - rate)) / n)


def reference_cells(config: ExperimentConfig) -> tuple[CellStats, ...]:
    """The per-session loop run_experiment replaced, kept as its oracle:
    one run_session per repetition, driven by the generator of spawn key
    (cell index, repetition index); each rate is a cell's integer count over
    its trials, divided once. A cell's Eve taps with the configured pool, or
    else the run's, on the configured legs, or else the forward leg."""
    cells = []
    for cell_index, params in enumerate(config.cells()):
        tag_bits = None if config.run.tag_bits is None else config.run.tag_bits[: params["tag_length"]]
        run_config = replace(config.run, repetition=params["repetition"], tag_length=params["tag_length"],
                             tag_bits=tag_bits)
        noise = replace(config.noise, p_bitflip=float(params["p_bitflip"]))
        pool = config.eve.basis_pool or tuple(b.theta for b in config.run.basis_pool)
        eve = EveStrategy.absent() if params["eve"] == "absent" else EveStrategy(
            params["eve"], pool, config.eve.legs or frozenset({"forward"}))
        errors = erasures = agreements = detections = 0
        for rep in range(config.repetitions):
            rng = np.random.default_rng(np.random.SeedSequence(config.run.seed, spawn_key=(cell_index, rep)))
            result = run_session(run_config, noise, noise, eve, rng=rng)
            errors += int(np.count_nonzero(result.derivation.m_prime != result.key_message))
            agreements += int(result.agreement)
            detections += int(result.abort_reason == "tag_mismatch")
            if run_config.variant == "V2":
                erasures += int(np.count_nonzero(result.derivation.p))
        n = config.repetitions
        qber = errors / (n * run_config.message_length)
        erasure = erasures / (n * run_config.n_bits)
        cells.append(
            CellStats(
                params=params,
                runs=n,
                qber=qber,
                qber_se=binomial_se(qber, n * run_config.message_length),
                agreement_rate=agreements / n,
                agreement_se=binomial_se(agreements / n, n),
                detection_rate=detections / n,
                detection_se=binomial_se(detections / n, n),
                erasure_rate=erasure,
                erasure_se=binomial_se(erasure, n * run_config.n_bits),
            )
        )
    return tuple(cells)


@st.composite
def experiment_dicts(draw):
    variant = draw(st.sampled_from(["V1", "V2", "V3"]))
    n_bits = draw(st.integers(1, 6))
    pool = draw(st.sampled_from([[0.0], [0.0, math.pi / 4], [0.0, math.pi / 8, math.pi / 4]]))
    return {
        "variant": variant,
        "n_bits": n_bits,
        "repetition": draw(st.integers(1, 4)),
        "basis_pool": pool,
        "tag_length": draw(st.integers(0, n_bits)),
        "seed": draw(st.integers(0, 2**32)),
        "repetitions": draw(st.integers(1, 40)),
        "noise": {
            "p_bitflip": draw(st.sampled_from([0.0, 0.05, 0.3])),
            "p_phaseflip": draw(st.sampled_from([0.0, 0.1])),
            "p_both": draw(st.sampled_from([0.0, 0.1])),
        },
        "eve": {
            "kind": (kind := draw(st.sampled_from(["absent", "intercept_resend", "substitute"]))),
            "basis_pool": draw(st.sampled_from([pool, [0.0, math.pi / 8]] + [[]] * (kind == "absent"))),
            "legs": draw(st.sampled_from([[], ["forward"], ["backward"], ["forward", "backward"]])),
        },
        # Cells that draw alike share passes: several p_bitflip or tag_length values, alone or crossed.
        "sweep": draw(st.sampled_from([
            {}, {"p_bitflip": [0.0, 0.2]}, {"repetition": [1, 2]}, {"eve": ["absent", "substitute"]},
            {"p_bitflip": [0.05, 0.0, 0.3, 0.1]}, {"tag_length": [n_bits, 0, 1]},
            {"p_bitflip": [0.3, 0.0, 0.05], "tag_length": [0, n_bits]},
            {"repetition": [2, 1], "tag_length": [1, n_bits]},
        ])),
    }


@settings(max_examples=50, deadline=None)
@given(data=experiment_dicts(), batch_qubits=st.one_of(st.integers(1, 64), st.just(protocol.BATCH_QUBITS)))
@example(
    data={"variant": "V2", "n_bits": 2, "repetition": 2, "seed": 3, "repetitions": 25,
          "noise": {"p_bitflip": 0.3}, "eve": {"kind": "intercept_resend", "basis_pool": [0.0],
                                                "legs": ["backward"]}},
    batch_qubits=16,  # chunks of 4 runs: 6 full chunks and one of 1
)
def test_batched_experiment_matches_the_per_session_loop(data, batch_qubits):
    config = ExperimentConfig.from_dict(data)
    with mock.patch.object(protocol, "BATCH_QUBITS", batch_qubits):
        assert run_experiment(config).cells == reference_cells(config)


def test_experiment_is_deterministic():
    config = make_config(sweep={"p_bitflip": [0.0, 0.1]}, eve={"kind": "absent"})
    s1, s2 = run_experiment(config), run_experiment(config)
    assert s1.texts() == s2.texts()


def test_emit_and_replay_byte_identical(tmp_path):
    config = make_config(sweep={"p_bitflip": [0.0, 0.02]}, repetitions=10)
    stats = run_experiment(config)
    emit_results(stats, tmp_path / "a")
    reloaded = ExperimentConfig.from_json_file(tmp_path / "a" / CONFIG_FILENAME)
    emit_results(run_experiment(reloaded), tmp_path / "b")
    for name in (CONFIG_FILENAME, CSV_FILENAME, SUMMARY_FILENAME):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_substitute_eve_acceptance_drops_with_tag_length():
    config = make_config(
        n_bits=32,
        repetitions=200,
        eve={"kind": "substitute", "basis_pool": [0.0, math.pi / 4], "legs": ["forward"]},
        sweep={"tag_length": [0, 4, 8, 16]},
    )
    stats = run_experiment(config)
    acceptance = [1.0 - c.detection_rate for c in stats.cells]
    assert all(a <= b + 1e-12 for a, b in zip(acceptance[1:], acceptance))
    assert acceptance[0] == 1.0
    assert acceptance[-1] < 0.05


@pytest.mark.parametrize("kind", ["intercept_resend", "substitute"])
def test_an_eve_given_no_legs_taps_the_forward_leg(kind):
    pool = (0.0, math.pi / 4)
    data = {**BASE, "n_bits": 32, "tag_length": 8, "seed": 1, "repetitions": 200}
    explicit = ExperimentConfig.from_dict({**data, "eve": {"kind": kind, "basis_pool": pool, "legs": ["forward"]}})
    factory = getattr(EveStrategy, kind)
    assert EveStrategy(kind, pool) == factory(pool) == explicit.eve
    configs = [ExperimentConfig.from_dict({**data, "eve": {"kind": kind, "basis_pool": pool, **legs}})
               for legs in ({}, {"legs": []})]
    configs += [replace(explicit, eve=eve) for eve in (EveStrategy(kind, pool), EveStrategy(kind, pool, ()), factory(pool))]
    # An absent Eve with no pool under a swept active kind: the run's pool, on the forward leg.
    swept = ExperimentConfig.from_dict({**data, "eve": {"legs": []}, "sweep": {"eve": [kind]}})
    assert swept.eve == EveStrategy("absent", pool, ("forward",))
    stats = run_experiment(explicit)
    assert stats.cells[0].qber > 0.2 and stats.cells[0].detection_rate > 0.8
    assert run_experiment(swept).texts()[CSV_FILENAME] == stats.texts()[CSV_FILENAME]
    for config in configs:
        assert config == explicit and config.eve.legs == {"forward"}
        assert run_experiment(config).texts()[CSV_FILENAME] == stats.texts()[CSV_FILENAME]
        session = run_session(config.run, eve=config.eve)
        leaf = run_star_session(Topology(leaves=("a",), links={"a": LinkSettings(eve=config.eve)}), config.run)
        for result in (session, leaf.outcomes["a"].result):
            assert result.eve_forward is not None and result.eve_backward is None


# config_resolved.json as written before Eve's defaults were resolved when the config is
# built (legs [] ran on the forward leg; an empty pool under a swept kind ran with the run's
# pool), and the sha256 of the results.csv it was written with.
LEGACY_CONFIGS = [
    ("""{
  "basis_pool": [
    0.0,
    0.7853981633974483
  ],
  "eve": {
    "basis_pool": [
      0.0,
      0.7853981633974483
    ],
    "kind": "intercept_resend",
    "legs": []
  },
  "format": "tabular",
  "n_bits": 32,
  "noise": {
    "p_bitflip": 0.0,
    "p_both": 0.0,
    "p_phaseflip": 0.0
  },
  "repetition": 1,
  "repetitions": 200,
  "seed": 1,
  "sweep": {},
  "tag_bits": null,
  "tag_length": 8,
  "variant": "V1"
}
""", "d148934b910affb69b8d1c141f98b4644972d17948fd6cc329d12449bb01c566"),
    ("""{
  "basis_pool": [
    0.0,
    0.39269908169872414,
    0.7853981633974483
  ],
  "eve": {
    "basis_pool": [],
    "kind": "absent",
    "legs": []
  },
  "format": "tabular",
  "n_bits": 16,
  "noise": {
    "p_bitflip": 0.0,
    "p_both": 0.0,
    "p_phaseflip": 0.0
  },
  "repetition": 1,
  "repetitions": 100,
  "seed": 3,
  "sweep": {
    "eve": [
      "absent",
      "intercept_resend",
      "substitute"
    ]
  },
  "tag_bits": null,
  "tag_length": 4,
  "variant": "V1"
}
""", "299bbfa108f29458c17bcf82b6b46d72035e977df7b341ea9c64d2949fbf44f8"),
]


@pytest.mark.parametrize("text, csv_sha256", LEGACY_CONFIGS, ids=["no_legs", "no_pool_swept_kind"])
def test_a_legacy_config_with_eve_defaults_replays_to_its_numbers(tmp_path, capsys, text, csv_sha256):
    (tmp_path / "old").mkdir()
    (tmp_path / "old" / CONFIG_FILENAME).write_text(text)
    assert main(["replay", "--input-dir", str(tmp_path / "old"), "--output-dir", str(tmp_path / "new")]) == 0
    assert hashlib.sha256((tmp_path / "new" / CSV_FILENAME).read_bytes()).hexdigest() == csv_sha256
    old, new = json.loads(text), json.loads((tmp_path / "new" / CONFIG_FILENAME).read_text())
    assert new["eve"] == {**old["eve"], "basis_pool": old["basis_pool"], "legs": ["forward"]}
    assert {**new, "eve": None} == {**old, "eve": None}


def test_cli_run_and_replay(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, "sweep": {"p_bitflip": [0.0, 0.1]}}))
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out1")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("p_bitflip,")
    assert main(["replay", "--input-dir", str(tmp_path / "out1"),
                 "--output-dir", str(tmp_path / "out2")]) == 0
    for name in (CONFIG_FILENAME, CSV_FILENAME, SUMMARY_FILENAME):
        assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()


def test_cli_structured_format(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE))
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out"),
                 "--format", "structured"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "cells" in payload and len(payload["cells"]) == 1


@pytest.mark.parametrize("output_format, echoed", [("tabular", CSV_FILENAME), ("structured", SUMMARY_FILENAME)])
def test_cli_builds_the_artifact_texts_once_and_echoes_the_file_written(tmp_path, capsys, output_format, echoed):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, "sweep": {"p_bitflip": [0.0, 0.1]}}))
    with mock.patch.object(RunStatistics, "texts", autospec=True, side_effect=RunStatistics.texts) as texts:
        assert main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out"),
                     "--format", output_format]) == 0
    assert texts.call_count == 1
    assert capsys.readouterr().out == (tmp_path / "out" / echoed).read_text()


def test_cli_seed_override_changes_resolved_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE))
    assert main(["run", "--config", str(cfg_path), "--seed", "99",
                 "--output-dir", str(tmp_path / "out")]) == 0
    stored = json.loads((tmp_path / "out" / CONFIG_FILENAME).read_text())
    assert stored["seed"] == 99


def test_cli_rejects_negative_seed_override(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE))
    assert main(["run", "--config", str(cfg_path), "--seed", "-1", "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "seed" in err


def test_cli_config_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 1
    no_n = tmp_path / "incomplete.json"
    no_n.write_text("{}")
    assert main(["run", "--config", str(no_n)]) == 1
    # Bytes that are not UTF-8, a seed past Python's int digit limit, a sweep nested past the recursion limit.
    for raw in (b'{"n_bits": 4, "seed": 0}\xff', b'{"n_bits": 4, "seed": ' + b"9" * 5000 + b"}",
                b'{"n_bits": 4, "sweep": ' + b"[" * 100_000 + b"]" * 100_000 + b"}"):
        bad.write_bytes(raw)
        capsys.readouterr()
        assert main(["run", "--config", str(bad)]) == 1
        assert capsys.readouterr().err.startswith("config error: config file is not valid JSON")


@pytest.mark.parametrize(
    "override, field",
    [
        ({"noise": {"p_bitflip": float("nan")}}, "p_bitflip"),
        ({"basis_pool": [float("inf")]}, "basis_pool"),
        ({"eve": {"kind": "intercept_resend", "basis_pool": [float("-inf")]}}, "basis_pool"),
        # Integers beyond the float range.
        ({"basis_pool": [10**400]}, "basis_pool"),
        ({"noise": {"p_bitflip": 10**400}}, "p_bitflip"),
    ],
)
def test_cli_rejects_non_finite_numbers(tmp_path, capsys, override, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, **override}))  # NaN / Infinity literals
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err


@pytest.mark.parametrize(
    "override, field",
    [
        ({"tag_bits": [2, 0], "tag_length": 2}, "tag_bits"),
        ({"repetitions": "abc"}, "repetitions"),
        ({"n_bits": 4.5}, "n_bits"),
        ({"noise": [1]}, "noise"),
        ({"noise": {"p_bitflip": "0.1"}}, "p_bitflip"),
        ({"eve": "x"}, "eve"),
        ({"eve": {"kind": "intercept_resend", "basis_pool": [0.0], "legs": "forward"}}, "eve.legs"),
        ({"sweep": {"p_bitflip": 0.1}}, "sweep.p_bitflip"),
        ({"sweep": {"repetition": [3, "5"]}}, "sweep.repetition[1]"),
        ({"repetitons": 5}, "repetitons"),
        ({"seed": -1}, "seed"),
        ({"sweep": {"p_bitflip": []}}, "sweep.p_bitflip"),
        ({"sweep": {"repetition": [3], "eve": []}}, "sweep.eve"),
        ({"sweep": {"repetition": []}}, "sweep.repetition"),
        ({"sweep": {"tag_length": []}}, "sweep.tag_length"),
        ({"basis_pool": []}, "basis_pool"),
        ({"eve": {"kind": "x", "basis_pool": [0.1]}}, "eve.kind"),
        ({"eve": {"kind": "substitute"}}, "basis_pool"),
        ({"noise": {"p_bitflip": 0.6, "p_phaseflip": 0.6}}, "p_phaseflip"),
        ({"sweep": {"eve": ["mitm"]}}, "sweep.eve[0]"),
        ({"sweep": {"repetition": [0]}}, "sweep.repetition[0]"),
        ({"sweep": {"p_bitflip": [2.0]}}, "sweep.p_bitflip[0]"),
        ({"sweep": {"tag_length": [99]}}, "sweep.tag_length[0]"),
        ({"tag_length": 1, "tag_bits": [1], "sweep": {"tag_length": [2]}}, "sweep.tag_length[0]"),
        # A section's range checks name the field as its type checks do: section.field.
        ({"noise": {"p_bitflip": 2.0}}, "noise.p_bitflip"),
        ({"noise": {"p_bitflip": 0.6, "p_phaseflip": 0.6}}, "noise.p_bitflip + p_phaseflip"),
        ({"eve": {"kind": "substitute"}}, "eve.basis_pool"),
    ],
)
def test_cli_rejects_malformed_json_fields(tmp_path, capsys, override, field):
    with pytest.raises(ConfigError, match=re.escape(field)):  # when the config is built
        ExperimentConfig.from_dict({**BASE, **override})
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, **override}))
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "config_type, fields, field",
    [
        (Basis, {"theta": "0.5"}, "theta"),
        (Basis, {"theta": float("inf")}, "theta"),
        (RunConfig, {"n_bits": 4.5}, "n_bits"),
        (RunConfig, {"n_bits": 4, "basis_pool": ()}, "basis_pool"),
        (NoiseModel, {"p_both": "0.1"}, "p_both"),
        (NoiseModel, {"p_bitflip": 1.5}, "p_bitflip"),
        (EveStrategy, {"kind": None}, "kind"),
        (EveStrategy, {"kind": "x"}, "kind"),
        (LinkSettings, {"eve": "absent"}, "eve"),
        # LinkSettings holds no number of its own (a leg's range is its NoiseModel's): two types.
        (LinkSettings, {"noise_backward": {"p_phaseflip": 0.1}}, "noise_backward"),
        (Topology, {"leaves": "ab"}, "leaves"),
        (Topology, {"leaves": ()}, "leaves"),
        (ExperimentConfig, {"run": RunConfig(n_bits=4), "repetitions": "2"}, "repetitions"),
        (ExperimentConfig, {"run": RunConfig(n_bits=4), "repetitions": 0}, "repetitions"),
    ],
)
def test_every_config_type_raises_config_error(config_type, fields, field):
    with pytest.raises(ConfigError) as excinfo:
        config_type(**fields)
    assert field in str(excinfo.value)


def test_cli_sweep_requires_axes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE))
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    cfg_path.write_text(json.dumps({**BASE, "sweep": {"repetition": [1, 3]}}))
    assert main(["sweep", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 0


ARTIFACTS = (CONFIG_FILENAME, CSV_FILENAME, SUMMARY_FILENAME)
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("name", ["noise_sweep", "eve_detection"])
def test_the_shipped_configs_sweep_and_replay(tmp_path, capsys, name):
    shipped = SCRIPTS / f"{name}.json"
    assert ExperimentConfig.from_json_file(shipped).has_sweep
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**json.loads(shipped.read_text()), "repetitions": 2}))
    assert main(["sweep", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 0
    assert capsys.readouterr().out == (tmp_path / "out" / CSV_FILENAME).read_text()
    assert main(["replay", "--input-dir", str(tmp_path / "out"), "--output-dir", str(tmp_path / "replay")]) == 0
    for artifact in ARTIFACTS:
        assert (tmp_path / "out" / artifact).read_bytes() == (tmp_path / "replay" / artifact).read_bytes()



@pytest.mark.parametrize("name", ["noise_sweep", "eve_detection"])
def test_each_script_runs_what_sweep_runs_on_its_config(tmp_path, monkeypatch, name):
    script = SCRIPTS / f"{name}.py"
    for override in ([], [str(tmp_path / "out")]):
        with mock.patch.object(cli, "_execute", return_value=0) as executed:
            flags = ["--output-dir", *override] if override else []
            assert main(["sweep", "--config", str(script.with_suffix(".json")), *flags]) == 0
            monkeypatch.setattr(sys, "argv", [str(script), *override])
            with pytest.raises(SystemExit) as exited:
                runpy.run_path(str(script), run_name="__main__")
        assert exited.value.code == 0
        (via_sweep,), (via_script,) = (call.args for call in executed.call_args_list)
        assert via_script == via_sweep
        assert via_sweep.output_dir == (override or [f"results/{name}"])[0]

def test_run_and_sweep_take_the_same_overrides(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, "sweep": {"p_bitflip": [0.0, 0.1]}}))
    outputs = []
    for command in ("run", "sweep"):
        out = tmp_path / command
        assert main([command, "--config", str(cfg_path), "--seed", "11", "--format", "structured",
                     "--output-dir", str(out)]) == 0
        outputs.append((capsys.readouterr().out, [(out / artifact).read_bytes() for artifact in ARTIFACTS]))
    assert outputs[0] == outputs[1]
    echoed, (config, _, summary) = outputs[0]
    assert echoed.encode() == summary and json.loads(config)["seed"] == 11


# A tiny valid config; the fuzz test below replaces one of its fields.
TINY = {
    "variant": "V2",
    "n_bits": 4,
    "repetition": 3,
    "basis_pool": [0.0, math.pi / 4],
    "tag_length": 2,
    "tag_bits": [1, 0],
    "seed": 3,
    "repetitions": 2,
    "noise": {"p_bitflip": 0.1, "p_phaseflip": 0.0, "p_both": 0.0},
    "eve": {"kind": "intercept_resend", "basis_pool": [0.0, math.pi / 4], "legs": ["forward"]},
    "sweep": {"p_bitflip": [0.0, 0.1], "repetition": [1, 3], "eve": ["absent", "substitute"], "tag_length": [0, 2]},
    "format": "tabular",
    "output_dir": "unused",
}
TINY_FIELDS = [(key,) for key in TINY] + [
    (section, key) for section in ("noise", "eve", "sweep") for key in TINY[section]
]

# Any JSON value. Integers stay small so that no config asks for much work.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-64, 64) | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=3) | st.dictionaries(st.text(max_size=8), children, max_size=3),
    max_leaves=6,
)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(TINY_FIELDS), json_values)
def test_cli_fuzz_one_field_exits_cleanly(field, value):
    config = json.loads(json.dumps(TINY))
    *sections, key = field
    target = config
    for section in sections:
        target = target[section]
    target[key] = value
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        cfg_path = f"{tmp}/cfg.json"
        with open(cfg_path, "w") as handle:
            json.dump(config, handle)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = main(["run", "--config", cfg_path, "--output-dir", f"{tmp}/out"])
    assert code == 0 or (code == 1 and err.getvalue().startswith("config error:")), err.getvalue()


ANGLES = (0.0, 1.0, 0.5, math.pi / 4)  # pairwise distinct modulo pi, in float32 too
KINDS = ("absent", "intercept_resend", "substitute")


@st.composite
def tiny_specs(draw):
    """The constructor arguments of a config of TINY's shape, as plain Python values."""
    variant, n_bits, repetition = draw(st.sampled_from(VARIANTS)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    tag_length = draw(st.integers(0, n_bits))
    tag_bits = draw(st.none() | st.lists(st.sampled_from([0, 1]), min_size=tag_length, max_size=tag_length))
    kind = draw(st.sampled_from(KINDS))
    axis = lambda values: draw(st.none() | st.lists(st.sampled_from(values), min_size=1, max_size=2, unique=True))
    return {
        "run": dict(n_bits=n_bits, repetition=repetition, variant=variant, tag_length=tag_length,
                    seed=draw(st.integers(0, 300)), tag_bits=tag_bits,
                    basis_pool=draw(st.lists(st.sampled_from(ANGLES), min_size=1, max_size=3, unique=True))),
        "repetitions": draw(st.integers(1, 3)),
        "noise": dict(p_bitflip=draw(st.sampled_from([0, 0.1, 0.5])), p_phaseflip=draw(st.sampled_from([0, 0.2])),
                      p_both=draw(st.sampled_from([0, 0.25]))),
        "eve": dict(kind=kind, basis_pool=draw(st.lists(st.sampled_from(ANGLES), min_size=int(kind != "absent"),
                                                        max_size=2)),
                    legs=draw(st.lists(st.sampled_from(["forward", "backward"]), max_size=2, unique=True))),
        "sweep_p_bitflip": axis([0.0, 0.1, 0.5]),
        "sweep_repetition": axis([1, 2, 3]),
        "sweep_eve": axis(KINDS),
        "sweep_tag_length": axis(range(tag_length + 1) if tag_bits is not None else range(n_bits + 1)),
        "output_format": draw(st.sampled_from(["tabular", "structured"])),
        "output_dir": "unused",
    }


def build_config(spec):
    """The ExperimentConfig of a tiny_specs dict, built in Python. A dict section becomes
    its RunConfig, NoiseModel or EveStrategy, and a list run pool Basis objects; any
    other value is passed as it is."""
    sections = {"run": RunConfig, "noise": NoiseModel, "eve": EveStrategy}
    fields = dict(spec)
    for name, factory in sections.items():
        if type(fields[name]) is dict:
            if name == "run" and type(pool := fields[name]["basis_pool"]) is list:
                fields[name] = {**fields[name], "basis_pool": tuple(map(Basis, pool))}
            fields[name] = factory(**fields[name])
    return ExperimentConfig(**fields)


# The numbers of a spec, by path and type; a path ending in None means every item of a list.
NUMBERS = [(("run", key), int) for key in ("n_bits", "repetition", "tag_length", "seed")] + [
    (("run", "tag_bits", None), int), (("run", "basis_pool", None), float), (("repetitions",), int),
    (("eve", "basis_pool", None), float), (("sweep_p_bitflip", None), float), (("sweep_repetition", None), int),
    (("sweep_tag_length", None), int)] + [(("noise", key), float) for key in ("p_bitflip", "p_phaseflip", "p_both")]


def respelled(draw, value, kind):
    """`value` in a numpy or Python type that holds it: an int as int, int64 or uint8, a float as float, float64,
    float32 or (if integral) int. float32 rounds, so a config is compared with its own replay."""
    if kind is int:
        types = [int, np.int64] + [np.uint8] * (0 <= value < 256)
    else:
        types = [float, np.float64, np.float32] + [int] * (value == int(value))
    return draw(st.sampled_from(types))(value)


@st.composite
def respelled_specs(draw):
    spec = json.loads(json.dumps(draw(tiny_specs())))  # a deep copy
    for (*sections, key), kind in NUMBERS:
        target = spec
        for section in sections:
            target = target[section]
        if key is not None:
            target[key] = respelled(draw, target[key], kind)
        elif target is not None:
            target[:] = [respelled(draw, item, kind) for item in target]
    return spec


@settings(max_examples=60, deadline=None)
@given(respelled_specs())
def test_respelled_config_replays_byte_for_byte(spec):
    # numpy scalars and ints in float fields are stored as the Python values from_dict gives.
    config = build_config(spec)
    replayed = ExperimentConfig.from_dict(config.to_dict())
    assert replace(replayed, output_dir=config.output_dir) == config  # output_dir is not written
    assert config.json_text() == replayed.json_text()
    stats, replayed_stats = run_experiment(config), run_experiment(replayed)
    assert stats.texts() == replayed_stats.texts()


def oracle_texts(stats) -> dict:
    """Each artifact's text as json.dumps and the CSV formatter the one-pass emitter replaced
    spell it: the emitter's oracle."""
    config, rows = stats.config.to_dict(), [cell.to_dict() for cell in stats.cells]
    lines = [",".join(rows[0])] + [",".join(repr(v) if isinstance(v, float) else str(v) for v in row.values())
                                   for row in rows]
    summary = {"config": config, "cells": rows, "note": "all rates are simulator-derived Monte Carlo estimates"}
    return {CONFIG_FILENAME: json.dumps(config, indent=2, sort_keys=True) + "\n", CSV_FILENAME: "\n".join(lines) + "\n",
            SUMMARY_FILENAME: json.dumps(summary, indent=2, sort_keys=True) + "\n"}


@settings(max_examples=60, deadline=None)
@given(st.one_of(experiment_dicts().map(ExperimentConfig.from_dict), respelled_specs().map(build_config)))
def test_artifacts_are_the_bytes_json_dumps_writes(config):
    stats = run_experiment(config)
    expected = oracle_texts(stats)
    assert config.json_text() == expected[CONFIG_FILENAME]
    assert stats.texts() == expected
    # emit_results writes those texts as ASCII bytes, building none with json.dumps and writing none as text.
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(json, "dumps", side_effect=AssertionError), \
            mock.patch.object(Path, "write_text", side_effect=AssertionError):
        written = emit_results(stats, tmp)
        assert [path.name for path in written] == [CONFIG_FILENAME, CSV_FILENAME, SUMMARY_FILENAME]
        assert {path.name: text for path, text in written.items()} == expected
        assert {path.name: path.read_bytes() for path in written} == {
            name: text.encode("ascii") for name, text in expected.items()}


# Cell values at the edges of their spellings: float extremes and non-finite values (JSON NaN and
# Infinity, CSV nan and inf), ints past 2**63, and strings that need escapes.
EDGE_VALUES = [-0.0, 5e-324, 1.7976931348623157e308, math.nan, math.inf, -math.inf, 2**63, -(2**64) - 1, 10**30,
               'a"b', "back\\slash", "\x00\x1f\n\t", "\u00e9", "\u2028", "\U0001f600", ""]
cell_values = st.sampled_from(EDGE_VALUES) | st.floats() | st.integers() | st.text(max_size=6)
STAT_FIELDS = [f.name for f in fields(CellStats) if f.name != "params"]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text(max_size=6).filter(lambda key: key not in STAT_FIELDS), max_size=5, unique=True),
       st.integers(1, 3), st.data())
def test_cell_emitter_spells_each_value_as_json_dumps_and_the_csv_formatter_do(keys, n_cells, data):
    cells = tuple(CellStats(params={key: data.draw(cell_values) for key in keys},
                            **{name: data.draw(cell_values) for name in STAT_FIELDS}) for _ in range(n_cells))
    stats = RunStatistics(make_config(), cells)  # no sweep, null tag_bits
    expected = oracle_texts(stats)
    assert stats.texts() == expected
    assert '"sweep": {}' in expected[CONFIG_FILENAME] and '"tag_bits": null' in expected[CONFIG_FILENAME]


@settings(max_examples=200, deadline=None)
@given(st.recursive(st.none() | cell_values, lambda children: st.lists(children, max_size=3)
                    | st.lists(children, max_size=3).map(tuple) | st.dictionaries(st.text(max_size=6), children, max_size=3),
                    max_leaves=8))
def test_config_emitter_is_json_dumps(value):
    # The config's emitter, on nested values of every type a config holds, empty containers and the edge values.
    assert _json(value) == json.dumps(value, indent=2, sort_keys=True)


# Values of the wrong type for each kind of field; "list" is a tuple field's container,
# "config" a RunConfig, NoiseModel or EveStrategy.
WRONG = {
    int: [2.5, np.float64(2.0), "3", True, None, 1j, [1]],
    float: ["0.1", True, None, 1j, [0.1], np.array([0.1, 0.2])],
    "angle": ["0.1", True, None, 1j, float("nan"), float("inf"), -float("inf")],
    str: [3, None, True, b"x", ["x"]],
    # None is no list, but it is a valid tag_bits and sweep axis; a set has no order (legs, stored as one, take it).
    "list": [0.5, True, "ab", {"a": 1}, 3, {1}],
    "config": ["x", None, 3, [1], object()],
}
# Every field of a spec: (path, the name its error starts with, kind). An int ends
# the path of a list item; item 0 of the run's pool is the angle of a Basis.
FIELDS = [(("run", key), key, int) for key in ("n_bits", "repetition", "tag_length", "seed")] + [
    (("run", "variant"), "variant", str), (("run", "basis_pool"), "basis_pool", "list"),
    (("run", "basis_pool", 0), "theta", "angle"), (("run", "tag_bits"), "tag_bits", "list"),
    (("run", "tag_bits", 0), "tag_bits[0]", int), (("repetitions",), "repetitions", int),
    (("eve", "kind"), "kind", str), (("eve", "basis_pool"), "basis_pool", "list"),
    (("eve", "basis_pool", 0), "basis_pool[0]", "angle"), (("eve", "legs"), "legs", "list"),
    (("eve", "legs", 0), "legs[0]", str), (("output_format",), "format", str), (("output_dir",), "output_dir", str),
    (("run",), "run", "config"), (("noise",), "noise", "config"), (("eve",), "eve", "config")] + [
    (("noise", key), key, float) for key in ("p_bitflip", "p_phaseflip", "p_both")] + [
    ((f"sweep_{axis}",), f"sweep.{axis}", "list") for axis in SWEEP_AXES] + [
    ((f"sweep_{axis}", 0), f"sweep.{axis}[0]", kind) for axis, kind in SWEEP_AXES.items()]


@settings(max_examples=200, deadline=None)
@given(tiny_specs(), st.sampled_from(FIELDS), st.data())
def test_a_wrong_typed_field_is_an_error_naming_it(spec, field, data):
    # Give every list field an item 0.
    spec["run"].update(tag_length=1, tag_bits=[1])
    spec["eve"].update(kind="substitute", basis_pool=[0.5, 0.0], legs=["forward"])
    spec.update(sweep_p_bitflip=[0.1], sweep_repetition=[2], sweep_eve=["absent"], sweep_tag_length=[1])
    build_config(spec)
    (*sections, key), name, kind = field
    target = spec
    for section in sections:
        target = target[section]
    target[key] = data.draw(st.sampled_from(WRONG[kind]))
    with pytest.raises(ValueError) as raised:  # a ConfigError is one; a TypeError or AttributeError fails the test
        build_config(spec)
    assert str(raised.value).startswith(f"{name}:"), str(raised.value)


def test_cli_verify_passes(capsys):
    assert main(["verify"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(invariants.CHECKS) == 3
    assert all(line.startswith("PASS  ") and "bytes depend on" in line for line in lines)


def test_cli_verify_fails_on_a_wrong_pin(capsys, monkeypatch):
    star = invariants.CHECKS[1]
    assert star.name == "three_leaf_star"
    wrong = star._replace(pins=("0" * 64,))
    monkeypatch.setattr(invariants, "CHECKS", (invariants.CHECKS[0], wrong, invariants.CHECKS[2]))
    assert main(["verify"]) == 2
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[:2] for line in lines] == [
        ["PASS", "v2_t4_over_120_qubits"], ["FAIL", "three_leaf_star"], ["PASS", "v3_even_and_odd_t_phase_noise"]]
    assert "PCG64 and SeedSequence" in lines[1]


# Runs in a fresh interpreter, so that no other test's imports are in sys.modules.
_IMPORT_BOUNDARY = """
import contextlib, io, json, sys
import twoway_qkd
import twoway_qkd.cli

def loaded():
    return [name for name in ("twoway_qkd.reference", "twoway_qkd.invariants", "twoway_qkd.network")
            if name in sys.modules]

with contextlib.redirect_stdout(io.StringIO()):
    run = twoway_qkd.cli.main(["run", "--config", sys.argv[1], "--output-dir", sys.argv[2]])
after_run = loaded()
with contextlib.redirect_stdout(io.StringIO()):
    verify = twoway_qkd.cli.main(["verify"])
print(json.dumps([run, after_run, verify, loaded()]))
"""


def test_run_path_imports_no_reference(tmp_path):
    """`run` imports neither the scalar reference, the verify cases nor the star network; `verify` imports
    its cases, and they run a star."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, "repetitions": 2}))
    src = str(Path(twoway_qkd.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_BOUNDARY, str(cfg_path), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    run, after_run, verify, after_verify = json.loads(done.stdout)
    assert run == 0 and after_run == []
    assert verify == 0 and after_verify == ["twoway_qkd.invariants", "twoway_qkd.network"]


# The package's public names as the layer modules that define them export them.
_EXPORTED = {
    "channel": ("ABSENT", "BACKWARD", "FORWARD", "INTERCEPT_RESEND", "SUBSTITUTE", "EveObservation", "EveStrategy",
                "NoiseModel"),
    "harness": ("ExperimentConfig", "RunStatistics", "emit_results", "run_experiment"),
    "network": ("StarSessionResult", "Topology", "run_star_session"),
    "protocol": ("DerivationRecord", "LinkSettings", "PreparationRecord", "RunConfig", "SessionResult",
                 "alice_measure", "alice_prepare", "bob_build_key_message", "bob_encode", "majority", "run_session"),
    "qubit": ("Basis", "ConfigError", "QubitRegister"),
}


def test_the_package_names_are_the_defining_modules_objects():
    names = {name for layer_names in _EXPORTED.values() for name in layer_names}
    assert len(names) == 29 and set(twoway_qkd.__all__) == names | set(_EXPORTED)
    assert names <= set(dir(twoway_qkd))
    for layer, layer_names in _EXPORTED.items():
        module = getattr(twoway_qkd, layer)
        assert module.__name__ == f"twoway_qkd.{layer}"
        for name in layer_names:
            value = getattr(twoway_qkd, name)
            assert value is getattr(module, name) and getattr(value, "__module__", module.__name__) == module.__name__
    for gone in ("PureState", "resolve_erasures", "AllErasuresError"):
        assert not hasattr(twoway_qkd, gone) and not hasattr(protocol, gone)
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        twoway_qkd.no_such_name
    bound = {}
    exec("from twoway_qkd import *", bound)
    assert set(bound) - {"__builtins__"} == names | set(_EXPORTED)
    assert bound["network"] is twoway_qkd.network and bound["run_session"] is protocol.run_session


def test_every_module_name_the_readme_names_exists():
    # A `module.name` in backticks names a module-level object of that layer; past a class, an attribute or a
    # dataclass field (which a class without a default does not hold as an attribute).
    layers = ("qubit", "channel", "protocol", "network", "harness", "cli", "invariants", "reference")
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    refs = set(re.findall(rf"`({'|'.join(layers)})\.([A-Za-z_][\w.]*?)(?:\(\))?`", readme))
    assert {("protocol", "derive"), ("protocol", "settle"), ("channel", "eve_tap_register")} <= refs
    missing = []
    for layer, path in sorted(refs):
        *outer, last = path.split(".")
        owner = importlib.import_module(f"twoway_qkd.{layer}")
        for name in outer:
            owner = getattr(owner, name, None)
        fields_of = {field.name for field in fields(owner)} if is_dataclass(owner) else set()
        if not (hasattr(owner, last) or last in fields_of):
            missing.append(f"{layer}.{path}")
    assert not missing


# Runs in a fresh interpreter: which layer modules each kind of run loads.
_LAZY_LAYERS = """
import json, math, sys
import twoway_qkd

def layers():
    return sorted(name for name in sys.modules if name.startswith("twoway_qkd."))

seen = [layers()]
config = twoway_qkd.RunConfig(n_bits=4, basis_pool=(twoway_qkd.Basis(0.0), twoway_qkd.Basis(math.pi / 4)))
twoway_qkd.run_session(config)
seen.append(layers())
twoway_qkd.run_star_session(twoway_qkd.Topology(leaves=("a", "b")), config)
seen.append(layers())
print(json.dumps(seen))
"""


def test_a_run_loads_only_the_layers_it_uses():
    """`import twoway_qkd` loads no layer; a session loads qubit, channel and protocol; a star adds network."""
    src = str(Path(twoway_qkd.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", _LAZY_LAYERS], capture_output=True, text=True, timeout=120,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 0, done.stderr
    session = ["twoway_qkd.channel", "twoway_qkd.protocol", "twoway_qkd.qubit"]
    assert json.loads(done.stdout) == [[], session, sorted([*session, "twoway_qkd.network"])]


# Runs in a fresh interpreter too.
_LOGGING_IMPORTS = """
import contextlib, io, json, sys
import twoway_qkd
import twoway_qkd.cli

with contextlib.redirect_stdout(io.StringIO()):
    run = twoway_qkd.cli.main(["run", "--config", sys.argv[1], "--output-dir", sys.argv[2]])
print(json.dumps([run, [name for name in ("concurrent.futures", "logging") if name in sys.modules]]))
"""


def test_run_path_imports_no_logging(tmp_path):
    """`run` imports neither concurrent.futures nor logging: they would add milliseconds to start-up."""
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, "repetitions": 2}))
    src = str(Path(twoway_qkd.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-c", _LOGGING_IMPORTS, str(cfg_path), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=120, env={**os.environ, "PYTHONPATH": src},
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == [0, []]


def test_unwritable_output_path(tmp_path):
    target = tmp_path / "file"
    target.write_text("occupied")
    config = make_config()
    with pytest.raises(ConfigError, match="output_dir"):
        emit_results(run_experiment(config), target / "sub")


def test_seed_rows_hand_each_pcg64_one_row_of_four_uint64_words():
    words = _row_seed_words(3, [(0, 0), (0, 1)])
    seeds = _SeedRows(words)
    with pytest.raises(ValueError, match="four uint64 words, not 2 uint32"):
        seeds.generate_state(2, np.uint32)
    first, second = np.random.PCG64(seeds), np.random.PCG64(seeds)
    with pytest.raises(ValueError, match="every seed row is taken"):
        np.random.PCG64(seeds)  # one more than the rows
    for bits, key in zip((first, second), [(0, 0), (0, 1)]):
        assert bits.state == np.random.PCG64(np.random.SeedSequence(3, spawn_key=key)).state
    # from_seed_words builds one PCG64 a row, and each must take exactly its row.
    real = np.random.PCG64
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(np.random, "PCG64", lambda seeds: real(0))  # takes no row
        with pytest.raises(ValueError, match="left a seed row unused"):
            RowStreams.from_seed_words(words)
        patch.setattr(np.random, "PCG64", lambda seeds: real(seeds) and real(seeds))  # takes two rows
        with pytest.raises(ValueError, match="every seed row is taken"):
            RowStreams.from_seed_words(words)


@pytest.mark.parametrize("seed", [0, 2**32, 2**130 + 3])
@pytest.mark.parametrize("cell", [3, 2**32 + 5])
def test_row_seed_words_match_seed_sequence(seed, cell):
    # Rows on both sides of 2**32, where a row index grows from one uint32 word to two.
    for start, count in [(0, 3), (2**32 - 2, 4)]:
        words = _row_seed_words(seed, [(cell, start + r) for r in range(count)])
        assert words.dtype == np.uint64 and words.shape == (count, 4)
        for r in range(count):
            spawned = np.random.SeedSequence(seed, spawn_key=(cell, start + r))
            assert np.array_equal(words[r], spawned.generate_state(4, np.uint64))
            # A PCG64 seeded from the words is the stream the SeedSequence would seed.
            assert np.array_equal(np.random.PCG64(_SeedRows(words[r])).random_raw(3), np.random.PCG64(spawned).random_raw(3))
    # Two-word keys (link, purpose), as a star derives them: rows of prefixes,
    # each with purposes 0-4; the cell as a link mixes one- and two-word prefixes.
    links = [0, 1, 65535, cell]
    words = _row_seed_words(seed, [(link, purpose) for link in links for purpose in range(5)])
    assert words.dtype == np.uint64 and words.shape == (5 * len(links), 4)
    streams = RowStreams.from_seed_words(words)
    uniforms, bits = streams.random(3), streams.integers(0, 2, size=9, dtype=np.uint8)
    references = []
    for i, link in enumerate(links):
        for purpose in range(5):
            r = 5 * i + purpose
            spawned = np.random.SeedSequence(seed, spawn_key=(link, purpose))
            assert np.array_equal(words[r], spawned.generate_state(4, np.uint64))
            references.append(np.random.default_rng(spawned))
            assert np.array_equal(uniforms[r], references[r].random(3))
            assert np.array_equal(bits[r], references[r].integers(0, 2, size=9, dtype=np.uint8))
    # A further draw takes each row's spare half, as Generator does.
    assert np.array_equal(streams.integers(0, 7, size=9), [ref.integers(0, 7, size=9) for ref in references])
    # The hub's key-message stream, spawn key HUB_SPAWN_KEY = (1 << 16, 0).
    assert HUB_SPAWN_KEY == (1 << 16, 0)
    spawned = np.random.SeedSequence(seed, spawn_key=HUB_SPAWN_KEY)
    words = _row_seed_words(seed, HUB_SPAWN_KEY)
    assert np.array_equal(words, spawned.generate_state(4, np.uint64))
    hub, reference = _key_rng(seed), np.random.default_rng(spawned)
    assert np.array_equal(hub.integers(0, 2, size=9, dtype=np.uint8), reference.integers(0, 2, size=9, dtype=np.uint8))
    assert np.array_equal(hub.random(3), reference.random(3))
    assert hub.bit_generator.state == reference.bit_generator.state
