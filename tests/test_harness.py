import json
import math

import numpy as np
import pytest

from twoway_qkd import ConfigError, ExperimentConfig, emit_results, run_experiment
from twoway_qkd.cli import main
from twoway_qkd.harness import CONFIG_FILENAME, CSV_FILENAME, SUMMARY_FILENAME

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
    csv = stats.csv_text().strip().splitlines()
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


def test_experiment_is_deterministic():
    config = make_config(sweep={"p_bitflip": [0.0, 0.1]}, eve={"kind": "absent"})
    s1, s2 = run_experiment(config), run_experiment(config)
    assert s1.csv_text() == s2.csv_text()
    assert s1.summary_json_text() == s2.summary_json_text()


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


def test_cli_seed_override_changes_resolved_config(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE))
    assert main(["run", "--config", str(cfg_path), "--seed", "99",
                 "--output-dir", str(tmp_path / "out")]) == 0
    stored = json.loads((tmp_path / "out" / CONFIG_FILENAME).read_text())
    assert stored["seed"] == 99


def test_cli_config_error_exit_code(tmp_path, capsys):
    missing = tmp_path / "nope.json"
    assert main(["run", "--config", str(missing)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["run", "--config", str(bad)]) == 1
    no_n = tmp_path / "incomplete.json"
    no_n.write_text("{}")
    assert main(["run", "--config", str(no_n)]) == 1


@pytest.mark.parametrize(
    "override, field",
    [
        ({"noise": {"p_bitflip": float("nan")}}, "p_bitflip"),
        ({"basis_pool": [float("inf")]}, "basis_pool"),
        ({"eve": {"kind": "intercept_resend", "basis_pool": [float("-inf")]}}, "basis_pool"),
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
    ],
)
def test_cli_rejects_malformed_json_fields(tmp_path, capsys, override, field):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({**BASE, **override}))
    assert main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and field in err
    assert "Traceback" not in err


def test_cli_sweep_requires_axes(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(BASE))
    assert main(["sweep", "--config", str(cfg_path)]) == 1
    cfg_path.write_text(json.dumps({**BASE, "sweep": {"repetition": [1, 3]}}))
    assert main(["sweep", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out")]) == 0


def test_cli_verify_passes(capsys):
    assert main(["verify"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_unwritable_output_path(tmp_path):
    target = tmp_path / "file"
    target.write_text("occupied")
    config = make_config()
    with pytest.raises(ConfigError, match="output_dir"):
        emit_results(run_experiment(config), target / "sub")
