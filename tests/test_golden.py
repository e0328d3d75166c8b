"""Golden digests: sha256 pins of transcripts, wire frames and sweep artifacts.

The determinism promise is that (config, seed) fixes every transcript line,
wire frame and artifact byte. The other tests compare a run with its replay under the same
code, which a change to the random streams or to the output encoders would
pass; these pins catch it. Each case also asserts the feature of the format
it was chosen to cover, so a pin cannot silently stop covering it.
"""

import hashlib
import math

import pytest

from twoway_qkd import (
    Basis,
    EveStrategy,
    ExperimentConfig,
    LinkSettings,
    NoiseModel,
    RunConfig,
    Topology,
    run_experiment,
    run_session,
    run_star_session,
)
from twoway_qkd.channel import BACKWARD, FORWARD

POOL_2 = (Basis(0.0), Basis(math.pi / 4))
POOL_3 = (Basis(0.0), Basis(math.pi / 8), Basis(math.pi / 4))
POOL_12 = tuple(Basis(k * math.pi / 12) for k in range(12))


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def rows(text: str) -> list[str]:
    return text.partition("measured_bit\n")[2].splitlines()


def v1_twelve_angles_eve_both_legs():
    """Two-digit basis indices and E markers in both Eve columns."""
    result = run_session(
        RunConfig(n_bits=40, variant="V1", basis_pool=POOL_12, tag_length=6, seed=101),
        NoiseModel(p_bitflip=0.05),
        NoiseModel(p_phaseflip=0.05),
        EveStrategy.intercept_resend((0.0, math.pi / 4), legs=(FORWARD, BACKWARD)),
    )
    assert max(int(row.split()[1]) for row in rows(result.transcript_text())) >= 10
    assert all(row.split()[4] == row.split()[7] == "E" for row in rows(result.transcript_text()))
    return result


def v2_t4_over_120_qubits():
    """Row indices cross both 9 -> 10 and 99 -> 100."""
    result = run_session(
        RunConfig(n_bits=30, repetition=4, variant="V2", basis_pool=POOL_3, tag_length=4, seed=102),
        NoiseModel(p_bitflip=0.1, p_phaseflip=0.05, p_both=0.02),
        NoiseModel(p_bitflip=0.05),
    )
    assert len(rows(result.transcript_text())) == 120
    return result


def v2_all_erasures():
    """Every block ties, so the session aborts and C= is empty."""
    result = run_session(
        RunConfig(n_bits=2, repetition=2, variant="V2", basis_pool=POOL_3, seed=1),
        NoiseModel(p_bitflip=0.5),
        NoiseModel(),
    )
    assert result.abort_reason == "all_erasures"
    assert "\nC=\n" in result.transcript_text()
    return result


def v3_even_t_with_ties():
    """Even t leaves per-position ties, so ties= carries a 1."""
    result = run_session(
        RunConfig(n_bits=12, repetition=4, variant="V3", basis_pool=POOL_3, tag_length=3, seed=104),
        NoiseModel(p_bitflip=0.15),
        NoiseModel(p_both=0.1),
    )
    assert result.derivation.ties.any()
    return result


TRANSCRIPT_PINS = [
    (v1_twelve_angles_eve_both_legs, "c4d756172178a75a7e0ea16d81810a3c39705aa7ebc08c1b84084983c17ffa10"),
    (v2_t4_over_120_qubits, "0b90c563dbf962e443cc5c1d75442d38e2d7ca0717c4bedebd183c48b2210dcb"),
    (v2_all_erasures, "c7b606ca8024cb8af1d736bd9ea25434d5d64333ddd54f193146801b8b81c860"),
    (v3_even_t_with_ties, "8a0d6f9ba027c3a072816485152057e038d26772033578c3b5e40f0fe8976234"),
]

STAR_FRAMES_PIN = "751299dcce476dc01db864372a88d01dbb8158c05e65ff90aa6cd966d9496411"


@pytest.mark.parametrize("build, expected", TRANSCRIPT_PINS, ids=[b.__name__ for b, _ in TRANSCRIPT_PINS])
def test_transcript_digest(build, expected):
    assert sha256(build().transcript_text().encode("ascii")) == expected


def three_leaf_star(record_frames: bool):
    tapped = LinkSettings(
        NoiseModel(p_bitflip=0.1),
        NoiseModel(p_both=0.1),
        EveStrategy.intercept_resend((0.0, math.pi / 4), legs=(BACKWARD,)),
    )
    topology = Topology(leaves=("leaf0", "leaf1", "leaf2"), links={"leaf1": tapped})
    config = RunConfig(n_bits=16, variant="V1", basis_pool=POOL_2, tag_length=4, seed=105)
    return run_star_session(topology, config, record_frames=record_frames)


def test_star_frames_digest():
    result = three_leaf_star(record_frames=True)
    data = b"".join(outcome.frames_bytes() for outcome in result.outcomes.values())
    assert len(data) == 3 * 2 * 16 * 43
    assert sha256(data) == STAR_FRAMES_PIN


def test_star_without_frames_packs_nothing():
    result = three_leaf_star(record_frames=False)
    assert [outcome.frames_bytes() for outcome in result.outcomes.values()] == [b"", b"", b""]


# Sweep configs that reach what the benchmark's scripts/ grids do not: V3,
# V2 with even t (resolved ties and all_erasures aborts), phase-flip and
# p_both noise, and both Eve kinds on the backward leg and on both legs.
EXPERIMENT_CASES = {
    "v3_even_and_odd_t_phase_noise": {
        "variant": "V3", "n_bits": 6, "basis_pool": [0.0, math.pi / 8, math.pi / 4],
        "tag_length": 2, "seed": 31, "repetitions": 30,
        "noise": {"p_phaseflip": 0.05, "p_both": 0.05},
        "sweep": {"p_bitflip": [0.0, 0.1], "repetition": [2, 3]},
    },
    "v2_one_block_even_t_aborts": {
        "variant": "V2", "n_bits": 1, "basis_pool": [0.0],
        "seed": 32, "repetitions": 40,
        "noise": {"p_both": 0.1},
        "sweep": {"p_bitflip": [0.2, 0.5], "repetition": [2, 4]},
    },
    "v1_eve_backward_leg": {
        "variant": "V1", "n_bits": 16, "basis_pool": [0.0, math.pi / 4],
        "seed": 33, "repetitions": 30,
        "eve": {"kind": "intercept_resend", "basis_pool": [0.0, math.pi / 4], "legs": ["backward"]},
        "sweep": {"eve": ["intercept_resend", "substitute"], "tag_length": [0, 4]},
    },
    "v2_even_t_eve_both_legs": {
        "variant": "V2", "n_bits": 3, "repetition": 2, "basis_pool": [0.0, math.pi / 4],
        "tag_length": 1, "seed": 34, "repetitions": 30,
        "noise": {"p_phaseflip": 0.02},
        "eve": {"kind": "substitute", "basis_pool": [0.0, math.pi / 8], "legs": ["forward", "backward"]},
        "sweep": {"eve": ["absent", "intercept_resend", "substitute"]},
    },
}


def check_covers(name: str, cells) -> None:
    """The feature each experiment case was chosen to cover."""
    if name == "v3_even_and_odd_t_phase_noise":
        assert {c.params["repetition"] for c in cells} == {2, 3}
        assert any(c.qber > 0 for c in cells if c.params["p_bitflip"] == 0.0)  # phase and p_both noise flip bits
    elif name == "v2_one_block_even_t_aborts":
        # One block: a tie erases every block, so erasure_rate is the abort rate.
        assert all(c.erasure_rate > 0 for c in cells)
        assert all(c.agreement_rate <= 1 - c.erasure_rate for c in cells)
    else:
        active = [c for c in cells if c.params["eve"] != "absent" and c.params["tag_length"] > 0]
        assert active and all(c.detection_rate > 0 for c in active)
    if name == "v2_even_t_eve_both_legs":
        assert any(0 < c.erasure_rate < 1 for c in cells)


# (results.csv, summary.json) sha256 per case.
EXPERIMENT_PINS = {
    "v3_even_and_odd_t_phase_noise": (
        "594b9df34ea3d33bdaabdac2b58790b6afe93d380cd9ad9b08ff0542c82dacc2",
        "9e1564388ebd37250bd0d9caa68639e7a4dc187cc0b7a401ae41254a6b765bd2",
    ),
    "v2_one_block_even_t_aborts": (
        "29c44bd7f9abce749cd2f586d7d90151c7912e898d7626d2db203b978bb42ad2",
        "a6709acddb17da3015d04627ae98936facb9625a07833c198796b5a083e02d77",
    ),
    "v1_eve_backward_leg": (
        "a8f985735e73d5ccea454f31b6b2485f6c5df98fb511ae41cce22bd668ced2c3",
        "1d12547ed2a4e36b5fc20a48dcb36e81b2459368ede3741e305e5de2d1a3c64b",
    ),
    "v2_even_t_eve_both_legs": (
        "521577ffce00172f89e221635b64370aec134325a1b0480702dad5069c240f52",
        "2b7f489a77daf2612f3332e3c02036a340d3f2f0dae52a18bb8d4bfab03a9c01",
    ),
}


@pytest.mark.parametrize("name", EXPERIMENT_PINS)
def test_experiment_artifact_digests(name):
    stats = run_experiment(ExperimentConfig.from_dict(EXPERIMENT_CASES[name]))
    check_covers(name, stats.cells)
    csv_pin, summary_pin = EXPERIMENT_PINS[name]
    assert sha256(stats.csv_text().encode("ascii")) == csv_pin
    assert sha256(stats.summary_json_text().encode("ascii")) == summary_pin
