"""Golden digests: sha256 pins of transcripts, wire frames and sweep artifacts.

The determinism promise is that (config, seed) fixes every transcript line,
wire frame and artifact byte. The other tests compare a run with its replay under the same
code, which a change to the random streams or to the output encoders would
pass; these pins catch it. Each case also asserts the feature of the format
it was chosen to cover, so a pin cannot silently stop covering it.
"""

import hashlib
import math

import numpy as np
import pytest

from twoway_qkd import (
    Basis,
    EveStrategy,
    ExperimentConfig,
    LinkSettings,
    NoiseModel,
    RunConfig,
    Topology,
    emit_results,
    run_experiment,
    run_session,
    run_star_session,
)
from twoway_qkd import invariants
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


def v2_explicit_rng_noise_and_eve():
    """One explicit Generator drives every draw: a, b, m, both legs' noise, Eve, measurement."""
    result = run_session(
        RunConfig(n_bits=10, repetition=3, variant="V2", basis_pool=POOL_3, tag_length=3, seed=107),
        NoiseModel(p_bitflip=0.1, p_both=0.05),
        NoiseModel(p_phaseflip=0.1),
        EveStrategy.substitute((0.0, math.pi / 8), legs=(FORWARD, BACKWARD)),
        rng=np.random.default_rng(108),
    )
    table = [row.split() for row in rows(result.transcript_text())]
    assert any(row[3] != "I" for row in table) and any(row[6] != "I" for row in table)
    assert all(row[4] == row[7] == "E" for row in table)
    return result


def v3_given_key_message():
    """The caller's key-message, not a drawn one, goes into Bob's encoding."""
    m = [0, 1, 1, 0, 1, 0, 1, 0]
    result = run_session(
        RunConfig(n_bits=8, repetition=3, variant="V3", basis_pool=POOL_2, tag_length=2, seed=109),
        NoiseModel(p_bitflip=0.1),
        key_message=m,
    )
    assert result.key_message.tolist() == m
    return result


TRANSCRIPT_PINS = [
    (v1_twelve_angles_eve_both_legs, "c4d756172178a75a7e0ea16d81810a3c39705aa7ebc08c1b84084983c17ffa10"),
    (v2_t4_over_120_qubits, "0b90c563dbf962e443cc5c1d75442d38e2d7ca0717c4bedebd183c48b2210dcb"),
    (v2_all_erasures, "c7b606ca8024cb8af1d736bd9ea25434d5d64333ddd54f193146801b8b81c860"),
    (v3_even_t_with_ties, "8a0d6f9ba027c3a072816485152057e038d26772033578c3b5e40f0fe8976234"),
    (v2_explicit_rng_noise_and_eve, "90576c7978f62c63d50fa0d3af833eaeb66a00f95dd27f66006fae9560f4fc0c"),
    (v3_given_key_message, "63862a52dd6916850df6bf024fa7b62bd5dcac115d328d30c945e1c8fe76c437"),
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
    # The pin holds a -0.0 real part and a -0.0 imaginary part (columns re0, im0, re1, im1), so a
    # rewrite that dropped either sign would move it.
    amplitudes = np.concatenate([outcome.frame_array["amplitudes"] for outcome in result.outcomes.values()])
    negative_zero = (amplitudes == 0) & np.signbit(amplitudes)
    assert negative_zero[:, 0::2].any() and negative_zero[:, 1::2].any()


def test_star_without_frames_packs_nothing():
    result = three_leaf_star(record_frames=False)
    assert [outcome.frames_bytes() for outcome in result.outcomes.values()] == [b"", b"", b""]


HETEROGENEOUS_STAR_PIN = "49a6c847c6002533789a1e5c3cc2eef2030085aaf514b187802cda2c13eec2c7"


def test_heterogeneous_noise_star_digest():
    # Leaves whose rows draw alike (noise on both legs) at a different noise
    # level each: two of them tapped by the same Eve, one with its own pool.
    eve = EveStrategy.intercept_resend((0.0, math.pi / 4), legs=(FORWARD, BACKWARD))
    links = {
        "leaf0": LinkSettings(NoiseModel(p_bitflip=0.05), NoiseModel(p_phaseflip=0.04)),
        "leaf1": LinkSettings(NoiseModel(p_phaseflip=0.1, p_both=0.02), NoiseModel(p_bitflip=0.08)),
        "leaf2": LinkSettings(NoiseModel(p_both=0.15), NoiseModel(p_bitflip=0.03, p_phaseflip=0.03, p_both=0.03)),
        "leaf3": LinkSettings(NoiseModel(p_bitflip=0.06), NoiseModel(p_both=0.05), eve),
        "leaf4": LinkSettings(NoiseModel(p_phaseflip=0.07), NoiseModel(p_bitflip=0.03), eve),
        "leaf5": LinkSettings(NoiseModel(p_bitflip=0.12), NoiseModel(p_phaseflip=0.06)),
    }
    topology = Topology(leaves=tuple(links), links=links)
    config = RunConfig(n_bits=16, repetition=3, variant="V2", basis_pool=POOL_3, tag_length=3, seed=106)
    result = run_star_session(topology, config, per_leaf_pools={"leaf5": (Basis(0.1), Basis(0.9))})
    assert len(set(links.values())) == len(links)
    for leaf, outcome in result.outcomes.items():
        table = [row.split() for row in rows(outcome.result.transcript_text())]
        assert any(row[3] != "I" for row in table) and any(row[6] != "I" for row in table)
        assert all(row[4] == row[7] == ("E" if leaf in ("leaf3", "leaf4") else "-") for row in table)
    data = b"".join(o.result.transcript_text().encode("ascii") + o.frames_bytes() for o in result.outcomes.values())
    assert sha256(data) == HETEROGENEOUS_STAR_PIN


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
    """The feature each experiment case was chosen to cover; and in every case,
    each rate is an integer count over its trials, rounded once."""
    n_bits, variant = EXPERIMENT_CASES[name]["n_bits"], EXPERIMENT_CASES[name]["variant"]
    for c in cells:
        length = c.params["repetition"] * n_bits if variant == "V1" else n_bits
        rates = ((c.qber, length), (c.erasure_rate, n_bits), (c.agreement_rate, 1), (c.detection_rate, 1))
        assert all(round(rate * c.runs * per_run) / (c.runs * per_run) == rate for rate, per_run in rates)
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


ARTIFACTS = ("results.csv", "summary.json", "config_resolved.json")
# The sha256 of each of ARTIFACTS per case, of the files emit_results writes.
EXPERIMENT_PINS = {
    "v3_even_and_odd_t_phase_noise": (
        "70103726178b948541b6947a2caa94abb2dbe959a867688449eaaf21b9350d5a",
        "4ff2dc1c66c36d81cff40ab451d2ea145a7386d583871d02a3cd2a987cb50f11",
        "c7fe81e0922722e2eb074621f13bcfed4fa2d041a27d4d867e57ff4788fa4db3",
    ),
    "v2_one_block_even_t_aborts": (
        "29c44bd7f9abce749cd2f586d7d90151c7912e898d7626d2db203b978bb42ad2",
        "a6709acddb17da3015d04627ae98936facb9625a07833c198796b5a083e02d77",
        "373206e066b44dc4cd03651d6c364f45b78e4571f9381347c13f78dedadf6aba",
    ),
    "v1_eve_backward_leg": (
        "a8f985735e73d5ccea454f31b6b2485f6c5df98fb511ae41cce22bd668ced2c3",
        "1d12547ed2a4e36b5fc20a48dcb36e81b2459368ede3741e305e5de2d1a3c64b",
        "e2b7fb7cce6ea1f2c68095a7b1d22436aa5aef46b81afb219c6b0d3716677fee",
    ),
    "v2_even_t_eve_both_legs": (
        "d6e1ff1b26a0c2db4237cfe269f0a7356a8255bacccbdec7fbbd8ad497c370ce",
        "2a68cc2789c7a1882ae18eb097b9fb2cf9657fc973bc689c17aa17d4e94fd8a7",
        "a25b32c329cd420352eff6b23f3bc7363e845a91276b6341df235f99c3acfe64",
    ),
}


@pytest.mark.parametrize("name", EXPERIMENT_PINS)
def test_experiment_artifact_digests(name, tmp_path):
    stats = run_experiment(ExperimentConfig.from_dict(EXPERIMENT_CASES[name]))
    check_covers(name, stats.cells)
    emit_results(stats, tmp_path)
    assert tuple(sha256((tmp_path / name).read_bytes()) for name in ARTIFACTS) == EXPERIMENT_PINS[name]


def golden(name: str, tmp_path) -> tuple[tuple[str, ...], tuple[bytes, ...]]:
    """The pins and the bytes of the case above called name, in invariants.Check order."""
    transcripts = {build.__name__: (build, pin) for build, pin in TRANSCRIPT_PINS}
    if name in transcripts:
        build, pin = transcripts[name]
        return (pin,), (build().transcript_text().encode("ascii"),)
    if name == "three_leaf_star":
        outcomes = three_leaf_star(record_frames=True).outcomes.values()
        return (STAR_FRAMES_PIN,), (b"".join(outcome.frames_bytes() for outcome in outcomes),)
    emit_results(run_experiment(ExperimentConfig.from_dict(EXPERIMENT_CASES[name])), tmp_path)
    return EXPERIMENT_PINS[name], tuple((tmp_path / name).read_bytes() for name in ARTIFACTS)


@pytest.mark.parametrize("check", invariants.CHECKS, ids=[check.name for check in invariants.CHECKS])
def test_verify_checks_copy_these_cases_and_pins(check, tmp_path):
    """`twoway-qkd verify` keeps copies of some cases and pins above; neither copy may drift."""
    pins, data = golden(check.name, tmp_path)
    assert check.pins == pins
    assert check.build() == data
