"""Golden digests: sha256 pins of transcripts and wire frames.

The determinism promise is that (config, seed) fixes every transcript line
and wire frame. The other tests compare a run with its replay under the same
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
    LinkSettings,
    NoiseModel,
    RunConfig,
    Topology,
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
