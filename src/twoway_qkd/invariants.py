"""The checks behind `twoway-qkd verify`: does this install give the pinned bytes?

Each check runs one small case that tests/test_golden.py pins too, and
compares the sha256 of its output with a copy of that pin. A session's bytes
depend on numpy's Generator methods, which NEP 19 lets change; a star's and a
sweep's depend only on PCG64 and SeedSequence, which NEP 19 keeps stable. So a
session FAIL next to a star and a sweep PASS points at numpy, not at the
simulator.
"""

from __future__ import annotations

import hashlib
import math
from typing import Callable, NamedTuple

from .channel import BACKWARD, EveStrategy, NoiseModel
from .harness import CONFIG_FILENAME, CSV_FILENAME, SUMMARY_FILENAME, ExperimentConfig, run_experiment
from .network import LinkSettings, Topology, run_star_session
from .protocol import RunConfig, run_session
from .qubit import Basis


class Check(NamedTuple):
    name: str  # the tests/test_golden.py case it copies
    depends_on: str  # what its bytes depend on besides the simulator
    build: Callable[[], tuple[bytes, ...]]
    pins: tuple[str, ...]  # sha256 of each of build()'s outputs


def _session() -> tuple[bytes, ...]:
    """V2 with even t (4 tied blocks resolved) over 120 qubits, on Generator streams."""
    pool = (Basis(0.0), Basis(math.pi / 8), Basis(math.pi / 4))
    result = run_session(
        RunConfig(n_bits=30, repetition=4, variant="V2", basis_pool=pool, tag_length=4, seed=102),
        NoiseModel(p_bitflip=0.1, p_phaseflip=0.05, p_both=0.02),
        NoiseModel(p_bitflip=0.05),
    )
    return (result.transcript_text().encode("ascii"),)


def _star() -> tuple[bytes, ...]:
    """The wire frames of a V1 star with Eve on one link's backward leg, on per-link streams."""
    tapped = LinkSettings(NoiseModel(p_bitflip=0.1), NoiseModel(p_both=0.1),
                          EveStrategy.intercept_resend((0.0, math.pi / 4), legs=(BACKWARD,)))
    topology = Topology(leaves=("leaf0", "leaf1", "leaf2"), links={"leaf1": tapped})
    config = RunConfig(n_bits=16, variant="V1", basis_pool=(Basis(0.0), Basis(math.pi / 4)), tag_length=4, seed=105)
    result = run_star_session(topology, config, record_frames=True)
    return (b"".join(outcome.frames_bytes() for outcome in result.outcomes.values()),)


def _sweep() -> tuple[bytes, ...]:
    """A V3 sweep's three artifacts, on per-(cell, repetition) streams; no file is written."""
    texts = run_experiment(ExperimentConfig.from_dict({
        "variant": "V3", "n_bits": 6, "basis_pool": [0.0, math.pi / 8, math.pi / 4],
        "tag_length": 2, "seed": 31, "repetitions": 30,
        "noise": {"p_phaseflip": 0.05, "p_both": 0.05},
        "sweep": {"p_bitflip": [0.0, 0.1], "repetition": [2, 3]},
    })).texts()
    return tuple(texts[name].encode("ascii") for name in (CSV_FILENAME, SUMMARY_FILENAME, CONFIG_FILENAME))


CHECKS = (
    Check("v2_t4_over_120_qubits", "numpy Generator methods", _session,
          ("0b90c563dbf962e443cc5c1d75442d38e2d7ca0717c4bedebd183c48b2210dcb",)),
    Check("three_leaf_star", "PCG64 and SeedSequence only", _star,
          ("751299dcce476dc01db864372a88d01dbb8158c05e65ff90aa6cd966d9496411",)),
    Check("v3_even_and_odd_t_phase_noise", "PCG64 and SeedSequence only", _sweep,
          ("70103726178b948541b6947a2caa94abb2dbe959a867688449eaaf21b9350d5a",
           "4ff2dc1c66c36d81cff40ab451d2ea145a7386d583871d02a3cd2a987cb50f11",
           "c7fe81e0922722e2eb074621f13bcfed4fa2d041a27d4d867e57ff4788fa4db3")),
)


def run_invariant_checks() -> list[tuple[str, bool]]:
    """(name, ok) per check; the name says what its bytes depend on."""
    return [(f"{check.name} (bytes depend on {check.depends_on})",
             tuple(hashlib.sha256(data).hexdigest() for data in check.build()) == check.pins) for check in CHECKS]
