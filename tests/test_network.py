import math
from dataclasses import replace

import numpy as np
import pytest

from twoway_qkd import (
    Basis,
    EveStrategy,
    LinkSettings,
    NoiseModel,
    RunConfig,
    Topology,
    WireFrame,
    run_session,
    run_star_session,
)
from twoway_qkd.network import FRAME_DTYPE, FRAME_SIZE, TO_HUB, TO_LEAF, _register_frames
from twoway_qkd.qubit import QubitRegister

POOL = (Basis(0.0), Basis(math.pi / 4))


def make_topology(n_leaves, links=None):
    return Topology(leaves=tuple(f"leaf{i}" for i in range(n_leaves)), links=links or {})


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology(leaves=())
    with pytest.raises(ValueError):
        Topology(leaves=("a", "a"))
    with pytest.raises(ValueError):
        Topology(hub="a", leaves=("a", "b"))
    with pytest.raises(ValueError):
        Topology(leaves=("a",), links={"b": LinkSettings()})
    with pytest.raises(ValueError, match="'a'"):
        Topology(leaves=("a",), links={"a": "oops"})
    # A link's own fields are checked when the LinkSettings is built.
    with pytest.raises(ValueError, match="noise_backward"):
        Topology(leaves=("a",), links={"a": LinkSettings(noise_backward="x")})


def test_wireframe_pack_unpack_roundtrip():
    frame = WireFrame(7, TO_LEAF, 12345, complex(0.6, 0.0), complex(0.0, 0.8))
    data = frame.pack()
    assert len(data) == FRAME_SIZE == 43
    assert WireFrame.unpack(data) == frame


def test_wireframe_validation():
    with pytest.raises(ValueError):
        WireFrame(1 << 16, TO_HUB, 0, 1.0, 0.0)
    with pytest.raises(ValueError):
        WireFrame(0, 2, 0, 1.0, 0.0)
    with pytest.raises(ValueError):
        WireFrame(0, TO_HUB, -1, 1.0, 0.0)
    with pytest.raises(ValueError):
        WireFrame(0, TO_HUB, 0, 1.0, 1.0)


def test_two_leaves_noiseless_both_derive_m():
    config = RunConfig(n_bits=16, basis_pool=POOL, seed=42)
    result = run_star_session(Topology(leaves=("alice", "celine")), config)
    for outcome in result.outcomes.values():
        assert outcome.result.accepted
        assert np.array_equal(outcome.result.alice_final, result.key_message)


def test_one_leaf_degenerates_to_two_party_session():
    config = RunConfig(n_bits=20, repetition=3, variant="V2", basis_pool=POOL, seed=3)
    star = run_star_session(Topology(leaves=("alice",)), config)
    two_party = run_session(config)
    assert (
        star.outcomes["alice"].result.transcript_text() == two_party.transcript_text()
    )


def test_per_leaf_basis_pools():
    config = RunConfig(n_bits=8, basis_pool=POOL, seed=5)
    celine_pool = (Basis(0.1), Basis(0.9), Basis(1.3))
    result = run_star_session(
        Topology(leaves=("alice", "celine")),
        config,
        per_leaf_pools={"celine": celine_pool},
    )
    assert np.array_equal(result.outcomes["celine"].result.alice_final, result.key_message)
    assert result.outcomes["celine"].result.config.basis_pool == celine_pool


def test_per_leaf_pools_for_unknown_leaves_are_rejected():
    config = RunConfig(n_bits=8, basis_pool=POOL, seed=5)
    with pytest.raises(ValueError, match="alcie"):
        run_star_session(Topology(leaves=("alice", "celine")), config, per_leaf_pools={"alcie": POOL})
    # A pool of plain angles is a config error, not an AttributeError deep in a leaf.
    with pytest.raises(ValueError, match="basis_pool"):
        run_star_session(Topology(leaves=("alice", "celine")), config, per_leaf_pools={"alice": [0.1, 0.2]})


def test_frames_are_recorded_per_link_and_direction():
    config = RunConfig(n_bits=4, basis_pool=POOL, seed=6)
    result = run_star_session(make_topology(3), config)
    for outcome in result.outcomes.values():
        frames = outcome.frames
        assert len(frames) == 8  # 4 qubits x 2 directions
        to_hub = [f for f in frames if f.direction == TO_HUB]
        sequences = [f.sequence for f in to_hub]
        assert sequences == sorted(sequences)
        assert all(f.link_id == outcome.link_id for f in frames)
        for f in frames:
            assert WireFrame.unpack(f.pack()) == f


def test_frame_array_matches_the_per_frame_codec():
    assert FRAME_DTYPE.itemsize == FRAME_SIZE
    links = {"leaf1": LinkSettings(NoiseModel(p_both=0.3), NoiseModel(p_phaseflip=0.3),
                                   EveStrategy.intercept_resend((0.0, math.pi / 4), legs=("backward",)))}
    result = run_star_session(make_topology(3, links), RunConfig(n_bits=12, basis_pool=POOL, seed=23))
    for outcome in result.outcomes.values():
        expected = tuple(
            WireFrame(outcome.link_id, direction, k, complex(register.amp0[k]), complex(register.amp1[k]))
            for direction, register in (
                (TO_HUB, outcome.result.delivered_to_bob),
                (TO_LEAF, outcome.result.delivered_to_alice),
            )
            for k in range(len(register))
        )
        data = outcome.frames_bytes()
        assert data == b"".join(frame.pack() for frame in expected)
        assert outcome.frames == expected
        assert [WireFrame.unpack(data[k : k + FRAME_SIZE]) for k in range(0, len(data), FRAME_SIZE)] == list(
            outcome.frames
        )


def test_recording_an_unnormalized_register_raises():
    amp0 = np.array([1.0, math.sqrt(1.0 + 1e-6)])
    register = QubitRegister(amp0, np.zeros(2))
    with pytest.raises(ValueError, match="normalized"):
        WireFrame(0, TO_HUB, 1, complex(amp0[1]), 0j)
    with pytest.raises(ValueError, match="normalized"):
        _register_frames(0, TO_HUB, register)
    with pytest.raises(ValueError, match="normalized"):
        _register_frames(0, TO_HUB, QubitRegister(np.array([math.nan]), np.zeros(1)))
    assert len(_register_frames(0, TO_HUB, QubitRegister(amp0[:1], np.zeros(1)))) == 1


def test_link_independence_under_corruption():
    config = RunConfig(n_bits=8, basis_pool=POOL, tag_length=4, seed=11)
    baseline = run_star_session(make_topology(4), config)
    corrupted_links = {
        "leaf2": LinkSettings(eve=EveStrategy.substitute((0.0, math.pi / 4), legs=("forward",)))
    }
    corrupted = run_star_session(make_topology(4, corrupted_links), config)
    for leaf in ("leaf0", "leaf1", "leaf3"):
        assert (
            corrupted.outcomes[leaf].result.transcript_text()
            == baseline.outcomes[leaf].result.transcript_text()
        )
        assert corrupted.outcomes[leaf].frames_bytes() == baseline.outcomes[leaf].frames_bytes()


def test_tag_failure_isolates_one_leaf():
    config = RunConfig(n_bits=32, basis_pool=POOL, tag_length=32, seed=13)
    links = {"leaf1": LinkSettings(eve=EveStrategy.substitute((0.0, math.pi / 4)))}
    result = run_star_session(make_topology(5, links), config)
    assert not result.outcomes["leaf1"].result.accepted
    for leaf in ("leaf0", "leaf2", "leaf3", "leaf4"):
        assert result.outcomes[leaf].result.accepted
    assert set(result.accepted_leaves) == {"leaf0", "leaf2", "leaf3", "leaf4"}


def test_noise_on_one_link_does_not_move_other_links():
    config = RunConfig(n_bits=16, basis_pool=POOL, seed=17)
    baseline = run_star_session(make_topology(3), config)
    noisy = run_star_session(
        make_topology(3, {"leaf0": LinkSettings(noise_forward=NoiseModel(p_bitflip=0.3))}),
        config,
    )
    for leaf in ("leaf1", "leaf2"):
        assert (
            noisy.outcomes[leaf].result.transcript_text()
            == baseline.outcomes[leaf].result.transcript_text()
        )


def test_star_session_determinism():
    config = RunConfig(n_bits=8, basis_pool=POOL, seed=19)
    topo = make_topology(3, {"leaf1": LinkSettings(noise_backward=NoiseModel(p_both=0.2))})
    r1 = run_star_session(topo, config)
    r2 = run_star_session(topo, config)
    for leaf in r1.outcomes:
        assert r1.outcomes[leaf].frames_bytes() == r2.outcomes[leaf].frames_bytes()
        assert (
            r1.outcomes[leaf].result.transcript_text()
            == r2.outcomes[leaf].result.transcript_text()
        )


def test_seed_override_reaches_every_leaf():
    # leaf0 has no per-leaf pool, leaf1 has one; both must record the seed
    # that drove their streams.
    config = RunConfig(n_bits=8, basis_pool=POOL, seed=1)
    pools = {"leaf1": (Basis(0.1), Basis(0.9), Basis(1.3))}
    overridden = run_star_session(make_topology(2), config, per_leaf_pools=pools, seed=2)
    direct = run_star_session(make_topology(2), replace(config, seed=2), per_leaf_pools=pools)
    for leaf in direct.outcomes:
        assert overridden.outcomes[leaf].result.config.seed == 2
        assert overridden.outcomes[leaf].frames_bytes() == direct.outcomes[leaf].frames_bytes()
        assert (
            overridden.outcomes[leaf].result.transcript_text()
            == direct.outcomes[leaf].result.transcript_text()
        )
