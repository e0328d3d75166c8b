import math
import re
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from twoway_qkd import network, protocol
from twoway_qkd.network import FRAME_DTYPE, FRAME_SIZE, TO_HUB, TO_LEAF, _register_frames
from twoway_qkd.protocol import _round_trip, _session_result, alice_prepare, bob_build_key_message
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
    # Fields of the wrong type name the field: neither a str nor a set (no order) is a tuple of
    # leaves, and a list is no dict of links.
    for fields, name in [({"leaves": "ab"}, "leaves"), ({"leaves": {"a", "b"}}, "leaves"),
                         ({"leaves": (1, 2)}, "leaves[0]"), ({"hub": 3, "leaves": ("a",)}, "hub"),
                         ({"leaves": ("a",), "links": [("a", LinkSettings())]}, "links")]:
        with pytest.raises(ValueError, match=rf"^{re.escape(name)}:"):
            Topology(**fields)
    assert Topology(leaves=["a", "b"]).leaves == ("a", "b")


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
    # Data that is not one frame long: short and long.
    frame = WireFrame(0, TO_HUB, 0, 1.0, 0.0).pack()
    for data in (frame[:-1], frame + b"\0"):
        with pytest.raises(ValueError):
            WireFrame.unpack(data)


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


@pytest.mark.parametrize("x", [0.5, 0.1, math.pi / 8])
def test_equal_angles_give_equal_transcripts(x):
    # Basis stores a Python float, so an angle's numpy or int spelling changes no byte.
    eve = EveStrategy.intercept_resend((0.0, math.pi / 4), legs=("forward", "backward"))
    for given, plain in [(np.float64(x), x), (np.float32(x), float(np.float32(x))), (1, 1.0)]:
        configs = [RunConfig(n_bits=8, repetition=3, variant="V2", basis_pool=(Basis(0.0), Basis(theta)), tag_length=2,
                             seed=4) for theta in (given, plain)]
        assert configs[0] == configs[1]
        sessions = [run_session(config, NoiseModel(p_bitflip=0.1), eve=eve).transcript_text() for config in configs]
        assert sessions[0] == sessions[1]
        leaves = [run_star_session(Topology(leaves=("a",)), config).outcomes["a"] for config in configs]
        assert leaves[0].result.transcript_text() == leaves[1].result.transcript_text()
        assert leaves[0].frames_bytes() == leaves[1].frames_bytes()


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


def spawned_rng(seed, key):
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=key))


def reference_leaf(config, seed, link_id, link, key_message, record_frames):
    """One leaf as the star ran it leaf by leaf: its own streams, one
    round trip, then frames through the one-frame codec."""
    prep_rng, *streams = (spawned_rng(seed, (link_id, purpose)) for purpose in range(5))
    prep = alice_prepare(config, prep_rng)
    result = _session_result(config, prep, key_message, _round_trip(config, prep, key_message, link, streams))
    frames = b""
    if record_frames:
        frames = b"".join(
            WireFrame(link_id, direction, k, complex(register.amp0[k]), complex(register.amp1[k])).pack()
            for direction, register in ((TO_HUB, result.delivered_to_bob), (TO_LEAF, result.delivered_to_alice))
            for k in range(len(register))
        )
    return result, frames


def assert_star_matches_reference(topology, config, pools, seed, record_frames):
    config = replace(config, seed=seed)
    star = run_star_session(topology, config, per_leaf_pools=pools, record_frames=record_frames)
    key_message = bob_build_key_message(config, spawned_rng(seed, (1 << 16, 0)))
    assert np.array_equal(star.key_message, key_message)
    assert list(star.outcomes) == list(topology.leaves)
    for link_id, leaf in enumerate(topology.leaves):
        leaf_config = replace(config, basis_pool=tuple(pools[leaf])) if leaf in pools else config
        want, frames = reference_leaf(leaf_config, seed, link_id, topology.link_settings(leaf), key_message, record_frames)
        outcome = star.outcomes[leaf]
        got = outcome.result
        assert outcome.link_id == link_id and got.config == leaf_config
        assert got.config.basis_pool == leaf_config.basis_pool
        assert got.transcript_text() == want.transcript_text()
        assert outcome.frames_bytes() == frames
        assert (got.accepted, got.abort_reason, got.agreement) == (want.accepted, want.abort_reason, want.agreement)
        assert type(got.accepted) is bool and type(got.agreement) is bool
        for got_final, want_final in ((got.bob_final, want.bob_final), (got.alice_final, want.alice_final)):
            assert (got_final is None) == (want_final is None)
            if want_final is not None:
                assert np.array_equal(got_final, want_final)
        assert (got.derivation.C is None) == (want.derivation.C is None)
        for got_tap, want_tap in ((got.eve_forward, want.eve_forward), (got.eve_backward, want.eve_backward)):
            assert got_tap == want_tap
            if want_tap is not None:
                assert [type(x) for x in got_tap.basis_angles + got_tap.outcomes] == [
                    type(x) for x in want_tap.basis_angles + want_tap.outcomes
                ]
    return star


NOISES = (NoiseModel(), NoiseModel(p_bitflip=0.3), NoiseModel(p_phaseflip=0.25, p_both=0.25))
EVE_POOL = (0.0, math.pi / 4)
EVES = (EveStrategy.absent(),) + tuple(
    strategy(EVE_POOL, legs=legs)
    for strategy in (EveStrategy.intercept_resend, EveStrategy.substitute)
    for legs in (("forward",), ("backward",), ("forward", "backward"))
)
LEAF_POOLS = (POOL, (Basis(0.1), Basis(0.9), Basis(1.3)), (Basis(math.pi / 8),))


@st.composite
def star_cases(draw):
    variant = draw(st.sampled_from(["V1", "V2", "V3"]))
    # V2 with even t, so that rows with every block erased occur.
    t = draw(st.sampled_from([2, 4])) if variant == "V2" else draw(st.integers(1, 3))
    n_bits = draw(st.integers(1, 5))
    message_length = n_bits * t if variant == "V1" else n_bits
    tag_length = draw(st.integers(1, message_length)) if draw(st.booleans()) else 0
    config = RunConfig(n_bits=n_bits, repetition=t, variant=variant, basis_pool=POOL, tag_length=tag_length)
    link = st.builds(LinkSettings, st.sampled_from(NOISES), st.sampled_from(NOISES), st.sampled_from(EVES))
    settings_ = draw(st.lists(link, min_size=3, max_size=3, unique=True))
    n_leaves = draw(st.integers(3, 9))
    choices = [0, 1, 2] + draw(st.lists(st.integers(0, 3), min_size=n_leaves - 3, max_size=n_leaves - 3))
    leaves = tuple(f"leaf{i}" for i in range(n_leaves))
    # Choice 3: no entry in the topology's links (a clean link).
    links = {leaf: settings_[c] for leaf, c in zip(leaves, choices) if c < 3}
    pools = {leaf: LEAF_POOLS[c] for leaf in leaves if (c := draw(st.integers(0, 3))) < len(LEAF_POOLS)}
    return Topology(leaves=leaves, links=links), config, pools, draw(st.integers(0, 2**40)), draw(st.booleans())


@settings(max_examples=60, deadline=None)
@given(star_cases())
def test_batched_star_matches_the_per_leaf_reference(case):
    assert_star_matches_reference(*case)


def test_negative_zero_angles_keep_leaves_apart():
    # LinkSettings and Basis compare -0.0 equal to 0.0, but the encoded
    # amplitudes keep the sign: each leaf must match its own reference.
    tapped = [LinkSettings(eve=EveStrategy.intercept_resend((zero, math.pi / 4))) for zero in (0.0, -0.0)]
    assert tapped[0] == tapped[1] and hash(tapped[0]) == hash(tapped[1])
    pools = {"leaf2": (Basis(0.0), Basis(math.pi / 4)), "leaf3": (Basis(-0.0), Basis(math.pi / 4))}
    topology = Topology(leaves=("leaf0", "leaf1", "leaf2", "leaf3"), links={"leaf0": tapped[0], "leaf1": tapped[1]})
    config = RunConfig(n_bits=16, basis_pool=POOL, tag_length=4)
    star = assert_star_matches_reference(topology, config, pools, 29, True)
    # The -0.0 leaves do carry a negative zero on the wire (Eve's resend, Alice's encoding).
    for leaf in ("leaf1", "leaf3"):
        amplitudes = star.outcomes[leaf].frame_array["amplitudes"]
        assert np.any((amplitudes == 0) & np.signbit(amplitudes))


def star_bytes(star):
    return {leaf: (o.result.transcript_text(), o.frames_bytes()) for leaf, o in star.outcomes.items()}


@pytest.mark.parametrize("batch_qubits", [1, 72, 150])
def test_star_passes_split_at_batch_qubits(batch_qubits):
    # 36 qubits a leaf: passes of 1, 2 and 4 leaves over groups of 5, 3 and 1 leaves.
    eve = EveStrategy.intercept_resend((0.0, math.pi / 4), legs=("forward", "backward"))
    noisy = LinkSettings(NoiseModel(p_bitflip=0.2), NoiseModel(p_phaseflip=0.1, p_both=0.1), eve)
    links = {f"leaf{i}": noisy for i in (1, 3, 4)}
    pools = {"leaf8": (Basis(0.1), Basis(0.9), Basis(1.3))}
    config = RunConfig(n_bits=12, repetition=3, variant="V2", basis_pool=POOL, tag_length=4, seed=31)
    default = run_star_session(make_topology(9, links), config, per_leaf_pools=pools)
    with mock.patch.object(protocol, "BATCH_QUBITS", batch_qubits), \
            mock.patch.object(network, "_link_words", wraps=protocol._link_words) as passes:
        split = run_star_session(make_topology(9, links), config, per_leaf_pools=pools)
    assert passes.call_count == {1: 9, 72: 6, 150: 4}[batch_qubits]
    assert star_bytes(split) == star_bytes(default)


def test_eve_pool_and_legs_given_as_lists():
    # The star groups links by LinkSettings, so Eve's pool and legs must hash
    # whatever iterables they were given as; the bytes are those of tuples.
    config = RunConfig(n_bits=16, basis_pool=POOL, tag_length=4, seed=37)
    stars = [
        run_star_session(make_topology(3, {"leaf1": LinkSettings(eve=EveStrategy("intercept_resend", pool, legs))}), config)
        for pool, legs in (((0.1, 0.2), frozenset({"forward"})), ([0.1, 0.2], frozenset({"forward"})),
                           (np.array([0.1, 0.2]), frozenset({"forward"})), ((0.1, 0.2), ["forward"]))
    ]
    for star in stars[1:]:
        assert star_bytes(star) == star_bytes(stars[0])


def test_numpy_integer_seed_gives_the_bytes_of_the_int_seed():
    # RunConfig takes any integer seed; numpy integers seed the same streams as ints.
    eve = EveStrategy.intercept_resend((0.0, math.pi / 4), legs=("forward", "backward"))
    link = LinkSettings(NoiseModel(p_bitflip=0.2), NoiseModel(p_phaseflip=0.1), eve)
    config = RunConfig(n_bits=12, repetition=3, variant="V2", basis_pool=POOL, tag_length=4)
    sessions = [run_session(replace(config, seed=seed), link.noise_forward, link.noise_backward, link.eve)
                for seed in (1, np.uint8(1), np.int64(1))]
    stars = [run_star_session(make_topology(3, {"leaf2": link}), replace(config, seed=seed))
             for seed in (1, np.uint8(1))]
    for session in sessions[1:]:
        assert session.transcript_text() == sessions[0].transcript_text()
    for star in stars[1:]:
        assert star_bytes(star) == star_bytes(stars[0])
