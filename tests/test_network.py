import copy
import math
import pickle
import re
import struct
from dataclasses import FrozenInstanceError, asdict, fields, replace
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
    run_session,
    run_star_session,
)
from twoway_qkd import network, protocol
from twoway_qkd.network import FRAME_DTYPE, TO_HUB, TO_LEAF, LeafOutcome, _register_frames
from twoway_qkd.protocol import _session_result, bob_build_key_message, run_batch
from twoway_qkd.qubit import ConfigError, QubitRegister, RowStreams, _pool_table, _row_seed_words, _StateTable

POOL = (Basis(0.0), Basis(math.pi / 4))
# The README's wire layout, written apart from FRAME_DTYPE: link id, direction, sequence, re0, im0, re1, im1.
WIRE = struct.Struct("<HBQdddd")


def packed_frames(link_id, direction, register):
    """A register's frames as WIRE packs them, one per qubit, sequence numbers from 0."""
    amplitudes = zip(register.amp0.tolist(), register.amp1.tolist())
    return b"".join(WIRE.pack(link_id, direction, k, a0.real, a0.imag, a1.real, a1.imag)
                    for k, (a0, a1) in enumerate(amplitudes))


def make_topology(n_leaves, links=None):
    return Topology(leaves=tuple(f"leaf{i}" for i in range(n_leaves)), links=links or {})


def test_topology_validation():
    with pytest.raises(ValueError):
        Topology(leaves=())
    with pytest.raises(ValueError):
        Topology(leaves=("a", "a"))
    with pytest.raises(ConfigError, match="^hub cannot also be a leaf$"):
        Topology(hub="a", leaves=("b", "a"))
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
    # A frame's link id is a uint16 and nothing but Topology bounds it: 65,535 leaves build, 65,536 do not.
    names = tuple(f"leaf{i}" for i in range(1 << 16))
    assert len(Topology(leaves=names[:-1]).leaves) == (1 << 16) - 1
    with pytest.raises(ConfigError, match=r"^leaves: at most 65535 leaves \(16-bit link ids\)$"):
        Topology(leaves=names)


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
    # The pools go through the one field check: not a dict, no pool, or a set in hash order.
    for pools, field in ((["alice"], "per_leaf_pools"), ({"alice": 0.5}, "basis_pool"),
                         ({"alice": None}, "basis_pool"), ({"alice": {Basis(0.0), Basis(0.5)}}, "basis_pool")):
        with pytest.raises(ConfigError, match=field):
            run_star_session(Topology(leaves=("alice", "celine")), config, per_leaf_pools=pools)


def test_record_frames_and_a_leafs_pool_are_errors_naming_the_field():
    """record_frames sizes the frames array, so a non-bool is refused (2 would give each leaf 16 frames for 4
    qubits, half of them uninitialised); a bad per-leaf pool's error names the leaf whose pool it was."""
    config = RunConfig(n_bits=4, basis_pool=POOL, seed=5)
    topology = Topology(leaves=("alice", "celine"))
    for flag in (2, "yes"):
        with pytest.raises(ConfigError, match=f"^record_frames: expected bool, got {flag!r}$"):
            run_star_session(topology, config, record_frames=flag)
    with pytest.raises(ConfigError, match=re.escape("per_leaf_pools[celine]: basis_pool[0]: expected Basis, got 0.1")):
        run_star_session(topology, config, per_leaf_pools={"celine": (0.1,)})


def test_frames_are_recorded_per_link_and_direction():
    config = RunConfig(n_bits=4, basis_pool=POOL, seed=6)
    result = run_star_session(make_topology(3), config)
    for outcome in result.outcomes.values():
        frames = outcome.frame_array
        assert frames.dtype == FRAME_DTYPE and frames.shape == (8,)  # 4 qubits x 2 directions
        assert (frames["link_id"] == outcome.link_id).all()
        assert frames["direction"].tolist() == [TO_HUB] * 4 + [TO_LEAF] * 4
        assert frames["sequence"].tolist() == [0, 1, 2, 3] * 2
        # The fields read from frame_array are the ones WIRE reads from frames_bytes().
        fields_read = [(link_id, direction, k, *amplitudes) for link_id, direction, k, amplitudes in frames.tolist()]
        assert fields_read == list(WIRE.iter_unpack(outcome.frames_bytes()))


def test_frame_array_matches_the_per_frame_codec():
    assert FRAME_DTYPE.itemsize == WIRE.size == 43
    links = {"leaf1": LinkSettings(NoiseModel(p_both=0.3), NoiseModel(p_phaseflip=0.3),
                                   EveStrategy.intercept_resend((0.0, math.pi / 4), legs=("backward",)))}
    result = run_star_session(make_topology(3, links), RunConfig(n_bits=12, basis_pool=POOL, seed=23))
    for outcome in result.outcomes.values():
        registers = ((TO_HUB, outcome.result.delivered_to_bob), (TO_LEAF, outcome.result.delivered_to_alice))
        expected = b"".join(packed_frames(outcome.link_id, direction, register) for direction, register in registers)
        assert outcome.frames_bytes() == outcome.frame_array.tobytes() == expected


def test_recording_an_unnormalized_register_raises():
    def register(amp0):
        """Qubit k in the state (amp0[k], 0), through a table of these states alone."""
        table = _StateTable(np.asarray(amp0, complex), np.zeros(len(amp0), complex))
        return QubitRegister._of(table, np.arange(len(amp0), dtype=table.dtype) * 8)

    amp0 = np.array([1.0, math.sqrt(1.0 + 1e-6)])
    with pytest.raises(ValueError, match="normalized"):
        _register_frames(0, TO_HUB, register(amp0))
    with pytest.raises(ValueError, match="normalized"):
        _register_frames(0, TO_HUB, register([math.nan]))
    assert len(_register_frames(0, TO_HUB, register(amp0[:1]))) == 1


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


# A 32-bit tag that Eve's substitution on leaf1 fails; the other four leaves pass.
TAG_CONFIG = RunConfig(n_bits=32, basis_pool=POOL, tag_length=32, seed=13)
TAMPERED = {"leaf1": LinkSettings(eve=EveStrategy.substitute((0.0, math.pi / 4)))}


def test_tag_failure_isolates_one_leaf():
    result = run_star_session(make_topology(5, TAMPERED), TAG_CONFIG)
    assert not result.outcomes["leaf1"].result.accepted
    for leaf in ("leaf0", "leaf2", "leaf3", "leaf4"):
        assert result.outcomes[leaf].result.accepted
    assert set(result.accepted_leaves) == {"leaf0", "leaf2", "leaf3", "leaf4"}


def test_a_star_builds_no_result_that_nobody_reads():
    with mock.patch.object(network, "_session_result", wraps=_session_result) as build:
        star = run_star_session(make_topology(5, TAMPERED), TAG_CONFIG)
        for outcome in star.outcomes.values():
            outcome.frames_bytes()
        assert build.call_count == 0
        assert star.accepted_leaves == ["leaf0", "leaf2", "leaf3", "leaf4"]
        assert build.call_count == 0
        assert star.accepted_leaves == [leaf for leaf, o in star.outcomes.items() if o.result.accepted]
        assert build.call_count == 5


def test_lazy_leaves_survive_pickle_and_deepcopy():
    want = star_bytes(run_star_session(make_topology(5, TAMPERED), TAG_CONFIG))
    copies = (copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value)))
    for read_first in (False, True):
        star = run_star_session(make_topology(5, TAMPERED), TAG_CONFIG)
        if read_first:
            for outcome in star.outcomes.values():
                outcome.result
        for twin_of in copies:
            twin = twin_of(star)
            assert star_bytes(twin) == want
            assert twin.accepted_leaves == ["leaf0", "leaf2", "leaf3", "leaf4"]
            leaf = twin_of(star.outcomes["leaf1"])
            assert (leaf.leaf, leaf.link_id) == ("leaf1", 1)
            assert (leaf.result.transcript_text(), leaf.frames_bytes()) == want["leaf1"]
            assert not leaf.result.accepted
            renamed = replace(twin_of(star.outcomes["leaf2"]), leaf="other")
            assert (renamed.leaf, renamed.link_id) == ("other", 2)
            assert (renamed.result.transcript_text(), renamed.frames_bytes()) == want["leaf2"]
        assert star_bytes(star) == want


def test_a_lazy_leaf_keeps_the_fields_of_an_eager_one():
    # result is the third field, positionally and in fields(), asdict() and ==.
    star = run_star_session(make_topology(2), TAG_CONFIG)
    lazy, built = star.outcomes["leaf0"], star.outcomes["leaf1"]
    assert [f.name for f in fields(LeafOutcome)] == ["leaf", "link_id", "result", "frame_array"]
    eager = LeafOutcome(built.leaf, built.link_id, built.result, built.frame_array)
    assert eager.result is built.result and eager.frame_array is built.frame_array
    assert replace(lazy, leaf="other").result is lazy.result
    assert list(asdict(lazy)) == ["leaf", "link_id", "result", "frame_array"]
    assert asdict(lazy)["result"]["accepted"] is True
    assert replace(lazy) == lazy
    with pytest.raises(FrozenInstanceError):
        lazy.result = built.result


def test_result_records_compare_by_value():
    # Two independent runs of one (config, seed) are equal, where the generated == raised on their
    # arrays; another seed is not. Registers compare by their amplitudes, not by their tables.
    eve = EveStrategy.intercept_resend((0.0, math.pi / 4), legs=("forward", "backward"))
    link = LinkSettings(NoiseModel(p_bitflip=0.1), NoiseModel(p_both=0.1), eve)
    config = RunConfig(n_bits=8, repetition=3, variant="V2", basis_pool=POOL, tag_length=4)
    seeds = (5, 5, 6)
    sessions = [run_session(replace(config, seed=seed), link.noise_forward, link.noise_backward, eve) for seed in seeds]
    stars = [run_star_session(make_topology(3, {"leaf1": link}), replace(config, seed=seed)) for seed in seeds]
    leaves = [star.outcomes["leaf1"] for star in stars]
    preps = [session.prep for session in sessions]
    taps = [session.eve_backward for session in sessions]
    for first, twin, other in [sessions, stars, leaves, preps, [session.derivation for session in sessions], taps]:
        assert first == twin and not first != twin
        assert first != other and not first == other
        assert first != "text" and first != None  # noqa: E711
    flipped = taps[0].outcomes.copy()
    flipped[0] ^= 1
    assert taps[0] != replace(taps[0], outcomes=flipped)
    prep = preps[0]
    # The same bits encoded in a larger pool: another table, the same amplitudes.
    larger = QubitRegister.encode(prep.a, np.append(config.pool_angles, 1.0), prep.b)
    assert larger.table is not prep.register.table
    assert prep == replace(prep, register=larger)
    assert prep != replace(prep, register=prep.register.apply_pauli_codes(np.full(len(prep.a), 1, np.int8)))
    assert prep != replace(prep, a=prep.a[:-1])


def test_registers_from_a_run_are_codes_into_pool_tables():
    # Alice prepares in her pool and Pauli words keep each qubit in its table; Eve's tap re-encodes
    # in her pool. Each register of a session, a star leaf with a pool of its own and a sweep pass.
    noise_forward, noise_backward = NoiseModel(p_bitflip=0.1, p_both=0.1), NoiseModel(p_phaseflip=0.2)
    eve = EveStrategy.intercept_resend((0.3, 1.1, 2.0), legs=("forward", "backward"))
    config = RunConfig(n_bits=8, repetition=3, variant="V2", basis_pool=POOL, tag_length=2, seed=7)
    leaf_pool = (Basis(0.1), Basis(0.9), Basis(1.3))
    links = {"leaf0": LinkSettings(noise_forward, noise_backward),
             "leaf1": LinkSettings(noise_forward, noise_backward, eve)}
    star = run_star_session(make_topology(2, links), config, per_leaf_pools={"leaf1": leaf_pool})
    backward_eve = LinkSettings(noise_forward, noise_backward, replace(eve, legs=frozenset({"backward"})))
    streams = RowStreams.from_seed_words(_row_seed_words(config.seed, [(0, r) for r in range(4)]))
    alice, leaf, eve_pool = config.pool_angles, np.array([b.theta for b in leaf_pool]), np.array(eve.basis_pool)
    cases = [
        (run_session(config, noise_forward, noise_backward, eve), (alice, eve_pool, eve_pool)),
        (star.outcomes["leaf0"].result, (alice, alice, alice)),
        (star.outcomes["leaf1"].result, (leaf, eve_pool, eve_pool)),
        (run_batch([(config, backward_eve, 4)], (streams,) * 5), (alice, alice, eve_pool)),
    ]
    for result, pools in cases:
        for register, pool in zip((result.prep.register, result.delivered_to_bob, result.delivered_to_alice), pools):
            assert register.table is _pool_table(pool.tobytes())
            assert register.codes.max() < 8 * 2 * len(pool)


def test_eve_taps_are_arrays_and_a_leaf_taps_its_row_of_the_pass():
    eve = EveStrategy.intercept_resend((0.0, math.pi / 4), legs=("forward", "backward"))
    config = RunConfig(n_bits=8, repetition=3, basis_pool=POOL, seed=5)
    session = run_session(config, eve=eve)
    for tap in (session.eve_forward, session.eve_backward):
        assert tap.basis_angles.dtype == np.float64 and tap.outcomes.dtype == np.uint8
        assert tap.basis_angles.shape == tap.outcomes.shape == session.delivered_to_bob.codes.shape == (24,)
    passes = []

    def recording(*args):
        passes.append(protocol.run_batch(*args))
        return passes[-1]

    with mock.patch.object(network, "run_batch", recording):
        star = run_star_session(make_topology(3, {f"leaf{i}": LinkSettings(eve=eve) for i in range(3)}), config)
    (passed,) = passes
    for row, outcome in enumerate(star.outcomes.values()):
        for tap, whole in ((outcome.result.eve_forward, passed.eve_forward),
                           (outcome.result.eve_backward, passed.eve_backward)):
            for got, rows in ((tap.basis_angles, whole.basis_angles), (tap.outcomes, whole.outcomes)):
                assert rows.shape == (3, 24)
                assert np.shares_memory(got, rows) and np.array_equal(got, rows[row])


def test_a_pickled_leaf_holds_its_result_not_its_pass():
    # A lazy leaf points into its whole pass; its pickle must hold only its own result.
    config = RunConfig(n_bits=256, basis_pool=POOL, tag_length=8, seed=7)
    tapped = LinkSettings(eve=EveStrategy.intercept_resend((0.0, math.pi / 4), legs=("forward", "backward")))
    wide = run_star_session(make_topology(50, {f"leaf{i}": tapped for i in range(5, 50, 10)}), config)
    lone = run_star_session(make_topology(1), config).outcomes["leaf0"]
    lone.result
    sizes = [len(pickle.dumps(leaf)) for leaf in (wide.outcomes["leaf0"], lone)]
    assert sizes[0] <= 2 * sizes[1]


def test_pass_groups_key_fresh_temporaries_like_a_list():
    # A generator builds new settings objects per item; -0.0 and 0.0 angles key apart.
    specs = [(zero, legs) for zero in (0.0, -0.0) for legs in (("forward",), ("backward",))] * 3

    def pairs():
        for zero, legs in specs:
            yield (RunConfig(n_bits=8, basis_pool=(Basis(zero), Basis(math.pi / 4))),
                   LinkSettings(eve=EveStrategy.intercept_resend((zero, 0.5), legs=legs)))

    want = [[0, 4, 8], [1, 5, 9], [2, 6, 10], [3, 7, 11]]
    assert protocol._pass_groups(list(pairs())) == protocol._pass_groups(pairs()) == want


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
    round trip as a one-row pass, then each register's frames packed by WIRE."""
    streams = [spawned_rng(seed, (link_id, purpose)) for purpose in range(5)]
    result = _session_result(config, run_batch([(config, link, 1)], streams, key_message))
    frames = b""
    if record_frames:
        frames = packed_frames(link_id, TO_HUB, result.delivered_to_bob) + packed_frames(
            link_id, TO_LEAF, result.delivered_to_alice)
    return result, frames


def assert_star_matches_reference(topology, config, pools, seed, record_frames):
    config = replace(config, seed=seed)
    star = run_star_session(topology, config, per_leaf_pools=pools, record_frames=record_frames)
    key_message = bob_build_key_message(config, spawned_rng(seed, (1 << 16, 0)))
    assert np.array_equal(star.key_message, key_message)
    assert list(star.outcomes) == list(topology.leaves)
    references = {}
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
                assert got_tap.basis_angles.dtype == np.float64 and got_tap.basis_angles.shape == got.bob_ops.shape
                if topology.link_settings(leaf).eve.kind == "substitute":
                    assert got_tap.outcomes == ()
                else:
                    assert got_tap.outcomes.dtype == np.uint8 and got_tap.outcomes.shape == got.bob_ops.shape
        references[leaf] = want
    assert star.accepted_leaves == [leaf for leaf in topology.leaves if references[leaf].accepted]
    return star


# Several levels per kind, so that links which draw alike but differ in noise levels share passes.
NOISES = (
    NoiseModel(), NoiseModel(p_bitflip=0.3), NoiseModel(p_phaseflip=0.25, p_both=0.25), NoiseModel(p_bitflip=0.05),
    NoiseModel(p_bitflip=0.1, p_phaseflip=0.05, p_both=0.02), NoiseModel(p_bitflip=-0.0, p_both=0.6),
)
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


def test_leaves_at_distinct_noise_levels_share_one_pass():
    levels = [0.01 * (i + 1) for i in range(8)]
    links = {f"leaf{i}": LinkSettings(NoiseModel(p_bitflip=p), NoiseModel(p_phaseflip=2 * p, p_both=0.01))
             for i, p in enumerate(levels)}
    assert len(set(links.values())) == 8
    config = RunConfig(n_bits=12, basis_pool=POOL, tag_length=4)
    with mock.patch.object(network, "_link_words", wraps=protocol._link_words) as passes:
        assert_star_matches_reference(make_topology(8, links), config, {}, 41, True)
    assert passes.call_count == 1


def test_topology_keeps_a_read_only_copy_of_its_links():
    links = {"leaf1": LinkSettings(noise_forward=NoiseModel(p_bitflip=0.3))}
    topology = make_topology(3, links)
    config = RunConfig(n_bits=16, basis_pool=POOL, tag_length=4, seed=43)
    before = star_bytes(run_star_session(topology, config))
    links["leaf1"] = LinkSettings()
    links["leaf2"] = LinkSettings(eve=EveStrategy.substitute((0.0, math.pi / 4)))
    with pytest.raises(TypeError):
        topology.links["leaf0"] = "oops"
    assert star_bytes(run_star_session(topology, config)) == before
    assert replace(topology, hub="alice").links == topology.links


def test_topology_survives_deepcopy_and_pickle():
    links = {"leaf1": LinkSettings(NoiseModel(p_bitflip=0.3), eve=EveStrategy.substitute((0.0, math.pi / 4)))}
    topology = make_topology(3, links)
    config = RunConfig(n_bits=16, basis_pool=POOL, tag_length=4, seed=44)
    for twin in (copy.deepcopy(topology), pickle.loads(pickle.dumps(topology))):
        assert twin == topology
        with pytest.raises(TypeError):
            twin.links["leaf0"] = LinkSettings()
        assert star_bytes(run_star_session(twin, config)) == star_bytes(run_star_session(topology, config))


def test_eve_pool_and_legs_given_as_lists():
    # The star keys its passes on Eve's pool and legs, so they must key alike
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
