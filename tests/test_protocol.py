import copy
import itertools
import math
import pickle
import sys
import threading
from dataclasses import replace
from typing import NamedTuple
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twoway_qkd import (
    Basis,
    EveStrategy,
    ExperimentConfig,
    NoiseModel,
    RunConfig,
    alice_measure,
    alice_prepare,
    bob_encode,
    majority,
    run_experiment,
    run_session,
)
from twoway_qkd import harness, network, protocol
from twoway_qkd.channel import RowNoise
from twoway_qkd.network import Topology, run_star_session
from twoway_qkd.protocol import (ABORT_REASONS, HUB_SPAWN_KEY, LinkSettings, _generator, _resolve, _row_halves,
                                 _session_result, bob_build_key_message, derive, run_batch)
from twoway_qkd.qubit import PAULI_CODES, RowStreams, _row_seed_words
from twoway_qkd.reference import apply_pauli, born_probability, encode_bit, register_state

from test_acceptance import _majority_oracle

POOL = (Basis(0.0), Basis(math.pi / 8), Basis(math.pi / 4))
# Spawn keys of a session's streams: link 0's purposes 0-4, then the hub's key-message.
SESSION_KEYS = [(0, purpose) for purpose in range(5)] + [HUB_SPAWN_KEY]


def cell_words(seed: int, rows: int) -> np.ndarray:
    """The seed words of sweep cell 0's first `rows` repetitions, spawn keys (0, r)."""
    return _row_seed_words(seed, [(0, r) for r in range(rows)])


def test_run_config_validation():
    with pytest.raises(ValueError):
        RunConfig(n_bits=0)
    with pytest.raises(ValueError):
        RunConfig(n_bits=4, variant="V9")
    with pytest.raises(ValueError):
        RunConfig(n_bits=4, basis_pool=())
    with pytest.raises(ValueError):
        RunConfig(n_bits=4, basis_pool=(Basis(0.1), Basis(0.1)))
    with pytest.raises(ValueError, match="finite"):
        RunConfig(n_bits=4, basis_pool=(Basis(float("inf")),))
    # Angles equal mod pi name the same basis up to sign.
    with pytest.raises(ValueError, match="modulo pi"):
        RunConfig(n_bits=4, basis_pool=(Basis(0.0), Basis(2 * math.pi)))
    with pytest.raises(ValueError, match="modulo pi"):
        RunConfig(n_bits=4, basis_pool=(Basis(0.3), Basis(0.3 + math.pi)))
    for tag_bits in [(2, 0), (True, 0)]:
        with pytest.raises(ValueError, match="tag_bits"):
            RunConfig(n_bits=4, tag_length=2, tag_bits=tag_bits)
    with pytest.raises(ValueError):
        RunConfig(n_bits=4, variant="V2", repetition=3, tag_length=5)
    # V1 message spans all t*N qubits, so a longer tag is fine there.
    RunConfig(n_bits=4, variant="V1", repetition=3, tag_length=5)
    with pytest.raises(ValueError, match="seed"):
        RunConfig(n_bits=4, seed=-1)
    # Huge finite angles must not overflow the distinctness check.
    RunConfig(n_bits=4, basis_pool=(Basis(1e308), Basis(-1e308)))
    for pool in [(1e308, 1e308), (0.0, 2 * math.pi), (0.3, 0.3 + math.pi)]:
        with pytest.raises(ValueError, match="modulo pi"):
            RunConfig(n_bits=4, basis_pool=tuple(Basis(theta) for theta in pool))
    # Counts and the seed must be integers (not bools); pool entries must be Basis objects.
    for field, value in [("n_bits", 4.5), ("repetition", 2.0), ("tag_length", True), ("seed", True), ("seed", "0")]:
        with pytest.raises(ValueError, match=field):
            RunConfig(**{"n_bits": 4, field: value})
    with pytest.raises(ValueError, match="basis_pool"):
        RunConfig(n_bits=4, basis_pool=(0.1,))
    # numpy integers are stored as Python ints, so that a config of them serializes to JSON.
    config = RunConfig(n_bits=np.int64(4), repetition=np.int32(2), tag_length=np.int16(1), seed=np.uint8(1))
    assert [type(value) for value in (config.n_bits, config.repetition, config.tag_length, config.seed)] == [int] * 4
    # Link fields must be a NoiseModel or an EveStrategy, checked where the link is built.
    for field, value in [("noise_forward", "x"), ("noise_backward", 0.1), ("eve", None),
                         ("noise_forward", RowNoise([NoiseModel()], 1)), ("noise_backward", RowNoise([NoiseModel()], 1))]:
        with pytest.raises(ValueError, match=field):
            LinkSettings(**{field: value})
    with pytest.raises(ValueError, match="noise_forward"):
        run_session(RunConfig(n_bits=4), noise_forward="x")
    with pytest.raises(ValueError, match="eve"):
        run_session(RunConfig(n_bits=4), eve="intercept_resend")


def test_default_tag_is_built_once_and_read_only():
    config = RunConfig(n_bits=12, tag_length=7)
    tag = config.resolved_tag_bits()
    assert tag.dtype == np.uint8 and tag.tolist() == [1, 0, 1, 0, 1, 0, 1]
    assert RunConfig(n_bits=9, tag_length=7, seed=3).resolved_tag_bits() is tag
    with pytest.raises(ValueError):
        tag[0] = 0
    assert config.resolved_tag_bits().tolist() == [1, 0, 1, 0, 1, 0, 1]
    assert RunConfig(n_bits=4).resolved_tag_bits().shape == (0,)


def test_pool_angles_are_built_once_per_config_and_read_only():
    config = RunConfig(n_bits=8, basis_pool=POOL[:2], tag_length=3, seed=11)
    angles = config.pool_angles
    assert angles.tolist() == [0.0, math.pi / 8] and config.pool_angles is angles
    with pytest.raises(ValueError):
        angles[0] = 1.0
    # A replaced pool is the new config's own, read after the old one was cached.
    assert replace(config, basis_pool=POOL[1:]).pool_angles.tolist() == [math.pi / 8, math.pi / 4]
    assert config.pool_angles.tolist() == [0.0, math.pi / 8]
    # Copies leave the cached array behind and build their own, read-only too.
    transcript = run_session(config, NoiseModel(p_bitflip=0.2)).transcript_text()
    for copied in (pickle.loads(pickle.dumps(config)), copy.deepcopy(config), copy.copy(config)):
        assert "pool_angles" not in vars(copied) and copied == config
        assert np.array_equal(copied.pool_angles, angles)
        with pytest.raises(ValueError):
            copied.pool_angles[0] = 1.0
        assert run_session(copied, NoiseModel(p_bitflip=0.2)).transcript_text() == transcript


def test_prepare_encodes_bits_in_chosen_bases():
    config = RunConfig(n_bits=4, repetition=3, basis_pool=POOL, seed=2)
    prep = alice_prepare(config, np.random.default_rng(2))
    assert len(prep.a) == len(prep.b) == 12
    for k in range(12):
        expected = encode_bit(int(prep.a[k]), POOL[int(prep.b[k])])
        assert register_state(prep.register, k) == expected


def test_prepare_is_deterministic():
    config = RunConfig(n_bits=16, basis_pool=POOL, seed=7)
    p1 = alice_prepare(config, np.random.default_rng(7))
    p2 = alice_prepare(config, np.random.default_rng(7))
    assert np.array_equal(p1.a, p2.a)
    assert np.array_equal(p1.b, p2.b)
    assert np.array_equal(p1.register.amp0, p2.register.amp0)


def test_single_qubit_prepare():
    config = RunConfig(n_bits=1, basis_pool=(Basis(0.0),), seed=0)
    prep = alice_prepare(config, np.random.default_rng(0))
    assert register_state(prep.register, 0) == encode_bit(int(prep.a[0]), Basis(0.0))


def test_encode_v1_zero_message_is_identity():
    config = RunConfig(n_bits=8, basis_pool=POOL, seed=1)
    prep = alice_prepare(config, np.random.default_rng(1))
    out, _ = bob_encode(config, np.zeros(8, dtype=np.uint8), prep.register)
    assert np.array_equal(out.amp0, prep.register.amp0)
    assert np.array_equal(out.amp1, prep.register.amp1)


def test_encode_v1_flips_exactly_the_set_position():
    config = RunConfig(n_bits=8, basis_pool=POOL, seed=3)
    prep = alice_prepare(config, np.random.default_rng(3))
    m = np.zeros(8, dtype=np.uint8)
    m[5] = 1
    out, _ = bob_encode(config, m, prep.register)
    p1 = out.probability_of_one(config.pool_angles, prep.b)
    for k in range(8):
        expected = (1 - prep.a[k]) if k == 5 else prep.a[k]
        assert p1[k] == pytest.approx(float(expected), abs=1e-12)


def test_encode_length_mismatch_rejected():
    config = RunConfig(n_bits=4, basis_pool=POOL, seed=0)
    prep = alice_prepare(config, np.random.default_rng(0))
    with pytest.raises(ValueError):
        bob_encode(config, np.zeros(5, dtype=np.uint8), prep.register)
    with pytest.raises(ValueError):
        bob_encode(RunConfig(n_bits=3, repetition=2, variant="V2"), np.zeros(3, dtype=np.uint8), prep.register)
    with pytest.raises(ValueError):
        bob_encode(RunConfig(n_bits=3, repetition=2, variant="V3"), np.zeros(3, dtype=np.uint8), prep.register)


def test_encode_v2_block_rule():
    config = RunConfig(n_bits=1, repetition=3, variant="V2", basis_pool=(Basis(0.2),), seed=4)
    prep = alice_prepare(config, np.random.default_rng(4))
    out, _ = bob_encode(config, np.array([1], dtype=np.uint8), prep.register)
    assert np.allclose(out.probability_of_one(config.pool_angles, prep.b), 1 - prep.a, atol=1e-12)

    config = RunConfig(n_bits=2, repetition=2, variant="V2", basis_pool=(Basis(0.2),), seed=5)
    prep = alice_prepare(config, np.random.default_rng(5))
    out, ops = bob_encode(config, np.array([0, 1], dtype=np.uint8), prep.register)
    assert ops.tolist() == [0, 0, 1, 1]
    p1 = out.probability_of_one(config.pool_angles, prep.b)
    expected = prep.a.astype(float).copy()
    expected[2:] = 1 - expected[2:]
    assert np.allclose(p1, expected, atol=1e-12)


def test_encode_v3_per_copy_rule():
    config = RunConfig(n_bits=2, repetition=2, variant="V3", basis_pool=(Basis(0.3),), seed=6)
    prep = alice_prepare(config, np.random.default_rng(6))
    out, ops = bob_encode(config, np.array([1, 0], dtype=np.uint8), prep.register)
    assert ops.tolist() == [1, 0, 1, 0]
    p1 = out.probability_of_one(config.pool_angles, prep.b)
    expected = prep.a.astype(float).copy()
    expected[0] = 1 - expected[0]
    expected[2] = 1 - expected[2]
    assert np.allclose(p1, expected, atol=1e-12)


def test_measure_unmodified_qubits_returns_a():
    config = RunConfig(n_bits=32, basis_pool=POOL, seed=8)
    prep = alice_prepare(config, np.random.default_rng(8))
    c = alice_measure(prep.register, prep, config, np.random.default_rng(99))
    assert np.array_equal(c, prep.a)


def test_noiseless_roundtrip_recovers_message():
    config = RunConfig(n_bits=64, basis_pool=POOL, seed=9)
    rng = np.random.default_rng(9)
    prep = alice_prepare(config, rng)
    m = rng.integers(0, 2, 64, dtype=np.uint8)
    c = alice_measure(bob_encode(config, m, prep.register)[0], prep, config, rng)
    assert np.array_equal(c, prep.a ^ m)
    assert np.array_equal(derive(config, c, prep.a).M, m)


def test_derive_v1_examples():
    config = RunConfig(n_bits=4)
    a = np.array([1, 0, 1, 1], dtype=np.uint8)
    assert np.array_equal(derive(config, a, a).M, np.zeros(4, dtype=np.uint8))
    assert np.array_equal(derive(config, 1 - a, a).M, np.ones(4, dtype=np.uint8))
    with pytest.raises(ValueError):
        derive(config, a, a[:3])


def test_derive_v2_majority_and_erasure():
    m_prime, p = majority([1, 1, 0], 3, 1, "V2")
    assert m_prime.tolist() == [1] and p.tolist() == [0]
    m_prime, p = majority([1, 0], 2, 1, "V2")
    assert m_prime.tolist() == [0] and p.tolist() == [1]


def test_derive_v2_error_free_blocks():
    m = np.array([1, 0, 1, 1, 0], dtype=np.uint8)
    M = np.repeat(m, 3)
    m_prime, p = majority(M, 3, 5, "V2")
    assert np.array_equal(m_prime, m)
    assert not p.any()


@pytest.mark.parametrize("t", [2, 3, 4, 5])
def test_repetition_correction_brute_force(t):
    # Every pattern with fewer than ceil(t/2) flips decodes correctly;
    # exact ties (even t) erase; clear wrong majorities decode wrongly.
    threshold = math.ceil(t / 2)
    for bit in (0, 1):
        for pattern in itertools.product((0, 1), repeat=t):
            flips = sum(pattern)
            block = np.array(pattern, dtype=np.uint8) ^ bit
            m_prime, p = majority(block, t, 1, "V2")
            if 2 * flips == t:
                assert p[0] == 1 and m_prime[0] == 0
            elif flips < threshold:
                assert p[0] == 0 and m_prime[0] == bit
            else:
                assert p[0] == 0 and m_prime[0] == 1 - bit


def test_majority_rejects_empty_blocks_and_unknown_variants():
    # Without the checks, t=0 decoded five all-tie bits from nothing and "V4" decoded as V3.
    with pytest.raises(ValueError, match="t must be >= 1"):
        majority([], 0, 5, "V2")
    with pytest.raises(ValueError, match="n_bits must be >= 1"):
        majority([], 3, 0, "V3")
    for variant in ("V4", "V1"):
        with pytest.raises(ValueError, match="variant"):
            majority([1, 0, 1], 3, 1, variant)


def _majority_by_sum(M, t, n_bits, variant):
    """The sum-over-the-short-axis decoder majority replaced, kept as its oracle."""
    if variant == "V2":
        counts = M.reshape(*M.shape[:-1], n_bits, t).sum(axis=-1)
    else:
        counts = M.reshape(*M.shape[:-1], t, n_bits).sum(axis=-2)
    return (2 * counts > t).astype(np.uint8), (2 * counts == t).astype(np.uint8)


@settings(max_examples=80, deadline=None)
@given(
    st.sampled_from(["V2", "V3"]),
    st.sampled_from([*range(1, 10), 255, 256, 257]),
    st.integers(1, 5),
    st.lists(st.integers(1, 3), max_size=2),
    st.integers(0, 2**32),
)
def test_majority_matches_the_sum_decoder(variant, t, n_bits, batch, seed):
    # Each bit's count of ones is drawn with ties, all-ones and all-zeros blocks likely;
    # t = 255, 256 and 257 straddle the uint8/uint16 count boundary.
    rng = np.random.default_rng(seed)
    shape = (*batch, n_bits)
    counts = np.where(rng.random(shape) < 0.5, rng.choice([0, t // 2, t - t // 2, t], shape),
                      rng.integers(0, t + 1, shape))
    copies = (np.arange(t) < counts[..., None]).astype(np.uint8)  # (..., n_bits, t): copies in block order
    copies = rng.permuted(copies, axis=-1)
    M = copies.reshape(*batch, -1) if variant == "V2" else copies.swapaxes(-1, -2).reshape(*batch, -1)
    m_prime, ties = majority(M, t, n_bits, variant)
    want_m, want_ties = _majority_by_sum(M, t, n_bits, variant)
    assert m_prime.dtype == ties.dtype == np.uint8
    assert m_prime.shape == ties.shape == shape
    assert np.array_equal(m_prime, want_m) and np.array_equal(ties, want_ties)
    assert np.array_equal(m_prime, 2 * counts > t) and np.array_equal(ties, 2 * counts == t)


def test_resolve_no_erasures_is_identity():
    m_prime = np.array([1, 0, 1], dtype=np.uint8)
    C, all_erased = _resolve(m_prime, np.zeros(3, dtype=np.uint8))
    assert np.array_equal(C, m_prime) and not all_erased


def test_resolve_single_erasure_example():
    C, all_erased = _resolve(np.array([1, 0], np.uint8), np.array([0, 1], np.uint8))
    assert C.tolist() == [1, 1] and not all_erased


def test_resolve_all_erasures_aborts():
    for bits in ([0, 0], [1, 1]):
        C, all_erased = _resolve(np.array(bits, np.uint8), np.ones(2, np.uint8))
        assert all_erased and C.tolist() == [0, 0]


def test_alice_and_bob_resolution_agree_exhaustively():
    for n in range(1, 5):
        for m_bits in itertools.product((0, 1), repeat=n):
            for p_bits in itertools.product((0, 1), repeat=n):
                m = np.array(m_bits, dtype=np.uint8)
                p = np.array(p_bits, dtype=np.uint8)
                if p.all():
                    continue
                # Premise: non-erased blocks decoded correctly.
                m_prime = m.copy()
                m_prime[p == 1] = 0
                (alice, alice_erased), (bob, bob_erased) = _resolve(m_prime, p), _resolve(m, p)
                assert not alice_erased and not bob_erased and np.array_equal(alice, bob)


def test_derive_v3_reduces_to_v1_at_t_one():
    c = np.array([1, 0, 1], dtype=np.uint8)
    a = np.array([0, 0, 1], dtype=np.uint8)
    m, ties = majority(c ^ a, 1, 3, "V3")
    assert np.array_equal(m, derive(RunConfig(n_bits=3), c, a).M)
    assert not ties.any()


def test_derive_v3_column_majority_example():
    M = np.array([1, 0, 1, 1, 0, 1, 0, 0, 1], dtype=np.uint8)  # copies 101/101/001
    m, ties = majority(M, 3, 3, "V3")
    assert m.tolist() == [1, 0, 1]
    assert not ties.any()


def test_derive_v3_tie_flags():
    M = np.array([1, 0, 0, 0], dtype=np.uint8)  # copies 10/00: column 0 ties
    m, ties = majority(M, 2, 2, "V3")
    assert m.tolist() == [0, 0]
    assert ties.tolist() == [1, 0]


@pytest.mark.parametrize("values", [[1.5, 0], [0.5, 1], ["1", "0"], [-1, 0], [1j, 0], [2, 0], [np.nan, 1],
                                    np.array([0, 256]), [None, 1]])
def test_bit_strings_are_checked_before_the_cast(values):
    # Anything but an exact 0 or 1 is a ValueError, never truncated or wrapped into a bit.
    config = RunConfig(n_bits=2, tag_length=2)
    with pytest.raises(ValueError, match="0 or 1"):
        derive(config, values, [0, 0])
    with pytest.raises(ValueError, match="0 or 1"):
        run_session(config, key_message=values)


@pytest.mark.parametrize("values", [[True, False], [1, 0], [1.0, -0.0], np.array([1, 0], np.int8)])
def test_bool_int_and_float_bits_are_accepted(values):
    config = RunConfig(n_bits=2, tag_length=2)  # the default tag is 1, 0
    assert derive(config, values, [0, 0]).C.tolist() == [1, 0]
    result = run_session(config, key_message=values)
    assert result.key_message.dtype == np.uint8 and result.key_message.tolist() == [1, 0] and result.accepted


def test_honest_noiseless_sessions_always_accept():
    config = RunConfig(n_bits=16, variant="V1", basis_pool=POOL, tag_length=8, seed=1)
    for seed in range(20):
        result = run_session(RunConfig(**{**config.__dict__, "seed": seed}))
        assert result.accepted
        assert result.agreement


@pytest.mark.parametrize("variant,t", [("V1", 1), ("V2", 3), ("V3", 3)])
def test_noiseless_exactness_all_variants(variant, t):
    config = RunConfig(n_bits=12, repetition=t, variant=variant, basis_pool=POOL, seed=21)
    result = run_session(config)
    assert np.array_equal(result.derivation.m_prime, result.key_message)
    assert result.agreement


def test_exactness_single_basis_and_near_degenerate_pool():
    pools = [
        (Basis(0.7),),
        (Basis(0.5), Basis(0.5 + 1e-3)),
    ]
    for pool in pools:
        for seed in range(25):
            config = RunConfig(n_bits=32, basis_pool=pool, seed=seed)
            result = run_session(config)
            assert np.array_equal(result.derivation.m_prime, result.key_message)


def test_session_replay_is_bit_exact():
    config = RunConfig(n_bits=24, repetition=3, variant="V2", basis_pool=POOL, tag_length=4, seed=77)
    noise = NoiseModel(p_bitflip=0.1, p_phaseflip=0.05)
    eve = EveStrategy.intercept_resend((0.0, math.pi / 4))
    r1 = run_session(config, noise, noise, eve)
    r2 = run_session(config, noise, noise, eve)
    assert r1.transcript_text() == r2.transcript_text()


NOISE = NoiseModel(p_bitflip=0.02, p_phaseflip=0.01, p_both=0.005)
SERIAL_CASES = {
    "noise on both legs": (dict(variant="V1", basis_pool=POOL, tag_length=8, seed=3), LinkSettings(NOISE, NOISE)),
    "noise backward only": (dict(variant="V1", basis_pool=POOL[:2], seed=4), LinkSettings(noise_backward=NOISE)),
    "intercept-resend on both legs": (
        dict(variant="V1", basis_pool=POOL[:2], tag_length=16, seed=5),
        LinkSettings(eve=EveStrategy.intercept_resend((0.0, math.pi / 4), legs=("forward", "backward"))),
    ),
}


@pytest.mark.parametrize("qubits", [2**18 - 1, 2**18])
@pytest.mark.parametrize("case", SERIAL_CASES)
def test_sessions_that_draw_ahead_match_a_serial_pass(case, qubits):
    # run_session seeds its own streams; a run_batch pass over plain Generators on the same seed words
    # draws the same uniforms in the same order. (The name dates from when bulk sessions drew their
    # streams ahead on a worker thread; every session now draws on the calling thread.)
    fields, link = SERIAL_CASES[case]
    config = RunConfig(n_bits=qubits, **fields)
    words = _row_seed_words(config.seed, SESSION_KEYS)
    m = bob_build_key_message(config, _generator(words[5]))
    serial = _session_result(config, run_batch([(config, link, 1)], [_generator(row) for row in words[:5]], m))
    result = run_session(config, link.noise_forward, link.noise_backward, link.eve)
    assert result == serial
    assert result.transcript_text() == serial.transcript_text()


def test_sessions_on_several_threads_keep_their_bytes():
    # Three callers share the module's tables (_pool_table, _DEFAULT_TAGS), switching threads every 10 us.
    fields, link = SERIAL_CASES["noise on both legs"]
    config = RunConfig(n_bits=2**18, **fields)
    want = run_session(config, NOISE, NOISE).transcript_text()
    got = []
    callers = [threading.Thread(target=lambda: got.extend(run_session(config, NOISE, NOISE).transcript_text()
                                                          for _ in range(2))) for _ in range(3)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for caller in callers:
            caller.start()
        for caller in callers:
            caller.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(caller.is_alive() for caller in callers)
    assert got == [want] * 6


def test_transcript_contains_per_qubit_records_and_strings():
    config = RunConfig(n_bits=4, basis_pool=POOL, seed=5)
    text = run_session(config).transcript_text()
    for key in ("a=", "b=", "m=", "c=", "M=", "columns=", "accepted=1"):
        assert key in text
    # One line per qubit after the column header.
    body = text.split("columns=")[1].strip().splitlines()[1:]
    assert len(body) == 4


def reference_transcript_rows(result) -> list[str]:
    """Every transcript line (the 20 header lines, then the per-qubit rows),
    formatted one value and one qubit at a time."""
    config, d = result.config, result.derivation
    tags = {0: "I", 1: "X", 2: "Z", 3: "XZ", 4: "ZX"}
    fwd_eve = "E" if result.eve_forward is not None else "-"
    bwd_eve = "E" if result.eve_backward is not None else "-"

    def bits(values) -> str:
        return "" if values is None else "".join(str(int(x)) for x in values)

    tag = config.tag_bits if config.tag_bits is not None else [(k + 1) % 2 for k in range(config.tag_length)]
    rows = [
        "# twoway-qkd session transcript v1",
        f"variant={config.variant}",
        f"n_bits={config.n_bits}",
        f"repetition={config.repetition}",
        f"seed={config.seed}",
        "basis_pool=" + ",".join(repr(b.theta) for b in config.basis_pool),
        f"tag_length={config.tag_length}",
        "tag_bits=" + bits(tag),
        f"accepted={int(result.accepted)}",
        "abort_reason=" + (result.abort_reason or ""),
        "a=" + bits(result.prep.a),
        "b=" + ",".join(str(int(x)) for x in result.prep.b),
        "m=" + bits(result.key_message),
        "c=" + bits(d.c),
        "M=" + bits(d.M),
        "m_prime=" + bits(d.m_prime),
        "p=" + bits(d.p),
        "C=" + bits(d.C),
        "ties=" + bits(d.ties),
        "columns=index basis_index sent_bit noise_fwd eve_fwd bob_op noise_bwd eve_bwd measured_bit",
    ]
    for k in range(len(result.prep.a)):
        rows.append(
            f"{k} {int(result.prep.b[k])} {int(result.prep.a[k])} "
            f"{tags[int(result.noise_codes_forward[k])]} {fwd_eve} "
            f"{'XZ' if result.bob_ops[k] else 'I'} "
            f"{tags[int(result.noise_codes_backward[k])]} {bwd_eve} "
            f"{int(d.c[k])}"
        )
    return rows


def assert_transcript_matches_the_per_qubit_formatter(result) -> None:
    text, expected = result.transcript_text(), reference_transcript_rows(result)
    lines = text.splitlines()
    assert [lines[11]] + lines[20:] == [expected[11]] + expected[20:]
    assert text == "\n".join(expected) + "\n"


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["V1", "V2", "V3"]),
    st.integers(1, 5),
    st.integers(1, 40),
    st.integers(1, 13),
    st.integers(0, 2**31 - 1),
    st.sets(st.sampled_from(["forward", "backward"])),
    st.data(),
)
def test_transcript_rows_match_the_per_qubit_formatter(variant, t, n_bits, pool_size, seed, legs, data):
    pool = tuple(Basis(k * math.pi / 13) for k in range(pool_size))
    config = RunConfig(n_bits=n_bits, repetition=t, variant=variant, basis_pool=pool, seed=seed)
    tag_length = data.draw(st.integers(0, config.message_length), label="tag_length")
    tag_bits = data.draw(st.none() | st.lists(st.integers(0, 1), min_size=tag_length, max_size=tag_length).map(tuple),
                         label="tag_bits")
    config = replace(config, tag_length=tag_length, tag_bits=tag_bits)
    noise = NoiseModel(p_bitflip=0.1, p_phaseflip=0.1, p_both=0.1)
    eve = EveStrategy.intercept_resend((0.0, math.pi / 4), legs=legs) if legs else EveStrategy.absent()
    assert_transcript_matches_the_per_qubit_formatter(run_session(config, noise, noise, eve))


@pytest.mark.parametrize(
    "config, leg",
    [
        # Crosses a 2**16-row chunk boundary and the 99,999 -> 100,000 index width change.
        (RunConfig(n_bits=100_010, basis_pool=POOL, seed=29), "forward"),
        # Two-digit basis indices (12-angle pool) across a 2**16-row chunk boundary.
        (
            RunConfig(
                n_bits=17_000, repetition=4, variant="V2", seed=31,
                basis_pool=tuple(Basis(k * math.pi / 13) for k in range(12)),
            ),
            "backward",
        ),
        # A 1,001-angle pool: the b= line's cells run from ",0" to ",1000", so a
        # pad (3 bytes) is longer than the shortest cell (2 bytes).
        (
            RunConfig(n_bits=4_000, seed=5, basis_pool=tuple(Basis(k * math.pi / 1001) for k in range(1001))),
            "forward",
        ),
    ],
)
def test_long_transcript_rows_match_the_per_qubit_formatter(config, leg):
    noise = NoiseModel(p_bitflip=0.1, p_phaseflip=0.1, p_both=0.1)
    eve = EveStrategy.intercept_resend((0.0, math.pi / 4), legs=(leg,))
    result = run_session(config, noise, noise, eve)
    if len(config.basis_pool) > 1000:
        assert 1000 in result.prep.b and 0 in result.prep.b
    assert_transcript_matches_the_per_qubit_formatter(result)


def test_zx_encoding_is_observationally_identical_to_xz():
    config = RunConfig(n_bits=16, basis_pool=POOL, seed=13)
    prep = alice_prepare(config, np.random.default_rng(13))
    m = np.random.default_rng(14).integers(0, 2, 16, dtype=np.uint8)
    with_xz, _ = bob_encode(config, m, prep.register)
    with_zx = prep.register.apply_pauli_codes(np.where(m == 1, PAULI_CODES["ZX"], 0))
    assert np.allclose(
        with_xz.probability_of_one(config.pool_angles, prep.b),
        with_zx.probability_of_one(config.pool_angles, prep.b),
        atol=1e-12,
    )


def test_all_erasures_session_aborts_cleanly():
    # derive leaves an all-tied V2 string's C all zeros, one string or a batch row alike;
    # a session, two-party or a star leaf, reports that C and both final strings as None.
    config = RunConfig(n_bits=2, repetition=2, variant="V2")
    tied, untied = [1, 0, 0, 1], [1, 1, 0, 0]
    record = derive(config, tied, [0, 0, 0, 0])
    rows = derive(config, [untied, tied], np.zeros((2, 4), np.uint8))
    for p, C in ((record.p, record.C), (rows.p[1], rows.C[1])):
        assert p.tolist() == [1, 1] and C.tolist() == [0, 0]
    assert rows.p[0].tolist() == [0, 0] and rows.C[0].tolist() == [1, 0]

    noisy = NoiseModel(p_bitflip=0.5)
    sessions = (run_session(replace(config, seed=seed), noisy, noisy) for seed in range(64))
    session = next(result for result in sessions if result.derivation.p.all())
    leaves = tuple("abcdefgh")
    topology = Topology(leaves=leaves, links=dict.fromkeys(leaves, LinkSettings(noisy, noisy)))
    stars = (run_star_session(topology, replace(config, seed=seed)) for seed in range(64))
    star = next(star for star in stars if any(o.result.derivation.p.all() for o in star.outcomes.values()))
    tied_leaves = [leaf for leaf, outcome in star.outcomes.items() if outcome.result.derivation.p.all()]
    assert len(tied_leaves) < len(leaves) and not set(tied_leaves) & set(star.accepted_leaves)
    for result in [session, *(star.outcomes[leaf].result for leaf in tied_leaves)]:
        assert result.abort_reason == "all_erasures" and not result.accepted and not result.agreement
        assert result.derivation.C is None and result.alice_final is None and result.bob_final is None
        assert "\nC=\nties=\n" in result.transcript_text()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["V1", "V2", "V3"]),
    st.integers(1, 4),
    st.integers(1, 5),
    st.integers(1, 8),
    st.integers(0, 2**31 - 1),
)
def test_derive_and_resolve_rows_match_one_string(variant, t, n_bits, rows, seed):
    config = RunConfig(n_bits=n_bits, repetition=t, variant=variant)
    rng = np.random.default_rng(seed)
    c, a = rng.integers(0, 2, (2, rows, t * n_bits), dtype=np.uint8)
    # Some rows tie in every block (all erased in V2), the rest are random.
    tied = rng.random(rows) < 0.3
    if t % 2 == 0:
        c[tied] = a[tied] ^ np.tile(np.repeat([0, 1], t // 2), n_bits)
    record = derive(config, c, a)
    for r in range(rows):
        single = derive(config, c[r], a[r])
        for field in ("c", "M", "m_prime", "p", "C", "ties"):
            row, one = getattr(record, field), getattr(single, field)
            assert (row is None) == (one is None) and (one is None or np.array_equal(row[r], one)), field
        if variant == "V2" and single.p.all():
            assert not single.C.any()

    bits = rng.integers(0, 2, (rows, n_bits), dtype=np.uint8)
    p = rng.integers(0, 2, (rows, n_bits), dtype=np.uint8)
    p[tied] = 1
    resolved, all_erased = _resolve(bits, p)
    assert np.array_equal(all_erased, p.all(axis=-1))
    for r in range(rows):
        one, one_erased = _resolve(bits[r], p[r])
        assert one_erased == all_erased[r] and np.array_equal(resolved[r], one)
        if all_erased[r]:
            assert not resolved[r].any()


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 64))
def test_v1_exactness_property(seed, n_bits):
    config = RunConfig(n_bits=n_bits, basis_pool=POOL, seed=seed)
    result = run_session(config)
    assert np.array_equal(result.derivation.m_prime, result.key_message)


# A link for the tests below: either leg noisy or not, Eve absent or tapping
# the given legs with a 1- or 2-angle pool.
links = st.builds(
    lambda noisy, eve_kind, legs, eve_pool: LinkSettings(
        NoiseModel(p_bitflip=0.2, p_phaseflip=0.05) if noisy[0] else NoiseModel(),
        NoiseModel(p_both=0.1) if noisy[1] else NoiseModel(),
        EveStrategy(eve_kind, (0.0, math.pi / 4)[:eve_pool], frozenset(legs)) if eve_kind != "absent" else EveStrategy(),
    ),
    st.tuples(st.booleans(), st.booleans()),
    st.sampled_from(["absent", "intercept_resend", "substitute"]),
    st.sets(st.sampled_from(["forward", "backward"])),
    st.integers(1, 2),
)


class BatchRows(NamedTuple):
    """The per-row outcomes of one run_batch pass that the tests below compare."""

    key_message: np.ndarray
    m_prime: np.ndarray
    ties: np.ndarray | None  # V2's p or V3's ties, None for V1
    agreement: np.ndarray
    all_erasures: np.ndarray
    tag_mismatch: np.ndarray


def batch_rows(cells, rows: RowStreams) -> BatchRows:
    """run_batch over `cells`, with `rows` as the streams of every purpose (as the sweep runs it)."""
    passed = run_batch(cells, (rows,) * 5)
    record = passed.derivation
    ties = record.ties if record.p is None else record.p
    flags = (passed.agreement, passed.abort == 1, passed.abort == 2)
    return BatchRows(passed.key_message, record.m_prime, ties, *flags)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["V1", "V2", "V3"]),
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(1, 3),
    st.integers(0, 6),
    links,
    st.integers(1, 12),
    st.integers(0, 2**31 - 1),
)
def test_run_batch_rows_match_run_session(variant, t, n_bits, pool_size, tag_length, link, rows, seed):
    config = RunConfig(
        n_bits=n_bits, repetition=t, variant=variant, basis_pool=POOL[:pool_size],
        tag_length=min(tag_length, n_bits), seed=seed,
    )
    ahead = -(-sum(_row_halves(config, link)) // 2)
    batch = batch_rows([(config, link, rows)], RowStreams([np.random.PCG64([seed, r]) for r in range(rows)], ahead))
    for r in range(rows):
        result = run_session(
            config, link.noise_forward, link.noise_backward, link.eve, rng=np.random.default_rng([seed, r])
        )
        assert np.array_equal(batch.key_message[r], result.key_message)
        assert np.array_equal(batch.m_prime[r], result.derivation.m_prime)
        if variant == "V1":
            assert batch.ties is None
        else:
            assert np.array_equal(batch.ties[r], result.derivation.ties if variant == "V3" else result.derivation.p)
        assert batch.agreement[r] == result.agreement
        assert batch.all_erasures[r] == (result.abort_reason == "all_erasures")
        assert batch.tag_mismatch[r] == (result.abort_reason == "tag_mismatch")


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["V1", "V2", "V3"]),
    st.integers(1, 3),
    st.integers(1, 5),
    st.integers(1, 3),
    links,
    st.integers(1, 4),
    st.integers(0, 2**31 - 1),
)
def test_row_halves_are_the_words_each_pass_reads(variant, t, n_bits, pool_size, link, rows, seed):
    # Fresh PCG64 rows read ahead by _row_halves' count take exactly their
    # read-ahead: no top-up and no buffered word left. (A Lemire rejection,
    # at most 2**-32 a half here, makes its row read one more word alone.)
    config = RunConfig(n_bits=n_bits, repetition=t, variant=variant, basis_pool=POOL[:pool_size], seed=seed)
    built, from_seed_words = [], RowStreams.from_seed_words

    def recording(words, ahead=0):
        built.append(from_seed_words(words, ahead))
        return built[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(RowStreams, "from_seed_words", recording)
        batch_rows([(config, link, rows)], RowStreams.from_seed_words(
            cell_words(seed, rows), -(-sum(_row_halves(config, link)) // 2)))
        leaves = tuple(f"leaf{k}" for k in range(rows))
        run_star_session(Topology(leaves=leaves, links=dict.fromkeys(leaves, link)), config)
    # The batch's stream, then the star's prepare, measure and any noise or Eve streams.
    assert len(built) == 3 + sum(count > 0 for count in _row_halves(config, link)[1:4])
    for streams in built:
        assert streams.ahead.shape == (rows, streams.cursor)


def pass_cells(base: RunConfig, link: LinkSettings, cells) -> list:
    """run_batch cells from (p_bitflip, tag length, tag bits, rows) tuples: each noisy leg of `link`
    at p_bitflip, the tag cut to the message, its bits None (the default), all 0, all 1, or the
    first tag-length bits of a tuple."""
    specs = []
    for p, tag_length, bits, rows in cells:
        tag_length = min(tag_length, base.message_length)
        if bits is not None:
            bits = (bits,) * tag_length if bits in (0, 1) else bits[:tag_length]
        config = replace(base, tag_length=tag_length, tag_bits=bits)
        noise = [model if model.is_trivial() else replace(model, p_bitflip=p)
                 for model in (link.noise_forward, link.noise_backward)]
        specs.append((config, LinkSettings(*noise, link.eve), rows))
    return specs


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["V1", "V2", "V3"]),
    st.integers(1, 3),
    st.integers(1, 5),
    links,
    # Per cell: p_bitflip on each noisy leg, tag length, tag bits (None: the default), and rows.
    st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.3]), st.integers(0, 5), st.sampled_from([None, 0, 1]),
                       st.integers(1, 4)), min_size=2, max_size=4),
    st.integers(0, 2**31 - 1),
)
def test_a_pass_of_cells_gives_each_cell_its_own_rows(variant, t, n_bits, link, cells, seed):
    base = RunConfig(n_bits=n_bits, repetition=t, variant=variant, basis_pool=POOL[:2], seed=seed)
    specs = pass_cells(base, link, cells)
    words = cell_words(seed, sum(rows for *_, rows in cells))
    ahead = -(-sum(_row_halves(base, link)) // 2)
    fused = batch_rows(specs, RowStreams.from_seed_words(words, ahead))
    start = 0
    for spec in specs:
        span = slice(start, start + spec[2])
        alone = batch_rows([spec], RowStreams.from_seed_words(words[span], ahead))
        for got, want in zip(fused, alone):
            assert (got is None) == (want is None)
            assert got is None or np.array_equal(got[span], want)
        start = span.stop


def expected_abort(config: RunConfig, record, row=...) -> int:
    """The phase III verdict of row `row` of a pass, from the decoded record and its own cell's
    tag: 1 (all_erasures) when V2 ties every block, else 2 (tag_mismatch) when the decoded
    tag is not the cell's, else 0 (accepted)."""
    if config.variant == "V2" and record.p[row].all():
        return 1
    decoded_tag = record.m_prime[row][config.message_length - config.tag_length :]
    return 0 if np.array_equal(decoded_tag, config.resolved_tag_bits()) else 2


# A tag length that pass_cells cuts to the whole message, and a tag tuple as long as any message below.
WHOLE_MESSAGE = 12


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(["V1", "V2", "V3"]),
    st.sampled_from([2, 3, 4]),
    st.integers(1, 3),
    links,
    # Per cell: p_bitflip on each noisy leg, tag length, tag bits (None: the default; 0 or 1: all
    # of them; or any bits), and rows.
    st.lists(st.tuples(st.sampled_from([0.1, 0.3, 0.5]), st.sampled_from([0, 1, 2, 3, 4, WHOLE_MESSAGE]),
                       st.one_of(st.sampled_from([None, 0, 1]),
                                 st.tuples(*[st.integers(0, 1)] * WHOLE_MESSAGE)),
                       st.integers(1, 4)), min_size=2, max_size=4),
    st.booleans(),
    st.integers(0, 2**31 - 1),
)
def test_each_row_is_settled_against_its_own_cell(variant, t, n_bits, link, cells, extremes, seed):
    # Few bits, even repetitions and heavy noise make all-tied rows and tag failures common.
    # With `extremes`, the pass mixes a cell with no tag and one whose tag spans the whole message,
    # so every tag is compared within the widest tail.
    if extremes:
        cells = [(*cells[0][:1], 0, *cells[0][2:]), *cells[1:-1], (*cells[-1][:1], WHOLE_MESSAGE, *cells[-1][2:])]
    base = RunConfig(n_bits=n_bits, repetition=t, variant=variant, basis_pool=POOL[:2], seed=seed)
    specs = pass_cells(base, link, cells)
    words = cell_words(seed, sum(rows for *_, rows in cells))
    passed = run_batch(specs, (RowStreams.from_seed_words(words, -(-sum(_row_halves(base, link)) // 2)),) * 5)
    configs = [config for config, _, rows in specs for _ in range(rows)]
    want = [expected_abort(config, passed.derivation, r) for r, config in enumerate(configs)]
    assert passed.abort.tolist() == want
    for r, config in enumerate(configs):
        assert _session_result(config, passed, r).abort_reason == ABORT_REASONS[want[r]]
    # A one-row pass of Generators: one-dimensional arrays and a 0-d verdict.
    config, cell_link, _ = specs[-1]
    single = run_batch([(config, cell_link, 1)], (np.random.default_rng(seed),) * 5)
    assert single.abort.shape == ()
    assert single.abort == expected_abort(config, single.derivation)


# One (config, link) for each part of the key _pass_groups groups by: each differs from DRAW_BASE in
# that part alone. A pool of -0.0 encodes apart from one of 0.0, though the two compare equal.
DRAW_BASE = (RunConfig(n_bits=4, repetition=2, variant="V2", basis_pool=(Basis(0.0), Basis(math.pi / 4))),
             LinkSettings(NoiseModel(p_bitflip=0.1), NoiseModel(p_bitflip=0.1),
                          EveStrategy.intercept_resend((0.0, math.pi / 4))))
DRAW_CHANGES = {
    "variant": ({"variant": "V3"}, {}),
    "n_bits": ({"n_bits": 5}, {}),
    "repetition": ({"repetition": 3}, {}),
    "pool_bytes": ({"basis_pool": (Basis(-0.0), Basis(math.pi / 4))}, {}),
    "eve_kind": ({}, {"eve": EveStrategy.substitute((0.0, math.pi / 4))}),
    "eve_pool": ({}, {"eve": EveStrategy.intercept_resend((-0.0, math.pi / 4))}),
    "eve_legs": ({}, {"eve": EveStrategy.intercept_resend((0.0, math.pi / 4), {"forward", "backward"})}),
    "noise_forward": ({}, {"noise_forward": NoiseModel()}),
    "noise_backward": ({}, {"noise_backward": NoiseModel()}),
}


@pytest.mark.parametrize("part", DRAW_CHANGES)
def test_a_pass_rejects_cells_that_draw_differently(part):
    config, link = DRAW_BASE
    config_change, link_change = DRAW_CHANGES[part]
    other = (replace(config, **config_change), replace(link, **link_change))
    assert other != DRAW_BASE or part in ("pool_bytes", "eve_pool")  # -0.0 == 0.0
    streams = RowStreams.from_seed_words(cell_words(0, 4))
    with pytest.raises(ValueError, match="draw alike"):
        batch_rows([(*DRAW_BASE, 2), (*other, 2)], streams)
    # Cells that differ in tag and noise levels alone share the pass.
    alike = (replace(config, tag_length=2), replace(link, noise_forward=NoiseModel(p_bitflip=0.2)))
    batch_rows([(*DRAW_BASE, 2), (*alike, 2)], streams)


def test_every_entry_point_runs_its_passes_through_run_batch():
    # run_batch wrapped wherever a caller looks it up; each pass records its cells' row counts.
    passes = []

    def recording(cells, *args):
        passes.append([count for *_, count in cells])
        return run_batch(cells, *args)

    eve = EveStrategy.intercept_resend((0.0, math.pi / 4))
    levels = {"leaf3": 0.1, "leaf7": 0.2, "leaf8": 0.2}
    links = {leaf: LinkSettings(NoiseModel(p_bitflip=p), eve=eve) for leaf, p in levels.items()}
    topology = Topology(leaves=tuple(f"leaf{i}" for i in range(10)), links=links)
    sweep = ExperimentConfig.from_dict({"n_bits": 8, "repetitions": 4, "sweep": {"p_bitflip": [0.0, 0.1, 0.2]}})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "BATCH_QUBITS", 64)
        for module in (protocol, network, harness):
            patch.setattr(module, "run_batch", recording, raising=False)
        run_session(RunConfig(n_bits=16), NoiseModel(p_bitflip=0.1))
        assert passes == [[1]]
        passes.clear()
        # 16 qubits a leaf, so passes of four leaves: seven clean leaves, then three tapped ones
        # whose consecutive equal links (leaf7 and leaf8) make one cell.
        run_star_session(topology, RunConfig(n_bits=16))
        assert passes == [[4], [3], [1, 2]]
        passes.clear()
        # 32 qubits a cell: the noiseless cell alone, then the two noisy cells in one pass.
        run_experiment(sweep)
        assert passes == [[4], [4, 4]]


@pytest.mark.parametrize("size", [1, 7, 48, 1 << 16, (1 << 16) + 1, 3 << 16])
def test_batches_of_equal_sizes_take_as_many_items_as_fit(size):
    # As many items a slice as fit in BATCH_QUBITS, and at least one: an item larger than that is a slice alone.
    step = max(1, protocol.BATCH_QUBITS // size)
    for count in (1, 5, 3000):
        assert protocol._batches([size] * count) == [slice(start, min(count, start + step))
                                                     for start in range(0, count, step)]
    assert protocol._batches([protocol.BATCH_QUBITS + 1, 1]) == [slice(0, 1), slice(1, 2)]


def test_sessions_larger_than_batch_qubits_run_one_pass_each():
    # 70,000 qubits a session: each repetition of the cell, and each leaf, is a run_batch pass of its own.
    sweep = ExperimentConfig.from_dict({"n_bits": 70000, "repetitions": 2})
    star = Topology(leaves=("a", "b"))
    for module, run in ((harness, lambda: run_experiment(sweep)),
                        (network, lambda: run_star_session(star, RunConfig(n_bits=70000)))):
        with mock.patch.object(module, "run_batch", wraps=protocol.run_batch) as recorded:
            run()
        assert recorded.call_count == 2


# Sweeps shaped as the benchmark's: both shipped configs' grids at 20 repetitions (360 sessions each).
BENCH_SWEEPS = [
    {"variant": "V2", "n_bits": 16, "repetition": 3, "basis_pool": [0.0, math.pi / 8, math.pi / 4], "tag_length": 8,
     "seed": 20260823, "repetitions": 20,
     "sweep": {"p_bitflip": [0.0, 0.01, 0.02, 0.05, 0.1, 0.2], "repetition": [3, 5, 7]}},
    {"variant": "V1", "n_bits": 64, "basis_pool": [0.0, math.pi / 4], "seed": 7, "repetitions": 20,
     "eve": {"kind": "intercept_resend", "basis_pool": [0.0, math.pi / 4], "legs": ["forward"]},
     "sweep": {"eve": ["absent", "intercept_resend", "substitute"], "tag_length": [0, 4, 8, 16, 32, 64]}},
]


def seed_word_plan(config: ExperimentConfig) -> tuple[list, list, list]:
    """Run a sweep, recording each _row_seed_words call (keys, words), the words of each
    RowStreams built, and the cells of each run_batch pass."""
    calls, built, passes = [], [], []
    from_seed_words = RowStreams.from_seed_words

    def deriving(seed, keys):
        calls.append((np.array(keys), _row_seed_words(seed, keys)))
        return calls[-1][1]

    def building(words, ahead=0):
        built.append(words)
        return from_seed_words(words, ahead)

    def recording(cells, *args):
        passes.append(cells)
        return run_batch(cells, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "_row_seed_words", deriving)
        patch.setattr(RowStreams, "from_seed_words", building)
        patch.setattr(harness, "run_batch", recording)
        run_experiment(config)
    return calls, built, passes


@pytest.mark.parametrize("data", BENCH_SWEEPS, ids=["noise_sweep", "eve_detection"])
def test_a_sweep_derives_its_seed_words_in_one_call(data):
    calls, built, passes = seed_word_plan(ExperimentConfig.from_dict(data))
    assert len(calls) == 1 and len(built) == len(passes) > 1
    assert np.array_equal(np.concatenate(built), calls[0][1])


@pytest.mark.parametrize("repetitions", [4, 12])
def test_a_sweep_splits_its_seed_words_only_past_batch_qubits_rows(repetitions):
    # 8- and 16-qubit cells, clean or noisy, with Eve or not. At 12 repetitions an 8-qubit cell takes
    # two passes (8 rows, then 4) and a 16-qubit cell three (4 rows each), and the sweep's 96 rows need
    # more than one call.
    sweep = ExperimentConfig.from_dict({
        "n_bits": 8, "tag_length": 2, "seed": 5, "repetitions": repetitions,
        "eve": {"kind": "intercept_resend", "basis_pool": [0.0, 0.5]},
        "sweep": {"p_bitflip": [0.0, 0.1], "repetition": [1, 2], "eve": ["absent", "intercept_resend"]}})
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "BATCH_QUBITS", 64)
        calls, built, passes = seed_word_plan(sweep)
    assert len(built) == len(passes) > len(calls) > (repetitions == 12)
    assert np.array_equal(np.concatenate(built), np.concatenate([words for _, words in calls]))
    # Each call covers whole passes, at most BATCH_QUBITS rows, and ends only where the next pass would not fit.
    sizes, batches = iter(len(words) for words in built), []
    for call_keys, _ in calls:
        batches.append([])
        while sum(batches[-1]) < len(call_keys):
            batches[-1].append(next(sizes))
        assert sum(batches[-1]) == len(call_keys) <= 64
    assert all(sum(batch) + following[0] > 64 for batch, following in zip(batches, batches[1:]))
    keys = np.concatenate([call_keys for call_keys, _ in calls])
    # Each pass's rows are its cells' rows in turn, cell by cell: keys (i, r) for cell i with its
    # own settings, every repetition of every cell once, and each row's words its key's.
    row = 0
    for cells in passes:
        for config, link, count in cells:
            cell = keys[row, 0]
            assert sweep._settings[cell] == (config, link)
            assert keys[row : row + count, 0].tolist() == [cell] * count
            assert np.array_equal(np.diff(keys[row : row + count, 1]), np.ones(count - 1))
            row += count
    assert row == len(keys) == len(sweep.cells()) * repetitions
    assert sorted(map(tuple, keys.tolist())) == list(itertools.product(range(len(sweep.cells())), range(repetitions)))
    words = np.concatenate([words for _, words in calls])
    for (cell, rep), row_words in zip(keys.tolist(), words):
        assert np.array_equal(row_words, np.random.SeedSequence(5, spawn_key=(cell, rep)).generate_state(4, np.uint64))


class ScalarSession(NamedTuple):
    """What scalar_session computes for one session, qubit by qubit."""

    noise_forward: list[int]
    noise_backward: list[int]
    to_bob: list  # PureState per qubit
    to_alice: list
    c: list[int]
    M: list[int]
    m_prime: list[int]
    p: list[int] | None  # V2's erased blocks
    abort_reason: str | None
    sure: list[bool]  # no measurement of the qubit drew a uniform within 1e-12 of its probability


def scalar_session(config: RunConfig, link: LinkSettings, streams) -> ScalarSession:
    """One session from twoway_qkd.reference alone: the same arrays drawn through the
    same Generator calls, in run_batch's order (a, b, m, forward noise, forward Eve,
    backward noise, backward Eve, measurement), then each qubit's state carried
    through encode_bit, apply_pauli and born_probability, one qubit at a time.
    streams are six Generators: purposes 0-4 (preparation, forward noise, Eve,
    backward noise, measurement), then the key-message's; one Generator six times
    is run_session's rng=."""
    n, pool, eve = config.qubit_count, config.basis_pool, link.eve
    a = streams[0].integers(0, 2, size=n, dtype=np.uint8).tolist()
    b = streams[0].integers(0, len(pool), size=n, dtype=np.int64).tolist()
    m = streams[5].integers(0, 2, size=config.message_length, dtype=np.uint8)
    if config.tag_length:
        m[config.message_length - config.tag_length :] = config.resolved_tag_bits()
    m = m.tolist()
    draws, eve_rng = [], streams[2]
    for noise, leg, rng in ((link.noise_forward, "forward", streams[1]), (link.noise_backward, "backward", streams[3])):
        edges = list(itertools.accumulate((noise.p_identity, noise.p_bitflip, noise.p_phaseflip)))
        codes = [0] * n if noise.is_trivial() else [sum(u >= e for e in edges) for u in rng.random(n).tolist()]
        tap = None
        if eve.attacks(leg):
            angles = [eve.basis_pool[i] for i in eve_rng.integers(len(eve.basis_pool), size=n).tolist()]
            resent = eve_rng.random(n) if eve.kind == "intercept_resend" else eve_rng.integers(2, size=n)
            tap = angles, resent.tolist()
        draws.append((codes, tap))
    measured = streams[4].random(n).tolist()
    ops = {"V1": m, "V2": [m[k // config.repetition] for k in range(n)], "V3": [m[k % config.n_bits] for k in range(n)]}

    def outcome(state, basis, u, k):
        p1 = born_probability(state, basis, 1)
        sure[k] = sure[k] and abs(u - p1) >= 1e-12
        return int(u < p1)

    sure, delivered, c = [True] * n, ([], []), []
    for k in range(n):
        state = encode_bit(a[k], pool[b[k]])
        for leg, (codes, tap) in enumerate(draws):
            if leg:  # Bob's encoding, between the legs
                state = apply_pauli(state, "XZ") if ops[config.variant][k] else state
            state = apply_pauli(state, ("I", "X", "Z", "XZ")[codes[k]])
            if tap is not None:
                basis, drawn = Basis(tap[0][k]), tap[1][k]
                bit = outcome(state, basis, drawn, k) if eve.kind == "intercept_resend" else drawn
                state = encode_bit(bit, basis)
            delivered[leg].append(state)
        c.append(outcome(state, pool[b[k]], measured[k], k))
    M = [ck ^ ak for ck, ak in zip(c, a)]
    t, n_bits, p, reason = config.repetition, config.n_bits, None, None
    if config.variant == "V1":
        m_prime = M
    else:  # criterion 7's oracle reads copy r of bit s at r * N + s; V2 holds it at s * t + r
        copies = M if config.variant == "V3" else [M[s * t + r] for r in range(t) for s in range(n_bits)]
        m_prime = _majority_oracle(copies, t, n_bits)
    if config.variant == "V2":
        p = [int(2 * sum(M[s * t : (s + 1) * t]) == t) for s in range(n_bits)]
        reason = "all_erasures" if all(p) else None
    tag = config.resolved_tag_bits().tolist()
    if reason is None and config.tag_length and m_prime[config.message_length - config.tag_length :] != tag:
        reason = "tag_mismatch"
    return ScalarSession(draws[0][0], draws[1][0], *delivered, c, M, m_prime, p, reason, sure)


SCALAR_ANGLES = st.lists(st.sampled_from([0.0, math.pi / 8, math.pi / 4, 0.3]), min_size=1, max_size=3, unique=True)
SCALAR_NOISE = st.sampled_from([NoiseModel(), NoiseModel(p_bitflip=0.2, p_phaseflip=0.1, p_both=0.1),
                                NoiseModel(p_phaseflip=0.3), NoiseModel(p_both=0.25)])


@st.composite
def scalar_cases(draw):
    """A (config, link) of any variant, pool, noise on each leg, and Eve kind, pool and legs."""
    variant, t = draw(st.sampled_from(["V1", "V2", "V3"])), draw(st.integers(1, 4))
    # Up to 192 qubits: from 144 on, a 3-angle pool's Born probabilities come from its table.
    n_bits = draw(st.one_of(st.integers(1, 6), st.integers(36, 48)))
    config = RunConfig(n_bits=n_bits, repetition=t, variant=variant, basis_pool=tuple(map(Basis, draw(SCALAR_ANGLES))),
                       tag_length=min(draw(st.integers(0, 6)), n_bits))
    forward, backward = draw(SCALAR_NOISE), draw(SCALAR_NOISE)
    eve_kind, legs = draw(st.sampled_from(["absent", "intercept_resend", "substitute"])), draw(
        st.sets(st.sampled_from(["forward", "backward"])))
    eve = EveStrategy(eve_kind, tuple(draw(SCALAR_ANGLES)), frozenset(legs)) if eve_kind != "absent" else EveStrategy()
    return config, LinkSettings(forward, backward, eve)


# 192 qubits, 3-angle pools and every Pauli on both legs: each Born probability is read from a table.
TABLE_CASE = (RunConfig(n_bits=48, repetition=4, basis_pool=POOL, tag_length=4),
              LinkSettings(*[NoiseModel(0.2, 0.1, 0.1)] * 2,
                           EveStrategy("intercept_resend", (0.3, 0.0, math.pi / 8), frozenset({"forward", "backward"}))))


def assert_matches_the_scalar_session(got, want: ScalarSession):
    assert got.noise_codes_forward.tolist() == want.noise_forward
    assert got.noise_codes_backward.tolist() == want.noise_backward
    for k in np.flatnonzero(want.sure):
        assert register_state(got.delivered_to_bob, k).equals_up_to_phase(want.to_bob[k])
        assert register_state(got.delivered_to_alice, k).equals_up_to_phase(want.to_alice[k])
        assert got.derivation.c[k] == want.c[k]
    if all(want.sure):
        assert got.derivation.M.tolist() == want.M
        assert got.derivation.m_prime.tolist() == want.m_prime
        assert (got.derivation.p if want.p is None else got.derivation.p.tolist()) == want.p
        assert got.abort_reason == want.abort_reason


@settings(max_examples=150, deadline=None)
@given(scalar_cases(), st.integers(0, 2**31 - 1))
@example(TABLE_CASE, 7)
def test_run_session_matches_the_scalar_session(case, seed):
    config, link = case
    want = scalar_session(config, link, (np.random.default_rng(seed),) * 6)
    got = run_session(config, link.noise_forward, link.noise_backward, link.eve, rng=np.random.default_rng(seed))
    assert_matches_the_scalar_session(got, want)


@settings(max_examples=150, deadline=None)
@given(scalar_cases(), st.integers(0, 2**63 - 1))
@example(TABLE_CASE, 7)
def test_seeded_run_session_matches_the_scalar_session(case, seed):
    # run_session on its own seed draws each purpose from its own stream: rows 0-4 of these words are
    # link 0's purposes, row 5 the hub's key-message. A leg that read another purpose's stream fails here.
    config, link = case
    words = _row_seed_words(seed, SESSION_KEYS)
    want = scalar_session(config, link, [_generator(row) for row in words])
    got = run_session(replace(config, seed=seed), link.noise_forward, link.noise_backward, link.eve)
    assert_matches_the_scalar_session(got, want)
