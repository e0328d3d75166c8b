import itertools
import math
import os
import sys
import threading
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoway_qkd import (
    AllErasuresError,
    Basis,
    EveStrategy,
    ExperimentConfig,
    NoiseModel,
    RunConfig,
    alice_measure,
    alice_prepare,
    bob_encode,
    majority,
    resolve_erasures,
    run_experiment,
    run_session,
    verify_tag,
)
from twoway_qkd import harness, network, protocol
from twoway_qkd.channel import RowNoise
from twoway_qkd.network import Topology, run_star_session
from twoway_qkd.protocol import (DRAW_AHEAD_QUBITS, HUB_SPAWN_KEY, LinkSettings, _generator, _resolve, _row_halves,
                                 _session_result, bob_build_key_message, derive, run_batch)
from twoway_qkd.qubit import ZX, RowStreams, _row_seed_words
from twoway_qkd.reference import encode_bit, register_state

POOL = (Basis(0.0), Basis(math.pi / 8), Basis(math.pi / 4))


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
    thetas = config.pool_angles[prep.b]
    p1 = out.probability_of_one(thetas)
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
    thetas = config.pool_angles[prep.b]
    assert np.allclose(out.probability_of_one(thetas), 1 - prep.a, atol=1e-12)

    config = RunConfig(n_bits=2, repetition=2, variant="V2", basis_pool=(Basis(0.2),), seed=5)
    prep = alice_prepare(config, np.random.default_rng(5))
    out, ops = bob_encode(config, np.array([0, 1], dtype=np.uint8), prep.register)
    assert ops.tolist() == [0, 0, 1, 1]
    thetas = config.pool_angles[prep.b]
    p1 = out.probability_of_one(thetas)
    expected = prep.a.astype(float).copy()
    expected[2:] = 1 - expected[2:]
    assert np.allclose(p1, expected, atol=1e-12)


def test_encode_v3_per_copy_rule():
    config = RunConfig(n_bits=2, repetition=2, variant="V3", basis_pool=(Basis(0.3),), seed=6)
    prep = alice_prepare(config, np.random.default_rng(6))
    out, ops = bob_encode(config, np.array([1, 0], dtype=np.uint8), prep.register)
    assert ops.tolist() == [1, 0, 1, 0]
    thetas = config.pool_angles[prep.b]
    p1 = out.probability_of_one(thetas)
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
    assert np.array_equal(resolve_erasures(m_prime, np.zeros(3, dtype=np.uint8)), m_prime)


def test_resolve_single_erasure_example():
    C = resolve_erasures([1, 0], [0, 1])
    assert C.tolist() == [1, 1]


def test_resolve_all_erasures_aborts():
    with pytest.raises(AllErasuresError):
        resolve_erasures([0, 0], [1, 1])
    with pytest.raises(AllErasuresError):
        resolve_erasures([1, 1], [1, 1])


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
                assert np.array_equal(resolve_erasures(m_prime, p), resolve_erasures(m, p))


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


def test_verify_tag():
    config = RunConfig(n_bits=8, tag_length=4, seed=0)
    tag = config.resolved_tag_bits()
    good = np.concatenate([np.array([1, 1, 0, 1], dtype=np.uint8), tag])
    assert verify_tag(good, config)
    bad = good.copy()
    bad[-1] ^= 1
    assert not verify_tag(bad, config)
    assert verify_tag(np.zeros(8, dtype=np.uint8), RunConfig(n_bits=8, tag_length=0))


@pytest.mark.parametrize("values", [[1.5, 0], [0.5, 1], ["1", "0"], [-1, 0], [1j, 0], [2, 0], [np.nan, 1],
                                    np.array([0, 256]), [None, 1]])
def test_bit_strings_are_checked_before_the_cast(values):
    # Anything but an exact 0 or 1 is a ValueError, never truncated or wrapped into a bit.
    config = RunConfig(n_bits=2, tag_length=2)
    with pytest.raises(ValueError, match="0 or 1"):
        resolve_erasures(values, [0, 0])
    with pytest.raises(ValueError, match="0 or 1"):
        verify_tag(values, config)
    with pytest.raises(ValueError, match="0 or 1"):
        run_session(config, key_message=values)


@pytest.mark.parametrize("values", [[True, False], [1, 0], [1.0, -0.0], np.array([1, 0], np.int8)])
def test_bool_int_and_float_bits_are_accepted(values):
    config = RunConfig(n_bits=2, tag_length=2)  # the default tag is 1, 0
    assert resolve_erasures(values, [0, 0]).tolist() == [1, 0]
    assert verify_tag(values, config)
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


@pytest.fixture
def two_cores(monkeypatch):
    """Sessions draw ahead only with a second usable core; these tests need one on any machine."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)


@pytest.mark.parametrize("qubits", [DRAW_AHEAD_QUBITS - 1, DRAW_AHEAD_QUBITS])
@pytest.mark.parametrize("case", SERIAL_CASES)
@pytest.mark.usefixtures("two_cores")
def test_sessions_that_draw_ahead_match_a_serial_pass(case, qubits):
    # From DRAW_AHEAD_QUBITS qubits on, run_session draws its noise and measurement uniforms on a
    # worker thread; a run_batch pass over plain Generators on the same seed words draws them in line.
    fields, link = SERIAL_CASES[case]
    config = RunConfig(n_bits=qubits, **fields)
    words = _row_seed_words(config.seed, [[0], HUB_SPAWN_KEY[:1]], 0, 5)
    m = bob_build_key_message(config, _generator(words[5]))
    serial = _session_result(config, run_batch([(config, link, 1)], [_generator(row) for row in words[:5]], m))
    result = run_session(config, link.noise_forward, link.noise_backward, link.eve)
    assert result == serial
    assert result.transcript_text() == serial.transcript_text()


@pytest.mark.usefixtures("two_cores")
def test_sessions_that_draw_ahead_on_several_threads_keep_their_bytes():
    # Three callers on two cores, each with its own worker, switching threads every 10 us.
    fields, link = SERIAL_CASES["noise on both legs"]
    config = RunConfig(n_bits=DRAW_AHEAD_QUBITS, **fields)
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


class Failing(np.random.Generator):
    """A Generator whose random() fails, as a worker's draw might."""

    def random(self, *args, **kwargs):
        raise FloatingPointError("no uniforms today")


@pytest.mark.parametrize("cores, qubits", [({0}, DRAW_AHEAD_QUBITS), ({0, 1}, DRAW_AHEAD_QUBITS - 1)])
def test_small_sessions_and_one_core_draw_in_line(cores, qubits, monkeypatch):
    # Below the measured crossover a worker's start-up costs more than the overlap saves; on one
    # usable core nothing overlaps (BENCH_26.json "crossover"). _DrawAhead, if called, would raise.
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cores, raising=False)
    monkeypatch.setattr(protocol, "_DrawAhead", None)
    assert run_session(RunConfig(n_bits=qubits), NOISE, NOISE).accepted


@pytest.mark.usefixtures("two_cores")
def test_no_worker_outlives_a_session():
    config, before = RunConfig(n_bits=DRAW_AHEAD_QUBITS), threading.active_count()
    run_session(config, NOISE, NOISE)
    assert threading.active_count() == before
    # bob_encode rejects the key-message after the forward leg, with the backward draw in flight.
    with pytest.raises(ValueError, match="key-message covers"):
        run_session(config, NOISE, NOISE, key_message=np.zeros(DRAW_AHEAD_QUBITS - 1, np.uint8))
    assert threading.active_count() == before
    # A worker's exception is raised again on the calling thread (an unhandled one in the worker
    # would be a PytestUnhandledThreadExceptionWarning, an error under this suite's filterwarnings).
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "_generator", lambda words: Failing(np.random.PCG64(words)))
        with pytest.raises(FloatingPointError, match="no uniforms today"):
            run_session(config, NOISE, NOISE)
    assert threading.active_count() == before


@pytest.mark.parametrize("draw, error", [
    (lambda streams: streams[4].random(DRAW_AHEAD_QUBITS), RuntimeError),  # the measurement before the forward noise
    (lambda streams: streams[1].random(DRAW_AHEAD_QUBITS - 1), RuntimeError),
    (lambda streams: [streams[1].random(DRAW_AHEAD_QUBITS) for _ in range(2)], RuntimeError),
    (lambda streams: streams[1].random(DRAW_AHEAD_QUBITS, dtype=np.float32), TypeError),
    (lambda streams: streams[1].integers(2, size=DRAW_AHEAD_QUBITS), AttributeError),
])
@pytest.mark.usefixtures("two_cores")
def test_a_stream_drawn_ahead_takes_only_its_one_draw(draw, error):
    # A change to run_batch's draws on purposes 1, 3 or 4 fails loudly instead of changing bytes.
    def changed(cells, streams, m=None):
        draw(streams)
        raise AssertionError("the stand-in took a draw it was not made for")

    before = threading.active_count()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(protocol, "run_batch", changed)
        with pytest.raises(error):
            run_session(RunConfig(n_bits=DRAW_AHEAD_QUBITS), NOISE, NOISE)
    assert threading.active_count() == before


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
    with_zx = prep.register.apply_pauli(ZX, mask=m == 1)
    thetas = config.pool_angles[prep.b]
    assert np.allclose(
        with_xz.probability_of_one(thetas), with_zx.probability_of_one(thetas), atol=1e-12
    )


def test_all_erasures_session_aborts_cleanly():
    record = derive(RunConfig(n_bits=2, repetition=2, variant="V2"), [1, 0, 0, 1], [0, 0, 0, 0])
    assert record.C is None
    assert record.p.tolist() == [1, 1]


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
        for field in ("c", "M", "m_prime", "p", "ties"):
            row, one = getattr(record, field), getattr(single, field)
            assert (row is None) == (one is None) and (one is None or np.array_equal(row[r], one)), field
        if single.C is None:
            assert variant == "V2" and record.p[r].all() and not record.C[r].any()
        else:
            assert np.array_equal(record.C[r], single.C)

    bits = rng.integers(0, 2, (rows, n_bits), dtype=np.uint8)
    p = rng.integers(0, 2, (rows, n_bits), dtype=np.uint8)
    p[tied] = 1
    resolved, all_erased = _resolve(bits, p)
    assert np.array_equal(all_erased, p.all(axis=-1))
    for r in range(rows):
        if all_erased[r]:
            assert not resolved[r].any()
            with pytest.raises(AllErasuresError):
                resolve_erasures(bits[r], p[r])
        else:
            assert np.array_equal(resolved[r], resolve_erasures(bits[r], p[r]))


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
    flags = (passed.agreement, passed.all_erasures, passed.tag_mismatch)
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
            _row_seed_words(seed, (0,), 0, rows), -(-sum(_row_halves(config, link)) // 2)))
        leaves = tuple(f"leaf{k}" for k in range(rows))
        run_star_session(Topology(leaves=leaves, links=dict.fromkeys(leaves, link)), config)
    # The batch's stream, then the star's prepare, measure and any noise or Eve streams.
    assert len(built) == 3 + sum(count > 0 for count in _row_halves(config, link)[1:4])
    for streams in built:
        assert streams.ahead.shape == (rows, streams.cursor)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["V1", "V2", "V3"]),
    st.integers(1, 3),
    st.integers(1, 5),
    links,
    # Per cell: p_bitflip on each noisy leg, tag length, whether the tag is explicit, and rows.
    st.lists(st.tuples(st.sampled_from([0.0, 0.1, 0.3]), st.integers(0, 5), st.booleans(), st.integers(1, 4)),
             min_size=2, max_size=4),
    st.integers(0, 2**31 - 1),
)
def test_a_pass_of_cells_gives_each_cell_its_own_rows(variant, t, n_bits, link, cells, seed):
    base = RunConfig(n_bits=n_bits, repetition=t, variant=variant, basis_pool=POOL[:2], seed=seed)
    specs = []
    for p, tag_length, explicit, rows in cells:
        tag_length = min(tag_length, base.message_length)
        config = replace(base, tag_length=tag_length, tag_bits=(0,) * tag_length if explicit else None)
        noise = [model if model.is_trivial() else replace(model, p_bitflip=p)
                 for model in (link.noise_forward, link.noise_backward)]
        specs.append((config, LinkSettings(*noise, link.eve), rows))
    words = _row_seed_words(seed, (0,), 0, sum(rows for *_, rows in cells))
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


def test_a_pass_rejects_cells_that_draw_noise_differently():
    config = RunConfig(n_bits=4)
    cells = [(config, LinkSettings(NoiseModel(p_bitflip=0.1)), 2), (config, LinkSettings(), 2)]
    with pytest.raises(ValueError, match="noise"):
        batch_rows(cells, RowStreams.from_seed_words(_row_seed_words(0, (0,), 0, 4)))


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
