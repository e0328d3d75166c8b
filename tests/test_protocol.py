import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twoway_qkd import (
    AllErasuresError,
    Basis,
    EveStrategy,
    NoiseModel,
    RunConfig,
    alice_measure,
    alice_prepare,
    bob_encode,
    encode_bit,
    majority,
    resolve_erasures,
    run_session,
    verify_tag,
)
from twoway_qkd.protocol import LinkSettings, derive, run_batch
from twoway_qkd.qubit import ZX

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
    with pytest.raises(ValueError, match="tag_bits"):
        RunConfig(n_bits=4, tag_length=2, tag_bits=(2, 0))
    with pytest.raises(ValueError):
        RunConfig(n_bits=4, variant="V2", repetition=3, tag_length=5)
    # V1 message spans all t*N qubits, so a longer tag is fine there.
    RunConfig(n_bits=4, variant="V1", repetition=3, tag_length=5)
    with pytest.raises(ValueError, match="seed"):
        RunConfig(n_bits=4, seed=-1)


def test_prepare_encodes_bits_in_chosen_bases():
    config = RunConfig(n_bits=4, repetition=3, basis_pool=POOL, seed=2)
    prep = alice_prepare(config, np.random.default_rng(2))
    assert len(prep.a) == len(prep.b) == 12
    for k in range(12):
        expected = encode_bit(int(prep.a[k]), POOL[int(prep.b[k])])
        assert prep.register.state(k) == expected


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
    assert prep.register.state(0) == encode_bit(int(prep.a[0]), Basis(0.0))


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


def test_transcript_contains_per_qubit_records_and_strings():
    config = RunConfig(n_bits=4, basis_pool=POOL, seed=5)
    text = run_session(config).transcript_text()
    for key in ("a=", "b=", "m=", "c=", "M=", "columns=", "accepted=1"):
        assert key in text
    # One line per qubit after the column header.
    body = text.split("columns=")[1].strip().splitlines()[1:]
    assert len(body) == 4


def reference_transcript_rows(result) -> list[str]:
    """The per-qubit rows and the b= line, formatted one qubit at a time."""
    tags = {0: "I", 1: "X", 2: "Z", 3: "XZ", 4: "ZX"}
    fwd_eve = "E" if result.eve_forward is not None else "-"
    bwd_eve = "E" if result.eve_backward is not None else "-"
    rows = ["b=" + ",".join(str(int(x)) for x in result.prep.b)]
    for k in range(len(result.prep.a)):
        rows.append(
            f"{k} {int(result.prep.b[k])} {int(result.prep.a[k])} "
            f"{tags[int(result.noise_codes_forward[k])]} {fwd_eve} "
            f"{'XZ' if result.bob_ops[k] else 'I'} "
            f"{tags[int(result.noise_codes_backward[k])]} {bwd_eve} "
            f"{int(result.derivation.c[k])}"
        )
    return rows


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["V1", "V2", "V3"]),
    st.integers(1, 5),
    st.integers(1, 40),
    st.integers(1, 13),
    st.integers(0, 2**31 - 1),
    st.sets(st.sampled_from(["forward", "backward"])),
)
def test_transcript_rows_match_the_per_qubit_formatter(variant, t, n_bits, pool_size, seed, legs):
    pool = tuple(Basis(k * math.pi / 13) for k in range(pool_size))
    config = RunConfig(n_bits=n_bits, repetition=t, variant=variant, basis_pool=pool, seed=seed)
    noise = NoiseModel(p_bitflip=0.1, p_phaseflip=0.1, p_both=0.1)
    eve = EveStrategy.intercept_resend((0.0, math.pi / 4), legs=legs) if legs else EveStrategy.absent()
    result = run_session(config, noise, noise, eve)
    lines = result.transcript_text().splitlines()
    assert [lines[11]] + lines[20:] == reference_transcript_rows(result)


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


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**31 - 1), st.integers(1, 64))
def test_v1_exactness_property(seed, n_bits):
    config = RunConfig(n_bits=n_bits, basis_pool=POOL, seed=seed)
    result = run_session(config)
    assert np.array_equal(result.derivation.m_prime, result.key_message)


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(["V1", "V2", "V3"]),
    st.integers(1, 4),
    st.integers(1, 6),
    st.integers(1, 3),
    st.integers(0, 6),
    st.sampled_from(["absent", "intercept_resend", "substitute"]),
    st.sets(st.sampled_from(["forward", "backward"])),
    st.integers(1, 12),
    st.integers(0, 2**31 - 1),
)
def test_run_batch_rows_match_run_session(variant, t, n_bits, pool_size, tag_length, eve_kind, legs, rows, seed):
    config = RunConfig(
        n_bits=n_bits, repetition=t, variant=variant, basis_pool=POOL[:pool_size],
        tag_length=min(tag_length, n_bits), seed=seed,
    )
    link = LinkSettings(
        NoiseModel(p_bitflip=0.2, p_phaseflip=0.05), NoiseModel(p_both=0.1),
        EveStrategy(eve_kind, (0.0, math.pi / 4), frozenset(legs)) if eve_kind != "absent" else EveStrategy.absent(),
    )
    batch = run_batch(config, link, [np.random.default_rng([seed, r]) for r in range(rows)])
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
