import dataclasses
import math

import numpy as np
import pytest

from twoway_qkd import Basis, EveObservation, EveStrategy, NoiseModel, QubitRegister
from twoway_qkd.channel import eve_tap_register, perturb_register
from twoway_qkd.reference import apply_channel, encode_bit, eve_tap, kraus_channel, perturb, register_state, to_density


def test_noise_model_validation():
    with pytest.raises(ValueError):
        NoiseModel(p_bitflip=-0.1)
    with pytest.raises(ValueError):
        NoiseModel(p_bitflip=0.6, p_phaseflip=0.6)
    with pytest.raises(ValueError, match="p_bitflip"):
        NoiseModel(p_bitflip=float("nan"))
    with pytest.raises(ValueError, match="p_both"):
        NoiseModel(p_both=float("inf"))
    assert NoiseModel(0.2, 0.3, 0.1).p_identity == pytest.approx(0.4)
    # Probabilities are stored as floats; a bool or a non-number is an error naming the field.
    for field, value in [("p_bitflip", True), ("p_phaseflip", "0.1"), ("p_both", None), ("p_bitflip", 1j)]:
        with pytest.raises(ValueError, match=field):
            NoiseModel(**{field: value})
    noise = NoiseModel(p_bitflip=0, p_phaseflip=np.float32(0.5), p_both=np.int64(0))
    assert all(type(p) is float for p in (noise.p_bitflip, noise.p_phaseflip, noise.p_both))
    assert noise == NoiseModel(0.0, 0.5, 0.0)


def test_noise_channel_is_complete():
    kraus_channel(NoiseModel(0.3, 0.2, 0.1)).require_complete()
    kraus_channel(NoiseModel()).require_complete()


def test_perturb_trivial_noise_is_identity():
    rng = np.random.default_rng(0)
    s = encode_bit(1, Basis(0.3))
    assert perturb(s, NoiseModel(), rng) == s


def test_perturb_forced_bitflip():
    rng = np.random.default_rng(0)
    out = perturb(encode_bit(0, Basis(0.0)), NoiseModel(p_bitflip=1.0), rng)
    assert out.equals_up_to_phase(encode_bit(1, Basis(0.0)))


@pytest.mark.parametrize(
    "noise",
    [
        NoiseModel(p_bitflip=0.25),
        NoiseModel(p_phaseflip=0.4),
        NoiseModel(p_both=0.15),
        NoiseModel(0.1, 0.2, 0.3),
    ],
)
def test_perturb_average_matches_kraus_channel(noise):
    # Stochastic unraveling: the sample-average density matrix converges to
    # the analytic channel output, entrywise within 3 sigma.
    n = 100_000
    state = encode_bit(0, Basis(math.pi / 8))
    expected = apply_channel(to_density(state), kraus_channel(noise)).entries

    rng = np.random.default_rng(123)
    reg = QubitRegister.encode(np.zeros(n, dtype=np.uint8), np.array([math.pi / 8]), np.zeros(n, dtype=np.int64))
    out, codes = perturb_register(reg, noise, rng)
    avg = np.zeros((2, 2), dtype=complex)
    v = np.stack([out.amp0, out.amp1])
    avg = (v @ v.conj().T) / n

    # Entry variance of a mean of n pure-state projectors is bounded by 1/4n.
    bound = 3 * math.sqrt(0.25 / n)
    assert np.abs(avg - expected).max() < 3 * bound
    # Sampled code frequencies match the stated probabilities.
    freqs = np.bincount(codes, minlength=4) / n
    probs = [noise.p_identity, noise.p_bitflip, noise.p_phaseflip, noise.p_both]
    for f, p in zip(freqs, probs):
        assert abs(f - p) < 3 * math.sqrt(max(p * (1 - p), 1e-12) / n)


def test_scalar_and_register_perturb_agree():
    noise = NoiseModel(0.2, 0.3, 0.1)
    s = encode_bit(1, Basis(0.9))
    scalar = perturb(s, noise, np.random.default_rng(5))
    reg = QubitRegister.encode(np.array([1], dtype=np.uint8), np.array([0.9]), np.array([0]))
    assert register_state(reg, 0) == s
    vec, _ = perturb_register(reg, noise, np.random.default_rng(5))
    assert register_state(vec, 0) == scalar


def test_eve_strategy_validation():
    with pytest.raises(ValueError):
        EveStrategy(kind="mitm")
    with pytest.raises(ValueError):
        EveStrategy.intercept_resend(())
    with pytest.raises(ValueError):
        EveStrategy(kind="intercept_resend", basis_pool=(0.0,), legs=frozenset({"sideways"}))
    with pytest.raises(ValueError, match="finite"):
        EveStrategy.intercept_resend((0.0, float("nan")))
    # A pool entry that is not a number is a ValueError naming the pool, not a TypeError.
    for pool in (["a"], [0.0, None], [0.0, 1j], 0.5):
        with pytest.raises(ValueError, match="basis_pool"):
            EveStrategy.intercept_resend(pool)
        with pytest.raises(ValueError, match="basis_pool"):
            EveStrategy("intercept_resend", pool)
    # A pool given as a list or an array, and legs given as a list, are stored
    # as a tuple and a frozenset: equal to, and hashing as, the canonical form.
    canonical = EveStrategy("intercept_resend", (0.1, 0.2), frozenset({"forward"}))
    for pool, legs in (([0.1, 0.2], frozenset({"forward"})), (np.array([0.1, 0.2]), frozenset({"forward"})),
                       ((0.1, 0.2), ["forward"])):
        strategy = EveStrategy("intercept_resend", pool, legs)
        assert type(strategy.basis_pool) is tuple and type(strategy.legs) is frozenset
        assert strategy == canonical and hash(strategy) == hash(canonical)


def test_eve_absent_is_noop():
    s = encode_bit(0, Basis(0.2))
    out, obs = eve_tap(s, EveStrategy.absent(), np.random.default_rng(0))
    assert out == s
    assert obs == EveObservation()


def test_eve_matching_basis_sees_bit_and_is_invisible():
    theta = math.pi / 4
    s = encode_bit(0, Basis(theta))
    strategy = EveStrategy.intercept_resend((theta,))
    out, obs = eve_tap(s, strategy, np.random.default_rng(1))
    assert obs.outcomes == (0,)
    assert out == s


def test_eve_mismatched_basis_resends_her_eigenstates():
    strategy = EveStrategy.intercept_resend((math.pi / 4,))
    ones = 0
    n = 20_000
    rng = np.random.default_rng(2)
    reg = QubitRegister.encode(np.zeros(n, dtype=np.uint8), np.zeros(1), np.zeros(n, dtype=np.int64))
    out, obs = eve_tap_register(reg, strategy, rng)
    outcomes = np.array(obs.outcomes)
    for e in (0, 1):
        idx = np.flatnonzero(outcomes == e)[0]
        assert register_state(out, int(idx)) == encode_bit(e, Basis(math.pi / 4))
    sigma = math.sqrt(0.25 / n)
    assert abs(outcomes.mean() - 0.5) < 3 * sigma


def test_substitute_records_no_outcomes():
    strategy = EveStrategy.substitute((0.0, math.pi / 4))
    out, obs = eve_tap(encode_bit(0, Basis(0.3)), strategy, np.random.default_rng(3))
    assert obs.outcomes == ()
    assert len(obs.basis_angles) == 1


def test_eve_observation_carries_only_eve_side_data():
    # Structural opacity: the observation type has no slot that could hold
    # the parties' bases, bits, or key-message.
    fields = {f.name for f in dataclasses.fields(EveObservation)}
    assert fields == {"basis_angles", "outcomes"}


def test_eve_tap_scalar_and_register_agree():
    strategy = EveStrategy.intercept_resend((0.0, math.pi / 4))
    s = encode_bit(1, Basis(0.6))
    out_s, obs_s = eve_tap(s, strategy, np.random.default_rng(9))
    reg = QubitRegister.encode(np.array([1], dtype=np.uint8), np.array([0.6]), np.array([0]))
    assert register_state(reg, 0) == s
    out_v, obs_v = eve_tap_register(reg, strategy, np.random.default_rng(9))
    assert register_state(out_v, 0) == out_s
    assert obs_v == obs_s  # arrays against the one-qubit tuples, by value
