"""Acceptance suite: one test per criterion, each printing a PASS line.

Every expected value here is either exact arithmetic or an independently
computed oracle (direct matrix arithmetic, exhaustive enumeration, binomial
tails); no target number is taken on faith.
"""

import itertools
import json
import math
import time
from typing import NamedTuple

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
    majority,
    resolve_erasures,
    run_experiment,
    run_session,
    run_star_session,
)
from twoway_qkd.cli import main as cli_main
from twoway_qkd.harness import CONFIG_FILENAME, CSV_FILENAME, SUMMARY_FILENAME
from twoway_qkd.protocol import AllErasuresError, derive, run_batch
from twoway_qkd.qubit import PAULI_CODES, QubitRegister, RowStreams
from twoway_qkd.reference import (
    PAULI_MATRICES,
    ChannelCompletenessError,
    KrausChannel,
    apply_channel,
    apply_pauli,
    born_probability,
    encode_bit,
    flip_probability,
    to_density,
)


def report(number, text):
    print(f"ACCEPTANCE {number}: PASS - {text}")


def test_criterion_1_pseudocode_1_exactness():
    runs = 10_000
    rng = np.random.default_rng(2026)
    start = time.monotonic()
    for seed in range(runs):
        n_bits = int(rng.integers(1, 257))
        pool_size = int(rng.integers(1, 9))
        angles = rng.uniform(0.0, math.pi, size=pool_size)
        config = RunConfig(
            n_bits=n_bits, variant="V1",
            basis_pool=tuple(Basis(float(t)) for t in angles), seed=seed,
        )
        result = run_session(config)
        assert np.array_equal(result.derivation.m_prime, result.key_message), f"seed {seed}"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"exactness sweep took {elapsed:.1f}s"
    report(1, f"{runs} noiseless V1 runs bit-exact in {elapsed:.1f}s")


def test_criterion_2_deterministic_xz_flip():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        theta = float(rng.uniform(-2 * math.pi, 2 * math.pi))
        i = int(rng.integers(2))
        basis = Basis(theta)
        state = encode_bit(i, basis)
        for tag in ("XZ", "ZX"):
            p = born_probability(apply_pauli(state, tag), basis, 1 - i)
            assert abs(p - 1.0) <= 1e-12
        assert flip_probability(basis, "XZ") == flip_probability(basis, "ZX")
    report(2, "XZ and ZX flip the encoded bit with analytic probability 1")


def test_criterion_3_analytic_flip_law():
    for theta in np.linspace(-math.pi, math.pi, 1000):
        basis = Basis(float(theta))
        c2, s2 = math.cos(theta) ** 2, math.sin(theta) ** 2
        assert abs(flip_probability(basis, "X") - (c2 - s2) ** 2) <= 1e-12
        assert abs(flip_probability(basis, "Z") - (2 * math.sin(theta) * math.cos(theta)) ** 2) <= 1e-12

    n = 100_000
    rng = np.random.default_rng(31)
    index = np.zeros(n, dtype=np.int64)
    for theta in (0.0, math.pi / 8, math.pi / 4):
        basis, pool = Basis(theta), np.array([theta])
        for tag in ("X", "Z"):
            p = flip_probability(basis, tag)
            reg = QubitRegister.encode(np.zeros(n, dtype=np.uint8), pool, index)
            freq = reg.apply_pauli_codes(np.full(n, PAULI_CODES[tag])).measure(pool, rng, index).mean()
            sigma = math.sqrt(p * (1 - p) / n)
            assert abs(freq - p) <= 3 * sigma, (theta, tag, freq, p)
    report(3, "flip law exact on 1000-point grid and Monte Carlo within 3 sigma")


def test_criterion_4_kraus_channel_laws():
    rng = np.random.default_rng(4)
    for trial in range(1000):
        n_ops = int(rng.integers(1, 5))
        g = rng.normal(size=(2 * n_ops, 2)) + 1j * rng.normal(size=(2 * n_ops, 2))
        q, _ = np.linalg.qr(g)
        isometry = KrausChannel([q[2 * j : 2 * j + 2, :] for j in range(n_ops)])
        # Rebuild from the (sigma_j0..sigma_j3) coefficients: the channel is
        # specified in the I/X/Z/XZ operator basis.
        channel = KrausChannel.from_pauli_coefficients(isometry.pauli_coefficients())
        rho = to_density(encode_bit(int(rng.integers(2)), Basis(float(rng.uniform(0, math.pi)))))
        out = apply_channel(rho, channel)
        assert abs(np.trace(out.entries) - 1.0) <= 1e-10
        assert np.abs(out.entries - out.entries.conj().T).max() <= 1e-10
        assert np.linalg.eigvalsh(out.entries).min() >= -1e-10
    for bad in ([0.9 * np.eye(2)], [np.eye(2), 0.2 * PAULI_MATRICES["X"]]):
        with pytest.raises(ChannelCompletenessError):
            KrausChannel(bad)
    report(4, "1000 random channels preserve trace/Hermiticity/positivity; incompleteness rejected")


def _visible_flip_rate(p, theta):
    """Oracle: per-qubit probability the decoded bit is wrong under bit-flip
    noise with probability p on each leg, by direct matrix arithmetic."""
    basis = Basis(theta)
    eye = PAULI_MATRICES["I"]
    x = PAULI_MATRICES["X"]
    total = 0.0
    for m in (0, 1):
        u = PAULI_MATRICES["XZ"] if m else eye
        for e1, p1 in ((eye, 1 - p), (x, p)):
            for e2, p2 in ((eye, 1 - p), (x, p)):
                v = e2 @ u @ e1 @ encode_bit(0, basis).vector()
                wrong = encode_bit(1 - m, basis).vector()
                total += 0.5 * p1 * p2 * abs(np.conj(wrong) @ v) ** 2
    return total


def _binomial_tail(t, q):
    return sum(math.comb(t, j) * q**j * (1 - q) ** (t - j) for j in range(math.ceil(t / 2), t + 1))


class BatchMessages(NamedTuple):
    key_message: np.ndarray
    m_prime: np.ndarray


def batch_rows(cells, rows: RowStreams) -> BatchMessages:
    """The key-messages and decoded messages of one run_batch pass, `rows` the streams of every purpose."""
    passed = run_batch(cells, (rows,) * 5)
    return BatchMessages(passed.key_message, passed.derivation.m_prime)


def test_criterion_5_repetition_decoding():
    # Exhaustive: every error pattern with < ceil(t/2) flips decodes right;
    # exact ties erase.
    for t in (2, 3, 4, 5):
        for bit in (0, 1):
            for pattern in itertools.product((0, 1), repeat=t):
                flips = sum(pattern)
                block = np.array(pattern, dtype=np.uint8) ^ bit
                m_prime, p = majority(block, t, 1, "V2")
                if flips < math.ceil(t / 2) and 2 * flips != t:
                    assert p[0] == 0 and m_prime[0] == bit
                if 2 * flips == t:
                    assert p[0] == 1 and m_prime[0] == 0

    # Monte Carlo block error rate vs the closed-form binomial tail, with
    # the per-qubit error rate q from the flip-probability oracle.
    theta = 0.0
    n_blocks_per_run = 8
    runs = 10_000
    for p in (0.01, 0.05, 0.1, 0.2):
        q = _visible_flip_rate(p, theta)
        # Cross-check the oracle against the analytic single-flip expression.
        assert q == pytest.approx(2 * p * (1 - p) * flip_probability(Basis(theta), "X"), abs=1e-12)
        noise = NoiseModel(p_bitflip=p)
        for t in (3, 5):
            tail = _binomial_tail(t, q)
            config = RunConfig(
                n_bits=n_blocks_per_run, repetition=t, variant="V2",
                basis_pool=(Basis(theta),), seed=0,
            )
            # The streams of one run_session(rng=...) per run; row r of the
            # batch draws exactly what that session drew.
            rows = RowStreams(
                np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(int(p * 1000), t)))
                for seed in range(runs)
            )
            batch = batch_rows([(config, LinkSettings(noise, noise), runs)], rows)
            errors = int((batch.m_prime != batch.key_message).sum())
            total = runs * n_blocks_per_run
            rate = errors / total
            sigma = math.sqrt(tail * (1 - tail) / total)
            assert abs(rate - tail) <= 3 * sigma, (p, t, rate, tail)
    report(5, "repetition decode exhaustive for t<=5; block errors match binomial tail within 3 sigma")


def test_criterion_6_erasure_resolution_consistency():
    for n in range(1, 5):
        for m_bits in itertools.product((0, 1), repeat=n):
            for p_bits in itertools.product((0, 1), repeat=n):
                m = np.array(m_bits, dtype=np.uint8)
                p = np.array(p_bits, dtype=np.uint8)
                if p.all():
                    with pytest.raises(AllErasuresError):
                        resolve_erasures(np.zeros(n, dtype=np.uint8), p)
                    with pytest.raises(AllErasuresError):
                        resolve_erasures(m, p)
                    continue
                m_prime = m.copy()
                m_prime[p == 1] = 0  # non-erased blocks decoded correctly
                assert np.array_equal(resolve_erasures(m_prime, p), resolve_erasures(m, p))
    report(6, "Alice/Bob erasure resolution identical over all (m, p) with N <= 4; all-erasure aborts")


def _majority_oracle(M, t, n):
    """Independent per-column majority: plain Python counting, no reshapes."""
    out = []
    for k in range(n):
        ones = sum(int(M[r * n + k]) for r in range(t))
        out.append(1 if ones * 2 > t else 0)
    return out


def test_criterion_7_copy_majority_equivalence():
    for t in (1, 2, 3):
        for n in (1, 2, 3, 4):
            for bits in itertools.product((0, 1), repeat=t * n):
                M = np.array(bits, dtype=np.uint8)
                m, _ = majority(M, t, n, "V3")
                assert m.tolist() == _majority_oracle(M, t, n)
    rng = np.random.default_rng(77)
    for _ in range(10_000):
        t = int(rng.integers(1, 8))
        n = int(rng.integers(1, 33))
        M = rng.integers(0, 2, size=t * n, dtype=np.uint8)
        a = rng.integers(0, 2, size=t * n, dtype=np.uint8)
        m = derive(RunConfig(n_bits=n, repetition=t, variant="V3"), M ^ a, a).m_prime
        assert m.tolist() == _majority_oracle(M, t, n)
    report(7, "copy-majority decoding matches the brute-force oracle exhaustively and on 10^4 random instances")


def _eve_disturbance_oracle(party_pool, eve_pool):
    """Density-matrix computation of the per-bit error probability under
    intercept-resend on the forward leg, averaged over a, m, and bases."""
    total = 0.0
    count = 0
    for theta_a in party_pool:
        basis_a = Basis(theta_a)
        for theta_e in eve_pool:
            basis_e = Basis(theta_e)
            projectors = KrausChannel(
                [np.outer(encode_bit(i, basis_e).vector(), encode_bit(i, basis_e).vector().conj()) for i in (0, 1)]
            )
            for a in (0, 1):
                rho = apply_channel(to_density(encode_bit(a, basis_a)), projectors)
                for m in (0, 1):
                    u = PAULI_MATRICES["XZ"] if m else PAULI_MATRICES["I"]
                    rho_back = u @ rho.entries @ u.conj().T
                    wrong = encode_bit(1 - (a ^ m), basis_a).vector()
                    total += float(np.real(np.conj(wrong) @ rho_back @ wrong))
                    count += 1
    return total / count


def test_criterion_8_eve_detection():
    pool = (0.0, math.pi / 4)
    party_pool = tuple(Basis(t) for t in pool)
    eve = EveStrategy.intercept_resend(pool, legs=("forward",))
    oracle = _eve_disturbance_oracle(pool, pool)

    # 10^5 per-bit trials: 100 sessions of 1000 message bits each.
    bits_per_run, runs = 1000, 100
    mismatches = 0
    for seed in range(runs):
        config = RunConfig(n_bits=bits_per_run, variant="V1", basis_pool=party_pool, seed=seed)
        result = run_session(config, eve=eve)
        mismatches += int((result.derivation.m_prime != result.key_message).sum())
    total = bits_per_run * runs
    rate = mismatches / total
    sigma = math.sqrt(oracle * (1 - oracle) / total)
    assert abs(rate - oracle) <= 3 * sigma, (rate, oracle)

    # Detection rate is monotone non-decreasing in tag length.
    config = ExperimentConfig.from_dict(
        {
            "variant": "V1", "n_bits": 32, "basis_pool": list(pool), "seed": 8,
            "repetitions": 2000,
            "eve": {"kind": "intercept_resend", "basis_pool": list(pool), "legs": ["forward"]},
            "sweep": {"tag_length": [0, 8, 16, 32]},
        }
    )
    detection = [cell.detection_rate for cell in run_experiment(config).cells]
    assert detection[0] == 0.0
    assert all(lo <= hi + 1e-12 for lo, hi in zip(detection, detection[1:])), detection
    report(8, f"per-bit disturbance {rate:.4f} matches oracle {oracle:.4f}; detection monotone {detection}")


def test_criterion_9_star_network():
    pool = (Basis(0.0), Basis(math.pi / 4))
    topology = Topology(leaves=tuple(f"leaf{i}" for i in range(8)))
    for seed in range(1000):
        config = RunConfig(n_bits=16, variant="V1", basis_pool=pool, seed=seed)
        result = run_star_session(topology, config, record_frames=False)
        for outcome in result.outcomes.values():
            assert outcome.result.accepted
            assert np.array_equal(outcome.result.alice_final, result.key_message)

    # Corrupting one link leaves the other seven transcripts bit-identical.
    corrupted_topo = Topology(
        leaves=topology.leaves,
        links={"leaf5": LinkSettings(eve=EveStrategy.substitute((0.0, math.pi / 4)))},
    )
    for seed in range(25):
        config = RunConfig(n_bits=16, variant="V1", basis_pool=pool, tag_length=16, seed=seed)
        baseline = run_star_session(topology, config)
        corrupted = run_star_session(corrupted_topo, config)
        for leaf in topology.leaves:
            if leaf == "leaf5":
                continue
            assert (
                corrupted.outcomes[leaf].result.transcript_text()
                == baseline.outcomes[leaf].result.transcript_text()
            )
            assert corrupted.outcomes[leaf].frames_bytes() == baseline.outcomes[leaf].frames_bytes()
    report(9, "8-leaf star: full agreement in 1000 noiseless runs; corruption stays on its own link")


def test_criterion_10_run_replay_byte_identical(tmp_path):
    config = {
        "variant": "V2", "n_bits": 8, "repetition": 3,
        "basis_pool": [0.0, math.pi / 8, math.pi / 4],
        "tag_length": 4, "seed": 123, "repetitions": 50,
        "noise": {"p_bitflip": 0.05},
        "sweep": {"p_bitflip": [0.0, 0.05, 0.1], "repetition": [3, 5]},
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(config))
    assert cli_main(["run", "--config", str(cfg_path), "--output-dir", str(tmp_path / "out1")]) == 0
    assert cli_main(["replay", "--input-dir", str(tmp_path / "out1"),
                     "--output-dir", str(tmp_path / "out2")]) == 0
    for name in (CONFIG_FILENAME, CSV_FILENAME, SUMMARY_FILENAME):
        assert (tmp_path / "out1" / name).read_bytes() == (tmp_path / "out2" / name).read_bytes()
    report(10, "run followed by replay produced byte-identical artifacts")
