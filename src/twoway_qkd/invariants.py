"""Fast built-in invariant suite backing the `verify` CLI subcommand.

These are quick smoke versions of the core contracts; the full suite with
the heavy Monte Carlo checks lives in the pytest tree.
"""

from __future__ import annotations

import itertools

import numpy as np

from .channel import NoiseModel
from .protocol import V2, V3, RunConfig, majority, resolve_erasures, run_session
from .qubit import XZ, ZX, Basis, X, Z
from .reference import (
    KrausChannel,
    apply_channel,
    apply_pauli,
    born_probability,
    encode_bit,
    flip_probability,
    kraus_channel,
    to_density,
)


def _check_orthonormality() -> bool:
    for theta in np.linspace(0.0, 2 * np.pi, 101):
        basis = Basis(float(theta))
        s0, s1 = encode_bit(0, basis), encode_bit(1, basis)
        ip = np.conj(s0.vector()) @ s1.vector()
        if abs(ip) >= 1e-12:
            return False
    return True


def _check_deterministic_flip() -> bool:
    rng = np.random.default_rng(1)
    for _ in range(100):
        basis = Basis(float(rng.uniform(0, 2 * np.pi)))
        for i in (0, 1):
            for op in (XZ, ZX):
                flipped = apply_pauli(encode_bit(i, basis), op)
                if abs(born_probability(flipped, basis, 1 - i) - 1.0) > 1e-12:
                    return False
    return True


def _check_flip_law() -> bool:
    for theta in np.linspace(0.0, np.pi, 181):
        basis = Basis(float(theta))
        c2, s2 = np.cos(theta) ** 2, np.sin(theta) ** 2
        if abs(flip_probability(basis, X) - (c2 - s2) ** 2) > 1e-12:
            return False
        if abs(flip_probability(basis, Z) - (2 * np.sin(theta) * np.cos(theta)) ** 2) > 1e-12:
            return False
    return True


def _check_channel_laws() -> bool:
    rng = np.random.default_rng(2)
    for _ in range(50):
        model = NoiseModel(*(rng.dirichlet(np.ones(4))[:3]))
        channel = kraus_channel(model)
        state = encode_bit(int(rng.integers(2)), Basis(float(rng.uniform(0, np.pi))))
        rho = apply_channel(to_density(state), channel)
        if abs(np.trace(rho.entries) - 1.0) > 1e-10:
            return False
    try:
        KrausChannel([np.eye(2) * 0.5])
    except ValueError:
        return True
    return False


def _check_v1_exactness() -> bool:
    pool = tuple(Basis(t) for t in (0.0, np.pi / 8, np.pi / 4))
    for seed in range(50):
        config = RunConfig(n_bits=32, variant="V1", basis_pool=pool, seed=seed)
        result = run_session(config)
        if not np.array_equal(result.derivation.m_prime, result.key_message):
            return False
    return True


def _check_repetition_and_erasures() -> bool:
    for t in (2, 3):
        for n in (1, 2, 3):
            for m_bits in itertools.product((0, 1), repeat=n):
                m = np.array(m_bits, dtype=np.uint8)
                m_prime, p = majority(np.repeat(m, t), t, n, V2)
                if p.any() or not np.array_equal(m_prime, m):
                    return False
    for n in (2, 3):
        for m_bits in itertools.product((0, 1), repeat=n):
            for p_bits in itertools.product((0, 1), repeat=n):
                if all(p_bits):
                    continue
                m = np.array(m_bits, dtype=np.uint8)
                p = np.array(p_bits, dtype=np.uint8)
                m_prime = m.copy()
                m_prime[p == 1] = 0
                if not np.array_equal(resolve_erasures(m_prime, p), resolve_erasures(m, p)):
                    return False
    return True


def _check_v3_majority() -> bool:
    rng = np.random.default_rng(3)
    for _ in range(200):
        t, n = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        M = rng.integers(0, 2, size=t * n, dtype=np.uint8)
        m, _ = majority(M, t, n, V3)
        expected = [int(sum(M[r * n + k] for r in range(t)) * 2 > t) for k in range(n)]
        if not np.array_equal(m, np.array(expected, dtype=np.uint8)):
            return False
    return True


CHECKS = (
    ("basis orthonormality", _check_orthonormality),
    ("deterministic XZ/ZX flip", _check_deterministic_flip),
    ("analytic flip law", _check_flip_law),
    ("kraus channel laws", _check_channel_laws),
    ("pseudo-code 1 exactness", _check_v1_exactness),
    ("repetition decode + erasure consistency", _check_repetition_and_erasures),
    ("copy-majority decode", _check_v3_majority),
)


def run_invariant_checks() -> list[tuple[str, bool]]:
    return [(name, bool(fn())) for name, fn in CHECKS]
