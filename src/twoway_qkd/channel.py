"""Transit-channel effects: stochastic Pauli noise and eavesdropper taps.

Noise is a stochastic unraveling of the induced Kraus channel: exactly one
of {I, X, Z, XZ} is applied per qubit per traversal, sampled at the
configured probabilities. The qubit crosses the channel twice (out and
back), so a session applies the model independently on each leg.

The Eve model is honest by interface, not by physics: the simulator holds
full amplitudes in memory, so the guarantee that Eve learns nothing about
the parties' bases or key-message is a typed-contract guarantee (her tap
receives only the in-transit state value), not information-theoretic
hiding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .qubit import (
    PAULI_TAGS,
    Basis,
    KrausChannel,
    PauliWord,
    PureState,
    QubitRegister,
    Rng,
    apply_pauli,
    encode_bit,
    measure_in_basis,
)

FORWARD = "forward"
BACKWARD = "backward"

ABSENT = "absent"
INTERCEPT_RESEND = "intercept_resend"
SUBSTITUTE = "substitute"


@dataclass(frozen=True)
class NoiseModel:
    """Per-traversal Pauli error probabilities; residual mass is identity."""

    p_bitflip: float = 0.0
    p_phaseflip: float = 0.0
    p_both: float = 0.0

    def __post_init__(self) -> None:
        probs = (self.p_bitflip, self.p_phaseflip, self.p_both)
        for name, p in zip(("p_bitflip", "p_phaseflip", "p_both"), probs):
            # Written so that NaN fails too.
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must lie in [0,1], got {p}")
        if sum(probs) > 1.0 + 1e-15:
            raise ValueError(f"probabilities sum to {sum(probs)} > 1")

    @property
    def p_identity(self) -> float:
        return max(0.0, 1.0 - self.p_bitflip - self.p_phaseflip - self.p_both)

    def is_trivial(self) -> bool:
        return self.p_bitflip == self.p_phaseflip == self.p_both == 0.0

    def kraus_channel(self) -> KrausChannel:
        """The averaged channel {sqrt(p_j) * P_j} this model unravels."""
        coeffs = []
        for p, slot in (
            (self.p_identity, 0),
            (self.p_bitflip, 1),
            (self.p_phaseflip, 2),
            (self.p_both, 3),
        ):
            row = [0.0, 0.0, 0.0, 0.0]
            row[slot] = np.sqrt(p)
            coeffs.append(tuple(row))
        return KrausChannel.from_pauli_coefficients(coeffs)

    def sample_codes(self, n: int, rng: Rng) -> np.ndarray:
        """Draw one Pauli code per qubit: 0=I, 1=X, 2=Z, 3=XZ."""
        u = rng.random(n)
        edges = np.cumsum([self.p_identity, self.p_bitflip, self.p_phaseflip])
        codes = (u >= edges[0]).view(np.int8)  # the number of edges at or below u
        for edge in edges[1:]:
            codes += u >= edge
        return codes


def perturb(state: PureState, noise: NoiseModel, rng: Rng) -> PureState:
    """Apply one sampled Pauli error to a single in-transit qubit."""
    code = int(noise.sample_codes(1, rng)[0])
    tag = PAULI_TAGS[code]
    if tag == "I":
        return state
    return apply_pauli(state, PauliWord(tag))


def perturb_register(
    register: QubitRegister, noise: NoiseModel, rng: Rng
) -> tuple[QubitRegister, np.ndarray]:
    """Vectorized perturb over a whole qubit string; returns the sampled codes."""
    if noise.is_trivial():
        return register, np.zeros(register.codes.shape, dtype=np.int8)
    codes = noise.sample_codes(len(register), rng)
    return register.apply_pauli_codes(codes), codes


@dataclass(frozen=True)
class EveStrategy:
    """What Eve does to qubits in transit.

    basis_pool is her own measurement/emission pool (angles); a single-entry
    pool is the fixed-angle policy. legs selects which traversals she taps.
    """

    kind: str = ABSENT
    basis_pool: tuple[float, ...] = ()
    legs: frozenset = frozenset()

    def __post_init__(self) -> None:
        if self.kind not in (ABSENT, INTERCEPT_RESEND, SUBSTITUTE):
            raise ValueError(f"unknown Eve strategy {self.kind!r}")
        if self.kind != ABSENT and not self.basis_pool:
            raise ValueError("active Eve strategy needs a non-empty basis pool")
        try:
            finite = all(math.isfinite(theta) for theta in self.basis_pool)
        except TypeError:
            finite = False
        if not finite:
            raise ValueError(f"basis_pool angles must be finite numbers: {list(self.basis_pool)}")
        if not self.legs <= {FORWARD, BACKWARD}:
            raise ValueError(f"legs must be a subset of {{forward, backward}}: {self.legs}")
        object.__setattr__(self, "legs", frozenset(self.legs))

    @classmethod
    def absent(cls) -> "EveStrategy":
        return cls()

    @classmethod
    def intercept_resend(cls, basis_pool, legs=(FORWARD,)) -> "EveStrategy":
        return cls(INTERCEPT_RESEND, tuple(basis_pool), frozenset(legs))

    @classmethod
    def substitute(cls, basis_pool, legs=(FORWARD,)) -> "EveStrategy":
        return cls(SUBSTITUTE, tuple(basis_pool), frozenset(legs))

    def attacks(self, leg: str) -> bool:
        return self.kind != ABSENT and leg in self.legs


@dataclass(frozen=True)
class EveObservation:
    """Eve-side record only: her basis choices and her measurement outcomes.

    Deliberately has no slot for the legitimate parties' bases, bits, or
    key-message; the tap interface never sees them.
    """

    basis_angles: tuple[float, ...] = ()
    outcomes: tuple[int, ...] = ()


def eve_tap(
    state: PureState, strategy: EveStrategy, rng: Rng
) -> tuple[PureState, EveObservation]:
    """Tap one in-transit qubit. Eve sees only the state value."""
    if strategy.kind == ABSENT:
        return state, EveObservation()
    pool = strategy.basis_pool
    theta = pool[int(rng.integers(len(pool)))]
    basis = Basis(theta)
    if strategy.kind == INTERCEPT_RESEND:
        outcome = measure_in_basis(state, basis, rng)
        return encode_bit(outcome, basis), EveObservation((theta,), (outcome,))
    # Substitute: a fresh qubit, independent of the intercepted one.
    fresh = int(rng.integers(2))
    return encode_bit(fresh, basis), EveObservation((theta,), ())


def eve_tap_register(
    register: QubitRegister, strategy: EveStrategy, rng: Rng
) -> tuple[QubitRegister, EveObservation]:
    """Vectorized tap over a whole qubit string on one leg. On a batched
    register the observation holds one row array per run."""
    if strategy.kind == ABSENT:
        return register, EveObservation()
    n = len(register)
    pool = np.asarray(strategy.basis_pool)
    index = rng.integers(len(pool), size=n)
    if strategy.kind == INTERCEPT_RESEND:
        outcomes = register.measure(pool, rng, index)
        resent = QubitRegister.encode(outcomes, pool, index)
        return resent, EveObservation(tuple(pool[index]), tuple(outcomes))
    fresh = rng.integers(2, size=n).astype(np.uint8)
    return QubitRegister.encode(fresh, pool, index), EveObservation(tuple(pool[index]), ())
