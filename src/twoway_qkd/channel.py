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
import numbers
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
        for name in ("p_bitflip", "p_phaseflip", "p_both"):
            p = getattr(self, name)
            # Written so that NaN fails too. Stored as a float, as from_dict gives it: an int prints differently.
            if isinstance(p, bool) or not isinstance(p, numbers.Real) or not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a number in [0,1], got {p!r}")
            object.__setattr__(self, name, float(p))
        if (total := sum((self.p_bitflip, self.p_phaseflip, self.p_both))) > 1.0 + 1e-15:
            raise ValueError(f"probabilities sum to {total} > 1")

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
        return self._codes(rng.random(n))

    def _codes(self, u: np.ndarray) -> np.ndarray:
        edges = np.cumsum([self.p_identity, self.p_bitflip, self.p_phaseflip])
        codes = (u >= edges[0]).view(np.int8)  # the number of edges at or below u
        for edge in edges[1:]:
            codes += u >= edge
        return codes


class RowNoise:
    """The noise of a batched pass's rows: rows spans[k] draw under models[k],
    each at its own model's probabilities. The models must all draw or all be
    trivial, so that every row reads the same words."""

    __slots__ = ("models", "spans")

    def __init__(self, models, spans):
        if len({model.is_trivial() for model in models}) > 1:
            raise ValueError("the rows of one pass must all draw noise or none")
        self.models, self.spans = models, spans

    def is_trivial(self) -> bool:
        return self.models[0].is_trivial()

    def sample_codes(self, n: int, rng: Rng) -> np.ndarray:
        u = rng.random(n)
        return np.concatenate([model._codes(u[span]) for model, span in zip(self.models, self.spans)])


def perturb(state: PureState, noise: NoiseModel, rng: Rng) -> PureState:
    """Apply one sampled Pauli error to a single in-transit qubit."""
    code = int(noise.sample_codes(1, rng)[0])
    tag = PAULI_TAGS[code]
    if tag == "I":
        return state
    return apply_pauli(state, PauliWord(tag))


def perturb_register(
    register: QubitRegister, noise: NoiseModel | RowNoise, rng: Rng
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
        try:
            pool = tuple(self.basis_pool)
            finite = all(math.isfinite(theta) for theta in pool)
        except TypeError:
            finite = False
        if not finite:
            raise ValueError(f"basis_pool angles must be finite numbers: {self.basis_pool!r}")
        # Stored hashable whatever iterables were given: a star groups its links by LinkSettings.
        object.__setattr__(self, "basis_pool", pool)
        object.__setattr__(self, "legs", frozenset(self.legs))
        if self.kind != ABSENT and not self.basis_pool:
            raise ValueError("active Eve strategy needs a non-empty basis pool")
        if not self.legs <= {FORWARD, BACKWARD}:
            raise ValueError(f"legs must be a subset of {{forward, backward}}: {self.legs}")

    @classmethod
    def absent(cls) -> "EveStrategy":
        return cls()

    @classmethod
    def intercept_resend(cls, basis_pool, legs=(FORWARD,)) -> "EveStrategy":
        return cls(INTERCEPT_RESEND, basis_pool, legs)

    @classmethod
    def substitute(cls, basis_pool, legs=(FORWARD,)) -> "EveStrategy":
        return cls(SUBSTITUTE, basis_pool, legs)

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
