"""Transit-channel effects: stochastic Pauli noise and eavesdropper taps.

Noise is a stochastic unraveling of the induced Kraus channel
(reference.kraus_channel): exactly one
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

from dataclasses import dataclass

import numpy as np

from .qubit import ANGLE, ConfigError, QubitRegister, Rng, _Record, check_fields, checked

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
        check_fields(self, p_bitflip=float, p_phaseflip=float, p_both=float)
        for name, p in (("p_bitflip", self.p_bitflip), ("p_phaseflip", self.p_phaseflip), ("p_both", self.p_both)):
            if not 0.0 <= p <= 1.0:  # written so that NaN fails too
                raise ConfigError(f"{name} must lie in [0,1], got {p!r}")
        if (total := sum((self.p_bitflip, self.p_phaseflip, self.p_both))) > 1.0 + 1e-15:
            raise ConfigError(f"p_bitflip + p_phaseflip + p_both: probabilities sum to {total} > 1")

    @property
    def p_identity(self) -> float:
        return max(0.0, 1.0 - self.p_bitflip - self.p_phaseflip - self.p_both)

    def is_trivial(self) -> bool:
        return self.p_bitflip == self.p_phaseflip == self.p_both == 0.0

    def sample_codes(self, n: int, rng: Rng) -> np.ndarray:
        """Draw one Pauli code per qubit: 0=I, 1=X, 2=Z, 3=XZ."""
        return _pauli_codes(rng.random(n), np.cumsum([self.p_identity, self.p_bitflip, self.p_phaseflip]))


def _pauli_codes(u: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The number of the three edges at or below each uniform u: its Pauli code.
    edges[k] is one threshold, or a (rows, 1) column of them for rows of u."""
    codes = (u >= edges[0]).view(np.int8)
    for edge in edges[1:]:
        codes += (u >= edge).view(np.int8)
    return codes


class RowNoise:
    """The noise of a batched pass's rows: models[k] covers the next counts[k] rows (or
    `counts` rows each), at its own edges, summed as NoiseModel.sample_codes sums them.
    The models all draw or are all trivial (protocol._pass_groups), so every row reads alike."""

    __slots__ = ("edges", "is_trivial")

    def __init__(self, models, counts):
        self.is_trivial = models[0].is_trivial  # every model's answer
        edges = np.cumsum([(model.p_identity, model.p_bitflip, model.p_phaseflip) for model in models], axis=1)
        self.edges = np.repeat(edges, counts, axis=0).T[:, :, None]  # (3, rows, 1)

    def sample_codes(self, n: int, rng: Rng) -> np.ndarray:
        return _pauli_codes(rng.random(n), self.edges)


def perturb_register(
    register: QubitRegister, noise: NoiseModel | RowNoise, rng: Rng
) -> tuple[QubitRegister, np.ndarray]:
    """Vectorized reference.perturb over a whole qubit string; returns the sampled codes."""
    if noise.is_trivial():
        return register, np.zeros(register.codes.shape, dtype=np.int8)
    codes = noise.sample_codes(len(register), rng)
    return register.apply_pauli_codes(codes), codes


@dataclass(frozen=True)
class EveStrategy:
    """What Eve does to qubits in transit.

    kind defaults to absent. basis_pool is her own measurement/emission pool
    (angles), required by an active kind; a single-entry pool is the
    fixed-angle policy. legs selects which traversals she taps: an active
    kind given none taps the forward leg, and stores {"forward"}.
    """

    kind: str = ABSENT
    basis_pool: tuple[float, ...] = ()
    legs: frozenset = frozenset()

    def __post_init__(self) -> None:
        # Stored hashable whatever iterables were given: protocol._pass_groups keys on the legs.
        check_fields(self, basis_pool=[ANGLE], kind=str)
        if type(self.legs) is not frozenset:  # a set's members are checked as a subset below
            legs = self.legs if isinstance(self.legs, set) else checked("legs", self.legs, [str])
            object.__setattr__(self, "legs", frozenset(legs))
        if self.kind not in (ABSENT, INTERCEPT_RESEND, SUBSTITUTE):
            raise ConfigError(f"kind: unknown Eve strategy {self.kind!r}")
        if self.kind != ABSENT and not self.basis_pool:
            raise ConfigError("basis_pool: active Eve strategy needs a non-empty basis pool")
        if not self.legs <= {FORWARD, BACKWARD}:
            raise ConfigError(f"legs: must be a subset of {{forward, backward}}, got {set(self.legs)}")
        if self.kind != ABSENT and not self.legs:
            object.__setattr__(self, "legs", frozenset({FORWARD}))

    @classmethod
    def absent(cls) -> "EveStrategy":
        return cls()

    @classmethod
    def intercept_resend(cls, basis_pool, legs=frozenset()) -> "EveStrategy":
        return cls(INTERCEPT_RESEND, basis_pool, legs)

    @classmethod
    def substitute(cls, basis_pool, legs=frozenset()) -> "EveStrategy":
        return cls(SUBSTITUTE, basis_pool, legs)

    def attacks(self, leg: str) -> bool:
        return self.kind != ABSENT and leg in self.legs


@dataclass(frozen=True, eq=False)
class EveObservation(_Record):
    """Eve-side record only, arrays shaped like the tapped register's codes: her basis
    angles (float64) and intercept-resend outcomes (uint8; a substitute tap records ()).

    Deliberately has no slot for the legitimate parties' bases, bits, or
    key-message; the tap interface never sees them.
    """

    basis_angles: np.ndarray = ()
    outcomes: np.ndarray = ()


def eve_tap_register(
    register: QubitRegister, strategy: EveStrategy, rng: Rng
) -> tuple[QubitRegister, EveObservation]:
    """Vectorized tap over a whole qubit string on one leg, batched or not; protocol._leg calls it where Eve taps."""
    n = len(register)
    pool = np.asarray(strategy.basis_pool)
    index = rng.integers(len(pool), size=n)
    if strategy.kind == INTERCEPT_RESEND:
        outcomes = register.measure(pool, rng, index)
        resent = QubitRegister.encode(outcomes, pool, index)
        return resent, EveObservation(pool[index], outcomes)
    fresh = rng.integers(2, size=n).astype(np.uint8)
    return QubitRegister.encode(fresh, pool, index), EveObservation(pool[index], ())
