"""Scalar single-qubit algebra: the reference the vectorized path is tested against.

States live in C^2. The basis at angle theta encodes bit i as
|psi_0> = cos(theta)|0> + sin(theta)|1> and |psi_1> = -sin(theta)|0> + cos(theta)|1>,
so every basis pair is orthonormal by construction. Amplitudes are kept
exact; observable contracts (flips, measurement statistics) are defined up
to global phase, which no measurement can see.

The tests check QubitRegister, perturb_register and eve_tap_register against
these one-qubit forms, bit for bit. Only the tests import this module; no
module in the package does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ABSENT, INTERCEPT_RESEND, EveObservation, EveStrategy, NoiseModel
from .qubit import PAULI_TAGS, Basis, QubitRegister, Rng

# Tolerances: exact double-precision identities vs accumulated channel sums.
ATOL_EXACT = 1e-12
ATOL_CHANNEL = 1e-10

_I = np.eye(2, dtype=complex)
_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: Fixed unitaries for each Pauli word tag. XZ and ZX differ by a global
#: sign only, so they act identically on every measurement statistic.
PAULI_MATRICES: dict[str, np.ndarray] = {
    "I": _I,
    "X": _X,
    "Z": _Z,
    "XZ": _X @ _Z,
    "ZX": _Z @ _X,
}


class ChannelCompletenessError(ValueError):
    """Raised when a Kraus operator set fails sum_j E_j^dag E_j = I."""


@dataclass(frozen=True)
class PureState:
    """Normalized single-qubit state, amplitudes of |0> and |1>."""

    amp0: complex
    amp1: complex

    def __post_init__(self) -> None:
        norm = abs(self.amp0) ** 2 + abs(self.amp1) ** 2
        if not abs(norm - 1.0) <= ATOL_EXACT:  # written so that NaN fails too
            raise ValueError(f"state not normalized: |amp|^2 = {norm}")

    def vector(self) -> np.ndarray:
        return np.array([self.amp0, self.amp1], dtype=complex)

    def phase_shifted(self, phase: complex) -> "PureState":
        if not abs(abs(phase) - 1.0) <= ATOL_EXACT:
            raise ValueError("phase must be unit modulus")
        return PureState(self.amp0 * phase, self.amp1 * phase)

    def equals_up_to_phase(self, other: "PureState") -> bool:
        # |<a|b>| = 1 iff the states coincide up to a global phase.
        ip = np.conj(self.vector()) @ other.vector()
        return abs(abs(ip) - 1.0) <= ATOL_EXACT


@dataclass(frozen=True)
class DensityMatrix:
    """2x2 Hermitian, unit-trace, positive-semidefinite matrix."""

    entries: np.ndarray
    atol: float = ATOL_EXACT

    def __post_init__(self) -> None:
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("density matrix must be 2x2")
        object.__setattr__(self, "entries", m)
        if not np.allclose(m, m.conj().T, atol=self.atol, rtol=0):
            raise ValueError("density matrix not Hermitian")
        if abs(np.trace(m) - 1.0) > self.atol:
            raise ValueError(f"trace {np.trace(m)} != 1")
        if np.linalg.eigvalsh(m).min() < -self.atol:
            raise ValueError("density matrix not positive semidefinite")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DensityMatrix):
            return NotImplemented
        return np.array_equal(self.entries, other.entries)

    def is_pure(self) -> bool:
        return np.allclose(self.entries @ self.entries, self.entries, atol=ATOL_EXACT, rtol=0)


class KrausChannel:
    """Operator set {E_j} with sum_j E_j^dag E_j = I.

    Each operator can be given directly as a 2x2 matrix or through its
    coefficients in the operator basis (I, X, Z, XZ).
    """

    def __init__(self, operators):
        self.operators = [np.asarray(op, dtype=complex) for op in operators]
        if not self.operators:
            raise ChannelCompletenessError("channel needs at least one operator")
        for op in self.operators:
            if op.shape != (2, 2):
                raise ChannelCompletenessError("Kraus operators must be 2x2")
        self.require_complete()

    @classmethod
    def from_pauli_coefficients(cls, coefficients) -> "KrausChannel":
        """Build E_j = s0*I + s1*X + s2*Z + s3*XZ from rows (s0, s1, s2, s3)."""
        ops = []
        for s0, s1, s2, s3 in coefficients:
            ops.append(s0 * _I + s1 * _X + s2 * _Z + s3 * PAULI_MATRICES["XZ"])
        return cls(ops)

    def pauli_coefficients(self) -> list[tuple[complex, complex, complex, complex]]:
        """Decompose each operator over (I, X, Z, XZ); the basis spans all of C^{2x2}."""
        out = []
        for op in self.operators:
            a, b = op[0, 0], op[0, 1]
            c, d = op[1, 0], op[1, 1]
            out.append(((a + d) / 2, (b + c) / 2, (a - d) / 2, (c - b) / 2))
        return out

    def require_complete(self) -> None:
        total = sum(op.conj().T @ op for op in self.operators)
        if not np.allclose(total, _I, atol=ATOL_CHANNEL, rtol=0):
            raise ChannelCompletenessError(
                f"sum E_j^dag E_j deviates from I by {np.abs(total - _I).max():.3g}"
            )


def encode_bit(i: int, basis: Basis) -> PureState:
    """Encode bit i as alpha|i> + (-1)^i beta|1-i> in the given basis,
    alpha = cos(theta) and beta = sin(theta)."""
    if i not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    a, b = math.cos(basis.theta), math.sin(basis.theta)
    if i == 0:
        return PureState(a, b)
    return PureState(-b, a)


def apply_pauli(state: PureState, tag: str) -> PureState:
    """Apply the Pauli word with this tag ("I", "X", "Z", "XZ" or "ZX")."""
    v = PAULI_MATRICES[tag] @ state.vector()
    return PureState(v[0], v[1])


def born_probability(state: PureState, basis: Basis, outcome: int) -> float:
    """Probability of reading `outcome` when measuring `state` in `basis`."""
    ip = np.conj(encode_bit(outcome, basis).vector()) @ state.vector()
    return float(min(1.0, abs(ip) ** 2))


def measure_in_basis(state: PureState, basis: Basis, rng: Rng) -> int:
    """Sample a projective measurement outcome in `basis` (Born rule)."""
    p1 = born_probability(state, basis, 1)
    return int(rng.random() < p1)


def flip_probability(basis: Basis, tag: str) -> float:
    """Probability that the Pauli word `tag` flips the encoded bit, as seen by
    a measurement in the encoding basis: |<psi_{1-i}| P_tag |psi_i>|^2.

    Independent of i (the two matrix elements have equal magnitude for every
    word in the family); computed here for i = 0.
    """
    return born_probability(apply_pauli(encode_bit(0, basis), tag), basis, 1)


def to_density(state: PureState) -> DensityMatrix:
    v = state.vector()
    return DensityMatrix(np.outer(v, v.conj()))


def apply_channel(rho: DensityMatrix, channel: KrausChannel) -> DensityMatrix:
    """Open-system evolution rho -> sum_j E_j rho E_j^dag."""
    channel.require_complete()
    out = sum(op @ rho.entries @ op.conj().T for op in channel.operators)
    # Roundoff from the operator sum lands within the channel tolerance.
    return DensityMatrix(out, atol=ATOL_CHANNEL)


def register_state(register: QubitRegister, k: int) -> PureState:
    """Qubit k of a one-string register as a PureState."""
    amp0, amp1 = register.table.amps[:, register.codes[k]]
    return PureState(complex(amp0), complex(amp1))


def kraus_channel(model: NoiseModel) -> KrausChannel:
    """The averaged channel {sqrt(p_j) * P_j} the model unravels: row j of the
    diagonal holds the coefficients of operator j over (I, X, Z, XZ)."""
    probabilities = [model.p_identity, model.p_bitflip, model.p_phaseflip, model.p_both]
    return KrausChannel.from_pauli_coefficients(np.diag(np.sqrt(probabilities)))


def perturb(state: PureState, noise: NoiseModel, rng: Rng) -> PureState:
    """Apply one sampled Pauli error to a single in-transit qubit."""
    tag = PAULI_TAGS[int(noise.sample_codes(1, rng)[0])]
    return state if tag == "I" else apply_pauli(state, tag)


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
