"""Exact single-qubit algebra: encoding bases, Pauli words, Kraus channels,
projective measurement.

States live in C^2. An encoding basis is parameterized by one real angle
theta, with alpha = cos(theta) and beta = sin(theta), so every basis pair
{|psi_0>, |psi_1>} is orthonormal by construction. Amplitudes are kept
exact; observable contracts (flips, measurement statistics) are defined up
to global phase, which no measurement can see.

Scalar types (PureState, DensityMatrix, ...) are the reference API. The
QubitRegister gives the same operations vectorized over a whole qubit
string; it must agree with the scalar path bit for bit (tested).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

Rng = np.random.Generator

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
class PauliWord:
    """One of the five words {I, X, Z, XZ, ZX}."""

    tag: str

    def __post_init__(self) -> None:
        if self.tag not in PAULI_MATRICES:
            raise ValueError(f"unknown Pauli word {self.tag!r}")

    @property
    def matrix(self) -> np.ndarray:
        return PAULI_MATRICES[self.tag]


I = PauliWord("I")
X = PauliWord("X")
Z = PauliWord("Z")
XZ = PauliWord("XZ")
ZX = PauliWord("ZX")


@dataclass(frozen=True)
class Basis:
    """Encoding basis {|psi_0>, |psi_1>} at angle theta.

    |psi_0> = cos(theta)|0> + sin(theta)|1>
    |psi_1> = -sin(theta)|0> + cos(theta)|1>
    """

    theta: float

    @property
    def alpha(self) -> float:
        return math.cos(self.theta)

    @property
    def beta(self) -> float:
        return math.sin(self.theta)

    def state(self, i: int) -> "PureState":
        return encode_bit(i, self)


@dataclass(frozen=True)
class PureState:
    """Normalized single-qubit state, amplitudes of |0> and |1>."""

    amp0: complex
    amp1: complex

    def __post_init__(self) -> None:
        norm = abs(self.amp0) ** 2 + abs(self.amp1) ** 2
        if abs(norm - 1.0) > ATOL_EXACT:
            raise ValueError(f"state not normalized: |amp|^2 = {norm}")

    def vector(self) -> np.ndarray:
        return np.array([self.amp0, self.amp1], dtype=complex)

    def phase_shifted(self, phase: complex) -> "PureState":
        if abs(abs(phase) - 1.0) > ATOL_EXACT:
            raise ValueError("phase must be unit modulus")
        return PureState(self.amp0 * phase, self.amp1 * phase)

    def equals_up_to_phase(self, other: "PureState", atol: float = ATOL_EXACT) -> bool:
        # |<a|b>| = 1 iff the states coincide up to a global phase.
        ip = np.conj(self.vector()) @ other.vector()
        return abs(abs(ip) - 1.0) <= atol


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

    def is_pure(self, atol: float = ATOL_EXACT) -> bool:
        return np.allclose(self.entries @ self.entries, self.entries, atol=atol, rtol=0)


class KrausChannel:
    """Operator set {E_j} with sum_j E_j^dag E_j = I.

    Each operator can be given directly as a 2x2 matrix or through its
    coefficients in the operator basis (I, X, Z, XZ).
    """

    def __init__(self, operators, atol: float = ATOL_CHANNEL):
        self.operators = [np.asarray(op, dtype=complex) for op in operators]
        if not self.operators:
            raise ChannelCompletenessError("channel needs at least one operator")
        for op in self.operators:
            if op.shape != (2, 2):
                raise ChannelCompletenessError("Kraus operators must be 2x2")
        self.atol = atol
        self.require_complete()

    @classmethod
    def from_pauli_coefficients(cls, coefficients, atol: float = ATOL_CHANNEL) -> "KrausChannel":
        """Build E_j = s0*I + s1*X + s2*Z + s3*XZ from rows (s0, s1, s2, s3)."""
        ops = []
        for s0, s1, s2, s3 in coefficients:
            ops.append(s0 * _I + s1 * _X + s2 * _Z + s3 * PAULI_MATRICES["XZ"])
        return cls(ops, atol=atol)

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
        if not np.allclose(total, _I, atol=self.atol, rtol=0):
            raise ChannelCompletenessError(
                f"sum E_j^dag E_j deviates from I by {np.abs(total - _I).max():.3g}"
            )


def encode_bit(i: int, basis: Basis) -> PureState:
    """Encode bit i as alpha|i> + (-1)^i beta|1-i> in the given basis."""
    if i not in (0, 1):
        raise ValueError("bit must be 0 or 1")
    a, b = basis.alpha, basis.beta
    if i == 0:
        return PureState(a, b)
    return PureState(-b, a)


def apply_pauli(state: PureState, op: PauliWord) -> PureState:
    v = op.matrix @ state.vector()
    return PureState(v[0], v[1])


def born_probability(state: PureState, basis: Basis, outcome: int) -> float:
    """Probability of reading `outcome` when measuring `state` in `basis`."""
    ip = np.conj(basis.state(outcome).vector()) @ state.vector()
    return float(min(1.0, abs(ip) ** 2))


def measure_in_basis(state: PureState, basis: Basis, rng: Rng) -> int:
    """Sample a projective measurement outcome in `basis` (Born rule)."""
    p1 = born_probability(state, basis, 1)
    return int(rng.random() < p1)


def flip_probability(basis: Basis, op: PauliWord) -> float:
    """Probability that `op` flips the encoded bit, as seen by a measurement
    in the encoding basis: |<psi_{1-i}| op |psi_i>|^2.

    Independent of i (the two matrix elements have equal magnitude for every
    word in the family); computed here for i = 0.
    """
    return born_probability(apply_pauli(encode_bit(0, basis), op), basis, 1)


def to_density(state: PureState) -> DensityMatrix:
    v = state.vector()
    return DensityMatrix(np.outer(v, v.conj()))


def apply_channel(rho: DensityMatrix, channel: KrausChannel) -> DensityMatrix:
    """Open-system evolution rho -> sum_j E_j rho E_j^dag."""
    channel.require_complete()
    out = sum(op @ rho.entries @ op.conj().T for op in channel.operators)
    # Roundoff from the operator sum lands within the channel tolerance.
    return DensityMatrix(out, atol=ATOL_CHANNEL)


# Integer codes for vectorized Pauli bookkeeping (transcripts, noise draws).
PAULI_CODES = {"I": 0, "X": 1, "Z": 2, "XZ": 3, "ZX": 4}
PAULI_TAGS = {v: k for k, v in PAULI_CODES.items()}


class QubitRegister:
    """A string of independent qubits, stored as two complex amplitude arrays.

    All methods return new registers; instances are never mutated.
    """

    __slots__ = ("amp0", "amp1")

    def __init__(self, amp0: np.ndarray, amp1: np.ndarray):
        self.amp0 = np.asarray(amp0, dtype=complex)
        self.amp1 = np.asarray(amp1, dtype=complex)
        if self.amp0.shape != self.amp1.shape or self.amp0.ndim != 1:
            raise ValueError("amplitude arrays must be 1-d and equal length")

    @classmethod
    def encode(cls, bits: np.ndarray, thetas: np.ndarray) -> "QubitRegister":
        """Vectorized encode_bit: qubit k holds bits[k] in the basis at thetas[k]."""
        bits = np.asarray(bits)
        c, s = np.cos(thetas), np.sin(thetas)
        one = bits == 1
        amp0 = np.where(one, -s, c).astype(complex)
        amp1 = np.where(one, c, s).astype(complex)
        return cls(amp0, amp1)

    def __len__(self) -> int:
        return self.amp0.shape[0]

    def state(self, k: int) -> PureState:
        return PureState(complex(self.amp0[k]), complex(self.amp1[k]))

    def apply_pauli(self, op: PauliWord, mask: np.ndarray | None = None) -> "QubitRegister":
        """Apply one Pauli word to every qubit (or only where mask is true)."""
        a0, a1 = self.amp0, self.amp1
        if op.tag == "I":
            n0, n1 = a0, a1
        elif op.tag == "X":
            n0, n1 = a1, a0
        elif op.tag == "Z":
            n0, n1 = a0, -a1
        elif op.tag == "XZ":
            n0, n1 = -a1, a0
        else:  # ZX
            n0, n1 = a1, -a0
        if mask is None:
            return QubitRegister(n0.copy(), n1.copy())
        mask = np.asarray(mask, dtype=bool)
        return QubitRegister(np.where(mask, n0, a0), np.where(mask, n1, a1))

    def apply_pauli_codes(self, codes: np.ndarray) -> "QubitRegister":
        """Apply a per-qubit Pauli word given as integer codes (PAULI_CODES)."""
        reg = self
        for code in np.unique(codes):
            tag = PAULI_TAGS[int(code)]
            if tag == "I":
                continue
            reg = reg.apply_pauli(PauliWord(tag), mask=codes == code)
        return reg

    def probability_of_one(self, thetas: np.ndarray) -> np.ndarray:
        """Born probability of outcome 1 per qubit, measuring at thetas."""
        ip = -np.sin(thetas) * self.amp0 + np.cos(thetas) * self.amp1
        return np.minimum(1.0, np.abs(ip) ** 2)

    def measure(self, thetas: np.ndarray, rng: Rng) -> np.ndarray:
        """Measure every qubit in its own basis; returns a uint8 bit array."""
        p1 = self.probability_of_one(thetas)
        return (rng.random(len(self)) < p1).astype(np.uint8)
