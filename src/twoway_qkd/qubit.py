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
import numbers
from contextlib import suppress
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

Rng = np.random.Generator

# The field check every config type runs in __post_init__ (this module is one they all import).
#: The field kind of a basis angle: a float that must be finite.
ANGLE = "angle"
_ACCEPTED = {int: numbers.Integral, float: numbers.Real, ANGLE: numbers.Real, str: str}
_EXPECTED = {int: "an integer", float: "a number", ANGLE: "a finite number", str: "a string"}
_UNORDERED = (str, dict, set, frozenset)  # not lists: a str iterates letters, a dict keys, a set in hash order


class ConfigError(ValueError):
    """Invalid configuration value; the message names the field."""


def checked(name: str, value, kind):
    """What field `name` stores for `value`, or ConfigError("<name>: expected ..., got ...").

    int takes any Integral and stores an int; float and ANGLE (also finite) take any Real
    and store a float; a bool is never a number. str takes a str, any other class (or tuple
    of classes) an instance. [kind] takes any iterable but a str, dict or set and stores a
    tuple, item k checked as name[k]. So equal values are stored, printed and written alike.
    """
    if type(value) is kind or kind is ANGLE and type(value) is float and math.isfinite(value):
        return value
    if type(kind) is list:
        try:
            items = value if type(value) is tuple else None if isinstance(value, _UNORDERED) else tuple(value)
        except TypeError:  # not iterable
            items = None
        if items is not None:
            item_kind, fast = kind[0], float if kind[0] is ANGLE else kind[0]
            for item in items:  # stored as they are, unless one needs checked()
                if type(item) is not fast or item_kind is ANGLE and not math.isfinite(item):
                    return tuple([checked(f"{name}[{k}]", item, item_kind) for k, item in enumerate(items)])
            return items
    elif type(kind) is tuple or kind not in _ACCEPTED:  # classes
        if isinstance(value, kind):
            return value
    elif isinstance(value, _ACCEPTED[kind]) and not isinstance(value, bool):
        with suppress(OverflowError):  # an int beyond the float range
            if kind is not ANGLE or math.isfinite(value):
                return float(value) if kind is ANGLE else kind(value)
    classes = kind if type(kind) is tuple else (kind,)
    expected = "a list" if type(kind) is list else _EXPECTED.get(kind) or " or ".join(c.__name__ for c in classes)
    raise ConfigError(f"{name}: expected {expected}, got {value!r}")


def check_fields(config, **kinds) -> None:
    """Store checked(name, field value, kind) in each named field of a frozen dataclass."""
    for name, kind in kinds.items():
        if type(value := getattr(config, name)) is not kind and (stored := checked(name, value, kind)) is not value:
            object.__setattr__(config, name, stored)


class RowStreams:
    """One PCG64 stream per row of a batch, drawn in lockstep.

    Each call draws one row from every stream with the same arguments and
    stacks the rows. Row r holds what the same call on a Generator over
    stream r returns, so it sees exactly the draws a one-session run makes.
    Stands in for a Generator wherever a batched register (leading run axis)
    is drawn for. Rows are fresh bit generators (random_raw, no spare half
    held) that RowStreams owns: it never reads or writes their state.

    Each row reads the `ahead` words its pass draws (protocol._row_halves) in one random_raw
    call when built. Draws take them through one cursor all rows share and top up from each
    stream past their end; a row that reads alone (_next_half) takes its buffered words first.

    Values are decoded from random_raw words as Generator decodes them.
    random() takes (word >> 11) * 2**-53. integers() takes 32-bit halves,
    low half first; a spare high half stays pending for the stream's next
    integers() call (pending is its only record), and random() never uses
    it. A uint8 span of 2 takes the top bit of each byte, low byte first. An
    int64 span takes Lemire's (half * span) >> 32 and rejects a half whose
    product has low 32 bits below 2**32 % span.
    """

    __slots__ = ("bits", "pending", "ahead", "cursor")

    def __init__(self, bits, ahead: int = 0):
        self.bits = tuple(bits)
        # Each stream's pending high half, or -1 when it holds none.
        self.pending = [-1] * len(self.bits)
        self.ahead = np.array([bit.random_raw(ahead) for bit in self.bits], np.uint64).reshape(len(self.bits), ahead)
        self.cursor = 0  # words every row has read

    @classmethod
    def from_seed_words(cls, words: np.ndarray, ahead: int = 0) -> "RowStreams":
        """Rows over fresh PCG64 streams, row r seeded with the uint64 words[r] of _row_seed_words."""
        return cls((np.random.PCG64(_SeedWords(row)) for row in words), ahead)

    def _words(self, count: int) -> np.ndarray:
        """The next `count` words of every row, (R, count) uint64."""
        words = self.ahead[:, self.cursor : self.cursor + count]
        self.cursor += count
        if short := count - words.shape[1]:  # past the read-ahead: top up from each stream
            words = np.hstack([words, np.concatenate([bit.random_raw(short) for bit in self.bits]).reshape(-1, short)])
        return words

    def _word(self, row: int) -> int:
        """Row `row`'s next word alone. Its later buffered words move up one and
        its stream refills the last, so the shared cursor stays right for every row."""
        if self.cursor >= self.ahead.shape[1]:
            return int(self.bits[row].random_raw())
        buffered = self.ahead[row, self.cursor :]
        word = int(buffered[0])
        buffered[:-1] = buffered[1:]
        buffered[-1] = self.bits[row].random_raw()
        return word

    def _halves(self, count: int) -> np.ndarray:
        """The next `count` 32-bit halves of every row, (R, count) little-endian uint32."""
        rows, held = len(self.bits), len(self.bits) - self.pending.count(-1)
        if 0 < held < rows:  # rows differ (rare: after a Lemire rejection)
            return np.array([[self._next_half(r) for _ in range(count)] for r in range(rows)], "<u4")
        halves = self._words((count + 1 - (held > 0)) // 2).astype("<u8", copy=False).view("<u4")
        if held:
            halves = np.concatenate([np.array(self.pending, "<u4")[:, None], halves], axis=1)
        if count < halves.shape[1]:
            self.pending = halves[:, count].tolist()
        elif held:
            self.pending = [-1] * rows
        return halves[:, :count]

    def _next_half(self, row: int) -> int:
        half = self.pending[row]
        if half >= 0:
            self.pending[row] = -1
            return half
        word = self._word(row)
        self.pending[row] = word >> 32
        return word & 0xFFFFFFFF

    def _lemire(self, n: int, span: int) -> np.ndarray:
        products = self._halves(n).astype(np.uint64)
        products *= span
        values = products >> 32
        threshold = (1 << 32) % span  # a half is rejected with probability threshold / 2**32
        if threshold and np.count_nonzero(rejected := products.astype(np.uint32) < threshold):
            for row in np.flatnonzero(rejected.any(axis=1)):
                kept = values[row][~rejected[row]].tolist()
                while len(kept) < n:
                    product = self._next_half(row) * span
                    if product & 0xFFFFFFFF >= threshold:
                        kept.append(product >> 32)
                values[row] = kept
        return values

    def integers(self, low, high=None, size: int = 1, dtype=np.int64) -> np.ndarray:
        """(R, size) values in [low, high), or in [0, low) when high is None."""
        if high is None:
            low, high = 0, low
        dtype, span, n = np.dtype(dtype), int(high) - int(low), int(size)
        if span == 1:  # draws nothing, as in Generator
            values = np.zeros((len(self.bits), n), dtype)
        elif span == 2 and dtype == np.uint8:
            values = self._halves(-(-n // 4)).view(np.uint8)[:, :n] >> 7
        elif 1 < span <= 1 << 32 and dtype == np.int64:
            values = self._lemire(n, span).astype(dtype)
        else:
            raise ValueError(f"RowStreams draws span 1, uint8 span 2 and int64 spans up to 2**32, not {dtype} span {span}")
        if low:
            values += dtype.type(low)
        return values

    def random(self, size: int = 1) -> np.ndarray:
        """(R, size) uniforms in [0, 1); the words are shifted in place, as drawn words are never read again."""
        return np.right_shift(words := self._words(size), 11, out=words) * 2.0**-53


# SeedSequence's hash constants, as numpy's bit_generator module defines them.
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# Hash constants before and after each of one word's hashmix steps, and of generate_state's.
_MULT_A_POWERS = np.array([pow(_MULT_A, k, 1 << 32) for k in range(5)], np.uint32)
_STATE_HASH = np.array([_INIT_B * pow(_MULT_B, k, 1 << 32) % (1 << 32) for k in range(9)], np.uint32)


def _row_seed_words(seed: int, prefixes, start: int, count: int) -> np.ndarray:
    """(P * count, 4) uint64 for P spawn-key prefixes (one key, or a (P, K)
    array): row p * count + r is the PCG64 seed state SeedSequence(seed,
    spawn_key=(*prefixes[p], start + r)).generate_state(4, np.uint64).

    Key words follow the seed's, padded to four words as the pool is, so all
    rows share SeedSequence(seed)'s pool and mix their key words into it (a
    value from 2**32 on is two words, low first: each row keeps its own hash
    constant) in uint32 arithmetic that wraps as SeedSequence's does.
    """
    prefixes = np.array(prefixes, "<u8", ndmin=2)
    trailing = np.tile(np.arange(start, start + count, dtype="<u8"), len(prefixes))[:, None]
    keys = np.column_stack([np.repeat(prefixes, count, axis=0), trailing])
    words = keys.view("<u4").reshape(len(keys), -1, 2)
    two_words = words[:, :, 1, None] > 0
    pool = np.random.SeedSequence(seed).pool[None]
    # Four hashmix steps per entropy word (SeedSequence splits the seed into uint32 words),
    # and the seed counts as at least four words.
    steps = 4 * max(4, -(-seed.bit_length() // 32))
    const = np.full((1, 1), _INIT_A * pow(_MULT_A, steps, 1 << 32) % (1 << 32), np.uint32)
    for column, high in enumerate(two_words.any(axis=0)[:, 0]):
        for half in (0, 1) if high else (0,):
            hashes = const * _MULT_A_POWERS
            value = (words[:, column, half, None] ^ hashes[:, :4]) * hashes[:, 1:]
            value ^= value >> 16
            mixed = _MIX_MULT_L * pool - _MIX_MULT_R * value
            mixed ^= mixed >> 16
            if half:  # only a value from 2**32 on has a high word to mix
                mixed, hashes = np.where(two_words[:, column], mixed, pool), np.where(two_words[:, column], hashes, const)
            pool, const = mixed, hashes[:, 4:]
    state = (np.concatenate([pool, pool], axis=1) ^ _STATE_HASH[:8]) * _STATE_HASH[1:]
    state ^= state >> 16
    return state.astype("<u4", copy=False).view("<u8").astype(np.uint64, copy=False)


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 the four uint64 seed words _row_seed_words computed for a
    row, in place of the SeedSequence that would generate the same words."""

    __slots__ = ("words",)

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint32) -> np.ndarray:
        return self.words


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

    def __post_init__(self) -> None:
        object.__setattr__(self, "theta", checked("theta", self.theta, ANGLE))

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

# Signed swap v (0-7): swap the amplitude pair if bit 0 is set, then negate
# the amplitude of |0> (bit 1) and of |1> (bit 2); exact, zero signs included.
# Each Pauli word is one, by code (XZ: -a1, a0), and so is v followed by a word.
_WORD_SWAPS = (0, 1, 4, 3, 5)


def _then(v: int, w: int) -> int:
    """The signed swap that applies v, then w."""
    if w & 1:  # w swaps: v's swap bit flips and its two negations trade places
        v ^= 1 | 6 * ((v >> 1 ^ v >> 2) & 1)
    return v ^ (w & 6)


#: Code change for signed swap v then Pauli code w, at index w * 8 + v.
_DELTA = np.array([_then(v, w) - v for w in _WORD_SWAPS for v in range(8)])


def _born(thetas: np.ndarray, index, amp0: np.ndarray, amp1: np.ndarray) -> np.ndarray:
    """Born probability of outcome 1 measuring at thetas[index]."""
    # Cast per pool angle as numpy casts a float operand: bit-equal products.
    ip = (-np.sin(thetas)).astype(complex).take(index) * amp0
    ip += np.cos(thetas).astype(complex).take(index) * amp1
    p1 = np.abs(ip)
    return np.minimum(1.0, np.square(p1, out=p1), out=p1)


def _as_pool(thetas, index) -> tuple[np.ndarray, np.ndarray]:
    """(pool angles, index); per-qubit angles (no index) become a pool of
    their distinct bit patterns, so that -0.0 stays apart from 0.0."""
    thetas = np.ascontiguousarray(thetas, dtype=float)
    if index is None:
        pool, index = np.unique(thetas.view(np.uint64), return_inverse=True)
        return pool.view(float), index.reshape(thetas.shape)
    return thetas, index


class _StateTable:
    """The amplitudes of every code 8 * k + v (state k under signed swap v),
    and the Born probabilities of every code per measuring pool. Registers
    derived from one another share a table, and so do all registers encoded
    in one pool (_pool_table)."""

    def __init__(self, amp0: np.ndarray, amp1: np.ndarray):
        v, amps = np.arange(8), np.array([amp0, amp1])[:, :, None]
        pair = np.where(v & 1, amps[::-1], amps)
        negate = np.array([v >> 1 & 1, v >> 2 & 1], dtype=bool)[:, None, :]
        self.amps = np.where(negate, -pair, pair).reshape(2, -1)
        self.dtype = np.min_scalar_type(self.amps.shape[1] - 1)
        self.born: dict[bytes, np.ndarray] = {}  # pool bytes -> P(1) of code c at angle j, at j * 8S + c


@lru_cache(maxsize=64)
def _pool_table(key: bytes) -> _StateTable:
    """State i * P + j is bit i in the basis at angle j of the pool with these
    float64 bytes. Cached: every session in one pool shares its tables."""
    thetas = np.frombuffer(key)
    c, s = np.cos(thetas), np.sin(thetas)
    return _StateTable(np.concatenate([c, -s]).astype(complex), np.concatenate([s, c]).astype(complex))


class QubitRegister:
    """A string of independent qubits, stored as one code per qubit into a
    table of states (_StateTable); amp0 and amp1 are gathered on access.

    The codes have shape (Q,) for one string or (..., Q) for a batch of
    strings, one per leading index; len() is Q. A batched register draws its
    randomness from a RowStreams, one row per stream. All methods return
    new registers; instances are never mutated.
    """

    __slots__ = ("table", "codes")

    def __init__(self, amp0: np.ndarray, amp1: np.ndarray):
        amp0, amp1 = np.asarray(amp0, dtype=complex), np.asarray(amp1, dtype=complex)
        if amp0.shape != amp1.shape or amp0.ndim == 0:
            raise ValueError("amplitude arrays must have equal shape and at least one axis")
        self.table = _StateTable(amp0.ravel(), amp1.ravel())
        self.codes = (np.arange(amp0.size, dtype=self.table.dtype) << 3).reshape(amp0.shape)

    @classmethod
    def _of(cls, table: _StateTable, codes: np.ndarray) -> "QubitRegister":
        register = object.__new__(cls)
        register.table, register.codes = table, codes
        return register

    def row(self, index) -> "QubitRegister":
        """Row `index` of a batched register (index=...: all of it), sharing its table."""
        return QubitRegister._of(self.table, self.codes[index])

    @classmethod
    def encode(cls, bits: np.ndarray, thetas: np.ndarray, index: np.ndarray | None = None) -> "QubitRegister":
        """Vectorized encode_bit: qubit k holds bits[k] in the basis at
        thetas[k], or at thetas[index[k]] when an index is given."""
        thetas, index = _as_pool(thetas, index)
        table = _pool_table(thetas.tobytes())
        codes = np.asarray(bits, dtype=table.dtype) * len(thetas) + np.asarray(index).astype(table.dtype)
        return cls._of(table, codes * 8)  # * 8, not << 3: numpy shifts 8-bit integers several times slower

    def __len__(self) -> int:
        return self.codes.shape[-1]

    amp0 = property(lambda self: self.table.amps[0].take(self.codes), doc="Amplitudes of |0>, gathered on access.")
    amp1 = property(lambda self: self.table.amps[1].take(self.codes), doc="Amplitudes of |1>, gathered on access.")

    def state(self, k: int) -> PureState:
        amp0, amp1 = self.table.amps[:, self.codes[k]]
        return PureState(complex(amp0), complex(amp1))

    def _apply(self, words) -> "QubitRegister":
        # One gather: each code's signed swap followed by its Pauli word (words * 8, as in encode).
        index = self.codes & 7
        index |= np.multiply(words, 8, dtype=self.codes.dtype, casting="unsafe")
        return QubitRegister._of(self.table, self.codes + _DELTA.astype(self.codes.dtype).take(index))

    def apply_pauli(self, op: PauliWord, mask: np.ndarray | None = None) -> "QubitRegister":
        """Apply one Pauli word to every qubit (or only where mask is true)."""
        code = PAULI_CODES[op.tag]
        return self._apply(code if mask is None else np.asarray(mask, dtype=bool) * np.uint8(code))

    def apply_pauli_codes(self, codes: np.ndarray) -> "QubitRegister":
        """Apply a per-qubit Pauli word given as integer codes (PAULI_CODES)."""
        return self._apply(codes)

    def probability_of_one(self, thetas: np.ndarray, index: np.ndarray | None = None) -> np.ndarray:
        """Born probability of outcome 1 per qubit, measuring at thetas (or at
        the pool thetas gathered by index)."""
        thetas, index = _as_pool(thetas, index)
        n_codes, key = self.table.amps.shape[1], thetas.tobytes()
        if n_codes * len(thetas) > self.codes.size:  # a pair table larger than the register
            return _born(thetas, index, self.amp0, self.amp1)
        if key not in self.table.born:
            j, code = np.divmod(np.arange(len(thetas) * n_codes), n_codes)
            self.table.born[key] = _born(thetas, j, *self.table.amps.take(code, axis=1))
        flat = np.asarray(index, dtype=np.intp) * n_codes
        flat += self.codes
        return self.table.born[key].take(flat)

    def measure(self, thetas: np.ndarray, rng: Rng, index: np.ndarray | None = None) -> np.ndarray:
        """Measure every qubit in its own basis; returns a uint8 bit array."""
        p1 = self.probability_of_one(thetas, index)
        return (rng.random(len(self)) < p1).view(np.uint8)
