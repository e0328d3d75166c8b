"""Qubit strings on the run path: encoding bases, Pauli words, and the
vectorized QubitRegister, with the config field checks, the row streams
every layer above draws from, and the value == of the result records.

An encoding basis is parameterized by one real angle theta, so every basis
pair {|psi_0>, |psi_1>} is orthonormal by construction. A QubitRegister
holds a whole qubit string; it must agree bit for bit with the scalar
algebra in twoway_qkd.reference (tested), which no run imports.
"""

from __future__ import annotations

import math
import numbers
from contextlib import suppress
from dataclasses import dataclass, fields
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
        return cls(map(np.random.PCG64, map(_SeedWords, words)), ahead)

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


@lru_cache(maxsize=16)
def _seed_pool(seed: int) -> np.ndarray:
    """SeedSequence(seed)'s pool, read-only: a seed is mixed once, whatever the number of passes."""
    pool = np.random.SeedSequence(seed).pool
    pool.flags.writeable = False
    return pool


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
    pool = _seed_pool(seed)[None]
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


# Integer codes for vectorized Pauli bookkeeping (transcripts, noise draws).
PAULI_CODES = {"I": 0, "X": 1, "Z": 2, "XZ": 3, "ZX": 4}
PAULI_TAGS = {v: k for k, v in PAULI_CODES.items()}


@dataclass(frozen=True)
class PauliWord:
    """One of the five words {I, X, Z, XZ, ZX}."""

    tag: str

    def __post_init__(self) -> None:
        if self.tag not in PAULI_CODES:
            raise ValueError(f"unknown Pauli word {self.tag!r}")


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
        """Vectorized reference.encode_bit: qubit k holds bits[k] in the basis at
        thetas[k], or at thetas[index[k]] when an index is given."""
        thetas, index = _as_pool(thetas, index)
        table = _pool_table(thetas.tobytes())
        codes = np.asarray(bits, dtype=table.dtype) * len(thetas) + np.asarray(index).astype(table.dtype)
        return cls._of(table, codes * 8)  # * 8, not << 3: numpy shifts 8-bit integers several times slower

    def __len__(self) -> int:
        return self.codes.shape[-1]

    amp0 = property(lambda self: self.table.amps[0].take(self.codes), doc="Amplitudes of |0>, gathered on access.")
    amp1 = property(lambda self: self.table.amps[1].take(self.codes), doc="Amplitudes of |1>, gathered on access.")

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


def _same(x, y) -> bool:
    if isinstance(x, QubitRegister) and isinstance(y, QubitRegister):
        return np.array_equal(x.amp0, y.amp0) and np.array_equal(x.amp1, y.amp1)
    if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
        return np.array_equal(x, y)
    return bool(x == y)


class _Record:
    """Base of the result records. Its == compares arrays by value, registers by their amplitudes
    and other fields (records included) with ==; a dataclass's generated == raises on arrays.
    Each record is a dataclass with eq=False, which keeps this ==."""

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(_same(getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
