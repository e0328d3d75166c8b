"""Two-party protocol: preparation, key-message encoding, measurement and
derivation, tamper tags.

One session is a single round trip. Alice encodes a random bit string into
qubits using secretly chosen bases and sends them out; Bob encodes his
key-message by applying XZ (bit value 1) or nothing (bit value 0) and sends
them back; Alice measures in her original bases and XORs away her own bits.

Three variants:

* V1 - one qubit per message bit, exact in the noiseless case.
* V2 - each message bit is repeated over a contiguous block of t qubits;
  decoding is majority vote per block, with exact ties flagged as erasures
  in a parity string p that travels back to Bob over a classical side
  channel (the protocol's one classical message). Both parties then replace
  erased positions by pivot-XOR resolution.
* V3 - the whole message is encoded t times in consecutive copies;
  decoding is per-position majority over the copies.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields, replace
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .channel import (BACKWARD, FORWARD, INTERCEPT_RESEND, EveObservation, EveStrategy, NoiseModel, RowNoise,
                      perturb_register, eve_tap_register)
from .qubit import (PAULI_TAGS, Basis, ConfigError, QubitRegister, Rng, _Record, _row_seed_words, _SeedRows,
                    check_fields)

V1 = "V1"
V2 = "V2"
V3 = "V3"
VARIANTS = (V1, V2, V3)
ABORT_REASONS = (None, "all_erasures", "tag_mismatch")  # a row's abort code is its reason's index: 0 accepts

# Seed splitting: one independent stream per (link, purpose) from the master
# seed, seeded with the words _row_seed_words derives for spawn key (link,
# purpose). Purposes: 0 preparation, 1 forward-leg noise, 2 Eve, 3 backward-leg
# noise, 4 measurement. The hub key-message stream uses a key no link can
# collide with. A two-party session is link 0.
HUB_SPAWN_KEY = (1 << 16, 0)

# Qubit slots (rows x qubits per row) one batched pass of sweep cells or a
# star group holds at most; bounds memory whatever the number of rows. A
# 64-qubit V1 cell with Eve on both legs peaks near 60 MiB at 2**16 and
# 360 MiB at 2**20, and runs no faster with the wider chunks.
BATCH_QUBITS = 1 << 16


def _passes(rows: int, qubit_count: int) -> list[slice]:
    """Consecutive slices of `rows` rows (or sweep cells), each within BATCH_QUBITS qubit slots."""
    step = max(1, BATCH_QUBITS // qubit_count)
    return [slice(start, min(rows, start + step)) for start in range(0, rows, step)]


def _batches(sizes) -> list[slice]:
    """Consecutive slices of items of these sizes (each within BATCH_QUBITS), as many a slice as fit in it."""
    slices, start, total = [], 0, 0
    for stop, size in enumerate(sizes):
        if total + size > BATCH_QUBITS:
            slices.append(slice(start, stop))
            start, total = stop, 0
        total += size
    return [*slices, slice(start, len(sizes))]


def _generator(words: np.ndarray) -> Rng:
    """A Generator over the PCG64 stream that four uint64 seed words seed."""
    return np.random.Generator(np.random.PCG64(_SeedRows(words)))


def _key_rng(seed: int) -> Rng:
    """The hub's key-message stream, spawn key HUB_SPAWN_KEY."""
    return _generator(_row_seed_words(seed, HUB_SPAWN_KEY))


@dataclass(frozen=True)
class LinkSettings:
    """Channel conditions on one link: a star's hub-leaf link or a two-party session.
    Configuration only: run_batch hands _leg a pass's per-row noise (RowNoise) itself."""

    noise_forward: NoiseModel = NoiseModel()
    noise_backward: NoiseModel = NoiseModel()
    eve: EveStrategy = EveStrategy.absent()

    def __post_init__(self) -> None:
        check_fields(self, noise_forward=NoiseModel, noise_backward=NoiseModel, eve=EveStrategy)

    @cached_property
    def draw_key(self) -> tuple:
        """The link's part of _pass_groups' key: Eve's kind, pool bytes and legs; each leg's noise trivial or not."""
        eve, noise = self.eve, (self.noise_forward, self.noise_backward)
        return eve.kind, np.array(eve.basis_pool).tobytes(), eve.legs, *(model.is_trivial() for model in noise)


def _link_words(seed: int, links) -> np.ndarray:
    """The seed words of purposes 0-4 of links `links`: (5, len(links), 4) uint64, one row per link."""
    return _row_seed_words(seed, np.stack(np.broadcast_arrays(links, np.arange(5)[:, None]), axis=-1))


def _row_halves(config: RunConfig, link: LinkSettings) -> list:
    """The 32-bit halves one row draws for purposes 0-4 of _link_words and for the
    key-message: one per integers() value, a quarter per uint8 bit, two per random() value
    (a whole word; a spare half stays pending). A stream reads the -(-halves // 2) words that
    hold the halves of all its purposes; exact unless a Lemire half is rejected (a top-up)."""
    n, eve, legs = config.qubit_count, link.eve, sum(map(link.eve.attacks, (FORWARD, BACKWARD)))
    noise = [0 if model.is_trivial() else 2 * n for model in (link.noise_forward, link.noise_backward)]
    tap = legs * n * ((len(eve.basis_pool) > 1) + 1 + (eve.kind == INTERCEPT_RESEND))
    prepare = -(-n // 4) + n * (len(config.basis_pool) > 1)
    return [prepare, noise[0], tap, noise[1], 2 * n, -(-config.message_length // 4)]


def _pass_groups(pairs) -> list[list[int]]:
    """The indices of (config, link) pairs whose rows draw alike (equal draw_keys), and so may share passes:
    the same variant, n_bits, repetition and pool; Eve's kind, pool and legs; noise drawn or not on each
    leg. Angles key by their bytes, as state tables do: -0.0 and 0.0 compare equal, encode apart."""
    groups: dict[tuple, list[int]] = {}
    for index, (config, link) in enumerate(pairs):
        groups.setdefault((config.draw_key, link.draw_key), []).append(index)
    return list(groups.values())


def as_bit_rows(values) -> np.ndarray:
    """Coerce to a uint8 0/1 array of shape (..., n): one bit string, or a
    batch of them along leading axes. Bool, integer and float entries must be
    exactly 0 or 1, checked before the cast; anything else is a ValueError."""
    arr = np.asarray(values)
    if arr.ndim == 0:
        raise ValueError("bit string must have at least one dimension")
    if arr.dtype != np.uint8 and arr.dtype.kind in "biuf" and ((arr == 0) | (arr == 1)).all():
        arr = arr.astype(np.uint8)
    if arr.dtype != np.uint8 or arr.size and arr.max() > 1:  # uint8, the run path's bits: one scan
        raise ValueError("bit string entries must be 0 or 1")
    return arr


def as_bits(values) -> np.ndarray:
    """Coerce to a one-dimensional uint8 0/1 array; rejects anything else."""
    arr = as_bit_rows(values)
    if arr.ndim != 1:
        raise ValueError("bit string must be one-dimensional")
    return arr


# Transcript cells are pre-rendered fixed-width byte strings ("S" items) with NUL
# pad bytes at the end, which the next row overwrites. _DIGITS holds "0000" to "9999".
_DIGITS = (np.indices((10,) * 4, np.uint8).reshape(4, -1).T + ord("0")).copy().view("S4").ravel()


def _cells(items: np.ndarray, start: int, width: int) -> np.ndarray:
    """A view of bytes [start, start + width) of each item of a 1-D "S" array."""
    return np.ndarray(len(items), f"S{width}", items, start, items.strides)


def _write_index(rows: np.ndarray, first: int, width: int) -> None:
    """Write first, first + 1, ... (each `width` digits) into bytes [0, width) of rows."""
    low, row = min(width, 4), 0
    while row < len(rows):
        high, offset = divmod(first + row, 10**4)
        stop = min(len(rows), row + 10**4 - offset)
        if width > low:
            _cells(rows, 0, width - low)[row:stop] = str(high).encode()
        _cells(rows, width - low, low)[row:stop] = _cells(_DIGITS, 4 - low, low)[offset : offset + stop - row]
        row = stop


def _write_rows(out: np.ndarray, end: int, table: np.ndarray, codes, numbered: bool) -> int:
    """Write row r for each entry of the code arrays into out from byte `end` on,
    and return where the rows end. A row is r in decimal (when numbered), then
    the cell table[codes[0][r], codes[1][r], ...] without its pad. Rows go in
    runs of equal index width, then 2**16-row chunks gathered as full-width
    items, placed by a cumsum of row lengths. Each item is written whole, in
    segments no wider than the shortest row and last segment first, so no
    assignment writes a byte twice and each pad byte is overwritten or lies past the end."""
    n, lengths = len(codes[0]), np.char.str_len(table.ravel()).astype(np.intp)
    widest = len(str(n - 1)) if numbered else 0
    items = np.zeros(table.size, f"S{widest + table.itemsize}")
    _cells(items, widest, table.itemsize)[:] = table.ravel()
    start, offsets = 0, np.empty(min(n, 1 << 16) + 1, np.intp)
    while start < n:
        width = len(str(start)) if numbered else 0
        run_stop = min(n, 10**width) if numbered else n
        full, short = width + table.itemsize, width + lengths.min()
        run_items, run_lengths = _cells(items, widest - width, full), lengths + width
        # Views of out whose item i is bytes [lo + i, lo + i + wide), for item bytes [lo, lo + wide).
        segments = [(np.ndarray(len(out) - full + 1, f"S{min(short, full - lo)}", out, lo, (1,)), lo)
                    for lo in range(0, full, short)][::-1]
        for first in range(start, run_stop, 1 << 16):
            chunk, index = slice(first, min(run_stop, first + (1 << 16))), 0
            for c, size in zip(codes, table.shape):
                index = index * size + c[chunk]
            # Rows of one length sit at a fixed stride and are gathered straight into place
            # (mode="clip": with out=, take's default mode buffers the result first).
            flat = np.ndarray(len(index), f"S{full}", out, end) if short == full else None
            rows = run_items.take(index, out=flat, mode="clip")
            if numbered:
                _write_index(rows, first, width)
            if flat is not None:
                end += rows.nbytes
                continue
            at = offsets[: len(index) + 1]
            run_lengths.take(index, out=at[1:], mode="clip")
            at[0] = end
            np.cumsum(at, out=at)
            for view, lo in segments:
                view[at[:-1]] = _cells(rows, lo, view.itemsize)
            end = int(at[-1])
        start = run_stop
    return end


def _render(pieces) -> str:
    """Join pieces in one preallocated byte buffer, decoded to text once: a str
    as it is, a uint8 0/1 array as "0"/"1" bytes, None as nothing, and a
    (table, codes, numbered) triple as the rows _write_rows writes."""
    pieces = [p.encode() if isinstance(p, str) else p for p in pieces if p is not None]
    size = sum(len(p[1][0]) * (p[0].itemsize + p[2] * len(str(len(p[1][0])))) if isinstance(p, tuple) else len(p)
               for p in pieces)
    out, end = np.empty(size, np.uint8), 0
    for piece in pieces:
        if isinstance(piece, tuple):
            end = _write_rows(out, end, *piece)
        elif isinstance(piece, bytes):
            out[end : (end := end + len(piece))] = np.frombuffer(piece, np.uint8)
        else:
            np.add(piece, ord("0"), out=out[end : (end := end + len(piece))])
    return str(out[:end].data, "ascii")


# RunConfig.resolved_tag_bits' default tag of each length, built on first use.
_DEFAULT_TAGS: dict[int, np.ndarray] = {}


@dataclass(frozen=True)
class RunConfig:
    """Parameters of one protocol session.

    n_bits is the key-message length N; repetition is the factor t. For V1
    the session still moves t*N qubits and the key-message spans all of
    them (t is just part of the total length); for V2/V3 the message is N
    bits carried redundantly by t*N qubits.
    """

    n_bits: int
    repetition: int = 1
    variant: str = V1
    basis_pool: tuple[Basis, ...] = (Basis(0.0),)
    tag_length: int = 0
    seed: int = 0
    tag_bits: tuple[int, ...] | None = None

    def __post_init__(self) -> None:
        check_fields(self, n_bits=int, repetition=int, variant=str, basis_pool=[Basis], tag_length=int, seed=int)
        if self.n_bits < 1:
            raise ConfigError("n_bits must be >= 1")
        if self.repetition < 1:
            raise ConfigError("repetition must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}")
        if not self.basis_pool:
            raise ConfigError("basis_pool: must be non-empty")
        angles = [b.theta for b in self.basis_pool]
        # Angles equal mod pi give the same basis up to sign; sin(x - y) is expanded so x - y cannot overflow.
        sines = [(math.sin(x), math.cos(x)) for x in angles]
        if any(abs(sx * cy - cx * sy) <= 1e-12 for i, (sx, cx) in enumerate(sines) for sy, cy in sines[i + 1 :]):
            raise ConfigError(f"basis_pool angles must be pairwise distinct modulo pi: {angles}")
        if not 0 <= self.tag_length <= self.message_length:
            raise ConfigError("tag_length must lie in [0, message length]")
        if self.tag_bits is not None:
            check_fields(self, tag_bits=[int])
            if len(self.tag_bits) != self.tag_length:
                raise ConfigError("tag_bits length must equal tag_length")
            if any(bit not in (0, 1) for bit in self.tag_bits):
                raise ConfigError(f"tag_bits entries must be 0 or 1: {list(self.tag_bits)}")

    @property
    def qubit_count(self) -> int:
        return self.repetition * self.n_bits

    @property
    def message_length(self) -> int:
        return self.qubit_count if self.variant == V1 else self.n_bits

    @cached_property
    def pool_angles(self) -> np.ndarray:
        """The pool's angles, built on first read and read-only (kept out of pickle and deepcopy)."""
        angles = np.array([b.theta for b in self.basis_pool])
        angles.flags.writeable = False
        return angles

    @cached_property
    def draw_key(self) -> tuple:
        """The config's part of _pass_groups' key: variant, n_bits, repetition and pool bytes."""
        return self.variant, self.n_bits, self.repetition, self.pool_angles.tobytes()

    def __getstate__(self) -> dict:
        # A cached pool_angles would come back writeable; the copy builds its own on first read.
        return {name: value for name, value in self.__dict__.items() if name != "pool_angles"}

    def resolved_tag_bits(self) -> np.ndarray:
        """The pre-agreed check sequence; defaults to alternating 1,0,1,0...
        The default is built once per length, read-only, and shared."""
        if self.tag_bits is not None:
            return as_bits(self.tag_bits)
        tag = _DEFAULT_TAGS.get(self.tag_length)
        if tag is None:
            tag = _DEFAULT_TAGS[self.tag_length] = ((np.arange(self.tag_length) + 1) % 2).astype(np.uint8)
            tag.flags.writeable = False
        return tag


@dataclass(frozen=True, eq=False)
class PreparationRecord(_Record):
    """Alice's phase-I output: bits a, basis indices b, encoded qubits."""

    a: np.ndarray
    b: np.ndarray
    register: QubitRegister


def alice_prepare(config: RunConfig, rng: Rng) -> PreparationRecord:
    """Draw a and b uniformly and encode qubit k as bit a[k] in basis b[k]."""
    n = config.qubit_count
    a = rng.integers(0, 2, size=n, dtype=np.uint8)
    b = rng.integers(0, len(config.basis_pool), size=n, dtype=np.int64)
    register = QubitRegister.encode(a, config.pool_angles, b)
    return PreparationRecord(a, b, register)


def bob_build_key_message(config: RunConfig, rng: Rng) -> np.ndarray:
    """Random payload with the agreed tag sequence in the last positions."""
    m = rng.integers(0, 2, size=config.message_length, dtype=np.uint8)
    if config.tag_length:
        m[..., config.message_length - config.tag_length :] = config.resolved_tag_bits()
    return m


def bob_encode(config: RunConfig, m, register: QubitRegister) -> tuple[QubitRegister, np.ndarray]:
    """Apply XZ to every qubit that carries a set key-message bit.

    Qubit k carries m[k] in V1, m[k // t] in V2 (contiguous t-qubit blocks)
    and m[k % N] in V3 (t consecutive N-qubit copies). Returns the encoded
    register and the per-qubit uint8 mask of XZ applications. A batch of
    key-messages (one row each) encodes a batched register row by row.
    """
    m = as_bit_rows(m)
    if config.variant == V1:
        ops = m
    elif config.variant == V2:
        ops = np.repeat(m, config.repetition, axis=-1)
    else:
        ops = np.tile(m, config.repetition)
    if ops.shape[-1] != len(register):
        raise ValueError(f"key-message covers {ops.shape[-1]} qubits, register holds {len(register)}")
    return register.apply_pauli_codes(ops * np.uint8(3)), ops  # 3: XZ's Pauli code


def alice_measure(register: QubitRegister, prep: PreparationRecord, config: RunConfig, rng: Rng) -> np.ndarray:
    """Measure qubit k in the basis Alice prepared it in."""
    if len(register) != prep.a.shape[-1]:
        raise ValueError("qubit count does not match the preparation record")
    return register.measure(config.pool_angles, rng, prep.b)


def majority(M, t: int, n_bits: int, variant: str) -> tuple[np.ndarray, np.ndarray]:
    """Majority-decode the t redundant copies of each of n_bits message bits.

    V2 reads bit s from the contiguous block M[s*t : (s+1)*t], V3 from the
    positions s, s+N, ..., s+(t-1)N. Returns (m_prime, ties): exact ties
    decode to 0 and are flagged in ties (V2's erasure string p). A batch of
    strings (leading axes) decodes row by row.
    """
    M = as_bit_rows(M)
    for name, value in (("t", t), ("n_bits", n_bits)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    if variant not in (V2, V3):
        raise ValueError(f"variant must be {V2} or {V3} to majority-decode, got {variant!r}")
    if M.shape[-1] != t * n_bits:
        raise ValueError("string length must equal t*N")
    # copies[..., k] is copy k of every bit; counts add them up in the narrowest dtype that holds t.
    lead = M.shape[:-1]
    copies = M.reshape(*lead, n_bits, t) if variant == V2 else M.reshape(*lead, t, n_bits).swapaxes(-1, -2)
    counts = copies[..., 0].astype(np.min_scalar_type(t))
    for k in range(1, t):
        counts += copies[..., k]
    half, odd = divmod(t, 2)  # an odd t never ties
    return (counts > half).view(np.uint8), ((counts == half) & (odd == 0)).view(np.uint8)


def _resolve(bits, p) -> tuple[np.ndarray, np.ndarray]:
    """Erasure resolution, row by row along any leading axes; Alice applies
    it to her decoded message, Bob to his key-message, both with Alice's
    erasure string p. Returns (C, all_erased).

    Pivot k = the lowest non-erased index. C is the non-erased bits in order,
    then bits[k] XOR placeholder once per erased position, where the erased
    source value is the decoder's fixed placeholder 0 on both sides (so the
    two parties compute identical strings whenever the non-erased blocks
    decoded correctly). A row with no pivot is all zeros and flagged.
    """
    clear = p == 0
    n_clear = clear.sum(axis=-1, keepdims=True)
    retained = np.arange(bits.shape[-1]) < n_clear
    C = np.zeros_like(bits)
    C[retained] = bits[clear]
    # Erased slots take the pivot bits[k], which is C's first slot (0 if there is no pivot).
    return np.where(retained, C, C[..., :1]), n_clear[..., 0] == 0


@dataclass(frozen=True, eq=False)
class DerivationRecord(_Record):
    """Alice's phase-III output, everything derived from (c, a)."""

    c: np.ndarray
    M: np.ndarray
    m_prime: np.ndarray
    p: np.ndarray | None = None
    C: np.ndarray | None = None
    ties: np.ndarray | None = None


def derive(config: RunConfig, c, a) -> DerivationRecord:
    """Alice's phase III for one session or a batch of rows: M = c XOR a is
    kept in V1 and majority-decoded in V2/V3. V2's ties are its erasure
    string p, resolved into C by _resolve: all zeros where every block ties,
    for one string and a batch row alike (a session reports that C as None)."""
    c, a = as_bit_rows(c), as_bit_rows(a)
    if c.shape != a.shape:
        raise ValueError("c and a must have equal length")
    M = c ^ a
    if config.variant == V1:
        return DerivationRecord(c=c, M=M, m_prime=M, C=M)
    m_prime, ties = majority(M, config.repetition, config.n_bits, config.variant)
    if config.variant == V3:
        return DerivationRecord(c=c, M=M, m_prime=m_prime, C=m_prime, ties=ties)
    return DerivationRecord(c=c, M=M, m_prime=m_prime, p=ties, C=_resolve(m_prime, ties)[0])


def settle(cells, record: DerivationRecord, m) -> tuple:
    """Phase III's verdict, per row of a pass's (config, rows) cells: (Bob's final
    string, abort code, agreement). Bob's final string is his key-message m,
    resolved with Alice's p by _resolve in V2. A row aborts with all_erasures when
    p leaves no pivot (record.C all zeros: a session reports None), else with
    tag_mismatch when Alice's decoded tag is not its cell's; it agrees when it
    has a pivot and record.C, Alice's final string, equals Bob's."""
    bob_final, all_erasures = m, np.zeros(m.shape[:-1], bool)
    if cells[0][0].variant == V2:
        bob_final, all_erasures = _resolve(m, record.p)
    # One comparison for the pass: the decoded tail as wide as the widest tag, against a copy
    # of it with each cell's tag written right-aligned into the cell's rows.
    width = max(config.tag_length for config, _ in cells)
    decoded = record.m_prime[..., record.m_prime.shape[-1] - width :]
    expected = decoded.copy()
    for config, rows in cells:
        expected[rows, width - config.tag_length :] = config.resolved_tag_bits()
    abort = np.where(all_erasures, 1, 2 * (decoded != expected).any(axis=-1))  # codes index ABORT_REASONS
    return bob_final, abort, ~all_erasures & (record.C == bob_final).all(axis=-1)


@dataclass(frozen=True, eq=False)
class SessionResult(_Record):
    """Everything one round trip produced, enough for bit-exact replay checks."""

    config: RunConfig
    prep: PreparationRecord
    key_message: np.ndarray
    derivation: DerivationRecord
    accepted: bool
    abort_reason: str | None
    agreement: bool  # both parties' final strings are equal (see settle)
    bob_final: np.ndarray | None
    alice_final: np.ndarray | None
    noise_codes_forward: np.ndarray
    noise_codes_backward: np.ndarray
    eve_forward: EveObservation | None
    eve_backward: EveObservation | None
    delivered_to_bob: QubitRegister
    delivered_to_alice: QubitRegister
    bob_ops: np.ndarray  # uint8 mask of XZ applications, one entry per qubit

    def transcript_text(self) -> str:
        """Structured-text session transcript; stable across replays."""
        cfg, d = self.config, self.derivation
        basis, pool = self.prep.b, range(len(cfg.basis_pool))
        # The columns after basis_index take 2*5*2*5*2 = 200 values, each rendered once;
        # a row's cell is its basis index's cell followed by one of those.
        fwd_eve, bwd_eve = ("E" if tap is not None else "-" for tap in (self.eve_forward, self.eve_backward))
        tails = np.array([
            f" {sent} {PAULI_TAGS[fwd]} {fwd_eve} {'XZ' if op else 'I'} {PAULI_TAGS[bwd]} {bwd_eve} {got}\n".encode()
            for sent, fwd, op, bwd, got in np.ndindex(2, 5, 2, 5, 2)
        ])
        cells = np.char.add(np.array([b" %d" % k for k in pool])[:, None], tails)
        sent, fwd, bwd = self.prep.a, self.noise_codes_forward, self.noise_codes_backward
        code = (((sent * 5 + fwd) * 2 + self.bob_ops) * 5 + bwd) * 2 + d.c
        return _render([
            "# twoway-qkd session transcript v1\n",
            f"variant={cfg.variant}\nn_bits={cfg.n_bits}\nrepetition={cfg.repetition}\nseed={cfg.seed}\n",
            "basis_pool=" + ",".join(repr(b.theta) for b in cfg.basis_pool) + "\n",
            f"tag_length={cfg.tag_length}\ntag_bits=", cfg.resolved_tag_bits(),
            f"\naccepted={int(self.accepted)}\nabort_reason={self.abort_reason or ''}\na=", self.prep.a,
            # The b= line's first index, then ",k" cells (no trailing comma to drop).
            f"\nb={basis[0]}", (np.array([b",%d" % k for k in pool]), [basis[1:]], False),
            "\nm=", self.key_message, "\nc=", d.c, "\nM=", d.M, "\nm_prime=", d.m_prime,
            "\np=", d.p, "\nC=", d.C, "\nties=", d.ties,
            "\ncolumns=index basis_index sent_bit noise_fwd eve_fwd bob_op noise_bwd eve_bwd measured_bit\n",
            (cells, [basis, code], True),
        ])


def _leg(register: QubitRegister, noise, eve: EveStrategy, leg: str, noise_rng, eve_rng) -> tuple:
    """One channel crossing, either leg: channel noise first, then Eve's tap
    if she taps `leg`. Returns (register, noise codes, tap or None)."""
    register, codes = perturb_register(register, noise, noise_rng)
    tap = None
    if eve.attacks(leg):
        register, tap = eve_tap_register(register, eve, eve_rng)
    return register, codes, tap


class Pass(NamedTuple):
    """What one run_batch pass produced, one leading row per session (none in a
    one-row pass of Generators): the fields a SessionResult holds, settle's
    abort codes (see ABORT_REASONS) in place of its abort reason."""

    prep: PreparationRecord
    key_message: np.ndarray
    derivation: DerivationRecord
    bob_final: np.ndarray
    abort: np.ndarray
    agreement: np.ndarray
    noise_codes_forward: np.ndarray
    noise_codes_backward: np.ndarray
    eve_forward: EveObservation | None
    eve_backward: EveObservation | None
    delivered_to_bob: QubitRegister
    delivered_to_alice: QubitRegister
    bob_ops: np.ndarray


def _row(value, row):
    """Row `row` of a pass field (row=...: all of it): an array indexed, a register's .row, a
    record field by field; anything else (None, a substitute tap's no outcomes) as it is."""
    if isinstance(value, np.ndarray):
        return value[row]
    if isinstance(value, QubitRegister):
        return value.row(row)
    if isinstance(value, _Record):
        return type(value)(*(_row(getattr(value, f.name), row) for f in fields(value)))
    return value


def _session_result(config: RunConfig, passed: Pass, row=...) -> SessionResult:
    """The SessionResult of a run_batch pass's one session (row=...) or of
    row `row` of a batch, under that session's config, from views of the
    pass's arrays. C and both final strings are None if every block erased (set only here)."""
    values = {name: _row(value, row) for name, value in passed._asdict().items()}
    abort_reason = ABORT_REASONS[values.pop("abort")]
    if abort_reason == "all_erasures":
        values.update(bob_final=None, derivation=replace(values["derivation"], C=None))
    values.update(accepted=abort_reason is None, abort_reason=abort_reason, agreement=bool(values["agreement"]))
    return SessionResult(config=config, alice_final=values["derivation"].C, **values)


def run_session(
    config: RunConfig,
    noise_forward: NoiseModel | None = None,
    noise_backward: NoiseModel | None = None,
    eve: EveStrategy | None = None,
    key_message=None,
    rng: Rng | None = None,
) -> SessionResult:
    """One two-party session, fully determined by (config, seed): a run_batch
    pass of one row, its arrays one-dimensional.

    With no explicit source, random streams follow the link-0 seed-splitting
    scheme, so this is bit-identical to a one-leaf star session. An explicit
    rng is consumed sequentially in the fixed order (a, b, m, forward leg,
    backward leg, measurement).
    """
    given = {"noise_forward": noise_forward, "noise_backward": noise_backward, "eve": eve}
    link = LinkSettings(**{name: value for name, value in given.items() if value is not None})  # None: its default
    m = None if key_message is None else as_bits(key_message)
    streams = (rng,) * 5
    if rng is None:
        # Rows 0-4 seed link 0's purposes; row 5 is the hub's key-message, HUB_SPAWN_KEY.
        words = _row_seed_words(config.seed, [*((0, purpose) for purpose in range(5)), HUB_SPAWN_KEY])
        streams = [_generator(row) if count else None for row, count in zip(words[:5], _row_halves(config, link))]
        if m is None:
            m = bob_build_key_message(config, _generator(words[5]))
    return _session_result(config, run_batch([(config, link, 1)], streams, m))


def run_batch(cells, streams, m=None) -> Pass:
    """The sessions of one pass, one Pass row per session. Each cell (config,
    link, count) holds the next `count` rows. The cells must draw alike (one
    protocol._pass_groups group): they may differ in tag and noise levels; a
    pass of one cell is the plain case, and a one-row cell of Generators gives
    one-dimensional arrays.

    streams are purposes 0-4 of _link_words, one row each per session (a
    RowStreams, or a Generator for one session); they are separate so that
    each link draws from its own, and a caller with one source passes it five
    times. Without m, the key-messages are drawn from streams[0] right after
    preparation, each cell's tag in place. Both legs cross through _leg,
    forward on purposes 1 (noise) and 2 (Eve), backward on 3 and 2, around
    Bob's encoding; Alice measures on purpose 4. Noise streams are drawn from
    only for non-trivial noise, Eve's only if she taps (else they may be None).
    So row r draws exactly what run_session(config, link.noise_forward,
    link.noise_backward, link.eve, rng=Generator over its stream) draws under
    its cell's settings, in the same order. _leg gets the pass's noise per leg
    and the group's Eve as they are, not wrapped in a LinkSettings.
    """
    configs, links, counts = zip(*cells)
    if len(cells) > 1 and len(_pass_groups(zip(configs, links))) > 1:
        raise ValueError("the cells of one pass must draw alike: they may differ only in tag and noise levels")
    # The shortest tag serves the pass: every cell's tag covers its positions, and is written into its rows.
    config = min(configs, key=lambda cell_config: cell_config.tag_length)
    prep = alice_prepare(config, streams[0])
    stops = itertools.accumulate(counts)  # each cell's rows; a one-row pass of Generators has no row axis
    rows = [...] if prep.a.ndim == 1 else [slice(stop - count, stop) for stop, count in zip(stops, counts)]
    if m is None:
        m = bob_build_key_message(config, streams[0])
        for cell_config, span in zip(configs, rows):
            m[span, config.message_length - cell_config.tag_length :] = cell_config.resolved_tag_bits()
    # Each leg's noise is the model every row shares, or at each row's link's levels (RowNoise)
    # where the models differ, built once if both legs carry the same models; Eve is the group's one strategy.
    forward, backward = zip(*((link.noise_forward, link.noise_backward) for link in links))
    noise = [models[0] if models.count(models[0]) == len(models) else RowNoise(models, counts)
             for models in ((forward,) if forward == backward else (forward, backward))]
    eve = links[0].eve
    to_bob, fwd_codes, eve_fwd = _leg(prep.register, noise[0], eve, FORWARD, streams[1], streams[2])
    encoded, bob_ops = bob_encode(config, m, to_bob)
    to_alice, bwd_codes, eve_bwd = _leg(encoded, noise[-1], eve, BACKWARD, streams[3], streams[2])
    record = derive(config, alice_measure(to_alice, prep, config, streams[4]), prep.a)
    bob_final, abort, agreement = settle(list(zip(configs, rows)), record, m)
    return Pass(prep, m, record, bob_final, abort, agreement, fwd_codes, bwd_codes,
                eve_fwd, eve_bwd, to_bob, to_alice, bob_ops)
