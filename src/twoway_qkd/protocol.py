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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import (BACKWARD, FORWARD, INTERCEPT_RESEND, EveObservation, EveStrategy, NoiseModel, RowNoise,
                      perturb_register, eve_tap_register)
from .qubit import PAULI_TAGS, Basis, QubitRegister, Rng, RowStreams, XZ, _row_seed_words, _SeedWords, check_fields, checked

V1 = "V1"
V2 = "V2"
V3 = "V3"
VARIANTS = (V1, V2, V3)

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


def _generator(words: np.ndarray) -> Rng:
    """A Generator over the PCG64 stream that four uint64 seed words seed."""
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def _key_rng(seed: int) -> Rng:
    """The hub's key-message stream, spawn key HUB_SPAWN_KEY."""
    return _generator(_row_seed_words(seed, HUB_SPAWN_KEY[:1], HUB_SPAWN_KEY[1], 1)[0])


@dataclass(frozen=True)
class LinkSettings:
    """Channel conditions on one link: a star's hub-leaf link or a two-party session."""

    noise_forward: NoiseModel | RowNoise = NoiseModel()
    noise_backward: NoiseModel | RowNoise = NoiseModel()
    eve: EveStrategy = EveStrategy.absent()

    def __post_init__(self) -> None:
        noise = (NoiseModel, RowNoise)  # a RowNoise is a run_batch pass's, one model per row
        checked("noise_forward", self.noise_forward, noise)
        checked("noise_backward", self.noise_backward, noise)
        checked("eve", self.eve, EveStrategy)


def _link_words(seed: int, links, link: LinkSettings) -> list:
    """The seed words of purposes 0-4 of links `links` under settings `link`:
    (len(links), 4) uint64 per purpose, one row per link; None for a purpose
    the settings never draw from (see _transit)."""
    words = _row_seed_words(seed, np.asarray(links)[:, None], 0, 5).reshape(-1, 5, 4)
    drawn = (True, not link.noise_forward.is_trivial(), any(map(link.eve.attacks, link.eve.legs)),
             not link.noise_backward.is_trivial(), True)
    return [words[:, purpose] if used else None for purpose, used in enumerate(drawn)]


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


class AllErasuresError(ValueError):
    """Every block tied: no pivot exists for erasure resolution."""


def as_bit_rows(values) -> np.ndarray:
    """Coerce to a uint8 0/1 array of shape (..., n): one bit string, or a
    batch of them along leading axes; rejects anything else."""
    arr = np.asarray(values, dtype=np.uint8)
    if arr.ndim == 0:
        raise ValueError("bit string must have at least one dimension")
    if arr.size and arr.max() > 1:
        raise ValueError("bit string entries must be 0 or 1")
    return arr


def as_bits(values) -> np.ndarray:
    """Coerce to a one-dimensional uint8 0/1 array; rejects anything else."""
    arr = as_bit_rows(values)
    if arr.ndim != 1:
        raise ValueError("bit string must be one-dimensional")
    return arr


def bits_to_text(bits) -> str:
    return (as_bits(bits) + ord("0")).tobytes().decode("ascii")


# Transcript cells are pre-rendered fixed-width byte strings ("S" items) with NUL
# pad bytes at the end, dropped on output. _DIGITS holds "0000" to "9999".
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


def _render_rows(head: bytes, table: np.ndarray, codes, numbered: bool) -> str:
    """head, then text row r for each entry of the code arrays: r in decimal
    (when numbered), then the cell table[codes[0][r], codes[1][r], ...], pad
    bytes dropped. Rows are split into runs of equal index width, then 2**16-row
    chunks; each chunk is gathered as full-width items and compacted into one
    output buffer, which is decoded once."""
    n, padded = len(codes[0]), (table.view(np.uint8) == 0).any()
    widest = len(str(n - 1)) if numbered else 0
    items = np.zeros(table.size, f"S{widest + table.itemsize}")
    _cells(items, widest, table.itemsize)[:] = table.ravel()
    out = np.empty(len(head) + n * items.itemsize, np.uint8)
    out[: len(head)] = np.frombuffer(head, np.uint8)
    start, end = 0, len(head)
    while start < n:
        width = len(str(start)) if numbered else 0
        run_stop = min(n, 10**width) if numbered else n
        run_items = _cells(items, widest - width, width + table.itemsize)
        for first in range(start, run_stop, 1 << 16):
            chunk, index = slice(first, min(run_stop, first + (1 << 16))), 0
            for c, size in zip(codes, table.shape):
                index = index * size + c[chunk]
            rows = run_items.take(index)
            if numbered:
                _write_index(rows, first, width)
            text = rows.view(np.uint8)
            if padded:
                text = text[text != 0]
            out[end : end + len(text)] = text
            end += len(text)
        start = run_stop
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
            raise ValueError("n_bits must be >= 1")
        if self.repetition < 1:
            raise ValueError("repetition must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")
        if not self.basis_pool:
            raise ValueError("basis pool must be non-empty")
        angles = [b.theta for b in self.basis_pool]
        # Angles equal mod pi give the same basis up to sign; sin(x - y) is expanded so x - y cannot overflow.
        sines = [(math.sin(x), math.cos(x)) for x in angles]
        if any(abs(sx * cy - cx * sy) <= 1e-12 for i, (sx, cx) in enumerate(sines) for sy, cy in sines[i + 1 :]):
            raise ValueError(f"basis_pool angles must be pairwise distinct modulo pi: {angles}")
        if not 0 <= self.tag_length <= self.message_length:
            raise ValueError("tag_length must lie in [0, message length]")
        if self.tag_bits is not None:
            check_fields(self, tag_bits=[int])
            if len(self.tag_bits) != self.tag_length:
                raise ValueError("tag_bits length must equal tag_length")
            if any(bit not in (0, 1) for bit in self.tag_bits):
                raise ValueError(f"tag_bits entries must be 0 or 1: {list(self.tag_bits)}")

    @property
    def qubit_count(self) -> int:
        return self.repetition * self.n_bits

    @property
    def message_length(self) -> int:
        return self.qubit_count if self.variant == V1 else self.n_bits

    @property
    def pool_angles(self) -> np.ndarray:
        return np.array([b.theta for b in self.basis_pool])

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


@dataclass(frozen=True)
class PreparationRecord:
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
    return register.apply_pauli(XZ, mask=ops == 1), ops


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
    if M.shape[-1] != t * n_bits:
        raise ValueError("string length must equal t*N")
    if variant == V2:
        counts = M.reshape(*M.shape[:-1], n_bits, t).sum(axis=-1)
    else:
        counts = M.reshape(*M.shape[:-1], t, n_bits).sum(axis=-2)
    return (2 * counts > t).astype(np.uint8), (2 * counts == t).astype(np.uint8)


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


def resolve_erasures(bits, p) -> np.ndarray:
    """_resolve for one string; raises AllErasuresError when every position is erased."""
    bits, p = as_bits(bits), as_bits(p)
    if len(bits) != len(p):
        raise ValueError("value and erasure strings must have equal length")
    C, all_erased = _resolve(bits, p)
    if all_erased:
        raise AllErasuresError("all positions erased; no pivot available")
    return C


def verify_tag(derived, config: RunConfig):
    """Accept iff the tag positions of the derived message match the agreed
    sequence exactly. A reject signals suspected tampering, not an error.
    Returns one numpy bool per row of derived."""
    derived = as_bit_rows(derived)
    length = derived.shape[-1]
    if config.tag_length > length:
        raise ValueError("tag longer than derived message")
    return (derived[..., length - config.tag_length :] == config.resolved_tag_bits()).all(axis=-1)


@dataclass(frozen=True)
class DerivationRecord:
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
    string p, resolved into C. C is None for a single string whose blocks
    all tie, and all zeros for such a row of a batch."""
    c, a = as_bit_rows(c), as_bit_rows(a)
    if c.shape != a.shape:
        raise ValueError("c and a must have equal length")
    M = c ^ a
    if config.variant == V1:
        return DerivationRecord(c=c, M=M, m_prime=M, C=M)
    m_prime, ties = majority(M, config.repetition, config.n_bits, config.variant)
    if config.variant == V3:
        return DerivationRecord(c=c, M=M, m_prime=m_prime, C=m_prime, ties=ties)
    C, all_erased = _resolve(m_prime, ties)
    return DerivationRecord(c=c, M=M, m_prime=m_prime, p=ties, C=None if C.ndim == 1 and all_erased else C)


def settle(config: RunConfig, record: DerivationRecord, m) -> tuple:
    """Phase III's verdict, per row: (Bob's final string, all_erasures,
    tag_mismatch, agreement). Bob's final string is his key-message m,
    resolved with Alice's p in V2. A row aborts with all_erasures when p
    leaves no pivot, else with tag_mismatch when Alice's decoded tag is
    wrong; it agrees when it has a pivot and both final strings are equal."""
    bob_final, all_erasures = m, np.zeros(m.shape[:-1], bool)
    if config.variant == V2:
        bob_final, all_erasures = _resolve(m, record.p)
    alice_final = np.zeros_like(bob_final) if record.C is None else record.C
    tag_mismatch = ~all_erasures & ~verify_tag(record.m_prime, config)
    return bob_final, all_erasures, tag_mismatch, ~all_erasures & (alice_final == bob_final).all(axis=-1)


@dataclass(frozen=True)
class SessionResult:
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
        cfg = self.config
        d = self.derivation
        basis, pool = self.prep.b, range(len(cfg.basis_pool))
        lines = [
            "# twoway-qkd session transcript v1",
            f"variant={cfg.variant}",
            f"n_bits={cfg.n_bits}",
            f"repetition={cfg.repetition}",
            f"seed={cfg.seed}",
            "basis_pool=" + ",".join(repr(b.theta) for b in cfg.basis_pool),
            f"tag_length={cfg.tag_length}",
            "tag_bits=" + bits_to_text(cfg.resolved_tag_bits()),
            f"accepted={int(self.accepted)}",
            "abort_reason=" + (self.abort_reason or ""),
            "a=" + bits_to_text(self.prep.a),
            _render_rows(b"b=", np.array([b"%d," % k for k in pool]), [basis], False)[:-1],
            "m=" + bits_to_text(self.key_message),
            "c=" + bits_to_text(d.c),
            "M=" + bits_to_text(d.M),
            "m_prime=" + bits_to_text(d.m_prime),
            "p=" + (bits_to_text(d.p) if d.p is not None else ""),
            "C=" + (bits_to_text(d.C) if d.C is not None else ""),
            "ties=" + (bits_to_text(d.ties) if d.ties is not None else ""),
            "columns=index basis_index sent_bit noise_fwd eve_fwd bob_op noise_bwd eve_bwd measured_bit",
        ]
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
        return _render_rows("\n".join([*lines, ""]).encode(), cells, [basis, code], True)


def _transit(config: RunConfig, prep: PreparationRecord, m: np.ndarray, link: LinkSettings, streams) -> tuple:
    """Phase II and Alice's measurement, for one session or a batch of rows.
    Returns (forward noise codes, forward Eve observation, register delivered
    to Bob, Bob's op mask, backward noise codes, backward Eve observation,
    register delivered to Alice, c).

    Per leg, channel noise is applied first and Eve's tap second. The four
    streams are purposes 1-4 of _link_words; they are separate so that each
    link draws from its own, and a session driven by one explicit generator
    passes that generator four times. Noise streams are drawn from only for
    non-trivial noise, Eve's only if she taps (else they may be None).
    """
    eve = link.eve
    forward_rng, eve_rng, backward_rng, measure_rng = streams

    reg, fwd_codes = perturb_register(prep.register, link.noise_forward, forward_rng)
    eve_fwd = None
    if eve.attacks(FORWARD):
        reg, eve_fwd = eve_tap_register(reg, eve, eve_rng)
    delivered_to_bob = reg

    reg, bob_ops = bob_encode(config, m, reg)

    reg, bwd_codes = perturb_register(reg, link.noise_backward, backward_rng)
    eve_bwd = None
    if eve.attacks(BACKWARD):
        reg, eve_bwd = eve_tap_register(reg, eve, eve_rng)

    c = alice_measure(reg, prep, config, measure_rng)
    return fwd_codes, eve_fwd, delivered_to_bob, bob_ops, bwd_codes, eve_bwd, reg, c


def _round_trip(config: RunConfig, prep: PreparationRecord, m: np.ndarray, link: LinkSettings, streams) -> tuple:
    """Phases II and III, one session or a batch: (_transit's arrays, derivation record, settle's verdict)."""
    transit = _transit(config, prep, m, link, streams)
    record = derive(config, transit[-1], prep.a)
    return transit, record, settle(config, record, m)


def _row_tap(tap: EveObservation | None, row) -> EveObservation | None:
    """Row `row` of a batched tap (a row array per field); a session's tap (row=...) as it is."""
    if tap is None or row is ...:
        return tap
    return EveObservation(*(tuple(field[row]) if field else () for field in (tap.basis_angles, tap.outcomes)))


def _session_result(config: RunConfig, prep: PreparationRecord, m: np.ndarray, passed: tuple, row=...) -> SessionResult:
    """The SessionResult of a _round_trip pass's one session (row=...) or of
    row `row` of a batch, under that session's config, from views of the
    pass's arrays. C and Bob's final string are None if every block erased."""
    (fwd_codes, eve_fwd, to_bob, bob_ops, bwd_codes, eve_bwd, to_alice, c), record, verdict = passed
    bob_final, all_erasures, tag_mismatch, agreement = (flags[row] for flags in verdict)
    abort_reason = "all_erasures" if all_erasures else "tag_mismatch" if tag_mismatch else None
    alice_final = None if all_erasures else record.C[row]
    p, ties = (None if bits is None else bits[row] for bits in (record.p, record.ties))
    return SessionResult(
        config=config,
        prep=PreparationRecord(prep.a[row], prep.b[row], prep.register.row(row)),
        key_message=m[row],
        derivation=DerivationRecord(c[row], record.M[row], record.m_prime[row], p, alice_final, ties),
        accepted=abort_reason is None,
        abort_reason=abort_reason,
        agreement=bool(agreement),
        bob_final=None if all_erasures else bob_final,
        alice_final=alice_final,
        noise_codes_forward=fwd_codes[row],
        noise_codes_backward=bwd_codes[row],
        eve_forward=_row_tap(eve_fwd, row),
        eve_backward=_row_tap(eve_bwd, row),
        delivered_to_bob=to_bob.row(row),
        delivered_to_alice=to_alice.row(row),
        bob_ops=bob_ops[row],
    )


def run_session(
    config: RunConfig,
    noise_forward: NoiseModel | None = None,
    noise_backward: NoiseModel | None = None,
    eve: EveStrategy | None = None,
    key_message=None,
    rng: Rng | None = None,
) -> SessionResult:
    """One two-party session, fully determined by (config, seed).

    With no explicit source, random streams follow the link-0 seed-splitting
    scheme, so this is bit-identical to a one-leaf star session. An explicit
    rng is consumed sequentially in the fixed order (a, b, m, forward leg,
    backward leg, measurement).
    """
    link = LinkSettings(noise_forward or NoiseModel(), noise_backward or NoiseModel(), eve or EveStrategy.absent())
    if rng is None:
        key_rng = _key_rng(config.seed)
        words = _link_words(config.seed, [0], link)
        prep_rng, *streams = [row if row is None else _generator(row[0]) for row in words]
    else:
        key_rng, prep_rng, streams = rng, rng, (rng,) * 4
    prep = alice_prepare(config, prep_rng)
    m = bob_build_key_message(config, key_rng) if key_message is None else as_bits(key_message)
    return _session_result(config, prep, m, _round_trip(config, prep, m, link, streams))


class BatchResult(NamedTuple):
    """Per-row outcomes of run_batch; row r is the session stream r drove."""

    key_message: np.ndarray  # (R, message length)
    m_prime: np.ndarray  # (R, message length)
    ties: np.ndarray | None  # (R, n_bits) tie flags for V2/V3 (V2's p), None for V1
    agreement: np.ndarray  # (R,) bool, as SessionResult.agreement
    all_erasures: np.ndarray  # (R,) bool, abort_reason == "all_erasures"
    tag_mismatch: np.ndarray  # (R,) bool, abort_reason == "tag_mismatch"


def run_batch(cells, rows: RowStreams) -> BatchResult:
    """The sessions of one pass, run over a (rows x qubits) array with one
    stream per row. Each cell (config, link, count) holds the next `count`
    rows. Cells may differ only in noise probabilities and tag, with each
    leg's noise trivial in all of them or in none; a pass of one cell is the
    plain case.

    Row r draws from stream r exactly what run_session(config,
    link.noise_forward, link.noise_backward, link.eve, rng=Generator over
    stream r) draws under its cell's settings, in the same order, and has
    the same key-message, decoded message and abort reason.
    """
    configs, links, counts = zip(*cells)
    spans = [slice(stop - count, stop) for stop, count in zip(itertools.accumulate(counts), counts)]
    # The shortest tag serves the pass: every other cell's tag covers its positions, and is rewritten and rechecked.
    config = min(configs, key=lambda cell_config: cell_config.tag_length)
    link = LinkSettings(RowNoise([cell_link.noise_forward for cell_link in links], spans),
                        RowNoise([cell_link.noise_backward for cell_link in links], spans), links[0].eve)
    prep = alice_prepare(config, rows)
    m = bob_build_key_message(config, rows)
    retagged = [(cell_config, span) for cell_config, span in zip(configs, spans) if cell_config is not config]
    for cell_config, span in retagged:
        m[span, config.message_length - cell_config.tag_length :] = cell_config.resolved_tag_bits()
    _, record, (_, all_erasures, tag_mismatch, agreement) = _round_trip(config, prep, m, link, (rows,) * 4)
    for cell_config, span in retagged:
        tag_mismatch[span] = ~all_erasures[span] & ~verify_tag(record.m_prime[span], cell_config)
    ties = record.ties if record.p is None else record.p
    return BatchResult(m, record.m_prime, ties, agreement, all_erasures, tag_mismatch)
