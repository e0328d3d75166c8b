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

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .channel import BACKWARD, FORWARD, EveObservation, EveStrategy, NoiseModel, perturb_register, eve_tap_register
from .qubit import PAULI_TAGS, Basis, QubitRegister, Rng, RowStreams, XZ

V1 = "V1"
V2 = "V2"
V3 = "V3"
VARIANTS = (V1, V2, V3)

# Seed splitting: one independent stream per (link, purpose) from the master
# seed, via SeedSequence spawn keys. Purposes: 0 preparation, 1 forward-leg
# noise, 2 Eve, 3 backward-leg noise, 4 measurement. The hub key-message
# stream uses a key no link can collide with. A two-party session is link 0.
HUB_SPAWN_KEY = (1 << 16, 0)


def link_rng(seed: int, link: int, purpose: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(link, purpose)))


def hub_rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=HUB_SPAWN_KEY))


def link_streams(seed: int, link: int) -> tuple[Rng, Rng, Rng, Rng]:
    """One link's round-trip streams (forward noise, Eve, backward noise,
    measurement): purposes 1 to 4."""
    return tuple(link_rng(seed, link, purpose) for purpose in (1, 2, 3, 4))


@dataclass(frozen=True)
class LinkSettings:
    """Channel conditions on one link: a star's hub-leaf link or a two-party session."""

    noise_forward: NoiseModel = NoiseModel()
    noise_backward: NoiseModel = NoiseModel()
    eve: EveStrategy = EveStrategy.absent()


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


# Transcript cells as fixed-width byte rows; 0 is the pad byte, dropped on output.
_PAULI_TAG_BYTES = np.array(
    [list(PAULI_TAGS[code].ljust(2, "\0").encode()) for code in range(len(PAULI_TAGS))], np.uint8
)
_BOB_OP_BYTES = np.array([list(b"I\0"), list(b"XZ")], np.uint8)


def _decimal(values) -> np.ndarray:
    """Non-negative integers as right-aligned decimal digits, one row each,
    with pad bytes in place of leading zeros."""
    values = np.asarray(values, dtype=np.int64)
    width = len(str(int(values.max()))) if values.size else 1
    out = np.empty((len(values), width), np.uint8)
    for j in range(width):
        place = 10 ** (width - 1 - j)
        digit = values // place % 10 + ord("0")
        out[:, j] = digit if place == 1 else np.where(values >= place, digit, 0)
    return out


def _text_rows(fields, end: str = "\n") -> bytes:
    """One text row per qubit: the fields' cells joined by spaces, `end` after
    the last. A field is a per-row uint8 array of shape (n,) or (n, w), or a
    (1, 1) constant broadcast to every row; the first field is per-row. Pad
    bytes are dropped."""
    fields = [f if f.ndim == 2 else f[:, None] for f in fields]
    n = len(fields[0])
    buf = np.full((n, sum(f.shape[1] + 1 for f in fields)), ord(" "), np.uint8)
    col = 0
    for f in fields:
        buf[:, col : col + f.shape[1]] = f
        col += f.shape[1] + 1
    buf[:, -1] = ord(end)
    return buf[buf != 0].tobytes()


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
        if not all(math.isfinite(theta) for theta in angles):
            raise ValueError(f"basis_pool angles must be finite: {angles}")
        # Angles equal mod pi give the same basis up to sign.
        if any(abs(math.sin(x - y)) <= 1e-12 for i, x in enumerate(angles) for y in angles[i + 1 :]):
            raise ValueError(f"basis_pool angles must be pairwise distinct modulo pi: {angles}")
        if not 0 <= self.tag_length <= self.message_length:
            raise ValueError("tag_length must lie in [0, message length]")
        if self.tag_bits is not None and len(self.tag_bits) != self.tag_length:
            raise ValueError("tag_bits length must equal tag_length")
        if self.tag_bits is not None and any(bit not in (0, 1) for bit in self.tag_bits):
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
        """The pre-agreed check sequence; defaults to alternating 1,0,1,0..."""
        if self.tag_bits is not None:
            return as_bits(self.tag_bits)
        return np.fromiter(((k + 1) % 2 for k in range(self.tag_length)), np.uint8, self.tag_length)


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
    register = QubitRegister.encode(a, config.pool_angles[b])
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
    return register.measure(config.pool_angles[prep.b], rng)


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


def _resolve(bits, p) -> np.ndarray:
    """Erasure resolution; Alice applies it to her decoded message, Bob to
    his key-message, both with Alice's erasure string p.

    Pivot k = the lowest non-erased index. Non-erased bits are retained in
    order; every erased position s is replaced by bits[k] XOR placeholder,
    where the erased source value is the decoder's fixed placeholder 0 on
    both sides (so the two parties compute identical strings whenever the
    non-erased blocks decoded correctly). Output C is retained bits followed
    by resolved bits, ascending.
    """
    bits, p = as_bits(bits), as_bits(p)
    if len(bits) != len(p):
        raise ValueError("value and erasure strings must have equal length")
    clear = np.flatnonzero(p == 0)
    if clear.size == 0:
        raise AllErasuresError("all positions erased; no pivot available")
    erased = np.flatnonzero(p == 1)
    masked = bits.copy()
    masked[erased] = 0
    resolved = masked[clear[0]] ^ masked[erased]
    return np.concatenate([masked[clear], resolved]).astype(np.uint8)


# The public name of the one resolver both parties run.
resolve_erasures = _resolve


def verify_tag(derived, config: RunConfig):
    """Accept iff the tag positions of the derived message match the agreed
    sequence exactly. A reject signals suspected tampering, not an error.
    Returns a bool for one message, a bool array for a batch of rows."""
    derived = as_bit_rows(derived)
    length = derived.shape[-1]
    if config.tag_length > length:
        raise ValueError("tag longer than derived message")
    ok = np.all(derived[..., length - config.tag_length :] == config.resolved_tag_bits(), axis=-1)
    return bool(ok) if derived.ndim == 1 else ok


@dataclass(frozen=True)
class DerivationRecord:
    """Alice's phase-III output, everything derived from (c, a)."""

    c: np.ndarray
    M: np.ndarray
    m_prime: np.ndarray
    p: np.ndarray | None = None
    C: np.ndarray | None = None
    ties: np.ndarray | None = None


def _decode(config: RunConfig, M) -> tuple[np.ndarray, np.ndarray | None]:
    """Alice's decoded message and tie flags from M = c XOR a: M itself and
    no ties in V1, the majority vote in V2/V3. Works on a batch of rows."""
    if config.variant == V1:
        return M, None
    return majority(M, config.repetition, config.n_bits, config.variant)


def derive(config: RunConfig, c, a) -> DerivationRecord:
    c, a = as_bits(c), as_bits(a)
    if len(c) != len(a):
        raise ValueError("c and a must have equal length")
    M = c ^ a
    m_prime, ties = _decode(config, M)
    if config.variant == V1:
        return DerivationRecord(c=c, M=M, m_prime=M, C=M)
    if config.variant == V3:
        return DerivationRecord(c=c, M=M, m_prime=m_prime, C=m_prime, ties=ties)
    try:
        C = _resolve(m_prime, ties)
    except AllErasuresError:
        C = None
    return DerivationRecord(c=c, M=M, m_prime=m_prime, p=ties, C=C)


@dataclass(frozen=True)
class SessionResult:
    """Everything one round trip produced, enough for bit-exact replay checks."""

    config: RunConfig
    prep: PreparationRecord
    key_message: np.ndarray
    derivation: DerivationRecord
    accepted: bool
    abort_reason: str | None
    bob_final: np.ndarray | None
    alice_final: np.ndarray | None
    noise_codes_forward: np.ndarray
    noise_codes_backward: np.ndarray
    eve_forward: EveObservation | None
    eve_backward: EveObservation | None
    delivered_to_bob: QubitRegister
    delivered_to_alice: QubitRegister
    bob_ops: np.ndarray  # uint8 mask of XZ applications, one entry per qubit

    @property
    def agreement(self) -> bool:
        return (
            self.alice_final is not None
            and self.bob_final is not None
            and bool(np.array_equal(self.alice_final, self.bob_final))
        )

    def transcript_text(self) -> str:
        """Structured-text session transcript; stable across replays."""
        cfg = self.config
        d = self.derivation
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
            "b=" + _text_rows([_decimal(self.prep.b)], end=",")[:-1].decode("ascii"),
            "m=" + bits_to_text(self.key_message),
            "c=" + bits_to_text(d.c),
            "M=" + bits_to_text(d.M),
            "m_prime=" + bits_to_text(d.m_prime),
            "p=" + (bits_to_text(d.p) if d.p is not None else ""),
            "C=" + (bits_to_text(d.C) if d.C is not None else ""),
            "ties=" + (bits_to_text(d.ties) if d.ties is not None else ""),
            "columns=index basis_index sent_bit noise_fwd eve_fwd bob_op noise_bwd eve_bwd measured_bit",
        ]
        fwd_eve = np.array([[ord("E" if self.eve_forward is not None else "-")]], np.uint8)
        bwd_eve = np.array([[ord("E" if self.eve_backward is not None else "-")]], np.uint8)
        rows = _text_rows([
            _decimal(np.arange(len(self.prep.a))),
            _decimal(self.prep.b),
            self.prep.a + ord("0"),
            np.take(_PAULI_TAG_BYTES, self.noise_codes_forward, axis=0),
            fwd_eve,
            np.take(_BOB_OP_BYTES, self.bob_ops, axis=0),
            np.take(_PAULI_TAG_BYTES, self.noise_codes_backward, axis=0),
            bwd_eve,
            d.c + ord("0"),
        ])
        return "\n".join(lines) + "\n" + rows.decode("ascii")


def _transit(config: RunConfig, prep: PreparationRecord, m: np.ndarray, link: LinkSettings, streams) -> tuple:
    """Phase II and Alice's measurement, for one session or a batch of rows.
    Returns (forward noise codes, forward Eve observation, register delivered
    to Bob, Bob's op mask, backward noise codes, backward Eve observation,
    register delivered to Alice, c).

    Per leg, channel noise is applied first and Eve's tap second. The four
    streams are ordered as link_streams returns them; they are separate so
    that the star network can give each link independent streams, and a
    session driven by one explicit generator passes that generator four times.
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


def complete_round_trip(
    config: RunConfig, prep: PreparationRecord, key_message, link: LinkSettings, streams: tuple[Rng, Rng, Rng, Rng]
) -> SessionResult:
    """Run phases II and III against an already-prepared qubit string;
    `streams` are as _transit takes them."""
    m = as_bits(key_message)
    fwd_codes, eve_fwd, delivered_to_bob, bob_ops, bwd_codes, eve_bwd, delivered_to_alice, c = _transit(
        config, prep, m, link, streams
    )
    record = derive(config, c, prep.a)

    abort_reason = None
    if record.C is None:
        abort_reason = "all_erasures"
        bob_final = None
    elif config.variant == V2:
        bob_final = _resolve(m, record.p)
    else:
        bob_final = m
    accepted = abort_reason is None and verify_tag(record.m_prime, config)
    if abort_reason is None and not accepted:
        abort_reason = "tag_mismatch"

    return SessionResult(
        config=config,
        prep=prep,
        key_message=m,
        derivation=record,
        accepted=accepted,
        abort_reason=abort_reason,
        bob_final=bob_final,
        alice_final=record.C,
        noise_codes_forward=fwd_codes,
        noise_codes_backward=bwd_codes,
        eve_forward=eve_fwd,
        eve_backward=eve_bwd,
        delivered_to_bob=delivered_to_bob,
        delivered_to_alice=delivered_to_alice,
        bob_ops=bob_ops,
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
        prep_rng, key_rng, streams = link_rng(config.seed, 0, 0), hub_rng(config.seed), link_streams(config.seed, 0)
    else:
        prep_rng, key_rng, streams = rng, rng, (rng,) * 4
    prep = alice_prepare(config, prep_rng)
    m = bob_build_key_message(config, key_rng) if key_message is None else as_bits(key_message)
    return complete_round_trip(config, prep, m, link, streams)


class BatchResult(NamedTuple):
    """Per-row outcomes of run_batch; row r is the session rngs[r] drove."""

    key_message: np.ndarray  # (R, message length)
    m_prime: np.ndarray  # (R, message length)
    ties: np.ndarray | None  # (R, n_bits) tie flags for V2/V3 (V2's p), None for V1
    agreement: np.ndarray  # (R,) bool, as SessionResult.agreement
    all_erasures: np.ndarray  # (R,) bool, abort_reason == "all_erasures"
    tag_mismatch: np.ndarray  # (R,) bool, abort_reason == "tag_mismatch"


def run_batch(config: RunConfig, link: LinkSettings, rngs) -> BatchResult:
    """Sessions driven by one explicit generator each, run as one pass over
    a (runs x qubits) array.

    Row r draws from rngs[r] exactly what run_session(config,
    link.noise_forward, link.noise_backward, link.eve, rng=rngs[r]) draws,
    in the same order, and has the same key-message, decoded message and
    abort reason.
    """
    rows = RowStreams(rngs)
    prep = alice_prepare(config, rows)
    m = bob_build_key_message(config, rows)
    c = _transit(config, prep, m, link, (rows,) * 4)[-1]
    m_prime, ties = _decode(config, c ^ prep.a)
    correct = m_prime == m
    all_erasures = np.zeros(len(m), dtype=bool)
    if config.variant == V2:
        # Both parties resolve with Alice's p, so their strings agree iff a
        # pivot exists and every non-erased block decoded correctly.
        all_erasures = ties.all(axis=-1)
        correct |= ties == 1
    tag_ok = verify_tag(m_prime, config)
    return BatchResult(
        key_message=m,
        m_prime=m_prime,
        ties=ties,
        agreement=correct.all(axis=-1) & ~all_erasures,
        all_erasures=all_erasures,
        tag_mismatch=~all_erasures & ~tag_ok,
    )
