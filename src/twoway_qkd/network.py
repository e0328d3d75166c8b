"""Star generalization: one hub (Bob) shares a single key-message with any
number of leaf parties over independent simulated quantum links.

Seed splitting (see protocol._link_words): a master seed fans out into
one independent stream per (link, purpose), seeded with the words
qubit._row_seed_words derives for that spawn key, plus one hub stream for
the shared key-message. Events on link i cannot move the stream
of link j, and a one-leaf star is bit-identical to the two-party session.
Leaves with the same link settings and pool run as the rows of passes of at
most protocol.BATCH_QUBITS qubit slots; as every operation is pure and
streams are per-link, any grouping or split gives identical transcripts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .protocol import (
    LinkSettings,
    RunConfig,
    SessionResult,
    _key_rng,
    _link_words,
    _passes,
    _round_trip,
    _row_halves,
    _session_result,
    alice_prepare,
    bob_build_key_message,
)
from .qubit import QubitRegister, RowStreams, check_fields, checked

TO_HUB = 0
TO_LEAF = 1

# Wire layout (little-endian), 43 bytes per frame:
#   link id     uint16
#   direction   uint8   (0 = to-hub, 1 = to-leaf)
#   sequence    uint64
#   amplitudes  4 x float64 (re0, im0, re1, im1)
# FRAME_DTYPE is the same layout as a packed numpy record, used to build and
# store a whole register's frames at once; WireFrame is the one-frame codec.
_FRAME_STRUCT = struct.Struct("<HBQdddd")
FRAME_SIZE = _FRAME_STRUCT.size
FRAME_DTYPE = np.dtype([("link_id", "<u2"), ("direction", "u1"), ("sequence", "<u8"), ("amplitudes", "<f8", (4,))])
NORM_TOLERANCE = 1e-9
_CLEAN_LINK = LinkSettings()  # a link the topology lists no settings for


@dataclass(frozen=True)
class WireFrame:
    """One qubit in transit on one link, as delivered to the receiver."""

    link_id: int
    direction: int
    sequence: int
    amp0: complex
    amp1: complex

    def __post_init__(self) -> None:
        if not 0 <= self.link_id < 1 << 16:
            raise ValueError("link_id must fit in 16 bits")
        if self.direction not in (TO_HUB, TO_LEAF):
            raise ValueError("direction must be 0 (to-hub) or 1 (to-leaf)")
        if not 0 <= self.sequence < 1 << 64:
            raise ValueError("sequence must fit in 64 bits")
        norm = abs(self.amp0) ** 2 + abs(self.amp1) ** 2
        if not abs(norm - 1.0) <= NORM_TOLERANCE:
            raise ValueError("payload must be a normalized state")

    def pack(self) -> bytes:
        return _FRAME_STRUCT.pack(
            self.link_id, self.direction, self.sequence,
            self.amp0.real, self.amp0.imag, self.amp1.real, self.amp1.imag,
        )

    @classmethod
    def unpack(cls, data: bytes) -> "WireFrame":
        if len(data) != FRAME_SIZE:
            raise ValueError(f"a wire frame is {FRAME_SIZE} bytes, not {len(data)}")
        link_id, direction, sequence, re0, im0, re1, im1 = _FRAME_STRUCT.unpack(data)
        return cls(link_id, direction, sequence, complex(re0, im0), complex(re1, im1))


@dataclass(frozen=True)
class Topology:
    hub: str = "bob"
    leaves: tuple[str, ...] = ()
    links: dict = field(default_factory=dict)  # leaf name -> LinkSettings

    def __post_init__(self) -> None:
        check_fields(self, hub=str, leaves=[str], links=dict)
        for leaf, link in self.links.items():
            checked(f"links[{leaf!r}]", link, LinkSettings)
        if not self.leaves:
            raise ValueError("topology needs at least one leaf")
        if len(set(self.leaves)) != len(self.leaves):
            raise ValueError("leaf identifiers must be unique")
        if self.hub in self.leaves:
            raise ValueError("hub cannot also be a leaf")
        unknown = set(self.links) - set(self.leaves)
        if unknown:
            raise ValueError(f"link settings for unknown leaves: {sorted(unknown)}")
        if len(self.leaves) >= 1 << 16:
            raise ValueError("at most 65535 leaves (16-bit link ids)")

    def link_settings(self, leaf: str) -> LinkSettings:
        return self.links.get(leaf, _CLEAN_LINK)


@dataclass(frozen=True)
class LeafOutcome:
    leaf: str
    link_id: int
    result: SessionResult
    frame_array: np.ndarray  # FRAME_DTYPE records: to-hub frames, then to-leaf

    @property
    def frames(self) -> tuple[WireFrame, ...]:
        """The recorded frames, decoded on each access."""
        data = self.frames_bytes()
        return tuple(WireFrame.unpack(data[k : k + FRAME_SIZE]) for k in range(0, len(data), FRAME_SIZE))

    def frames_bytes(self) -> bytes:
        return self.frame_array.tobytes()


@dataclass(frozen=True)
class StarSessionResult:
    key_message: np.ndarray
    outcomes: dict  # leaf name -> LeafOutcome

    @property
    def accepted_leaves(self) -> list[str]:
        return [name for name, o in self.outcomes.items() if o.result.accepted]


def _register_frames(link_id, direction, register: QubitRegister, frames: np.ndarray | None = None) -> np.ndarray:
    """FRAME_DTYPE records, sequence numbers from 0, into `frames` or a new
    array: (Q,) for one register, (R, Q) for rows with one link id each.
    Amplitudes come from a per-code (re0, im0, re1, im1) table, -0.0 kept.
    Raises ValueError, as WireFrame does, if any payload is not normalized."""
    amps, codes = register.table.amps, register.codes
    unnormalized = ~(np.abs(np.abs(amps[0]) ** 2 + np.abs(amps[1]) ** 2 - 1.0) <= NORM_TOLERANCE)
    if unnormalized.any() and unnormalized.take(codes).any():
        raise ValueError("payload must be a normalized state")
    frames = np.empty(codes.shape, FRAME_DTYPE) if frames is None else frames
    frames["link_id"] = np.expand_dims(link_id, -1)
    frames["direction"] = direction
    frames["sequence"] = np.arange(len(register))
    frames["amplitudes"] = amps.view(float).reshape(2, -1, 2).transpose(1, 0, 2).reshape(-1, 4).take(codes, axis=0)
    return frames


def _group_key(config: RunConfig, link: LinkSettings) -> tuple:
    """Leaves with equal keys share passes. LinkSettings and Basis compare
    -0.0 equal to 0.0, but state tables key on float bytes, so angles (Python
    floats, as every config stores them) are keyed by their bytes too."""
    return link, np.array(link.eve.basis_pool).tobytes(), config.pool_angles.tobytes()


def run_star_session(
    topology: Topology,
    config: RunConfig,
    per_leaf_pools: dict | None = None,
    record_frames: bool = True,
) -> StarSessionResult:
    """One hub round with every leaf.

    Bob draws a single key-message from the hub stream and encodes it onto
    every link's qubits; each leaf prepares, measures, and derives with its
    own streams. A tag failure on one link aborts only that leaf.
    """
    per_leaf_pools = per_leaf_pools or {}
    unknown = set(per_leaf_pools) - set(topology.leaves)
    if unknown:
        raise ValueError(f"basis pools for unknown leaves: {sorted(unknown)}")

    key_message = bob_build_key_message(config, _key_rng(config.seed))

    leaves = topology.leaves
    configs = [replace(config, basis_pool=tuple(per_leaf_pools[leaf])) if leaf in per_leaf_pools else config
               for leaf in leaves]
    links = [topology.link_settings(leaf) for leaf in leaves]
    groups: dict[tuple, list[int]] = {}
    for link_id, (leaf_config, link) in enumerate(zip(configs, links)):
        groups.setdefault(_group_key(leaf_config, link), []).append(link_id)
    # A row of (to-hub, to-leaf) frames per leaf, a pass's consecutive; (L, 0, Q) if unrecorded.
    frames = np.empty((len(leaves), 2 * record_frames, config.qubit_count), FRAME_DTYPE)
    outcomes, start = [None] * len(leaves), 0
    for group in groups.values():
        group_config, link = configs[group[0]], links[group[0]]
        halves = _row_halves(group_config, link)
        for rows in _passes(len(group), config.qubit_count):
            ids = group[rows]
            prep_rows, *streams = [words if words is None else RowStreams.from_seed_words(words, -(-count // 2))
                                   for words, count in zip(_link_words(config.seed, ids, link), halves)]
            prep = alice_prepare(group_config, prep_rows)
            m = np.broadcast_to(key_message, (len(ids), len(key_message)))
            passed = _round_trip(group_config, prep, m, link, streams)
            block, start = frames[start : start + len(ids)], start + len(ids)
            if record_frames:
                _register_frames(ids, TO_HUB, passed[0][2], block[:, TO_HUB])
                _register_frames(ids, TO_LEAF, passed[0][6], block[:, TO_LEAF])
            for row, link_id in enumerate(ids):
                result = _session_result(configs[link_id], prep, m, passed, row)
                outcomes[link_id] = LeafOutcome(leaves[link_id], link_id, result, block[row].reshape(-1))
    return StarSessionResult(key_message=key_message, outcomes={o.leaf: o for o in outcomes})
