"""Star generalization: one hub (Bob) shares a single key-message with any
number of leaf parties over independent simulated quantum links.

Seed splitting (see protocol.link_rng / protocol.hub_rng): a master seed
fans out into one independent stream per (link, purpose) via numpy
SeedSequence spawn keys, plus one hub stream for the shared key-message.
This makes link transcripts independent by construction: events on link i
cannot move the stream of link j, and a one-leaf star is bit-identical to
the two-party session. Links are processed sequentially; since every
operation is pure and streams are per-link, interleaved scheduling would
produce identical transcripts.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field, replace

import numpy as np

from .protocol import (
    LinkSettings,
    RunConfig,
    SessionResult,
    alice_prepare,
    bob_build_key_message,
    complete_round_trip,
    hub_rng,
    link_rng,
    link_streams,
)
from .qubit import PureState, QubitRegister

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
        link_id, direction, sequence, re0, im0, re1, im1 = _FRAME_STRUCT.unpack(data)
        return cls(link_id, direction, sequence, complex(re0, im0), complex(re1, im1))

    def payload(self) -> PureState:
        return PureState(self.amp0, self.amp1)


@dataclass(frozen=True)
class Topology:
    hub: str = "bob"
    leaves: tuple[str, ...] = ()
    links: dict = field(default_factory=dict)  # leaf name -> LinkSettings

    def __post_init__(self) -> None:
        if not self.leaves:
            raise ValueError("topology needs at least one leaf")
        if len(set(self.leaves)) != len(self.leaves):
            raise ValueError("leaf identifiers must be unique")
        if self.hub in self.leaves:
            raise ValueError("hub cannot also be a leaf")
        unknown = set(self.links) - set(self.leaves)
        if unknown:
            raise ValueError(f"link settings for unknown leaves: {sorted(unknown)}")
        for leaf, link in self.links.items():
            if not isinstance(link, LinkSettings):
                raise ValueError(f"link settings for leaf {leaf!r} must be LinkSettings, got {link!r}")
        if len(self.leaves) >= 1 << 16:
            raise ValueError("at most 65535 leaves (16-bit link ids)")

    def link_settings(self, leaf: str) -> LinkSettings:
        return self.links.get(leaf, LinkSettings())


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


def _register_frames(link_id: int, direction: int, register: QubitRegister) -> np.ndarray:
    """One FRAME_DTYPE record per qubit, sequence numbers from 0.

    Raises ValueError, as WireFrame does, if any payload is not normalized.
    """
    amp0, amp1 = register.amp0, register.amp1
    norm = np.abs(amp0) ** 2 + np.abs(amp1) ** 2
    if not np.all(np.abs(norm - 1.0) <= NORM_TOLERANCE):
        raise ValueError("payload must be a normalized state")
    frames = np.empty(len(register), FRAME_DTYPE)
    frames["link_id"] = link_id
    frames["direction"] = direction
    frames["sequence"] = np.arange(len(register))
    amplitudes = frames["amplitudes"]
    amplitudes[:, 0] = amp0.real
    amplitudes[:, 1] = amp0.imag
    amplitudes[:, 2] = amp1.real
    amplitudes[:, 3] = amp1.imag
    return frames


def run_star_session(
    topology: Topology,
    config: RunConfig,
    per_leaf_pools: dict | None = None,
    seed: int | None = None,
    record_frames: bool = True,
) -> StarSessionResult:
    """One hub round with every leaf.

    Bob draws a single key-message from the hub stream and encodes it onto
    every link's qubits; each leaf prepares, measures, and derives with its
    own streams. A tag failure on one link aborts only that leaf.
    """
    seed = config.seed if seed is None else seed
    config = replace(config, seed=seed)
    per_leaf_pools = per_leaf_pools or {}
    unknown = set(per_leaf_pools) - set(topology.leaves)
    if unknown:
        raise ValueError(f"basis pools for unknown leaves: {sorted(unknown)}")

    key_message = bob_build_key_message(config, hub_rng(seed))

    outcomes: dict[str, LeafOutcome] = {}
    for link_id, leaf in enumerate(topology.leaves):
        leaf_config = config
        if leaf in per_leaf_pools:
            leaf_config = replace(config, basis_pool=tuple(per_leaf_pools[leaf]))
        prep = alice_prepare(leaf_config, link_rng(seed, link_id, 0))
        result = complete_round_trip(
            leaf_config, prep, key_message, topology.link_settings(leaf), link_streams(seed, link_id)
        )
        frames = np.empty(0, FRAME_DTYPE)
        if record_frames:
            frames = np.concatenate([
                _register_frames(link_id, TO_HUB, result.delivered_to_bob),
                _register_frames(link_id, TO_LEAF, result.delivered_to_alice),
            ])
        outcomes[leaf] = LeafOutcome(leaf, link_id, result, frames)
    return StarSessionResult(key_message=key_message, outcomes=outcomes)
