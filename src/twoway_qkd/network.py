"""Star generalization: one hub (Bob) shares a single key-message with any
number of leaf parties over independent simulated quantum links.

Seed splitting (see protocol._link_words): a master seed fans out into one
independent stream per (link, purpose), plus one hub stream for the shared
key-message, so events on link i cannot move the stream of link j, and a
one-leaf star is bit-identical to the two-party session. Leaves whose rows
draw alike (protocol._pass_groups) run as the rows of protocol.run_batch
passes of at most protocol.BATCH_QUBITS qubit slots, each at its own noise
levels, consecutive leaves with equal settings as one cell; as every
operation is pure and streams are per-link, any grouping or split gives
identical transcripts.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from functools import partial
from itertools import groupby
from types import MappingProxyType

import numpy as np

from .protocol import (
    LinkSettings,
    RunConfig,
    SessionResult,
    _key_rng,
    _link_words,
    _pass_groups,
    _passes,
    _row_halves,
    _session_result,
    bob_build_key_message,
    run_batch,
)
from .qubit import ConfigError, QubitRegister, RowStreams, _Record, check_fields, checked

TO_HUB = 0
TO_LEAF = 1

# Wire layout (little-endian), 43 bytes per frame:
#   link id     uint16
#   direction   uint8   (0 = to-hub, 1 = to-leaf)
#   sequence    uint64
#   amplitudes  4 x float64 (re0, im0, re1, im1)
# FRAME_DTYPE is this layout as a packed numpy record: a star run builds and
# stores a whole register's frames with it, a leaf's frame_array holds them,
# and frames_bytes() is that array's bytes.
FRAME_DTYPE = np.dtype([("link_id", "<u2"), ("direction", "u1"), ("sequence", "<u8"), ("amplitudes", "<f8", (4,))])
NORM_TOLERANCE = 1e-9
_CLEAN_LINK = LinkSettings()  # a link the topology lists no settings for


@dataclass(frozen=True)
class Topology:
    hub: str = "bob"
    leaves: tuple[str, ...] = ()
    links: dict | MappingProxyType = field(default_factory=dict)  # leaf name -> LinkSettings

    def __post_init__(self) -> None:
        check_fields(self, hub=str, leaves=[str], links=(dict, MappingProxyType))
        object.__setattr__(self, "links", MappingProxyType(dict(self.links)))  # the caller's dict may change
        for leaf, link in self.links.items():
            checked(f"links[{leaf!r}]", link, LinkSettings)
        if not self.leaves:
            raise ConfigError("leaves: topology needs at least one leaf")
        if len(set(self.leaves)) != len(self.leaves):
            raise ConfigError("leaves: leaf identifiers must be unique")
        if self.hub in self.leaves:
            raise ConfigError("hub cannot also be a leaf")
        unknown = set(self.links) - set(self.leaves)
        if unknown:
            raise ConfigError(f"links: link settings for unknown leaves: {sorted(unknown)}")
        if len(self.leaves) >= 1 << 16:
            raise ConfigError("leaves: at most 65535 leaves (16-bit link ids)")

    def link_settings(self, leaf: str) -> LinkSettings:
        return self.links.get(leaf, _CLEAN_LINK)

    def __reduce__(self):
        # A mappingproxy cannot be pickled or copied; a rebuild from a dict of the links can.
        return Topology, (self.hub, self.leaves, dict(self.links))


class _BuiltOnRead:
    """A field that takes a functools.partial for its value, called on first read and then kept."""

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            raise AttributeError(self.name)  # so that the dataclass field has no default
        if isinstance(value := obj.__dict__[self.name], partial):
            value = obj.__dict__[self.name] = value()
        return value

    def __set__(self, obj, value):
        obj.__dict__[self.name] = value


@dataclass(frozen=True, eq=False)
class LeafOutcome(_Record):
    """One leaf's share of a star round; a star run builds result on first read, a pickle holds it built."""

    leaf: str
    link_id: int
    result: SessionResult = _BuiltOnRead()
    frame_array: np.ndarray  # FRAME_DTYPE records: to-hub frames, then to-leaf

    def frames_bytes(self) -> bytes:
        return self.frame_array.tobytes()

    def __reduce__(self):
        return LeafOutcome, (self.leaf, self.link_id, self.result, self.frame_array)


@dataclass(frozen=True, eq=False)
class StarSessionResult(_Record):
    key_message: np.ndarray
    outcomes: dict  # leaf name -> LeafOutcome
    accepted_leaves: list[str]  # in leaf order, from the passes' abort codes


def _register_frames(link_id, direction, register: QubitRegister, frames: np.ndarray | None = None) -> np.ndarray:
    """FRAME_DTYPE records, sequence numbers from 0, into `frames` or a new
    array: (Q,) for one register, (R, Q) for rows with one link id each.
    Amplitudes come from a per-code (re0, im0, re1, im1) table, -0.0 kept.
    Raises ValueError if any payload is not normalized."""
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
    per_leaf_pools = checked("per_leaf_pools", {} if per_leaf_pools is None else per_leaf_pools, dict)
    record_frames = checked("record_frames", record_frames, bool)
    unknown = set(per_leaf_pools) - set(topology.leaves)
    if unknown:
        raise ConfigError(f"per_leaf_pools: basis pools for unknown leaves: {sorted(unknown)}")

    key_message = bob_build_key_message(config, _key_rng(config.seed))

    leaves = topology.leaves
    configs = []
    for leaf in leaves:
        try:
            configs.append(replace(config, basis_pool=per_leaf_pools[leaf]) if leaf in per_leaf_pools else config)
        except ConfigError as exc:
            raise ConfigError(f"per_leaf_pools[{leaf}]: {exc}") from None
    links = [topology.link_settings(leaf) for leaf in leaves]
    # A row of (to-hub, to-leaf) frames per leaf, a pass's consecutive; (L, 0, Q) if unrecorded.
    frames = np.empty((len(leaves), 2 * record_frames, config.qubit_count), FRAME_DTYPE)
    outcomes, abort, start = [None] * len(leaves), np.empty(len(leaves), int), 0
    for group in _pass_groups(zip(configs, links)):
        halves = _row_halves(configs[group[0]], links[group[0]])
        for rows in _passes(len(group), config.qubit_count):
            ids = group[rows]
            streams = [RowStreams.from_seed_words(row, -(-count // 2)) if count else None
                       for row, count in zip(_link_words(config.seed, ids), halves)]
            cells = [(*settings, len(list(run))) for settings, run in groupby((configs[i], links[i]) for i in ids)]
            m = np.broadcast_to(key_message, (len(ids), len(key_message)))
            passed = run_batch(cells, streams, m)
            abort[ids] = passed.abort
            block, start = frames[start : start + len(ids)], start + len(ids)
            if record_frames:
                _register_frames(ids, TO_HUB, passed.delivered_to_bob, block[:, TO_HUB])
                _register_frames(ids, TO_LEAF, passed.delivered_to_alice, block[:, TO_LEAF])
            for row, link_id in enumerate(ids):
                result = partial(_session_result, configs[link_id], passed, row)
                outcomes[link_id] = LeafOutcome(leaves[link_id], link_id, result, block[row].reshape(-1))
    accepted = [leaves[i] for i in np.flatnonzero(abort == 0)]
    return StarSessionResult(key_message=key_message, outcomes={o.leaf: o for o in outcomes}, accepted_leaves=accepted)
