"""Span tracer for the benchmark's traced mode.

The package has no tracing hooks of its own, so the benchmark wraps the
package's functions from outside, for the length of one traced unit, and
puts every original back afterwards. A name is patched where its caller
looks it up: `protocol.perturb_register` rather than
`channel.perturb_register`, because `complete_round_trip` resolves the name
in the `protocol` module's namespace. `QubitRegister` methods are patched on
the class. A target that no longer exists is skipped and reported in
`Tracer.missing`; its metrics then read 0.

Each wrapped call records one span ``[layer, start, end, parent]`` in memory
(parent is an index into the same list, -1 for a root). A layer's self time
is the time its spans cover minus the part covered by their direct children.
"""

from __future__ import annotations

import functools
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

ROOT_SPAN = "bench.unit"


def _len_self(args, result):
    return (("qubit.qubits", len(args[0])),)


def _len_encoded(args, result):
    # QubitRegister.encode is a classmethod: args are (cls, bits, thetas).
    return (("qubit.qubits", len(args[1])),)


def _trivial_noise(args, result):
    return (("channel.perturb.trivial", int(args[1].is_trivial())),)


def _accepted(args, result):
    return (("protocol.round_trip.accepted", int(result.accepted)),)


def _transcript_bytes(args, result):
    return (("protocol.transcript.bytes", len(result.encode("ascii"))),)


def _frame_count(args, result):
    return (("network.frames.count", len(result)),)


def _packed_bytes(args, result):
    return (("network.pack.bytes", len(result)),)


def _emitted_bytes(args, result):
    return (("harness.emit.bytes", sum(path.stat().st_size for path in result)),)


def targets(pkg) -> list[tuple]:
    """``(layer, owner, attribute, counter)`` for every wrapped name.

    `owner` is the module or class whose namespace the caller reads the name
    from; `counter` maps ``(args, result)`` of one call to counter increments.
    `cli` and `invariants` are not layers: `cli` only parses arguments and
    calls `harness`, and `invariants` is the `verify` smoke suite.
    """
    protocol, network, harness = pkg.protocol, pkg.network, pkg.harness
    register = pkg.qubit.QubitRegister
    return [
        ("qubit.encode", register, "encode", _len_encoded),
        ("qubit.apply_pauli", register, "apply_pauli", _len_self),
        ("qubit.apply_pauli", register, "apply_pauli_codes", _len_self),
        ("qubit.measure", register, "measure", _len_self),
        ("channel.perturb", protocol, "perturb_register", _trivial_noise),
        ("channel.eve_tap", protocol, "eve_tap_register", None),
        ("protocol.rng", protocol, "link_rng", None),
        ("protocol.rng", protocol, "hub_rng", None),
        ("protocol.rng", network, "link_rng", None),
        ("protocol.rng", network, "hub_rng", None),
        ("protocol.prepare", protocol, "alice_prepare", None),
        ("protocol.prepare", network, "alice_prepare", None),
        ("protocol.key_message", protocol, "bob_build_key_message", None),
        ("protocol.key_message", network, "bob_build_key_message", None),
        ("protocol.bob_encode", protocol, "bob_encode", None),
        ("protocol.measure", protocol, "alice_measure", None),
        ("protocol.derive", protocol, "derive", None),
        # Both parties' erasure resolution (derive and bob_resolve) goes
        # through this one helper.
        ("protocol.resolve", protocol, "_resolve", None),
        ("protocol.tag", protocol, "verify_tag", None),
        ("protocol.round_trip", protocol, "complete_round_trip", _accepted),
        ("protocol.round_trip", network, "complete_round_trip", _accepted),
        ("protocol.session", harness, "run_session", None),
        ("protocol.session", pkg, "run_session", None),
        ("protocol.transcript", protocol.SessionResult, "transcript_text", _transcript_bytes),
        ("network.star", pkg, "run_star_session", None),
        ("network.frame_build", network, "_register_frames", _frame_count),
        ("network.pack", network.LeafOutcome, "frames_bytes", _packed_bytes),
        ("harness.run_experiment", pkg, "run_experiment", None),
        ("harness.config", harness.ExperimentConfig, "from_dict", None),
        ("harness.emit", pkg, "emit_results", _emitted_bytes),
    ]


LAYERS = (
    "qubit.encode", "qubit.apply_pauli", "qubit.measure",
    "channel.perturb", "channel.eve_tap",
    "protocol.rng", "protocol.prepare", "protocol.key_message", "protocol.bob_encode",
    "protocol.measure", "protocol.derive", "protocol.resolve", "protocol.tag",
    "protocol.round_trip", "protocol.session", "protocol.transcript",
    "network.star", "network.frame_build", "network.pack",
    "harness.run_experiment", "harness.config", "harness.emit",
)

#: Every per-layer metric the traced mode reports: (name, unit, better).
PER_LAYER_METRICS = (
    [(f"{layer}.calls", "count", "lower") for layer in LAYERS]
    + [(f"{layer}.self_s", "s", "lower") for layer in LAYERS]
    + [
        ("qubit.mean_len", "qubits", "higher"),
        ("channel.perturb.trivial_ratio", "ratio", "higher"),
        ("protocol.accept_ratio", "ratio", "higher"),
        ("protocol.transcript.bytes", "bytes", "lower"),
        ("network.frames.count", "count", "lower"),
        ("network.pack.bytes", "bytes", "lower"),
        ("harness.emit.bytes", "bytes", "lower"),
        ("trace.untraced_wall_s", "s", "lower"),
        ("trace.traced_wall_s", "s", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


class Tracer:
    """In-memory spans and counters for one traced unit."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.counters: Counter = Counter()
        self.missing: list[str] = []
        self._stack = [-1]

    @contextmanager
    def span(self, name: str):
        """Record a span around the block, e.g. the benchmark's own root."""
        record = [name, 0.0, 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        record[1] = self.clock()
        try:
            yield
        finally:
            record[2] = self.clock()
            self._stack.pop()

    def _wrap_function(self, layer, fn, count):
        spans, stack, counters, clock = self.spans, self._stack, self.counters, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = [layer, 0.0, 0.0, stack[-1]]
            stack.append(len(spans))
            spans.append(record)
            record[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = clock()
                stack.pop()
            if count is not None:
                for key, value in count(args, result):
                    counters[key] += value
            return result

        return traced

    @contextmanager
    def installed(self, target_list):
        """Patch every target for the length of the block, then restore the
        exact original objects (descriptors included)."""
        saved = []
        try:
            for layer, owner, attr, count in target_list:
                original = vars(owner).get(attr)
                if original is None:
                    self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
                    continue
                if isinstance(original, classmethod):
                    wrapper = classmethod(self._wrap_function(layer, original.__func__, count))
                else:
                    wrapper = self._wrap_function(layer, original, count)
                setattr(owner, attr, wrapper)
                saved.append((owner, attr, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def self_times(spans) -> dict[str, float]:
    """Sum per span name of duration minus the part covered by direct children."""
    children = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    totals: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _) in enumerate(spans):
        covered, cursor = 0.0, start
        for child_start, child_end in sorted(children.get(index, ())):
            lo, hi = max(child_start, cursor), min(child_end, end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        totals[name] += (end - start) - covered
    return dict(totals)


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def unit_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced unit (trace.* are added by the caller)."""
    calls = Counter(record[0] for record in tracer.spans)
    selfs = self_times(tracer.spans)
    counters = tracer.counters
    out: dict[str, float] = {}
    for layer in LAYERS:
        out[f"{layer}.calls"] = calls[layer]
        out[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    qubit_calls = calls["qubit.encode"] + calls["qubit.apply_pauli"] + calls["qubit.measure"]
    out["qubit.mean_len"] = _ratio(counters["qubit.qubits"], qubit_calls)
    out["channel.perturb.trivial_ratio"] = _ratio(
        counters["channel.perturb.trivial"], calls["channel.perturb"])
    out["protocol.accept_ratio"] = _ratio(
        counters["protocol.round_trip.accepted"], calls["protocol.round_trip"])
    for name in ("protocol.transcript.bytes", "network.frames.count",
                 "network.pack.bytes", "harness.emit.bytes"):
        out[name] = counters[name]
    return out


def median_metrics(per_unit: list[dict[str, float]]) -> dict[str, float]:
    """Median of each metric over the traced units (the lower middle value
    for an even count, so that counts stay whole)."""
    return {name: statistics.median_low([m[name] for m in per_unit]) for name in per_unit[0]}
