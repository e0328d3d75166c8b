"""Experiment harness: sweep grids of sessions, aggregate statistics, and
emit reproducible artifacts.

A config is a human-editable JSON file (schema below); CLI flags override
file values. The sweep grid is the cartesian product of the four axes in
the fixed order (p_bitflip, repetition, eve, tag_length); one output row
per cell, cells in product (lexicographic) order. Identical configs produce
byte-identical artifacts.

Config schema, each default after its key::

    {
      "variant": "V1" | "V2" | "V3",            # "V1"
      "n_bits": int,                            # message length N; required
      "repetition": int,                        # repetition factor t; 1
      "basis_pool": [float, ...],               # basis angles in radians; [0.0]
      "tag_length": int,                        # 0
      "tag_bits": [0/1, ...] | null,            # null: the alternating 1,0,1,...
      "seed": int,                              # 0
      "repetitions": int,                       # runs per sweep cell; 1
      "noise": {"p_bitflip": f, "p_phaseflip": f, "p_both": f},   # each 0.0
      "eve": {"kind": "absent" | "intercept_resend" | "substitute",   # "absent"
              "basis_pool": [float, ...],       # []; an active kind needs one
              "legs": ["forward", "backward"]}, # []; an active kind: ["forward"]
      "sweep": {"p_bitflip": [...], "repetition": [...],
                "eve": [...], "tag_length": [...]},   # {}; each axis optional
      "output_dir": str,                        # "results"; never written back
      "format": "tabular" | "structured"        # "tabular"
    }

The dataclasses hold these defaults; from_dict passes only the keys given.
Eve's are resolved once, when the config is built: an active kind given no
legs taps the forward leg (EveStrategy), and an absent Eve under a swept
active kind takes the run's pool and the forward leg where it names none
(ExperimentConfig). So config_resolved.json names the pool and legs that ran.
A key outside this schema, or a value of the wrong JSON type, is a
ConfigError naming the field: each value goes through qubit.checked, the
check every config type applies to its own fields. The keys, defaults and
checks are the types' own, for a bad type and a bad range alike; this module
only prefixes where a value came from ("noise.", "eve.", "run parameters: ",
"sweep.<axis>[<i>]: "). Every sweep cell is built, and so checked, with it.

All reported rates are simulator-derived; the protocol's source material
contains no numerical experiments to compare against.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, fields, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from .channel import ABSENT, FORWARD, EveStrategy, NoiseModel
from .protocol import (ABORT_REASONS, LinkSettings, RunConfig, _batches, _pass_groups, _passes, _row_halves,
                       run_batch)
from .qubit import ANGLE, Basis, ConfigError, RowStreams, _row_seed_words, check_fields, checked

CONFIG_FILENAME = "config_resolved.json"
CSV_FILENAME = "results.csv"
SUMMARY_FILENAME = "summary.json"

FORMATS = ("tabular", "structured")

# Each config type's field names, read shallowly by to_dict (dataclasses.asdict would deep-copy every field).
_FIELD_NAMES = {kind: tuple(f.name for f in fields(kind)) for kind in (RunConfig, NoiseModel, EveStrategy)}
# The keys to_dict writes (RunConfig's fields at the top level), plus output_dir, which it leaves out.
_RUN_KEYS = _FIELD_NAMES[RunConfig]
CONFIG_KEYS = (*_RUN_KEYS, "repetitions", "noise", "eve", "sweep", "format", "output_dir")
# Sweep axes and the JSON type of their values, in the fixed axis order.
SWEEP_AXES = {"p_bitflip": float, "repetition": int, "eve": str, "tag_length": int}
_DETECTED = ABORT_REASONS.index("tag_mismatch")  # the abort code a sweep counts as a detection

# json.dumps's spelling of each scalar type a config or cell holds (the config types store exact types).
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_SCALARS = {str: encode_basestring_ascii, int: int.__repr__, type(None): lambda _: "null",
            float: lambda value: _NON_FINITE.get(text := repr(value), text)}


def _json(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) for a value of dicts, lists, tuples and
    _SCALARS, each line after the first starting with `indent` (a newline, then spaces)."""
    kind, inner = type(value), indent + "  "
    if kind is dict:
        brackets, items = "{}", [f"{encode_basestring_ascii(key)}: {_json(value[key], inner)}" for key in sorted(value)]
    elif kind is list or kind is tuple:
        brackets, items = "[]", [_json(item, inner) for item in value]
    else:
        return _SCALARS[kind](value)
    return brackets[0] + inner + f",{inner}".join(items) + indent + brackets[1] if items else brackets


def _fields_dict(value) -> dict:
    """A config type's fields by name, the values themselves."""
    return {name: getattr(value, name) for name in _FIELD_NAMES[type(value)]}


def _object(name: str, value, keys) -> dict:
    """A JSON object whose keys all lie in `keys`."""
    value = checked(name, value, dict)
    unknown = set(value) - set(keys)
    if unknown:
        raise ConfigError(f"{name}: unknown keys {sorted(unknown)}")
    return value


def _build(prefix: str, factory, *args, **fields):
    """factory(*args, **fields), `prefix` (where the values came from) put before the
    message of a ValueError it raises (a ConfigError, from every config type)."""
    try:
        return factory(*args, **fields)
    except ValueError as exc:
        raise ConfigError(f"{prefix}{exc}") from exc


@dataclass(frozen=True)
class ExperimentConfig:
    run: RunConfig
    repetitions: int = 1
    noise: NoiseModel = NoiseModel()
    eve: EveStrategy = EveStrategy.absent()
    sweep_p_bitflip: tuple[float, ...] | None = None
    sweep_repetition: tuple[int, ...] | None = None
    sweep_eve: tuple[str, ...] | None = None
    sweep_tag_length: tuple[int, ...] | None = None
    output_dir: str = "results"
    output_format: str = "tabular"

    def __post_init__(self) -> None:
        check_fields(self, run=RunConfig, repetitions=int, noise=NoiseModel, eve=EveStrategy, output_dir=(str, Path))
        if self.repetitions < 1:
            raise ConfigError("repetitions: must be >= 1")
        if checked("format", self.output_format, str) not in FORMATS:
            raise ConfigError(f"format: must be {' or '.join(map(repr, FORMATS))}")
        for name, axis in self.sweep_axes.items():
            axis = checked(f"sweep.{name}", axis, [SWEEP_AXES[name]])
            if not axis:
                raise ConfigError(f"sweep.{name}: must list at least one value")
            object.__setattr__(self, f"sweep_{name}", axis)
        if set(self.sweep_eve or ()) - {ABSENT}:  # a swept active kind taps with the run's pool, forward, by default
            pool = self.eve.basis_pool or tuple(b.theta for b in self.run.basis_pool)
            object.__setattr__(self, "eve", replace(self.eve, basis_pool=pool, legs=self.eve.legs or {FORWARD}))
        object.__setattr__(self, "_settings", self._cell_settings())

    @property
    def sweep_axes(self) -> dict:
        """The axes this config sweeps, by name, in the fixed axis order."""
        axes = (self.sweep_p_bitflip, self.sweep_repetition, self.sweep_eve, self.sweep_tag_length)
        return {name: axis for name, axis in zip(SWEEP_AXES, axes) if axis is not None}

    @property
    def has_sweep(self) -> bool:
        return bool(self.sweep_axes)

    def cells(self) -> list[dict]:
        """Sweep cells in product order over the fixed axis order; an axis
        the config does not sweep holds its single configured value."""
        fixed = (self.noise.p_bitflip, self.run.repetition, self.eve.kind, self.run.tag_length)
        axes = {**{name: (value,) for name, value in zip(SWEEP_AXES, fixed)}, **self.sweep_axes}
        return [dict(zip(axes, values)) for values in itertools.product(*axes.values())]

    def _cell_settings(self) -> list[tuple[RunConfig, LinkSettings]]:
        """Each cell's RunConfig and LinkSettings, in cell order. Cells at equal values share
        one object, built and checked once; a value that fails its check is a ConfigError
        naming the sweep axis and index it came from."""
        cells, swept, runs, links = self.cells(), self.sweep_axes, {}, {}
        at = lambda cell, *axes: ", ".join(f"sweep.{a}[{swept[a].index(cell[a])}]" for a in axes if a in swept) + ": "
        for cell in cells:
            p_bitflip, repetition, kind, tag_length = cell.values()
            if (repetition, tag_length) not in runs:
                tag_bits = None if self.run.tag_bits is None else self.run.tag_bits[:tag_length]
                runs[repetition, tag_length] = _build(at(cell, "repetition", "tag_length"), replace, self.run,
                                                      repetition=repetition, tag_length=tag_length, tag_bits=tag_bits)
            if (p_bitflip, kind) not in links:
                noise = _build(at(cell, "p_bitflip"), replace, self.noise, p_bitflip=p_bitflip)
                links[p_bitflip, kind] = LinkSettings(noise, noise, _build(at(cell, "eve"), replace, self.eve, kind=kind))
        return [(runs[c["repetition"], c["tag_length"]], links[c["p_bitflip"], c["eve"]]) for c in cells]

    def to_dict(self) -> dict:
        return {
            **_fields_dict(self.run),  # basis_pool and tag_bits are spelled for JSON below
            "basis_pool": [b.theta for b in self.run.basis_pool],
            "tag_bits": list(self.run.tag_bits) if self.run.tag_bits is not None else None,
            "repetitions": self.repetitions,
            "noise": _fields_dict(self.noise),
            "eve": {**_fields_dict(self.eve), "legs": sorted(self.eve.legs)},
            "sweep": {name: list(axis) for name, axis in self.sweep_axes.items()},
            # output_dir is deliberately not persisted: replayed artifacts
            # must be byte-identical regardless of where they are written.
            "format": self.output_format,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = _object("config", data, CONFIG_KEYS)
        if "n_bits" not in data:
            raise ConfigError("n_bits: missing required field")
        # Only the keys given are passed: each config type checks its own fields and holds their defaults.
        run = {key: data[key] for key in _RUN_KEYS if key in data}
        if "basis_pool" in run:  # JSON angles become Basis objects
            run["basis_pool"] = tuple(map(Basis, checked("basis_pool", run["basis_pool"], [ANGLE])))
        run = _build("run parameters: ", RunConfig, **run)
        noise, eve = (_build(f"{name}.", kind, **_object(name, data.get(name, {}), _FIELD_NAMES[kind]))
                      for name, kind in (("noise", NoiseModel), ("eve", EveStrategy)))
        sweep = _object("sweep", data.get("sweep", {}), SWEEP_AXES)
        given = {key: data[key] for key in ("repetitions", "output_dir") if key in data}
        if "format" in data:
            given["output_format"] = data["format"]
        return cls(run=run, noise=noise, eve=eve, **{f"sweep_{name}": axis for name, axis in sweep.items()}, **given)

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:  # bytes that are not UTF-8, an int past Python's digit limit and deep nesting fail here too
            data = json.loads(path.read_text())
        except (ValueError, RecursionError) as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def json_text(self) -> str:
        return _json(self.to_dict()) + "\n"


def _binomial_se(rates: np.ndarray, trials: np.ndarray) -> np.ndarray:
    """The binomial standard error of each rate over its trials (at least one): the IEEE
    operations of math.sqrt(max(0.0, rate * (1.0 - rate)) / trials), element by element."""
    return np.sqrt(np.maximum(0.0, rates * (1.0 - rates)) / trials)


@dataclass(frozen=True)
class CellStats:
    params: dict
    runs: int
    qber: float
    qber_se: float
    agreement_rate: float
    agreement_se: float
    detection_rate: float
    detection_se: float
    erasure_rate: float
    erasure_se: float

    def to_dict(self) -> dict:
        """The cell's sweep parameters, then every other field by name."""
        return {**self.params, **{name: getattr(self, name) for name in _STAT_FIELDS}}


_STAT_FIELDS = tuple(f.name for f in fields(CellStats) if f.name != "params")


# summary.json around its cell objects and its nested config, keys in sorted order.
_SUMMARY = ('{\n  "cells": [\n    %s\n  ],\n  "config": %s,\n'
            '  "note": "all rates are simulator-derived Monte Carlo estimates"\n}\n')


@dataclass(frozen=True)
class RunStatistics:
    """A sweep's per-cell rates. texts() renders its artifacts, one text per file name; emit_results writes them."""

    config: ExperimentConfig
    cells: tuple[CellStats, ...]

    def texts(self) -> dict[str, str]:
        """Each artifact's text by file name, in one pass. results.csv is a header of the first row's
        keys (the sweep axes, then the stats fields) and one line per cell; each JSON file is the text
        of json.dumps(indent=2, sort_keys=True) plus a newline. Each cell value is spelled once."""
        config = self.config.json_text()
        columns = list(self.cells[0].to_dict())
        keys = sorted((name, i) for i, name in enumerate(columns))  # a cell object's keys, in sorted order
        keys = [(i, f"\n      {encode_basestring_ascii(name)}: ") for name, i in keys]
        lines, objects = [",".join(columns)], []
        for cell in self.cells:
            values = cell.to_dict().values()
            spelled = [repr(v) if type(v) is float else str(v) for v in values]
            lines.append(",".join(spelled))
            spelled = [encode_basestring_ascii(v) if type(v) is str else _NON_FINITE.get(s, s)
                       for v, s in zip(values, spelled)]
            objects.append("{" + ",".join([prefix + spelled[i] for i, prefix in keys]) + "\n    }")
        nested = config[:-1].replace("\n", "\n  ")  # strings are escaped, so every newline starts a line
        summary = _SUMMARY % (",\n    ".join(objects), nested)
        return {CONFIG_FILENAME: config, CSV_FILENAME: "\n".join(lines) + "\n", SUMMARY_FILENAME: summary}


def run_experiment(config: ExperimentConfig) -> RunStatistics:
    """Execute repetitions x sweep-grid sessions and aggregate per-cell rates.

    Repetition r of cell i is driven by one PCG64 stream, the r-th spawn of
    SeedSequence(seed, spawn_key=(i,)), i.e. spawn key (i, r): cells are
    independent and the whole grid is reproducible from the config. Cells
    whose rows draw alike (protocol._pass_groups) share run_batch passes: a
    pass holds as many whole cells as fit in BATCH_QUBITS qubit slots, each
    cell's rows together and in cell order, and a cell larger than that is
    split (protocol._passes). One _row_seed_words call derives the seed states of as
    many consecutive passes as fit in BATCH_QUBITS rows (protocol._batches; one call
    up to BATCH_QUBITS sessions), which seed each pass's read-ahead streams (RowStreams.from_seed_words).
    Each pass adds its rows' integer counts to its cells' totals, and each rate is
    one count over its trials, so the rates cannot depend on how rows split into passes.
    """
    cells, settings = config.cells(), config._settings
    n = config.repetitions
    plan = []  # every pass in run order: its cells, their first row and row count, the words a row reads ahead
    for group in _pass_groups(settings):
        run_config, link = settings[group[0]]
        ahead = -(-sum(_row_halves(run_config, link)) // 2)
        for members in _passes(len(group), n * run_config.qubit_count):
            plan += [(group[members], rows.start, rows.stop - rows.start, ahead)
                     for rows in _passes(n, run_config.qubit_count)]
    # Per cell: wrong key bits, V2 erased blocks, agreeing runs and detected runs.
    counts = np.zeros((4, len(cells)), np.int64)
    for batch in _batches([len(ids) * count for ids, _, count, _ in plan]):
        # Spawn key (i, r) of row r of cell i, each pass's cells in turn: segment j holds
        # span[j] rows of cell[j], first[j] on, from row offset[j] of the batch on.
        cell, first, span = np.array([(i, start, count) for ids, start, count, _ in plan[batch] for i in ids]).T
        offset = np.cumsum(span) - span
        trailing = np.arange(span.sum()) - np.repeat(offset - first, span)
        words, at = _row_seed_words(config.run.seed, np.column_stack([np.repeat(cell, span), trailing])), 0
        for ids, _, count, ahead in plan[batch]:
            streams = (RowStreams.from_seed_words(words[at : (at := at + len(ids) * count)], ahead),) * 5
            passed = run_batch([(*settings[i], count) for i in ids], streams)
            tallies = (passed.derivation.m_prime != passed.key_message, passed.derivation.p,
                       passed.agreement, passed.abort == _DETECTED)
            for k, tally in enumerate(tallies):
                if tally is not None:  # p, V2's erased blocks, is None in V1 and V3
                    counts[k, ids] += tally.reshape(len(ids), -1).sum(axis=1, dtype=np.int64)
    trials = np.array([(run_config.message_length, run_config.n_bits, 1, 1) for run_config, _ in settings]).T * n
    rates = counts / trials
    stats = tuple(
        CellStats(params=params, runs=n, qber=qber, qber_se=qber_se, agreement_rate=agreement,
                  agreement_se=agreement_se, detection_rate=detection, detection_se=detection_se,
                  erasure_rate=erasure, erasure_se=erasure_se)
        for params, (qber, erasure, agreement, detection), (qber_se, erasure_se, agreement_se, detection_se)
        in zip(cells, rates.T.tolist(), _binomial_se(rates, trials).T.tolist())
    )
    return RunStatistics(config=config, cells=stats)


def emit_results(stats: RunStatistics, output_dir) -> dict[Path, str]:
    """Write config_resolved.json, results.csv, and summary.json; return each path with the text written there."""
    out = Path(output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = {}
        for name, text in stats.texts().items():  # ASCII bytes, whatever the locale
            path = out / name
            path.write_bytes(text.encode("ascii"))
            written[path] = text
    except OSError as exc:
        raise ConfigError(f"output_dir: cannot write to {out}: {exc}") from exc
    return written
