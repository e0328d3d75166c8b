"""Experiment harness: sweep grids of sessions, aggregate statistics, and
emit reproducible artifacts.

A config is a human-editable JSON file (schema below); CLI flags override
file values. The sweep grid is the cartesian product of the four axes in
the fixed order (p_bitflip, repetition, eve, tag_length); one output row
per cell, cells in product (lexicographic) order. Identical configs produce
byte-identical artifacts.

Config schema::

    {
      "variant": "V1" | "V2" | "V3",
      "n_bits": int,                 # message length N
      "repetition": int,             # repetition factor t
      "basis_pool": [float, ...],    # basis angles in radians
      "tag_length": int,
      "tag_bits": [0/1, ...] | null, # null = default alternating sequence
      "seed": int,
      "repetitions": int,            # runs per sweep cell
      "noise": {"p_bitflip": f, "p_phaseflip": f, "p_both": f},
      "eve": {"kind": "absent" | "intercept_resend" | "substitute",
              "basis_pool": [float, ...], "legs": ["forward", "backward"]},
      "sweep": {"p_bitflip": [...], "repetition": [...],
                "eve": [...], "tag_length": [...]},   # each axis optional
      "output_dir": str,
      "format": "tabular" | "structured"
    }

Only n_bits is required. A key outside this schema, or a value of the wrong
JSON type, is a ConfigError naming the field: each value goes through
qubit.checked, the check every config type applies to its own fields.

All reported rates are simulator-derived; the protocol's source material
contains no numerical experiments to compare against.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from pathlib import Path

import numpy as np

from .channel import ABSENT, EveStrategy, NoiseModel
from .protocol import V2, LinkSettings, RunConfig, _passes, _row_halves, run_batch
from .qubit import ANGLE, Basis, RowStreams, _row_seed_words, check_fields, checked

CONFIG_FILENAME = "config_resolved.json"
CSV_FILENAME = "results.csv"
SUMMARY_FILENAME = "summary.json"

_CSV_COLUMNS = (
    "p_bitflip", "repetition", "eve", "tag_length", "runs",
    "qber", "qber_se", "agreement_rate", "agreement_se",
    "detection_rate", "detection_se", "erasure_rate", "erasure_se",
)


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


# The keys to_dict writes, plus output_dir, which it leaves out.
CONFIG_KEYS = (
    "variant", "n_bits", "repetition", "basis_pool", "tag_length", "tag_bits", "seed",
    "repetitions", "noise", "eve", "sweep", "format", "output_dir",
)
# Sweep axes and the JSON type of their values, in the fixed axis order.
SWEEP_AXES = {"p_bitflip": float, "repetition": int, "eve": str, "tag_length": int}


def _typed(name: str, value, kind):
    """qubit.checked(name, value, kind), its ValueError re-raised as a ConfigError with the same message."""
    try:
        return checked(name, value, kind)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _object(name: str, value, keys) -> dict:
    """A JSON object whose keys all lie in `keys`."""
    value = _typed(name, value, dict)
    unknown = set(value) - set(keys)
    if unknown:
        raise ConfigError(f"{name}: unknown keys {sorted(unknown)}")
    return value


def _build(name: str, factory, *args, **fields):
    """factory(*args, **fields), with a ValueError turned into a ConfigError
    that names the config section."""
    try:
        return factory(*args, **fields)
    except ValueError as exc:
        raise ConfigError(f"{name}: {exc}") from exc


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
        try:
            check_fields(self, run=RunConfig, repetitions=int, noise=NoiseModel, eve=EveStrategy, output_dir=(str, Path))
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        if self.repetitions < 1:
            raise ConfigError("repetitions: must be >= 1")
        if _typed("format", self.output_format, str) not in ("tabular", "structured"):
            raise ConfigError("format: must be 'tabular' or 'structured'")
        for name, axis in self.sweep_axes.items():
            axis = _typed(f"sweep.{name}", axis, [SWEEP_AXES[name]])
            if not axis:
                raise ConfigError(f"sweep.{name}: must list at least one value")
            object.__setattr__(self, f"sweep_{name}", axis)

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

    def to_dict(self) -> dict:
        return {
            "variant": self.run.variant,
            "n_bits": self.run.n_bits,
            "repetition": self.run.repetition,
            "basis_pool": [b.theta for b in self.run.basis_pool],
            "tag_length": self.run.tag_length,
            "tag_bits": list(self.run.tag_bits) if self.run.tag_bits is not None else None,
            "seed": self.run.seed,
            "repetitions": self.repetitions,
            "noise": asdict(self.noise),
            "eve": {
                "kind": self.eve.kind,
                "basis_pool": list(self.eve.basis_pool),
                "legs": sorted(self.eve.legs),
            },
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
        # RunConfig checks its own fields and holds their defaults; Basis takes checked angles.
        keys = ("n_bits", "repetition", "variant", "tag_length", "seed", "tag_bits")
        given = {key: data[key] for key in keys if key in data}
        pool = tuple(map(Basis, _typed("basis_pool", data.get("basis_pool", [0.0]), [ANGLE])))
        run = _build("run parameters", RunConfig, basis_pool=pool, **given)
        noise_d = _object("noise", data.get("noise", {}), ("p_bitflip", "p_phaseflip", "p_both"))
        noise = _build("noise", NoiseModel, **{k: _typed(f"noise.{k}", v, float) for k, v in noise_d.items()})
        eve_kinds = {"kind": str, "basis_pool": [ANGLE], "legs": [str]}
        eve_d = _object("eve", data.get("eve", {}), eve_kinds)
        eve = _build("eve", EveStrategy, **{k: _typed(f"eve.{k}", v, eve_kinds[k]) for k, v in eve_d.items()})
        sweep = _object("sweep", data.get("sweep", {}), SWEEP_AXES)
        return cls(
            run=run,
            repetitions=data.get("repetitions", 1),
            noise=noise,
            eve=eve,
            **{f"sweep_{name}": axis for name, axis in sweep.items()},
            output_dir=_typed("output_dir", data.get("output_dir", "results"), str),
            output_format=data.get("format", "tabular"),
        )

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from exc
        return cls.from_dict(data)

    def json_text(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"


def _binomial_se(rate: float, n: int) -> float:
    return math.sqrt(max(0.0, rate * (1.0 - rate)) / n) if n else 0.0


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
        return {**self.params, **{f.name: getattr(self, f.name) for f in fields(self) if f.name != "params"}}


@dataclass(frozen=True)
class RunStatistics:
    config: ExperimentConfig
    cells: tuple[CellStats, ...]

    def csv_text(self) -> str:
        lines = [",".join(_CSV_COLUMNS)]
        for cell in self.cells:
            row = cell.to_dict()
            lines.append(",".join(repr(row[c]) if isinstance(row[c], float) else str(row[c]) for c in _CSV_COLUMNS))
        return "\n".join(lines) + "\n"

    def summary_json_text(self) -> str:
        payload = {
            "config": self.config.to_dict(),
            "cells": [cell.to_dict() for cell in self.cells],
            "note": "all rates are simulator-derived Monte Carlo estimates",
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _cell_run_config(config: ExperimentConfig, params: dict) -> RunConfig:
    return _build(
        f"sweep cell {params}", replace, config.run,
        repetition=params["repetition"],
        tag_length=params["tag_length"],
        tag_bits=None if config.run.tag_bits is None else tuple(config.run.tag_bits[: params["tag_length"]]),
    )


def _cell_eve(config: ExperimentConfig, kind: str) -> EveStrategy:
    if kind == ABSENT:
        return EveStrategy.absent()
    pool = config.eve.basis_pool or tuple(b.theta for b in config.run.basis_pool)
    legs = config.eve.legs or frozenset(["forward"])
    return _build(f"sweep eve value {kind!r}", EveStrategy, kind=kind, basis_pool=pool, legs=legs)


def _cell_settings(config: ExperimentConfig, cells: list[dict]) -> list[tuple[RunConfig, LinkSettings]]:
    """Each cell's RunConfig and LinkSettings. Cells with equal values share
    one object, built once: each build re-runs its checks."""
    run_configs, links = {}, {}
    for params in cells:
        if (key := (params["repetition"], params["tag_length"])) not in run_configs:
            run_configs[key] = _cell_run_config(config, params)
        if (key := (params["p_bitflip"], params["eve"])) not in links:
            noise = _build(f"sweep p_bitflip value {key[0]}", replace, config.noise, p_bitflip=key[0])
            links[key] = LinkSettings(noise, noise, _cell_eve(config, key[1]))
    return [(run_configs[p["repetition"], p["tag_length"]], links[p["p_bitflip"], p["eve"]]) for p in cells]


def run_experiment(config: ExperimentConfig) -> RunStatistics:
    """Execute repetitions x sweep-grid sessions and aggregate per-cell rates.

    Repetition r of cell i is driven by one PCG64 stream, the r-th spawn of
    SeedSequence(seed, spawn_key=(i,)), i.e. spawn key (i, r): cells are
    independent and the whole grid is reproducible from the config. Cells
    whose rows draw alike (the same repetition factor, Eve kind and noise
    triviality; they differ only in p_bitflip and tag_length) share
    run_batch passes: a pass holds as many whole cells as fit in
    BATCH_QUBITS qubit slots, each cell's rows together and in cell order,
    and a cell larger than that is split (protocol._passes). A pass's seed
    states are derived in one _row_seed_words call and seed its rows'
    read-ahead streams (RowStreams.from_seed_words).
    """
    cells = config.cells()
    settings = _cell_settings(config, cells)
    groups: dict[tuple, list[int]] = {}
    for index, (run_config, link) in enumerate(settings):
        groups.setdefault((run_config.repetition, link.eve.kind, link.noise_forward.is_trivial()), []).append(index)
    n = config.repetitions
    # Per cell: the sums of qber, erasure share, agreement and detection. They
    # add one repetition at a time, in repetition order, as np.cumsum does (np.sum
    # adds pairwise and rounds differently): the bytes must not depend on the passes.
    sums = np.zeros((4, len(cells)))
    for group in groups.values():
        run_config, link = settings[group[0]]
        ahead = -(-sum(_row_halves(run_config, link)) // 2)
        for members in _passes(len(group), n * run_config.qubit_count):
            ids = group[members]
            for rows in _passes(n, run_config.qubit_count):
                count = rows.stop - rows.start
                words = _row_seed_words(config.run.seed, np.array(ids)[:, None], rows.start, count)
                batch = run_batch([(*settings[i], count) for i in ids], RowStreams.from_seed_words(words, ahead))
                qbers = np.mean(batch.m_prime != batch.key_message, axis=-1)
                erasures = np.mean(batch.ties, axis=-1) if run_config.variant == V2 else np.zeros_like(qbers)
                outcomes = np.stack([qbers, erasures, batch.agreement, batch.tag_mismatch]).reshape(4, len(ids), count)
                sums[:, ids] = np.cumsum(np.concatenate([sums[:, ids, None], outcomes], axis=2), axis=2)[:, :, -1]
    stats = []
    for params, (run_config, _), totals in zip(cells, settings, sums.T.tolist()):
        qber, erasure, agreement, detection = (total / n for total in totals)
        stats.append(CellStats(
            params=params, runs=n, qber=qber, qber_se=_binomial_se(qber, n * run_config.message_length),
            agreement_rate=agreement, agreement_se=_binomial_se(agreement, n),
            detection_rate=detection, detection_se=_binomial_se(detection, n),
            erasure_rate=erasure, erasure_se=_binomial_se(erasure, n * run_config.n_bits),
        ))
    return RunStatistics(config=config, cells=tuple(stats))


def emit_results(stats: RunStatistics, output_dir) -> list[Path]:
    """Write config_resolved.json, results.csv, and summary.json."""
    out = Path(output_dir)
    try:
        out.mkdir(parents=True, exist_ok=True)
        written = []
        for name, text in (
            (CONFIG_FILENAME, stats.config.json_text()),
            (CSV_FILENAME, stats.csv_text()),
            (SUMMARY_FILENAME, stats.summary_json_text()),
        ):
            path = out / name
            path.write_text(text)
            written.append(path)
    except OSError as exc:
        raise ConfigError(f"output_dir: cannot write to {out}: {exc}") from exc
    return written
