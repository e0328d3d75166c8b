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
JSON type, is a ConfigError naming the field.

All reported rates are simulator-derived; the protocol's source material
contains no numerical experiments to compare against.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .channel import ABSENT, EveStrategy, NoiseModel
from .protocol import V2, LinkSettings, RunConfig, _passes, run_batch
from .qubit import Basis, RowStreams, _row_seed_words

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
_JSON_KINDS = {int: "an integer", float: "a number", str: "a string", list: "a list", dict: "an object"}


def _typed(name: str, value, kind):
    """`value` if JSON gave it the type `kind`; a ConfigError naming the field
    otherwise. An integer is also a number; true and false are neither."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ConfigError(f"{name}: expected {_JSON_KINDS[kind]}, got {value!r}")
    return kind(value)


def _typed_list(name: str, value, kind) -> list:
    return [_typed(f"{name}[{k}]", item, kind) for k, item in enumerate(_typed(name, value, list))]


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
        if self.repetitions < 1:
            raise ConfigError("repetitions: must be >= 1")
        if self.output_format not in ("tabular", "structured"):
            raise ConfigError("format: must be 'tabular' or 'structured'")
        for name, axis in self.sweep_axes.items():
            if not axis:
                raise ConfigError(f"sweep.{name}: must list at least one value")

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
            "noise": {
                "p_bitflip": self.noise.p_bitflip,
                "p_phaseflip": self.noise.p_phaseflip,
                "p_both": self.noise.p_both,
            },
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
        tag_bits = data.get("tag_bits")
        run = _build(
            "run parameters", RunConfig,
            n_bits=_typed("n_bits", data["n_bits"], int),
            repetition=_typed("repetition", data.get("repetition", 1), int),
            variant=_typed("variant", data.get("variant", "V1"), str),
            basis_pool=tuple(Basis(a) for a in _typed_list("basis_pool", data.get("basis_pool", [0.0]), float)),
            tag_length=_typed("tag_length", data.get("tag_length", 0), int),
            seed=_typed("seed", data.get("seed", 0), int),
            tag_bits=None if tag_bits is None else tuple(_typed_list("tag_bits", tag_bits, int)),
        )
        noise_d = _object("noise", data.get("noise", {}), ("p_bitflip", "p_phaseflip", "p_both"))
        noise = _build("noise", NoiseModel, **{k: _typed(f"noise.{k}", v, float) for k, v in noise_d.items()})
        eve_d = _object("eve", data.get("eve", {}), ("kind", "basis_pool", "legs"))
        eve = _build(
            "eve", EveStrategy,
            kind=_typed("eve.kind", eve_d.get("kind", ABSENT), str),
            basis_pool=tuple(_typed_list("eve.basis_pool", eve_d.get("basis_pool", []), float)),
            legs=frozenset(_typed_list("eve.legs", eve_d.get("legs", []), str)),
        )
        sweep = _object("sweep", data.get("sweep", {}), SWEEP_AXES)
        axes = {name: tuple(_typed_list(f"sweep.{name}", axis, SWEEP_AXES[name])) for name, axis in sweep.items()}
        return cls(
            run=run,
            repetitions=_typed("repetitions", data.get("repetitions", 1), int),
            noise=noise,
            eve=eve,
            sweep_p_bitflip=axes.get("p_bitflip"),
            sweep_repetition=axes.get("repetition"),
            sweep_eve=axes.get("eve"),
            sweep_tag_length=axes.get("tag_length"),
            output_dir=_typed("output_dir", data.get("output_dir", "results"), str),
            output_format=_typed("format", data.get("format", "tabular"), str),
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
        out = dict(self.params)
        out.update(
            runs=self.runs,
            qber=self.qber, qber_se=self.qber_se,
            agreement_rate=self.agreement_rate, agreement_se=self.agreement_se,
            detection_rate=self.detection_rate, detection_se=self.detection_se,
            erasure_rate=self.erasure_rate, erasure_se=self.erasure_se,
        )
        return out


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
        repetition=int(params["repetition"]),
        tag_length=int(params["tag_length"]),
        tag_bits=None if config.run.tag_bits is None else tuple(config.run.tag_bits[: params["tag_length"]]),
    )


def _cell_eve(config: ExperimentConfig, kind: str) -> EveStrategy:
    if kind == ABSENT:
        return EveStrategy.absent()
    pool = config.eve.basis_pool or tuple(b.theta for b in config.run.basis_pool)
    legs = config.eve.legs or frozenset(["forward"])
    return _build(f"sweep eve value {kind!r}", EveStrategy, kind=kind, basis_pool=pool, legs=legs)


def run_experiment(config: ExperimentConfig) -> RunStatistics:
    """Execute repetitions x sweep-grid sessions and aggregate per-cell rates.

    Repetition r of cell i is driven by one PCG64 stream, the r-th spawn of
    SeedSequence(seed, spawn_key=(i,)), i.e. spawn key (i, r): cells are
    independent and the whole grid is reproducible from the config. A cell's
    repetitions run through run_batch in chunks of at most BATCH_QUBITS qubit
    slots (protocol._passes); a chunk's seed states are derived in one pass
    (_row_seed_words) and seed its rows' streams (RowStreams.from_seed_words).
    """
    cells = []
    for cell_index, params in enumerate(config.cells()):
        run_config = _cell_run_config(config, params)
        p_bitflip = params["p_bitflip"]
        noise = _build(f"sweep p_bitflip value {p_bitflip}", replace, config.noise, p_bitflip=float(p_bitflip))
        link = LinkSettings(noise, noise, _cell_eve(config, params["eve"]))

        # The float sums add one repetition at a time, in repetition order:
        # a vectorized sum rounds differently, and the artifact bytes must
        # not depend on the chunk size.
        qber_sum = 0.0
        agreements = 0
        detections = 0
        erasure_sum = 0.0
        for chunk in _passes(config.repetitions, run_config.qubit_count):
            words = _row_seed_words(config.run.seed, (cell_index,), chunk.start, chunk.stop - chunk.start)
            batch = run_batch(run_config, link, RowStreams.from_seed_words(words))
            for qber in np.mean(batch.m_prime != batch.key_message, axis=-1).tolist():
                qber_sum += qber
            agreements += int(batch.agreement.sum())
            detections += int(batch.tag_mismatch.sum())
            if run_config.variant == V2:
                for erasure in np.mean(batch.ties, axis=-1).tolist():
                    erasure_sum += erasure
        n = config.repetitions
        qber = qber_sum / n
        bits = n * run_config.message_length
        blocks = n * run_config.n_bits
        cells.append(
            CellStats(
                params=params,
                runs=n,
                qber=qber,
                qber_se=_binomial_se(qber, bits),
                agreement_rate=agreements / n,
                agreement_se=_binomial_se(agreements / n, n),
                detection_rate=detections / n,
                detection_se=_binomial_se(detections / n, n),
                erasure_rate=erasure_sum / n,
                erasure_se=_binomial_se(erasure_sum / n, blocks),
            )
        )
    return RunStatistics(config=config, cells=tuple(cells))


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
