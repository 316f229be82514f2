"""Run configuration: a JSON file with per-module sections, strict key
checking, and deterministic resolved-config output.

Every section is a frozen dataclass that lives next to the code reading it,
and its field annotations are the section's schema: `build` checks each JSON
value against its annotation and converts it, and the class's
`__post_init__` checks ranges. `build_run` builds every section once per run.

Precedence is flags > environment (output directory only) > file > defaults.
Per-module seeds default to the single global seed; module randomness is
already separated by named substreams, so sections never share a stream.
"""
from __future__ import annotations

import dataclasses
import functools
import json
import sys
import types
import typing
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .dataprep import DataprepConfig
from .evalmetrics import EvalConfig
from .mic import MicConfig
from .physchem import DEFAULT_SCALE, ScaleConfig, ScaleTable, load_scale_overrides
from .policy import LoraConfig, ModelConfig, SampleConfig, SftConfig
from .ppo import PpoConfig
from .reward import RewardConfig
from .screening import LibraryConfig, ScreenConfig


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class PathsConfig:
    outputs: str = "."


SECTIONS = {
    "paths": PathsConfig,
    "model": ModelConfig,
    "sft": SftConfig,
    "mic": MicConfig,
    "reward": RewardConfig,
    "ppo": PpoConfig,
    "screen": ScreenConfig,
    "lora": LoraConfig,
    "sample": SampleConfig,
    "library": LibraryConfig,
    "dataprep": DataprepConfig,
    "eval": EvalConfig,
    "scales": ScaleConfig,
}


@dataclass(frozen=True)
class Run:
    """Every section of one run's config, built; `scales` is the table its overrides give."""

    seed: int
    paths: PathsConfig
    model: ModelConfig
    sft: SftConfig
    mic: MicConfig
    reward: RewardConfig
    ppo: PpoConfig
    screen: ScreenConfig
    lora: LoraConfig
    sample: SampleConfig
    library: LibraryConfig
    dataprep: DataprepConfig
    eval: EvalConfig
    scales: ScaleTable


def default_config() -> dict:
    cfg: dict[str, Any] = {"seed": 0}
    for name, cls in SECTIONS.items():
        cfg[name] = dataclasses.asdict(cls())
        if "seed" in cfg[name]:
            cfg[name]["seed"] = None  # a stage seed defaults to the global seed
    return cfg


def _collect_unknown(raw: dict, reference: dict, prefix: str, offenders: list[str]) -> None:
    for key, value in raw.items():
        path = f"{prefix}{key}"
        if key not in reference:
            offenders.append(path)
            continue
        if isinstance(reference[key], dict):
            if not isinstance(value, dict):
                offenders.append(f"{path} (expected a section)")
            else:
                _collect_unknown(value, reference[key], f"{path}.", offenders)


def load_config(path: str | Path | None) -> dict:
    """Defaults deep-merged with the JSON file; unknown keys all reported."""
    cfg = default_config()
    if path is None:
        return cfg
    file_path = Path(path)
    if not file_path.exists():
        raise ConfigError(f"config file not found: {file_path}")
    if file_path.is_dir():
        raise ConfigError(f"config file {file_path} is a directory")
    try:
        raw = json.loads(file_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as err:
        raise ConfigError(f"config file {file_path} is not valid JSON: {err}") from None
    if not isinstance(raw, dict):
        raise ConfigError(f"config file {file_path} must hold a JSON object")
    offenders: list[str] = []
    _collect_unknown(raw, cfg, "", offenders)
    if offenders:
        raise ConfigError("unknown config keys: " + ", ".join(sorted(offenders)))
    _deep_merge(cfg, raw)
    return cfg


def _deep_merge(base: dict, overlay: dict) -> None:
    for key, value in overlay.items():
        if isinstance(base.get(key), dict) and isinstance(value, dict):
            _deep_merge(base[key], value)
        else:
            base[key] = value


def apply_overrides(cfg: dict, overrides: dict[str, Any]) -> None:
    """Set dotted-path entries (flag values); None values mean "not given"."""
    for dotted, value in overrides.items():
        if value is None:
            continue
        node = cfg
        parts = dotted.split(".")
        for part in parts[:-1]:
            node = node[part]
        node[parts[-1]] = value


def _convert(value, kind):
    """`value` as the annotation `kind` reads in JSON, converted; TypeError if its JSON type differs.

    An int is no bool and no 2.5; a float is a finite int or float, converted
    to float; a tuple is a JSON list (or the tuple a default holds), of any
    length for `tuple[X, ...]`.
    """
    args = typing.get_args(kind)
    if isinstance(kind, types.UnionType):
        for arm in args:
            try:
                return _convert(value, arm)
            except TypeError:
                pass
    elif typing.get_origin(kind) is tuple:
        if type(value) in (list, tuple):
            kinds = (args[0],) * len(value) if args[-1] is Ellipsis else args
            if len(kinds) == len(value):
                return tuple(_convert(v, k) for v, k in zip(value, kinds))
    elif kind is float:
        if type(value) in (int, float) and abs(value) <= sys.float_info.max:  # not NaN, inf or 10**400
            return float(value)
    elif type(value) is kind:  # int, str or None; JSON true/false is neither
        return value
    raise TypeError


def _type_name(kind) -> str:
    """An annotation in JSON terms: a tuple reads as a list."""
    args = typing.get_args(kind)
    if isinstance(kind, types.UnionType):
        return " | ".join(_type_name(k) for k in args)
    if typing.get_origin(kind) is tuple:
        return f"list[{', '.join(_type_name(k) for k in (args[:1] if args[-1] is Ellipsis else args))}]"
    return "None" if kind is type(None) else kind.__name__


@functools.cache
def _schema(cls) -> dict:
    hints = typing.get_type_hints(cls)
    return {f.name: hints[f.name] for f in dataclasses.fields(cls)}


def _checked(value, kind, name: str):
    try:
        return _convert(value, kind)
    except TypeError:
        raise ConfigError(f"{name} must be {_type_name(kind)}, got {json.dumps(value)}") from None


def build(cls, data: dict, section: str):
    """The dataclass `cls` from its JSON section: each value checked and
    converted against its field's annotation, then the class's range checks."""
    values = {key: _checked(data[key], kind, f"{section}: {key}") for key, kind in _schema(cls).items()}
    try:
        return cls(**values)
    except ValueError as err:
        raise ConfigError(f"{section}: {err}") from None


def _section(cfg: dict, name: str):
    data = cfg[name]
    if data.get("seed", 0) is None:  # a null stage seed is the global seed
        data = {**data, "seed": cfg["seed"]}
    return build(SECTIONS[name], data, name)


def build_run(cfg: dict) -> Run:
    """Every section of a merged config, built once; the first bad value raises ConfigError."""
    seed = _checked(cfg["seed"], int, "seed")
    sections = {name: _section(cfg, name) for name in SECTIONS}
    overrides = sections["scales"].overrides
    try:
        sections["scales"] = DEFAULT_SCALE if overrides is None else load_scale_overrides(Path(overrides))
    except (ValueError, OSError) as err:
        raise ConfigError(f"scales: {err}") from None
    return Run(seed=seed, **sections)


def mic_config(cfg: dict) -> MicConfig:
    return _section(cfg, "mic")


def screen_config(cfg: dict) -> ScreenConfig:
    return _section(cfg, "screen")
