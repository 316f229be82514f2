"""Run configuration: a JSON file with per-module sections, strict key
checking, and deterministic resolved-config output.

Precedence is flags > environment (output directory only) > file > defaults.
Per-module seeds default to the single global seed; module randomness is
already separated by named substreams, so sections never share a stream.
"""
from __future__ import annotations

import dataclasses
import json
import types
import typing
from pathlib import Path
from typing import IO, Any

from .mic import MicConfig
from .physchem import DEFAULT_SCALE, ScaleTable, load_scale_overrides
from .policy import ModelConfig, SftConfig
from .ppo import PpoConfig
from .reward import RewardConfig
from .screening import ScreenConfig
from .sequences import _write_text


class ConfigError(ValueError):
    pass


def _section(instance, null_seed: bool = False) -> dict:
    data = dataclasses.asdict(instance)
    if null_seed and "seed" in data:
        data["seed"] = None
    return data


def default_config() -> dict:
    return {
        "seed": 0,
        "paths": {"outputs": "."},
        "model": _section(ModelConfig()),
        "sft": _section(SftConfig(), null_seed=True),
        "mic": _section(MicConfig(), null_seed=True),
        "reward": _section(RewardConfig()),
        "ppo": _section(PpoConfig()),
        "screen": _section(ScreenConfig()),
        "lora": {"rank": 4, "scaling": 1.0, "targets": ["wq", "wv"]},
        "sample": {"n": 100, "temperature": 1.0, "top_k": None},
        "library": {"target_count": 1000, "temperature": 1.0, "top_k": None, "source": "generated_sft"},
        "dataprep": {
            "min_len": 8,
            "max_len": 50,
            "identity_threshold": 0.4,
            "fractions": [0.8, 0.1, 0.1],
        },
        "eval": {"jsd_base": 2.0, "thresholds": [1.0, 3.0]},
        "scales": {"overrides": None},
    }


# JSON types of the sections no dataclass builds; a float key also takes an integer
PLAIN_SECTIONS = {
    "lora": {"rank": int, "scaling": float, "targets": list[str]},
    "sample": {"n": int, "temperature": float, "top_k": int | None},
    "library": {"target_count": int, "temperature": float, "top_k": int | None, "source": str},
    "dataprep": {"min_len": int, "max_len": int, "identity_threshold": float, "fractions": list[float]},
    "eval": {"jsd_base": float, "thresholds": list[float]},
}


def _has_type(value, kind) -> bool:
    if typing.get_origin(kind) is list:
        return isinstance(value, list) and all(_has_type(v, typing.get_args(kind)[0]) for v in value)
    if isinstance(kind, types.UnionType):
        return any(_has_type(value, k) for k in typing.get_args(kind))
    if isinstance(value, bool):  # JSON true/false is no number or string
        return False
    return isinstance(value, (int, float) if kind is float else kind)


def check_plain_sections(cfg: dict) -> None:
    """Reject a value of the wrong JSON type in a section of `PLAIN_SECTIONS`."""
    for section, kinds in PLAIN_SECTIONS.items():
        for key, kind in kinds.items():
            value = cfg[section][key]
            if not _has_type(value, kind):
                name = kind.__name__ if isinstance(kind, type) else str(kind)
                raise ConfigError(f"{section}: {key} must be {name}, got {json.dumps(value)}")


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
    try:
        raw = json.loads(file_path.read_text())
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


def write_resolved(cfg: dict, sink: str | Path | IO[str]) -> None:
    _write_text(sink, json.dumps(cfg, sort_keys=True, indent=2) + "\n")


def _tup(value) -> tuple:
    return tuple(value)


def _pair(value) -> tuple[float, float] | None:
    if value is None:
        return None
    return (float(value[0]), float(value[1]))


def _module_seed(cfg: dict, section: str) -> int:
    seed = cfg[section].get("seed")
    return int(cfg["seed"]) if seed is None else int(seed)


def model_config(cfg: dict) -> ModelConfig:
    return ModelConfig(**cfg["model"])


def sft_config(cfg: dict) -> SftConfig:
    section = dict(cfg["sft"])
    section["seed"] = _module_seed(cfg, "sft")
    return SftConfig(**section)


def mic_config(cfg: dict) -> MicConfig:
    section = dict(cfg["mic"])
    section["seed"] = _module_seed(cfg, "mic")
    section["hidden"] = _tup(section["hidden"])
    return MicConfig(**section)


def reward_config(cfg: dict) -> RewardConfig:
    section = dict(cfg["reward"])
    section["weights"] = _tup(section["weights"])
    for key in ("clamp_hydrophobicity", "clamp_moment", "clamp_charge", "clamp_isoelectric"):
        section[key] = _pair(section[key])
    return RewardConfig(**section)


def ppo_config(cfg: dict) -> PpoConfig:
    return PpoConfig(**cfg["ppo"])


def screen_config(cfg: dict) -> ScreenConfig:
    section = dict(cfg["screen"])
    for key in ("hydrophobicity_window", "moment_window", "charge_window", "isoelectric_window"):
        section[key] = _pair(section[key])
    section["forbidden_motifs"] = _tup(section["forbidden_motifs"])
    section["external_minimums"] = tuple((str(n), float(v)) for n, v in section["external_minimums"])
    return ScreenConfig(**section)


def scale_table(cfg: dict) -> ScaleTable:
    overrides = cfg["scales"]["overrides"]
    if overrides is None:
        return DEFAULT_SCALE
    return load_scale_overrides(overrides)
