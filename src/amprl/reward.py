"""Composite RL reward: piecewise MIC term, clamped property term, mix, whitening."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .physchem import DEFAULT_SCALE, PropertyVector, ScaleTable, descriptor_vectors


def _clip(value: float, lo: float, hi: float) -> float:
    return min(max(value, lo), hi)


@dataclass(frozen=True)
class RewardConfig:
    beta: float = 4.0
    offset: float = 0.35
    breakpoint: float = 0.5
    mix_lambda: float = 0.5
    # property weights d1..d5; d5 is an additive constant
    weights: tuple[float, float, float, float, float] = (1.0, 1.0, 0.1, 0.1, 0.0)
    clamp_hydrophobicity: tuple[float, float] = (-0.5, 0.8)
    clamp_moment: tuple[float, float] = (0.0, 0.6)
    clamp_charge: tuple[float, float] = (-5.0, 9.0)
    clamp_isoelectric: tuple[float, float] = (8.0, 11.0)

    def __post_init__(self) -> None:
        if not (0.0 <= self.mix_lambda <= 1.0):
            raise ValueError(f"mix weight must lie in [0,1], got {self.mix_lambda}")
        if len(self.weights) != 5:
            raise ValueError("exactly five property weights are required")
        for name in ("clamp_hydrophobicity", "clamp_moment", "clamp_charge", "clamp_isoelectric"):
            lo, hi = getattr(self, name)
            if lo > hi:
                raise ValueError(f"{name}: lower bound {lo} exceeds upper bound {hi}")


@dataclass(frozen=True)
class RewardBreakdown:
    s: float
    r_mic: float
    r_property: float
    property_terms: dict[str, float]
    r_total: float
    props: PropertyVector  # the descriptors the property term was computed from


def r_mic(s: float, cfg: RewardConfig = RewardConfig()) -> float:
    """1.0 at or above the breakpoint, else (s - offset) * beta."""
    if not (0.0 <= s <= 1.0):
        raise ValueError(f"classifier score must lie in [0,1], got {s}")
    if s >= cfg.breakpoint:
        return 1.0
    return (s - cfg.offset) * cfg.beta


def r_property(props: PropertyVector, cfg: RewardConfig = RewardConfig()) -> tuple[float, dict[str, float]]:
    """Weighted sum of clamped descriptors plus the constant term."""
    d1, d2, d3, d4, d5 = cfg.weights
    terms = {
        "hydrophobicity": d1 * _clip(props.hydrophobicity, *cfg.clamp_hydrophobicity),
        "hydrophobic_moment": d2 * _clip(props.hydrophobic_moment, *cfg.clamp_moment),
        "net_charge": d3 * _clip(props.net_charge, *cfg.clamp_charge),
        "isoelectric_point": d4 * _clip(props.isoelectric_point, *cfg.clamp_isoelectric),
        "constant": d5,
    }
    return sum(terms.values()), terms


def r_total(r_prop: float, r_mic_value: float, cfg: RewardConfig = RewardConfig()) -> float:
    """Convex combination lambda * r_property + (1 - lambda) * r_mic."""
    lam = cfg.mix_lambda
    return lam * r_prop + (1.0 - lam) * r_mic_value


def score_reward(s: float, props: PropertyVector, cfg: RewardConfig = RewardConfig()) -> RewardBreakdown:
    mic_term = r_mic(s, cfg)
    prop_term, terms = r_property(props, cfg)
    return RewardBreakdown(
        s=s,
        r_mic=mic_term,
        r_property=prop_term,
        property_terms=terms,
        r_total=r_total(prop_term, mic_term, cfg),
        props=props,
    )


def process_rewards(batch) -> tuple[np.ndarray, np.ndarray]:
    """Scale by the largest magnitude, then whiten to mean 0 / population std 1.

    The scaling divisor is max(|R|) rather than max(R): dividing by a negative
    maximum would flip the order of an all-negative batch. An all-equal batch
    whitens to zeros.
    """
    r = np.asarray(batch, dtype=np.float64)
    if r.ndim != 1:
        raise ValueError("reward batch must be one-dimensional")
    if r.size < 2:
        raise ValueError(f"reward processing needs at least 2 rewards, got {r.size}")
    peak = np.abs(r).max()
    scaled = r / peak if peak > 0.0 else r.copy()
    std = scaled.std()
    if std < 1e-12:
        return scaled, np.zeros_like(scaled)
    whitened = (scaled - scaled.mean()) / std
    return scaled, whitened


def make_reward_fn(
    scorer,
    cfg: RewardConfig = RewardConfig(),
    scale: ScaleTable = DEFAULT_SCALE,
) -> Callable:
    """Bind a classifier-like scorer (anything with .score_many(peptides) ->
    array) and a descriptor scale into a peptides -> breakdowns function that
    scores the whole list in one call."""

    def reward_fn(peptides) -> list[RewardBreakdown]:
        scores = scorer.score_many(peptides)
        props = descriptor_vectors(peptides, scale)
        return [score_reward(float(s), v, cfg) for v, s in zip(props, scores, strict=True)]

    return reward_fn
