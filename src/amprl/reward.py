"""Composite RL reward over a batch: piecewise MIC term, clamped property term, mix, whitening."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .mic import features_and_scores
from .physchem import DEFAULT_SCALE, DESCRIPTORS, ScaleTable


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
class RewardBatch:
    """A batch's reward, one row per peptide; `descriptors` is a `physchem.descriptors` matrix."""

    s: np.ndarray
    descriptors: np.ndarray
    r_mic: np.ndarray
    r_property: np.ndarray
    r_total: np.ndarray


def r_mic(s, cfg: RewardConfig = RewardConfig()):
    """1.0 at or above the breakpoint, else (s - offset) * beta; of one score or an array of them."""
    scores = np.asarray(s, dtype=np.float64)
    outside = ~((scores >= 0.0) & (scores <= 1.0))
    if outside.any():
        raise ValueError(f"classifier score must lie in [0,1], got {scores[outside][0]}")
    return np.where(scores >= cfg.breakpoint, 1.0, (scores - cfg.offset) * cfg.beta)[()]


def r_property(desc: np.ndarray, cfg: RewardConfig = RewardConfig()) -> np.ndarray:
    """Weighted sum of the clamped descriptors plus the constant term, for each row of `desc`."""
    column = dict(zip(DESCRIPTORS, desc.T))
    clamped = (
        ("hydrophobicity", cfg.clamp_hydrophobicity),
        ("hydrophobic_moment", cfg.clamp_moment),
        ("net_charge", cfg.clamp_charge),
        ("isoelectric_point", cfg.clamp_isoelectric),
    )
    total = 0.0
    for weight, (name, (lo, hi)) in zip(cfg.weights, clamped):
        total = total + weight * np.minimum(np.maximum(column[name], lo), hi)
    return total + cfg.weights[4]


def r_total(r_prop, r_mic_value, cfg: RewardConfig = RewardConfig()):
    """Convex combination lambda * r_property + (1 - lambda) * r_mic, of scalars or arrays."""
    lam = cfg.mix_lambda
    return lam * r_prop + (1.0 - lam) * r_mic_value


def score_reward(s, desc: np.ndarray, cfg: RewardConfig = RewardConfig()) -> RewardBatch:
    """The reward of a batch from its classifier scores and the matching `descriptors` rows."""
    s = np.asarray(s, dtype=np.float64)
    if s.shape != (len(desc),):
        raise ValueError(f"expected {len(desc)} classifier scores, got an array of shape {s.shape}")
    mic_term, prop_term = r_mic(s, cfg), r_property(desc, cfg)
    return RewardBatch(s, desc, mic_term, prop_term, r_total(prop_term, mic_term, cfg))


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
    array) and a descriptor scale into a peptides -> RewardBatch function
    that scores the whole list in one call. The descriptors are the first
    columns of `mic.features_and_scores`' matrix, so a classifier on the
    same scale reads them from the one descriptor pass."""

    def reward_fn(peptides) -> RewardBatch:
        features, scores = features_and_scores(peptides, scorer, scale)
        return score_reward(scores, features[:, : len(DESCRIPTORS)], cfg)

    return reward_fn
