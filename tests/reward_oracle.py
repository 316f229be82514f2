"""The per-peptide reward `amprl.reward` computed before `score_reward` took a
whole batch of scores and `descriptors` rows, kept as a test oracle.

Each peptide got one `PropertyVector`, one dict of weighted clamped terms and
one `RewardBreakdown`. `test_reward.py` checks the batch arrays against these
bit for bit.
"""
from dataclasses import dataclass

from amprl.reward import RewardConfig

from screening_oracle import PropertyVector


def _clip(value: float, lo: float, hi: float) -> float:
    return min(max(value, lo), hi)


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
