"""Reward shaping: activity term, property clamps, mixing, batch whitening.

The batch arrays are checked bit for bit against the per-peptide code in
`reward_oracle.py` that they replaced.
"""
from dataclasses import astuple

import numpy as np
import pytest

import reward_oracle
from amprl.physchem import DESCRIPTORS, descriptors
from amprl.reward import (
    RewardConfig,
    make_reward_fn,
    process_rewards,
    r_mic,
    r_property,
    r_total,
    score_reward,
)
from amprl.sequences import Peptide
from conftest import random_peptides
from descriptor_oracle import descriptor_vector
from screening_oracle import PropertyVector

CFG = RewardConfig()


def _row(h=0.0, mu=0.3, q=2.0, pi=9.0, length=20):
    """One `descriptors` row, its columns placed by name."""
    values = {
        "length": length,
        "hydrophobicity": h,
        "hydrophobic_moment": mu,
        "net_charge": q,
        "isoelectric_point": pi,
    }
    return np.array([float(values[name]) for name in DESCRIPTORS])


def _isolating(k, cfg=CFG):
    """`cfg` with every property weight but the k-th set to 0."""
    return RewardConfig(weights=tuple(w if i == k else 0.0 for i, w in enumerate(cfg.weights)))


def test_r_mic_piecewise_values():
    assert r_mic(0.5) == 1.0
    assert r_mic(0.35) == 0.0
    assert r_mic(0.49) == pytest.approx((0.49 - 0.35) * 4.0)
    assert r_mic(0.75) == 1.0
    assert r_mic(1.0) == 1.0
    assert r_mic(0.0) == pytest.approx(-1.4)


def test_r_mic_is_monotone_on_unit_interval():
    grid = np.linspace(0.0, 1.0, 401)
    values = [r_mic(float(s)) for s in grid]
    assert all(b >= a for a, b in zip(values, values[1:]))
    assert max(values) == 1.0
    assert r_mic(grid).tobytes() == np.array(values).tobytes()


@pytest.mark.parametrize("bad", [1.5, -0.25, float("nan")])
def test_r_mic_names_a_score_outside_the_unit_interval(bad):
    for scores in (bad, np.array([0.5, bad, 0.2]), [0.0, 1.0, bad]):
        with pytest.raises(ValueError, match=f"classifier score must lie in \\[0,1\\], got {bad}"):
            r_mic(scores)


def test_r_property_clamps_each_descriptor():
    desc = np.stack(
        [
            _row(h=0.5, mu=0.3, q=2.0, pi=9.0),  # inside every window: the raw weighted values pass through
            _row(h=3.0, mu=2.0, q=15.0, pi=13.5),  # above: clamped to the window's upper edge
            _row(h=-4.0, mu=0.0, q=-12.0, pi=1.0),  # below: clamped to the lower edge
        ]
    )
    # each term isolated by its weight; charge and pI weigh 0.1 by default
    isolated = {0: (0.5, 0.8, -0.5), 1: (0.3, 0.6, 0.0), 2: (0.2, 0.9, -0.5), 3: (0.9, 1.1, 0.8)}
    for k, want in isolated.items():
        assert r_property(desc, _isolating(k)) == pytest.approx(np.array(want)), DESCRIPTORS[k + 1]
    assert np.array_equal(r_property(desc, _isolating(4)), np.zeros(3))  # fifth term, weight 0 by default
    assert np.array_equal(r_property(desc, RewardConfig(weights=(0.0, 0.0, 0.0, 0.0, 0.75))), np.full(3, 0.75))
    assert r_property(desc)[0] == pytest.approx(0.5 + 0.3 + 0.2 + 0.9)


def test_r_property_depends_only_on_the_vector():
    a = _row(h=0.2, mu=0.4, q=3.0, pi=10.0, length=12)
    b = _row(h=0.2, mu=0.4, q=3.0, pi=10.0, length=40)
    assert r_property(np.stack([a, b])).tolist() == [r_property(a)] * 2


def test_r_total_mixes_linearly():
    assert r_total(0.6, 1.0) == pytest.approx(0.5 * 0.6 + 0.5 * 1.0)
    cfg = RewardConfig(mix_lambda=0.25)
    assert r_total(0.8, 0.4, cfg) == pytest.approx(0.25 * 0.8 + 0.75 * 0.4)


def test_r_total_argmax_ignores_shared_property_offset():
    rng = np.random.default_rng(0)
    r_prop = rng.normal(size=12)
    r_act = rng.normal(size=12)
    base = [r_total(p, a) for p, a in zip(r_prop, r_act)]
    shifted = [r_total(p + 1.7, a) for p, a in zip(r_prop, r_act)]
    assert int(np.argmax(base)) == int(np.argmax(shifted))


def test_score_reward_breakdown_is_consistent():
    desc = np.stack([_row(h=0.1, mu=0.5, q=4.0, pi=10.0), _row(h=-0.3, mu=0.1, q=-2.0, pi=5.0)])
    out = score_reward([0.45, 0.9], desc)
    assert out.s.tolist() == [0.45, 0.9]
    assert out.descriptors is desc
    assert out.r_mic.tolist() == [r_mic(0.45), r_mic(0.9)]
    assert out.r_property.tolist() == [r_property(desc[0]), r_property(desc[1])]
    assert out.r_total.tolist() == [r_total(p, m) for p, m in zip(out.r_property, out.r_mic)]


def test_make_reward_fn_composes_scorer_and_descriptors():
    class Half:
        def score_many(self, peptides):
            return np.full(len(peptides), 0.5)

    fn = make_reward_fn(Half())
    peps = [Peptide("a", "KKLLWWKKLL", "generated_sft"), Peptide("b", "DDEEWW", "generated_sft")]
    out = fn(peps)
    assert np.array_equal(out.descriptors, descriptors(peps))
    assert out.r_total.tolist() == [r_total(r_property(row), 1.0) for row in descriptors(peps)]


_CONSTANT_CFG = RewardConfig(
    beta=2.5,
    offset=0.2,
    breakpoint=0.6,
    mix_lambda=0.3,
    weights=(0.7, -1.3, 0.25, 0.05, 0.4),
    clamp_moment=(0.4, 0.6),  # a positive lower bound, so a moment can fall below it
)


def _edge_vectors(cfg):
    """PropertyVectors at each clamp bound, beyond it, and at 0.0 and -0.0."""
    bounds = {
        "hydrophobicity": cfg.clamp_hydrophobicity,
        "hydrophobic_moment": cfg.clamp_moment,
        "net_charge": cfg.clamp_charge,
        "isoelectric_point": cfg.clamp_isoelectric,
    }
    base = dict(length=30, hydrophobicity=0.1, hydrophobic_moment=0.3, net_charge=1.0, isoelectric_point=9.5)
    out = [PropertyVector(**dict(base, **{name: v for name in bounds})) for v in (0.0, -0.0)]
    for name, (lo, hi) in bounds.items():
        for v in (lo, hi, lo - 0.25, hi + 0.25, 0.0, -0.0):
            if name == "hydrophobic_moment" and v < 0.0 or name == "isoelectric_point" and not 0.0 <= v <= 14.0:
                continue  # no peptide has a negative moment or a pI off [0, 14]
            out.append(PropertyVector(**dict(base, **{name: v})))
    return out


@pytest.mark.parametrize("cfg", [CFG, _CONSTANT_CFG], ids=["default", "constant-d5"])
def test_batch_reward_matches_the_per_peptide_oracle_bit_for_bit(cfg):
    rng = np.random.default_rng(17)
    peptides = random_peptides(40, rng, min_len=1, max_len=50)
    # descriptor rows of real peptides, read by the oracle from its own per-peptide formulas
    edge_vectors = _edge_vectors(cfg)
    vectors = [descriptor_vector(p) for p in peptides] + edge_vectors
    desc = np.vstack([descriptors(peptides), [astuple(v) for v in edge_vectors]])
    edges = [0.0, cfg.offset, np.nextafter(cfg.breakpoint, 0.0), cfg.breakpoint, 1.0, -0.0]
    scores = np.concatenate([edges, rng.uniform(0.0, 1.0, len(vectors) - len(edges))])
    got = score_reward(scores, desc, cfg)
    want = [reward_oracle.score_reward(float(s), v, cfg) for s, v in zip(scores, vectors, strict=True)]
    for field in ("s", "r_mic", "r_property", "r_total"):
        assert getattr(got, field).tobytes() == np.array([getattr(w, field) for w in want]).tobytes(), field


def test_process_rewards_scaling_and_whitening():
    rng = np.random.default_rng(1)
    for _ in range(20):
        batch = rng.normal(scale=rng.uniform(0.5, 5.0), size=int(rng.integers(2, 64)))
        scaled, whitened = process_rewards(batch)
        assert np.max(np.abs(scaled)) <= 1.0 + 1e-12
        assert np.allclose(scaled, batch / np.max(np.abs(batch)))
        assert abs(whitened.mean()) < 1e-9
        assert abs(whitened.std() - 1.0) < 1e-6
        # whitening preserves the ranking
        assert np.array_equal(np.argsort(whitened), np.argsort(batch))


def test_process_rewards_degenerate_batch_whitens_to_zero():
    scaled, whitened = process_rewards(np.full(8, 3.25))
    assert np.allclose(scaled, 1.0)
    assert np.array_equal(whitened, np.zeros(8))


def test_process_rewards_rejects_tiny_batches():
    with pytest.raises(ValueError):
        process_rewards(np.array([1.0]))


def test_process_rewards_all_negative_batch_keeps_order():
    batch = np.array([-4.0, -1.0, -2.5])
    scaled, whitened = process_rewards(batch)
    # dividing by max absolute value must not flip signs
    assert np.all(scaled <= 0.0)
    assert np.array_equal(np.argsort(scaled), np.argsort(batch))
    assert np.array_equal(np.argsort(whitened), np.argsort(batch))


def test_reward_config_validation():
    with pytest.raises(ValueError):
        RewardConfig(mix_lambda=1.5)
    with pytest.raises(ValueError):
        RewardConfig(clamp_charge=(9.0, -5.0))
