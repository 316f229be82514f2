"""Reward shaping: activity term, property clamps, mixing, batch whitening."""
import numpy as np
import pytest

from amprl.physchem import PropertyVector, descriptor_vector
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

CFG = RewardConfig()


def _props(h=0.0, mu=0.3, q=2.0, pi=9.0, length=20):
    return PropertyVector(
        length=length,
        hydrophobicity=h,
        hydrophobic_moment=mu,
        net_charge=q,
        isoelectric_point=pi,
    )


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


def test_r_property_clamps_each_descriptor():
    # inside every window: the raw weighted values pass through
    inside, parts = r_property(_props(h=0.5, mu=0.3, q=2.0, pi=9.0))
    assert parts["hydrophobicity"] == pytest.approx(0.5)
    assert parts["hydrophobic_moment"] == pytest.approx(0.3)
    assert parts["net_charge"] == pytest.approx(0.2)  # weight 0.1
    assert parts["isoelectric_point"] == pytest.approx(0.9)  # weight 0.1
    assert parts["constant"] == 0.0  # fifth term, weight 0 by default
    assert inside == pytest.approx(0.5 + 0.3 + 0.2 + 0.9)

    # outside: clamped to the window edge before weighting
    high, parts_high = r_property(_props(h=3.0, mu=2.0, q=15.0, pi=13.5))
    assert parts_high["hydrophobicity"] == pytest.approx(0.8)
    assert parts_high["hydrophobic_moment"] == pytest.approx(0.6)
    assert parts_high["net_charge"] == pytest.approx(0.9)
    assert parts_high["isoelectric_point"] == pytest.approx(1.1)
    low, parts_low = r_property(_props(h=-4.0, mu=0.0, q=-12.0, pi=1.0))
    assert parts_low["hydrophobicity"] == pytest.approx(-0.5)
    assert parts_low["hydrophobic_moment"] == pytest.approx(0.0)
    assert parts_low["net_charge"] == pytest.approx(-0.5)
    assert parts_low["isoelectric_point"] == pytest.approx(0.8)


def test_r_property_depends_only_on_the_vector():
    a = _props(h=0.2, mu=0.4, q=3.0, pi=10.0, length=12)
    b = _props(h=0.2, mu=0.4, q=3.0, pi=10.0, length=12)
    assert r_property(a) == r_property(b)


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
    props = _props(h=0.1, mu=0.5, q=4.0, pi=10.0)
    out = score_reward(0.45, props)
    assert out.r_mic == pytest.approx(r_mic(0.45))
    assert out.r_property == pytest.approx(r_property(props)[0])
    assert out.r_total == pytest.approx(r_total(out.r_property, out.r_mic))


def test_make_reward_fn_composes_scorer_and_descriptors():
    class Half:
        def score_many(self, peptides):
            return np.full(len(peptides), 0.5)

    fn = make_reward_fn(Half())
    peps = [Peptide("a", "KKLLWWKKLL", "generated_sft"), Peptide("b", "DDEEWW", "generated_sft")]
    out = fn(peps)
    assert len(out) == 2
    for pep, bd in zip(peps, out):
        props = descriptor_vector(pep)
        assert bd.props == props
        assert bd.r_total == pytest.approx(r_total(r_property(props)[0], 1.0))


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
