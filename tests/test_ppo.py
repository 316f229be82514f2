"""PPO machinery: rollouts, GAE, the clipped objective, and training guards."""
import gc
import io
import math
import weakref

import numpy as np
import pytest

import amprl.numerics as nm
import amprl.ppo as ppo
import ppo_oracle
import reward_oracle
from amprl.policy import BOS, EOS, PAD, ModelConfig, PolicyModel, attach_lora, decode_tokens, sample
from amprl.ppo import (
    LOG_COLUMNS,
    PpoConfig,
    RolloutBatch,
    _minibatch_losses,
    compute_advantages,
    ppo_losses,
    rollout,
    train_rl,
    write_training_log,
)
from amprl.reward import RewardConfig, make_reward_fn, process_rewards
from amprl.rng import substream
from amprl.sequences import Peptide
from conftest import captured_tensors
from descriptor_oracle import descriptor_vector

TOY = ModelConfig(embed_dim=16, n_layers=1, n_heads=2, max_len=16, mlp_ratio=2, init_std=0.02)


class LysineScorer:
    """Analytic stand-in for the activity model: fraction of K residues."""

    def score_many(self, peptides):
        return np.array([p.residues.count("K") / max(len(p.residues), 1) for p in peptides])


def _cfg(**kw):
    base = dict(
        n_actors=8,
        horizon=10,
        max_len=9,
        clip_eps=0.2,
        value_coef=0.5,
        entropy_coef=0.01,
        discount=1.0,
        gae_lambda=0.95,
        epochs=1,
        minibatch_size=4,
        lr=1e-3,
        iterations=2,
        ratio_guard=10.0,
        max_logp_gap=50.0,
        checkpoint_every=0,
    )
    base.update(kw)
    return PpoConfig(**base)


def _policy(seed=0):
    return attach_lora(PolicyModel.init(TOY, seed=seed), rank=2, scaling=1.0, seed=seed + 100)


def _reward_fn():
    return make_reward_fn(LysineScorer(), RewardConfig())


def test_rollout_is_seed_deterministic():
    policy = _policy(1)
    cfg = _cfg()
    a = rollout(policy, _reward_fn(), cfg, seed=5)
    b = rollout(policy, _reward_fn(), cfg, seed=5)
    c = rollout(policy, _reward_fn(), cfg, seed=6)
    assert np.array_equal(a.ids, b.ids)
    assert np.array_equal(a.old_log_probs, b.old_log_probs)
    assert np.array_equal(a.step_rewards, b.step_rewards)
    assert not np.array_equal(a.ids, c.ids)


def test_rollout_trajectory_structure():
    batch = rollout(_policy(2), _reward_fn(), _cfg(), seed=3)
    assert batch.n == 8
    _, whitened = process_rewards(batch.rewards.r_total)
    for i, actions in enumerate(batch.actions):
        steps = int(batch.mask[i].sum())
        residues = decode_tokens(actions)
        assert steps == len(residues) + 1  # residues plus the stop action
        assert len(residues) >= 1
        assert batch.actions[i, steps - 1] == EOS
        # terminal whitened reward on the stop step, zero elsewhere
        assert batch.step_rewards[i, steps - 1] == whitened[i]
        assert np.all(batch.step_rewards[i, : steps - 1] == 0.0)
        assert np.all(batch.values[i, steps:] == 0.0)
        assert np.all(batch.old_log_probs[i, :steps] <= 0.0)
    assert 0.0 <= batch.mean_entropy <= math.log(21)


def _grid_oracle(samples):
    """The token grid `rollout` built by hand from its samples before it read `encode_batch`."""
    n = len(samples)
    t_max = max(s.tokens.size for s in samples)
    ids = np.full((n, t_max + 1), PAD, dtype=np.int64)
    ids[:, 0] = BOS
    actions = np.full((n, t_max), PAD, dtype=np.int64)
    mask = np.zeros((n, t_max))
    old_lp = np.zeros((n, t_max))
    for i, s in enumerate(samples):
        k = s.tokens.size
        ids[i, 1 : k + 1] = s.tokens
        actions[i, :k] = s.tokens
        mask[i, :k] = 1.0
        old_lp[i, :k] = s.log_probs
    return ids, actions, mask, old_lp


def test_rollout_grid_matches_the_hand_built_grid():
    policy, cfg = _policy(4), _cfg(n_actors=16, max_len=6, horizon=7)
    capped = 0
    for seed in range(4):
        samples = sample(policy, cfg.n_actors, max_len=6, seed=seed)
        capped += sum(not s.terminated for s in samples)
        batch = rollout(policy, _reward_fn(), cfg, seed=seed)
        for got, want in zip((batch.ids, batch.actions, batch.mask, batch.old_log_probs), _grid_oracle(samples)):
            assert got.dtype == want.dtype and np.array_equal(got, want)
    assert capped > 0  # rows that hit the residue cap, where EOS is forced, are covered


# (config overrides, rollout seed): unequal lengths, and rows that hit the residue cap
PACKED_CASES = {
    "unequal_lengths": ({"n_actors": 12, "max_len": 14, "horizon": 15}, 3),
    "residue_cap": ({"n_actors": 16, "max_len": 6, "horizon": 7}, 1),
}


def _packed_case(case, **ppo):
    overrides, seed = PACKED_CASES[case]
    cfg = _cfg(clip_eps=0.02, **overrides, **ppo)
    policy = _policy(7)
    batch = compute_advantages(rollout(policy, _reward_fn(), cfg, seed=seed), cfg)
    lengths = [len(decode_tokens(actions)) for actions in batch.actions]
    assert len(set(lengths)) > 1
    if case == "residue_cap":
        assert max(lengths) == cfg.max_len  # EOS forced on these rows
    return policy, batch, cfg


@pytest.mark.parametrize("case", sorted(PACKED_CASES))
def test_rollout_values_and_entropy_match_grid_oracle(case):
    policy, batch, _ = _packed_case(case)
    values, mean_entropy = ppo_oracle.rollout_values_and_entropy(policy, batch.ids, batch.mask)
    # the decode and the oracle's full forward run their GEMMs on different shapes
    assert np.max(np.abs(batch.values - values)) <= 1e-12
    assert np.all(batch.values[batch.mask == 0.0] == 0.0)
    assert abs(batch.mean_entropy - mean_entropy) <= 1e-12


def test_rollout_runs_no_forward_of_its_own(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("rollout ran a forward of its own")

    monkeypatch.setattr(PolicyModel, "values_and_log_probs", forbidden)
    batch = rollout(_policy(3), _reward_fn(), _cfg(), seed=2)
    assert batch.n == 8 and batch.mean_entropy > 0.0


def _grads(policy, loss):
    for p in policy.trainable():
        p.grad = None
    loss.backward()
    return [p.grad.copy() for p in policy.trainable()]


@pytest.mark.parametrize("case", sorted(PACKED_CASES))
def test_minibatch_losses_match_grid_oracle(case):
    policy, batch, cfg = _packed_case(case)
    rng = np.random.default_rng(0)
    for name, t in policy.named_tensors().items():
        if "lora" in name:  # move off the rollout snapshot so ratios leave 1 and some clip
            t.data += rng.normal(0.0, 0.3, size=t.data.shape)
    by_length = np.argsort(batch.mask.sum(axis=1), kind="stable")
    selections = (
        rng.permutation(batch.n)[: cfg.minibatch_size],
        by_length[:3],  # the shortest rows: grid columns that are PAD in every row
        by_length[-1:],  # one longest row: its EOS input falls outside the grid
        np.arange(batch.n),
    )
    clipped = 0.0
    for sel in selections:
        got = _minibatch_losses(policy, batch, sel, cfg)
        want = ppo_oracle.minibatch_losses(policy, batch, sel, cfg)
        assert got.total.item() == pytest.approx(want.total.item(), rel=1e-12)
        for part in ("policy", "value", "entropy"):
            assert getattr(got, part).item() == pytest.approx(getattr(want, part).item(), rel=1e-12, abs=1e-14)
        assert got.clip_fraction == want.clip_fraction
        assert got.approx_kl == pytest.approx(want.approx_kl, rel=1e-12, abs=1e-15)
        assert got.mean_ratio_dev == pytest.approx(want.mean_ratio_dev, rel=1e-12)
        for g, w in zip(_grads(policy, got.total), _grads(policy, want.total), strict=True):
            assert np.array_equal(g, w)
        clipped += got.clip_fraction
    assert clipped > 0.0


def test_ppo_backward_closures_capture_no_tensor():
    policy, batch, cfg = _packed_case("unequal_lengths")
    found, records = captured_tensors(_minibatch_losses(policy, batch, np.arange(batch.n), cfg).total)
    assert len(records) > 30 and found == []


def test_rollout_rewards_match_scorer():
    batch = rollout(_policy(3), _reward_fn(), _cfg(), seed=9)
    expected = _reward_fn()([Peptide(f"rl{i}", decode_tokens(a), "generated_rl") for i, a in enumerate(batch.actions)])
    for field in ("s", "descriptors", "r_mic", "r_property", "r_total"):
        assert getattr(batch.rewards, field).tobytes() == getattr(expected, field).tobytes(), field


def test_rollout_scores_the_batch_in_one_call():
    class CountingScorer(LysineScorer):
        batches = []

        def score_many(self, peptides):
            self.batches.append(len(peptides))
            return super().score_many(peptides)

    rollout(_policy(3), make_reward_fn(CountingScorer(), RewardConfig()), _cfg(), seed=9)
    assert CountingScorer.batches == [8]


def test_rollout_reward_failure_is_a_runtime_error():
    class BrokenScorer:
        def score_many(self, peptides):
            return np.full(len(peptides), 1.5)  # outside [0,1]

    with pytest.raises(RuntimeError, match=r"reward evaluation failed for a batch of 8 sequences: .* got 1\.5"):
        rollout(_policy(3), make_reward_fn(BrokenScorer(), RewardConfig()), _cfg(), seed=9)


def _synthetic_batch(rng, n=5, t_max=7):
    mask = np.zeros((n, t_max))
    step_rewards = np.zeros((n, t_max))
    values = np.zeros((n, t_max))
    terminal = rng.normal(size=n)
    for i in range(n):
        steps = int(rng.integers(2, t_max + 1))
        mask[i, :steps] = 1.0
        values[i, :steps] = rng.normal(size=steps)
        step_rewards[i, steps - 1] = terminal[i]
    return RolloutBatch(
        ids=np.zeros((n, t_max + 1), dtype=np.int64),
        actions=np.zeros((n, t_max), dtype=np.int64),
        mask=mask,
        old_log_probs=np.zeros((n, t_max)),
        values=values,
        rewards=None,  # advantages read only the step grids
        step_rewards=step_rewards,
        mean_entropy=0.0,
    )


def _gae_oracle(mask, values, step_rewards, discount, lam):
    n, t_max = mask.shape
    adv = np.zeros((n, t_max))
    ret = np.zeros((n, t_max))
    for i in range(n):
        steps = int(mask[i].sum())
        running = 0.0
        for t in reversed(range(steps)):
            nxt = values[i, t + 1] if t + 1 < steps else 0.0
            delta = step_rewards[i, t] + discount * nxt - values[i, t]
            running = delta + discount * lam * running
            adv[i, t] = running
        acc = 0.0
        for t in reversed(range(steps)):
            acc = step_rewards[i, t] + discount * acc
            ret[i, t] = acc
    return adv, ret


def test_compute_advantages_matches_manual_gae():
    rng = np.random.default_rng(10)
    cfg = _cfg(discount=0.97, gae_lambda=0.9)
    batch = _synthetic_batch(rng)
    raw_adv, raw_ret = _gae_oracle(batch.mask, batch.values, batch.step_rewards, 0.97, 0.9)
    out = compute_advantages(batch, cfg)
    valid = batch.mask > 0.0
    flat = raw_adv[valid]
    expected = np.zeros_like(raw_adv)
    expected[valid] = (flat - flat.mean()) / flat.std()
    assert np.allclose(out.advantages, expected, atol=1e-12)
    assert np.allclose(out.returns, raw_ret, atol=1e-12)
    assert abs(out.advantages[valid].mean()) < 1e-9
    assert abs(out.advantages[valid].std() - 1.0) < 1e-9


@pytest.mark.parametrize("case", sorted(PACKED_CASES))
@pytest.mark.parametrize("discount, lam", [(0.97, 0.9), (1.0, 0.95)])
def test_compute_advantages_matches_the_per_row_loop_oracle(case, discount, lam):
    _, batch, cfg = _packed_case(case, discount=discount, gae_lambda=lam)
    want_adv, want_ret = ppo_oracle.advantages_and_returns(batch, cfg)
    assert batch.advantages.tobytes() == want_adv.tobytes()
    assert batch.returns.tobytes() == want_ret.tobytes()


def test_undiscounted_returns_equal_terminal_reward_everywhere():
    rng = np.random.default_rng(11)
    batch = _synthetic_batch(rng)
    out = compute_advantages(batch, _cfg(discount=1.0))
    for i in range(batch.n):
        steps = int(batch.mask[i].sum())
        assert np.allclose(out.returns[i, :steps], batch.step_rewards[i, steps - 1], atol=1e-12)


def test_degenerate_advantages_whiten_to_zero():
    rng = np.random.default_rng(12)
    batch = _synthetic_batch(rng)
    batch.values[:] = 0.0
    batch.step_rewards[:] = 0.0  # every advantage identical (zero)
    out = compute_advantages(batch, _cfg())
    assert np.array_equal(out.advantages, np.zeros_like(out.advantages))


def _loss_fixture(rng, n=3, t=5):
    mask = np.ones((n, t))
    mask[0, 4] = 0.0
    old = rng.uniform(-3.0, -0.5, size=(n, t))
    new = old + rng.uniform(-0.3, 0.3, size=(n, t))
    adv = rng.normal(size=(n, t))
    returns = rng.normal(size=(n, t))
    values = returns + rng.normal(scale=0.5, size=(n, t))
    entropy = rng.uniform(0.5, 2.5, size=(n, t))
    return mask, old, new, adv, values, returns, entropy


def test_ppo_losses_match_numpy_oracle():
    rng = np.random.default_rng(13)
    cfg = _cfg()
    mask, old, new, adv, values, returns, entropy = _loss_fixture(rng)
    out = ppo_losses(
        nm.Tensor(new, requires_grad=True),
        old,
        adv,
        nm.Tensor(values, requires_grad=True),
        returns,
        nm.Tensor(entropy),
        mask,
        cfg,
    )
    count = mask.sum()
    ratio = np.exp(new - old)
    clipped = np.clip(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps)
    surrogate = np.minimum(ratio * adv, clipped * adv)
    l_policy = -(surrogate * mask).sum() / count
    l_value = (((values - returns) ** 2) * mask).sum() / count
    h = (entropy * mask).sum() / count
    assert out.policy.item() == pytest.approx(l_policy, rel=1e-12)
    assert out.value.item() == pytest.approx(l_value, rel=1e-12)
    assert out.entropy.item() == pytest.approx(h, rel=1e-12)
    assert out.total.item() == pytest.approx(
        l_policy + cfg.value_coef * l_value - cfg.entropy_coef * h, rel=1e-12
    )
    assert out.clip_fraction == pytest.approx(
        ((np.abs(ratio - 1.0) > cfg.clip_eps) * mask).sum() / count
    )
    assert out.approx_kl == pytest.approx(((old - new) * mask).sum() / count)

    # every element of the surrogate stays inside the clip envelope
    lo = np.minimum(np.minimum(ratio * adv, (1 - cfg.clip_eps) * adv), (1 + cfg.clip_eps) * adv)
    hi = np.maximum(np.maximum(ratio * adv, (1 - cfg.clip_eps) * adv), (1 + cfg.clip_eps) * adv)
    assert np.all(surrogate >= lo - 1e-12) and np.all(surrogate <= hi + 1e-12)


def test_ppo_losses_ratio_identity_at_snapshot():
    rng = np.random.default_rng(14)
    cfg = _cfg()
    mask = np.ones((2, 4))
    old = rng.uniform(-2.0, -0.1, size=(2, 4))
    adv = rng.normal(size=(2, 4))
    returns = rng.normal(size=(2, 4))
    out = ppo_losses(
        nm.Tensor(old.copy(), requires_grad=True),
        old,
        adv,
        nm.Tensor(returns.copy(), requires_grad=True),
        returns,
        nm.Tensor(np.ones((2, 4))),
        mask,
        cfg,
    )
    assert out.mean_ratio_dev < 1e-10
    assert out.clip_fraction == 0.0
    assert abs(out.approx_kl) < 1e-12
    assert out.policy.item() == pytest.approx(-adv.mean(), rel=1e-9)
    assert out.value.item() == 0.0  # exact predictions give exactly zero loss


def test_clip_is_one_sided():
    cfg = _cfg()
    mask = np.ones((1, 2))
    old = np.zeros((1, 2))
    new = np.full((1, 2), math.log(2.0))  # ratio 2 at both steps
    adv = np.array([[1.0, -1.0]])
    out = ppo_losses(
        nm.Tensor(new, requires_grad=True),
        old,
        adv,
        nm.Tensor(np.zeros((1, 2)), requires_grad=True),
        np.zeros((1, 2)),
        nm.Tensor(np.zeros((1, 2))),
        mask,
        cfg,
    )
    # +adv clips at 1.2, -adv keeps the unclipped -2.0 (pessimistic minimum)
    assert out.policy.item() == pytest.approx(-(1.2 - 2.0) / 2.0)


def test_log_prob_gap_guard():
    mask = np.ones((1, 3))
    old = np.zeros((1, 3))
    new = np.array([[0.0, -60.0, 0.0]])
    with pytest.raises(FloatingPointError, match="gap"):
        ppo_losses(
            nm.Tensor(new, requires_grad=True),
            old,
            np.zeros((1, 3)),
            nm.Tensor(np.zeros((1, 3)), requires_grad=True),
            np.zeros((1, 3)),
            nm.Tensor(np.zeros((1, 3))),
            mask,
            _cfg(),
        )


def test_train_rl_freezes_base_and_logs(tmp_path):
    policy = _policy(4)
    before = {
        name: t.data.copy()
        for name, t in policy.named_tensors().items()
        if "lora" not in name and "value" not in name
    }
    log_path = tmp_path / "rl_log.tsv"
    tuned, log = train_rl(
        policy, LysineScorer(), RewardConfig(), _cfg(iterations=3), seed=2, log_sink=log_path
    )
    after = tuned.named_tensors()
    for name, data in before.items():
        assert np.array_equal(data, after[name].data), f"base weight {name} changed"
    assert len(log) == 3
    assert [row["iteration"] for row in log] == [1, 2, 3]
    for row in log:
        assert 0.0 <= row["frac_active"] <= 1.0
        assert row["entropy"] >= 0.0
        assert np.isfinite(row["policy_loss"])
        assert row["value_loss"] > 0.0
    header = log_path.read_text().splitlines()[0]
    assert header == "\t".join(LOG_COLUMNS)


def test_train_rl_log_means_match_the_per_peptide_breakdowns():
    cfg, seed = _cfg(n_actors=24, iterations=1), 3
    # the first iteration's rollout, drawn from the policy before any update
    first = rollout(_policy(7), _reward_fn(), cfg, seed=int(substream(seed, "ppo.rollout.1").integers(1 << 62)))
    peptides = [Peptide(f"rl{i}", decode_tokens(a), "generated_rl") for i, a in enumerate(first.actions)]
    breakdowns = [
        reward_oracle.score_reward(float(LysineScorer().score_many([p])[0]), descriptor_vector(p), RewardConfig())
        for p in peptides
    ]
    row = train_rl(_policy(7), LysineScorer(), RewardConfig(), cfg, seed=seed)[1][0]
    want = {
        "mean_reward": float(np.array([bd.r_total for bd in breakdowns]).mean()),
        "mean_s": float(np.mean([bd.s for bd in breakdowns])),
        "frac_active": float(np.mean([bd.s >= RewardConfig().breakpoint for bd in breakdowns])),
        "mean_charge": float(np.mean([bd.props.net_charge for bd in breakdowns])),
        "mean_hydrophobicity": float(np.mean([bd.props.hydrophobicity for bd in breakdowns])),
        "mean_moment": float(np.mean([bd.props.hydrophobic_moment for bd in breakdowns])),
        "mean_pI": float(np.mean([bd.props.isoelectric_point for bd in breakdowns])),
    }
    assert {key: row[key] for key in want} == want
    assert 0.0 < want["frac_active"] < 1.0


def test_train_rl_is_seed_deterministic():
    a = train_rl(_policy(5), LysineScorer(), RewardConfig(), _cfg(), seed=8)[1]
    b = train_rl(_policy(5), LysineScorer(), RewardConfig(), _cfg(), seed=8)[1]
    assert a == b


def test_ratio_guard_skips_divergent_minibatches():
    cfg = _cfg(ratio_guard=1e-9, epochs=2, iterations=2, lr=5e-2)
    sink = io.StringIO()
    _, log = train_rl(_policy(6), LysineScorer(), RewardConfig(), cfg, seed=4, log_sink=sink)
    header, *rows = [line.split("\t") for line in sink.getvalue().splitlines()]
    written = [int(row[header.index("skipped_updates")]) for row in rows]
    assert written == [row["skipped_updates"] for row in log]
    assert sum(written) > 0


def test_a_guard_skipped_minibatch_frees_its_graph_before_the_next_forward(monkeypatch):
    # weak references to the arrays each call's backward closures capture, bar the
    # policy's own weights; with the cycle collector off only reference counts free them
    real, calls = ppo._minibatch_losses, []

    def watched(policy, batch, sel, cfg):
        if calls:
            assert all(ref() is None for ref in calls[-1][1])
        losses = real(policy, batch, sel, cfg)
        weights = [t.data for t in policy.named_tensors().values()]
        captured = [
            a for a in captured_tensors(losses.total, np.ndarray)[0] if not any(np.shares_memory(a, w) for w in weights)
        ]
        calls.append((losses.mean_ratio_dev > cfg.ratio_guard, [weakref.ref(a) for a in captured]))
        return losses

    monkeypatch.setattr(ppo, "_minibatch_losses", watched)
    gc.disable()
    try:
        train_rl(_policy(6), LysineScorer(), RewardConfig(), _cfg(ratio_guard=3e-3, epochs=2, iterations=3, lr=5e-2), seed=4)
    finally:
        gc.enable()
    assert all(ref() is None for _, refs in calls for ref in refs)  # the last call's too
    skipped = [refs for was_skipped, refs in calls if was_skipped]
    assert 0 < len(skipped) < len(calls)
    assert all(len(refs) > 10 for refs in skipped)


def test_write_training_log_format():
    rows = [
        {c: (1 if c == "iteration" else 0.5) for c in LOG_COLUMNS}
        | {"approx_kl": 0.0, "skipped_updates": 0, "policy_loss": -0.25, "value_loss": 1.5}
    ]
    buf = io.StringIO()
    write_training_log(rows, buf)
    lines = buf.getvalue().splitlines()
    assert lines[0].split("\t") == list(LOG_COLUMNS)
    fields = dict(zip(LOG_COLUMNS, lines[1].split("\t")))
    assert fields["iteration"] == "1"
    assert fields["skipped_updates"] == "0"
    assert fields["approx_kl"] == "0.0"
    assert fields["policy_loss"] == "-0.25"
    assert fields["value_loss"] == "1.5"
    assert LOG_COLUMNS.index("policy_loss") < LOG_COLUMNS.index("value_loss") < LOG_COLUMNS.index("clip_fraction")
