"""PPO fine-tuning of the LoRA policy against the composite reward.

Trajectories are peptides: each residue (and the final EOS) is one action,
the terminal whitened reward lands on the EOS step, and intermediate steps
pay zero. Advantages come from GAE over the value head's predictions.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Callable

import numpy as np

from . import numerics as nm
from .numerics.tensor import exp as t_exp, reduce_sum
from .physchem import DEFAULT_SCALE, DESCRIPTORS, ScaleTable
from .policy import PAD, PolicyModel, encode_batch, sample
from .reward import RewardBatch, RewardConfig, process_rewards
from .rng import substream
from .sequences import write_tsv

LOG_COLUMNS = (
    "iteration",
    "mean_reward",
    "mean_s",
    "frac_active",
    "mean_charge",
    "mean_hydrophobicity",
    "mean_moment",
    "mean_pI",
    "entropy",
    "policy_loss",
    "value_loss",
    "clip_fraction",
    "approx_kl",
    "skipped_updates",
)
_INTEGER_COLUMNS = ("iteration", "skipped_updates")


@dataclass(frozen=True)
class PpoConfig:
    n_actors: int = 32
    horizon: int = 51
    max_len: int = 50
    clip_eps: float = 0.2
    value_coef: float = 0.5
    entropy_coef: float = 0.01
    discount: float = 1.0
    gae_lambda: float = 0.95
    epochs: int = 4
    minibatch_size: int = 8
    lr: float = 1e-3
    iterations: int = 40
    ratio_guard: float = 0.5
    max_logp_gap: float = 50.0
    checkpoint_every: int = 0

    def __post_init__(self) -> None:
        if not (0.0 < self.clip_eps < 1.0):
            raise ValueError(f"clip epsilon must lie in (0,1), got {self.clip_eps}")
        # whitening needs two rewards, and a trajectory one residue and its EOS
        lows = dict(n_actors=2, max_len=1, horizon=2, epochs=1, minibatch_size=1, iterations=1, checkpoint_every=0, value_coef=0)
        for key, low in lows.items():
            if not getattr(self, key) >= low:
                raise ValueError(f"{key} must be >= {low}, got {getattr(self, key)}")
        if not self.lr > 0.0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        for key in ("discount", "gae_lambda"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise ValueError(f"{key} must lie in [0, 1], got {getattr(self, key)}")
        for key in ("ratio_guard", "max_logp_gap"):
            if not getattr(self, key) > 0.0:
                raise ValueError(f"{key} must be positive, got {getattr(self, key)}")


@dataclass
class RolloutBatch:
    ids: np.ndarray
    actions: np.ndarray
    mask: np.ndarray
    old_log_probs: np.ndarray
    values: np.ndarray
    rewards: RewardBatch
    step_rewards: np.ndarray
    mean_entropy: float
    advantages: np.ndarray | None = None
    returns: np.ndarray | None = None

    @property
    def n(self) -> int:
        return self.actions.shape[0]


def rollout(
    policy: PolicyModel,
    reward_fn: Callable,
    cfg: PpoConfig,
    seed: int,
) -> RolloutBatch:
    """Sample N trajectories with the decode's log-probs, values and entropies; score them in one batch, whiten."""
    residue_cap = min(cfg.max_len, cfg.horizon - 1, policy.config.max_len)
    samples = sample(policy, cfg.n_actors, max_len=residue_cap, seed=seed)
    n = len(samples)
    peptides = [s.peptide for s in samples]
    ids = encode_batch(peptides)
    actions = ids[:, 1:]
    mask = (actions != PAD).astype(np.float64)

    try:
        rewards = reward_fn(peptides)
    except Exception as exc:
        raise RuntimeError(f"reward evaluation failed for a batch of {n} sequences: {exc}") from exc

    _, whitened = process_rewards(rewards.r_total)
    old_lp, values, step_entropy, step_rewards = np.zeros((4,) + actions.shape)
    for i, s in enumerate(samples):
        k = s.tokens.size
        old_lp[i, :k], values[i, :k], step_entropy[i, :k] = s.log_probs, s.values, s.entropies
        step_rewards[i, k - 1] = whitened[i]

    return RolloutBatch(
        ids=ids,
        actions=actions,
        mask=mask,
        old_log_probs=old_lp,
        values=values,
        rewards=rewards,
        step_rewards=step_rewards,
        mean_entropy=float((step_entropy * mask).sum() / mask.sum()),
    )


def compute_advantages(batch: RolloutBatch, cfg: PpoConfig) -> RolloutBatch:
    """GAE over the zero-padded terminal-reward trajectories, then whitening.

    One sweep runs backwards over the time steps of all rows at once. Past a
    trajectory's end its value and reward are 0, so its advantage and return
    stay 0 there and its last step sees a next value of 0. Returns are
    discounted reward-to-go sums, the regression targets of the value head;
    at discount 1 every step's return equals the whitened terminal reward.
    """
    advantages = np.zeros(batch.actions.shape)
    returns = np.zeros(batch.actions.shape)
    running_adv = running_ret = next_value = 0.0
    for t in range(batch.actions.shape[1] - 1, -1, -1):
        reward, value = batch.step_rewards[:, t], batch.values[:, t]
        delta = reward + cfg.discount * next_value - value
        running_adv = delta + cfg.discount * cfg.gae_lambda * running_adv
        running_ret = reward + cfg.discount * running_ret
        advantages[:, t], returns[:, t], next_value = running_adv, running_ret, value

    valid = batch.mask > 0.0
    flat = advantages[valid]
    std = flat.std()
    if std < 1e-12:
        advantages[valid] = 0.0
    else:
        advantages[valid] = (flat - flat.mean()) / std
    batch.advantages = advantages
    batch.returns = returns
    return batch


@dataclass
class PpoLosses:
    policy: nm.Tensor
    value: nm.Tensor
    entropy: nm.Tensor
    total: nm.Tensor
    clip_fraction: float
    approx_kl: float
    mean_ratio_dev: float


def ppo_losses(
    new_log_probs: nm.Tensor,
    old_log_probs: np.ndarray,
    advantages: np.ndarray,
    values: nm.Tensor,
    returns: np.ndarray,
    entropy_steps: nm.Tensor,
    mask: np.ndarray,
    cfg: PpoConfig,
) -> PpoLosses:
    """Clipped surrogate + value regression + entropy bonus, masked means."""
    count = mask.sum()
    if count < 1:
        raise ValueError("loss over an empty batch")
    gap = np.abs((new_log_probs.data - old_log_probs) * mask).max()
    if gap > cfg.max_logp_gap:
        raise FloatingPointError(
            f"log-prob gap {gap:.1f} exceeds {cfg.max_logp_gap}; policy has diverged from the rollout snapshot"
        )
    inv = 1.0 / count
    ratio = t_exp(new_log_probs - old_log_probs)
    surrogate = nm.minimum(ratio * advantages, nm.clamp(ratio, 1.0 - cfg.clip_eps, 1.0 + cfg.clip_eps) * advantages)
    l_policy = -reduce_sum(surrogate * mask) * inv
    diff = values - returns
    l_value = reduce_sum(diff * diff * mask) * inv
    h = reduce_sum(entropy_steps * mask) * inv
    total = l_policy + cfg.value_coef * l_value - cfg.entropy_coef * h
    clip_fraction = float(((np.abs(ratio.data - 1.0) > cfg.clip_eps) * mask).sum() / count)
    approx_kl = float(((old_log_probs - new_log_probs.data) * mask).sum() / count)
    mean_ratio_dev = float((np.abs(ratio.data - 1.0) * mask).sum() / count)
    return PpoLosses(
        policy=l_policy,
        value=l_value,
        entropy=h,
        total=total,
        clip_fraction=clip_fraction,
        approx_kl=approx_kl,
        mean_ratio_dev=mean_ratio_dev,
    )


def _minibatch_losses(policy: PolicyModel, batch: RolloutBatch, sel: np.ndarray, cfg: PpoConfig) -> PpoLosses:
    """PPO losses of the trajectories `sel`, over their packed non-PAD positions."""
    values_t, lp_t, rows = policy.values_and_log_probs(batch.ids[sel, :-1])
    mask, actions, old_lp, advantages, returns = (
        grid[sel].reshape(-1)[rows]
        for grid in (batch.mask, batch.actions, batch.old_log_probs, batch.advantages, batch.returns)
    )
    new_lp = nm.gather_last(lp_t, np.where(mask > 0.0, actions, 0))
    entropy_steps = -reduce_sum(t_exp(lp_t) * lp_t, axis=-1)
    return ppo_losses(new_lp, old_lp, advantages, values_t, returns, entropy_steps, mask, cfg)


def train_rl(
    policy: PolicyModel,
    scorer,
    reward_cfg: RewardConfig,
    cfg: PpoConfig,
    seed: int = 0,
    log_sink: str | Path | IO[str] | None = None,
    checkpoint_dir: str | Path | None = None,
    scale: ScaleTable = DEFAULT_SCALE,
) -> tuple[PolicyModel, list[dict]]:
    """Iterate rollout -> advantages -> clipped updates over the LoRA policy.

    The policy must already carry LoRA deltas (the base stays frozen), and
    rewards use descriptors on `scale`. Updates whose mean |ratio - 1|
    exceeds the guard are skipped and counted in the log row.
    """
    if not policy.lora:
        raise ValueError("RL fine-tuning requires a LoRA-attached policy")
    from .reward import make_reward_fn

    reward_fn = make_reward_fn(scorer, reward_cfg, scale)
    params = policy.trainable()
    opt = nm.Adam(params, lr=cfg.lr)
    rows_log: list[dict] = []

    for iteration in range(1, cfg.iterations + 1):
        it_seed = int(substream(seed, f"ppo.rollout.{iteration}").integers(1 << 62))
        batch = rollout(policy, reward_fn, cfg, seed=it_seed)
        compute_advantages(batch, cfg)

        shuffle_rng = substream(seed, f"ppo.shuffle.{iteration}")
        policy_losses: list[float] = []
        value_losses: list[float] = []
        clip_fracs: list[float] = []
        kls: list[float] = []
        skipped = 0
        for _ in range(cfg.epochs):
            order = shuffle_rng.permutation(batch.n)
            for start in range(0, batch.n, cfg.minibatch_size):
                rows = order[start : start + cfg.minibatch_size]
                losses = _minibatch_losses(policy, batch, rows, cfg)
                if losses.mean_ratio_dev > cfg.ratio_guard:
                    skipped += 1
                    del losses  # its graph, unwalked, goes before the next forward
                    continue
                opt.zero_grad()
                losses.total.backward()
                opt.step()
                policy_losses.append(losses.policy.item())
                value_losses.append(losses.value.item())
                clip_fracs.append(losses.clip_fraction)
                kls.append(losses.approx_kl)

        column = dict(zip(DESCRIPTORS, batch.rewards.descriptors.T))
        row = {
            "iteration": iteration,
            "mean_reward": float(np.mean(batch.rewards.r_total)),
            "mean_s": float(np.mean(batch.rewards.s)),
            "frac_active": float(np.mean(batch.rewards.s >= reward_cfg.breakpoint)),
            "mean_charge": float(np.mean(column["net_charge"])),
            "mean_hydrophobicity": float(np.mean(column["hydrophobicity"])),
            "mean_moment": float(np.mean(column["hydrophobic_moment"])),
            "mean_pI": float(np.mean(column["isoelectric_point"])),
            "entropy": batch.mean_entropy,
            "policy_loss": float(np.mean(policy_losses)) if policy_losses else 0.0,
            "value_loss": float(np.mean(value_losses)) if value_losses else 0.0,
            "clip_fraction": float(np.mean(clip_fracs)) if clip_fracs else 0.0,
            "approx_kl": float(np.mean(kls)) if kls else 0.0,
            "skipped_updates": skipped,
        }
        rows_log.append(row)
        if cfg.checkpoint_every and checkpoint_dir and iteration % cfg.checkpoint_every == 0:
            policy.save(Path(checkpoint_dir) / f"policy_iter{iteration:04d}.ckpt", meta={"iteration": iteration})

    if log_sink is not None:
        write_training_log(rows_log, log_sink)
    return policy, rows_log


def write_training_log(rows: list[dict], sink: str | Path | IO[str]) -> None:
    """TSV with one row per iteration in the documented column order."""
    cells = [[str(row[c]) if c in _INTEGER_COLUMNS else repr(float(row[c])) for c in LOG_COLUMNS] for row in rows]
    write_tsv(LOG_COLUMNS, cells, sink)
