"""The grid PPO path that the packed one replaced, kept as a test oracle.

The policy used to put its packed outputs back on the padded (B, T) grid
through an autodiff `place_rows` node, with 0.0 at PAD, and `ppo` masked
the padding away. `values_and_log_probs` gives those grid outputs,
`sequence_log_probs` the rescoring built on them, and
`rollout_values_and_entropy` and `minibatch_losses` the code of
`ppo.rollout` and `ppo._minibatch_losses` that read them, verbatim.
`ppo.rollout` has since stopped running a forward of its own: it takes
values and entropies from the decode, which `rollout_values_and_entropy`
recomputes from a second full forward of the sampled batch.
`test_ppo.py` and `test_policy.py` check the packed path against them.

`advantages_and_returns` is `ppo.compute_advantages` as it was before its
one sweep over all rows: a Python loop per row and per step, with the last
step of each trajectory special-cased.
"""
import numpy as np

import amprl.numerics as nm
from amprl.numerics.tensor import exp as t_exp, reduce_sum
from amprl.policy import N_ACTIONS, PAD
from amprl.ppo import ppo_losses

from trunk_oracle import place_rows


def _unpack(packed, rows, shape):
    """Packed rows back on the (B, T, ...) grid `shape`, with 0.0 at PAD."""
    return place_rows(packed, rows, shape[0] * shape[1]).reshape(shape)


def values_and_log_probs(policy, ids):
    """Per-position state values (B, T) and action log-probs (B, T, 21); PAD positions hold 0.0 in both."""
    values, lp, rows = policy.values_and_log_probs(ids)
    return _unpack(values, rows, ids.shape), _unpack(lp, rows, ids.shape + (N_ACTIONS,))


def sequence_log_probs(model, ids):
    """Per-position log-probs of the realized tokens; PAD positions get 0."""
    inputs = ids[:, :-1]
    targets = ids[:, 1:]
    mask = targets != PAD
    safe_targets = np.where(mask, targets, 0)
    lp = values_and_log_probs(model, inputs)[1].data
    picked = np.take_along_axis(lp, safe_targets[..., None], axis=-1)[..., 0]
    return np.where(mask, picked, 0.0)


def rollout_values_and_entropy(policy, ids, mask):
    """`rollout`'s state values (B, T) and mean per-step entropy of the rows `ids`."""
    values_t, log_probs_t = values_and_log_probs(policy, ids[:, :-1])
    values = values_t.data * mask
    lp = log_probs_t.data
    step_entropy = -(np.exp(lp) * lp).sum(axis=-1)
    mean_entropy = float((step_entropy * mask).sum() / mask.sum())
    return values, mean_entropy


def minibatch_losses(policy, batch, rows, cfg):
    ids = batch.ids[rows]
    actions = batch.actions[rows]
    mask = batch.mask[rows]
    safe_actions = np.where(mask > 0.0, actions, 0)
    values_t, lp_t = values_and_log_probs(policy, ids[:, :-1])
    new_lp = nm.gather_last(lp_t, safe_actions)
    entropy_steps = -reduce_sum(t_exp(lp_t) * lp_t, axis=-1)
    return ppo_losses(
        new_lp,
        batch.old_log_probs[rows],
        batch.advantages[rows],
        values_t,
        batch.returns[rows],
        entropy_steps,
        mask,
        cfg,
    )


def advantages_and_returns(batch, cfg):
    """Whitened GAE advantages and discounted returns, both (B, T)."""
    n, t_max = batch.actions.shape
    advantages = np.zeros((n, t_max))
    returns = np.zeros((n, t_max))
    for i in range(n):
        steps = int(batch.mask[i].sum())
        running_adv = 0.0
        running_ret = 0.0
        for t in range(steps - 1, -1, -1):
            next_value = batch.values[i, t + 1] if t + 1 < steps else 0.0
            delta = batch.step_rewards[i, t] + cfg.discount * next_value - batch.values[i, t]
            running_adv = delta + cfg.discount * cfg.gae_lambda * running_adv
            running_ret = batch.step_rewards[i, t] + cfg.discount * running_ret
            advantages[i, t] = running_adv
            returns[i, t] = running_ret

    valid = batch.mask > 0.0
    flat = advantages[valid]
    std = flat.std()
    if std < 1e-12:
        advantages[valid] = 0.0
    else:
        advantages[valid] = (flat - flat.mean()) / std
    return advantages, returns
