"""The grid PPO path that the packed one replaced, kept as a test oracle.

The policy used to put its packed outputs back on the padded (B, T) grid
through an autodiff `place_rows` node, with 0.0 at PAD, and `ppo` masked
the padding away. `action_log_probs` and `values_and_log_probs` are those
grid outputs, `sequence_log_probs` the rescoring built on them, and
`rollout_values_and_entropy` and `minibatch_losses` the code of
`ppo.rollout` and `ppo._minibatch_losses` that read them, verbatim.
`test_ppo.py` and `test_policy.py` check the packed path against them.
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


def action_log_probs(policy, ids):
    """Log-probabilities over actions at every position, shape (B, T, 21); PAD positions hold 0.0."""
    lp, rows = policy.packed_log_probs(ids)
    return _unpack(lp, rows, ids.shape + (N_ACTIONS,))


def values_and_log_probs(policy, ids):
    """Per-position state values (B, T) and action log-probs (B, T, 21); PAD positions hold 0.0 in both."""
    hidden, rows = policy.forward_hidden(ids)
    values = nm.matmul(hidden, policy.params["value.w"]) + policy.params["value.b"]
    lp = policy._action_head(hidden, rows, ids.shape[1])
    return _unpack(values, rows, ids.shape), _unpack(lp, rows, ids.shape + (N_ACTIONS,))


def sequence_log_probs(model, ids):
    """Per-position log-probs of the realized tokens; PAD positions get 0."""
    inputs = ids[:, :-1]
    targets = ids[:, 1:]
    mask = targets != PAD
    safe_targets = np.where(mask, targets, 0)
    lp = action_log_probs(model, inputs).data
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
