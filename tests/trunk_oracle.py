"""The padded trunk that `PolicyModel.forward_hidden` replaced, kept as a test oracle.

Every op runs on the full (B, T) grid, PAD positions included, and the
losses multiply a mask over PAD. `test_policy.py` checks the packed trunk
against it at every non-PAD position: log-probs, values, the SFT loss and
every trainable gradient.
"""
import numpy as np

import amprl.numerics as nm
from amprl.numerics.tensor import reduce_sum, transpose
from amprl.policy import BOS, EOS, N_ACTIONS, NEG, PAD


def forward_hidden(model, ids):
    """Final-layer hidden states, shape (B, T, D)."""
    cfg = model.config
    b, t = ids.shape
    if t > cfg.context_len:
        raise ValueError(f"input length {t} exceeds context {cfg.context_len}")
    if not np.all(ids[:, 0] == BOS):
        raise ValueError("the policy expects BOS-prefixed rows")
    d = cfg.embed_dim
    heads = cfg.n_heads
    dh = d // heads
    mask = nm.causal_mask(t)
    p = model.params

    x = nm.embedding(p["tok_embed"], ids) + nm.embedding(p["pos_embed"], np.arange(t))
    for i in range(cfg.n_layers):
        pre = f"layer{i}"
        h = nm.layer_norm(x, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
        q = nm.matmul(h, model._weight(f"{pre}.attn.wq")) + p[f"{pre}.attn.qb"]
        k = nm.matmul(h, model._weight(f"{pre}.attn.wk"))
        v = nm.matmul(h, model._weight(f"{pre}.attn.wv")) + p[f"{pre}.attn.vb"]
        q = transpose(q.reshape((b, t, heads, dh)), (0, 2, 1, 3))
        k = transpose(k.reshape((b, t, heads, dh)), (0, 2, 1, 3))
        v = transpose(v.reshape((b, t, heads, dh)), (0, 2, 1, 3))
        scores = nm.matmul(q, transpose(k)) * (1.0 / np.sqrt(dh)) + mask
        att = nm.softmax(scores, axis=-1)
        ctx = transpose(nm.matmul(att, v), (0, 2, 1, 3)).reshape((b, t, d))
        x = x + nm.matmul(ctx, model._weight(f"{pre}.attn.wo")) + p[f"{pre}.attn.ob"]
        h2 = nm.layer_norm(x, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])
        m = nm.gelu(nm.matmul(h2, p[f"{pre}.mlp.w1"]) + p[f"{pre}.mlp.b1"])
        x = x + nm.matmul(m, p[f"{pre}.mlp.w2"]) + p[f"{pre}.mlp.b2"]
    return nm.layer_norm(x, p["ln_f.g"], p["ln_f.b"])


def _action_head(model, hidden):
    logits = nm.matmul(hidden, model.params["head.w"]) + model.params["head.b"]
    first_step = np.zeros((hidden.shape[1], N_ACTIONS))
    first_step[0, EOS] = NEG
    return nm.log_softmax(logits + first_step, axis=-1)


def action_log_probs(model, ids):
    return _action_head(model, forward_hidden(model, ids))


def values_and_log_probs(model, ids):
    hidden = forward_hidden(model, ids)
    values = nm.matmul(hidden, model.params["value.w"]) + model.params["value.b"]
    return values.reshape(ids.shape), _action_head(model, hidden)


def sft_loss_total(model, ids):
    """Summed next-token NLL over the non-PAD targets, and their count."""
    inputs = ids[:, :-1]
    targets = ids[:, 1:]
    mask = (targets != PAD).astype(np.float64)
    token_lp = nm.gather_last(action_log_probs(model, inputs), np.where(targets == PAD, 0, targets))
    return -reduce_sum(token_lp * mask), int(mask.sum())
