"""Two earlier forms of the policy's training forward, kept as test oracles.

`forward_hidden` is the padded trunk: every op runs on the full (B, T)
grid, PAD positions included, and the losses multiply a mask over PAD.
`test_policy.py` checks the packed forward against it at every non-PAD
position: log-probs, values, the SFT loss and every trainable gradient.

`packed_values_and_log_probs` is the packed forward as it stood before
training and sampling shared one `_trunk`: the layer loop, final LayerNorm
and heads written out on autodiff tensors. `test_policy.py` checks
`values_and_log_probs` and `sft_loss` against it bit for bit.

`composed_attention` is the chain of elementary autodiff ops that
`nm.causal_attention` fused into one node; `test_numerics.py` checks the
fused node against it bit for bit. `place_rows` is the op that put packed
rows on the grid for it and for the grid PPO path of `ppo_oracle`.
"""
import numpy as np

import amprl.numerics as nm
from amprl.numerics.tensor import _node, _wrap, reduce_sum
from amprl.policy import BOS, EOS, N_ACTIONS, NEG, PAD


def transpose(a, axes=None):
    """Swap the last two axes, or permute by `axes`."""
    a = _wrap(a)
    if axes is None:
        data = np.swapaxes(a.data, -1, -2)

        def backward(g):
            return (np.swapaxes(g, -1, -2),)

    else:
        inverse = np.argsort(axes)
        data = np.transpose(a.data, axes)

        def backward(g):
            return (np.transpose(g, inverse),)

    return _node(data, (a,), backward, "transpose")


def place_rows(a, rows, n):
    """Row i of `a` at row rows[i] of an n-row zero array; rows must be distinct.

    The gradient gathers those rows back.
    """
    a = _wrap(a)
    data = np.zeros((n,) + a.data.shape[1:])
    data[rows] = a.data

    def backward(g):
        return (g[rows],)

    return _node(data, (a,), backward, "place_rows")


def take_rows(a, rows):
    """Rows `rows` of `a`, which must be distinct; the gradient places them back."""
    a = _wrap(a)

    def backward(g):
        ga = np.zeros_like(a.data)
        ga[rows] = g
        return (ga,)

    return _node(a.data[rows], (a,), backward, "take_rows")


def causal_mask(t):
    """Additive attention mask: 0 at or before the query position, -1e9 after."""
    mask = np.zeros((t, t), dtype=np.float64)
    mask[np.triu_indices(t, k=1)] = -1e9
    return mask


def _grid_attention(q, k, v, heads):
    """Causal multi-head attention of (B, T, D) tensors, from elementary ops."""
    b, t, d = q.shape
    dh = d // heads

    def split(a):
        return transpose(a.reshape((b, t, heads, dh)), (0, 2, 1, 3))

    scores = nm.matmul(split(q), transpose(split(k))) * (1.0 / np.sqrt(dh)) + causal_mask(t)
    att = nm.softmax(scores, axis=-1)
    return transpose(nm.matmul(att, split(v)), (0, 2, 1, 3)).reshape((b, t, d))


def composed_attention(q, k, v, rows, shape, heads):
    """`nm.causal_attention` from elementary ops: place the packed rows on the
    (B, T) grid, attend there, and take the real rows back."""
    b, t = shape
    d = q.shape[-1]

    def grid(a):
        return place_rows(a, rows, b * t).reshape((b, t, d))

    return take_rows(_grid_attention(grid(q), grid(k), grid(v), heads).reshape((b * t, d)), rows)


def forward_hidden(model, ids):
    """Final-layer hidden states, shape (B, T, D)."""
    cfg = model.config
    b, t = ids.shape
    if t > cfg.context_len:
        raise ValueError(f"input length {t} exceeds context {cfg.context_len}")
    if not np.all(ids[:, 0] == BOS):
        raise ValueError("the policy expects BOS-prefixed rows")
    p = model.params

    x = nm.embedding(p["tok_embed"], ids) + nm.embedding(p["pos_embed"], np.arange(t))
    for i in range(cfg.n_layers):
        pre = f"layer{i}"
        h = nm.layer_norm(x, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
        q = nm.matmul(h, model._weight(f"{pre}.attn.wq")) + p[f"{pre}.attn.qb"]
        k = nm.matmul(h, model._weight(f"{pre}.attn.wk"))
        v = nm.matmul(h, model._weight(f"{pre}.attn.wv")) + p[f"{pre}.attn.vb"]
        ctx = _grid_attention(q, k, v, cfg.n_heads)
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


def packed_values_and_log_probs(model, ids):
    """Values (N,), action log-probs (N, 21) and flat indices of the non-PAD positions of `ids`."""
    cfg = model.config
    b, t = ids.shape
    p = model.params
    rows = np.flatnonzero(ids != PAD)
    x = nm.embedding(p["tok_embed"], ids.reshape(-1)[rows]) + nm.embedding(p["pos_embed"], rows % t)
    for i in range(cfg.n_layers):
        pre = f"layer{i}"
        h = nm.layer_norm(x, p[f"{pre}.ln1.g"], p[f"{pre}.ln1.b"])
        q = nm.matmul(h, model._weight(f"{pre}.attn.wq")) + p[f"{pre}.attn.qb"]
        k = nm.matmul(h, model._weight(f"{pre}.attn.wk"))
        v = nm.matmul(h, model._weight(f"{pre}.attn.wv")) + p[f"{pre}.attn.vb"]
        ctx = nm.causal_attention(q, k, v, rows, (b, t), cfg.n_heads)
        x = x + nm.matmul(ctx, model._weight(f"{pre}.attn.wo")) + p[f"{pre}.attn.ob"]
        h2 = nm.layer_norm(x, p[f"{pre}.ln2.g"], p[f"{pre}.ln2.b"])
        m = nm.gelu(nm.matmul(h2, p[f"{pre}.mlp.w1"]) + p[f"{pre}.mlp.b1"])
        x = x + nm.matmul(m, p[f"{pre}.mlp.w2"]) + p[f"{pre}.mlp.b2"]
    hidden = nm.layer_norm(x, p["ln_f.g"], p["ln_f.b"])
    values = nm.matmul(hidden, p["value.w"]) + p["value.b"]
    logits = nm.matmul(hidden, p["head.w"]) + p["head.b"]
    eos_mask = np.zeros(logits.shape)
    eos_mask[rows % t == 0, EOS] = NEG
    return values.reshape((rows.size,)), nm.log_softmax(logits + eos_mask, axis=-1), rows


def packed_sft_loss_total(model, ids):
    """`sft_loss`'s summed next-token NLL over `packed_values_and_log_probs`."""
    _, log_probs, rows = packed_values_and_log_probs(model, ids[:, :-1])
    targets = ids[:, 1:].reshape(-1)[rows]
    mask = (targets != PAD).astype(np.float64)
    return -reduce_sum(nm.gather_last(log_probs, np.where(targets == PAD, 0, targets)) * mask)
