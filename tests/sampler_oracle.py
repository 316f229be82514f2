"""Two earlier forms of `amprl.policy.sample`, kept as test oracles.

`sample` runs, at every step, the whole growing prefix through the padded
autodiff trunk of `trunk_oracle` and reads the last position's logits and
state value; a step's entropy is that of its untempered log-probs.
`test_policy.py` checks the KV-cached decoder against it token for token.

`cached_sample` is the KV-cached sampler as it stood before training and
sampling shared one `_trunk`: `_Decoder` writes the layer loop, final
LayerNorm and heads out on plain arrays. `test_policy.py` checks `sample`
against it bit for bit.
"""
import numpy as np

import amprl.numerics as nm
from amprl.numerics.tensor import _attention, _gelu, _layer_norm, _log_softmax, _softmax
from amprl.policy import BOS, EOS, N_ACTIONS, NEG, PAD, SampledSequence, decode_tokens
from amprl.rng import substream
from amprl.sequences import Peptide

import trunk_oracle


def sample(
    model,
    n,
    temperature=1.0,
    top_k=None,
    max_len=None,
    seed=0,
):
    limit = model.config.max_len if max_len is None else min(max_len, model.config.max_len)
    rng = substream(seed, "policy.sample")

    rows = np.full((n, 1), BOS, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    token_lists = [[] for _ in range(n)]
    lp_lists = [[] for _ in range(n)]
    value_lists = [[] for _ in range(n)]
    entropy_lists = [[] for _ in range(n)]

    for step in range(limit + 1):
        hidden = trunk_oracle.forward_hidden(model, rows)
        logits = (nm.matmul(hidden, model.params["head.w"]) + model.params["head.b"]).data[:, -1, :].copy()
        values = (nm.matmul(hidden, model.params["value.w"]) + model.params["value.b"]).data[:, -1, 0]
        if step == 0:
            logits[:, EOS] = NEG
        base_lp = _log_softmax_rows(logits)
        sample_logits = logits / temperature
        if step == limit:
            sample_logits = np.where(np.arange(N_ACTIONS) == EOS, sample_logits, NEG)
        if top_k is not None:
            kth = np.partition(sample_logits, -top_k, axis=-1)[:, -top_k][:, None]
            sample_logits = np.where(sample_logits < kth, NEG, sample_logits)
        probs = _softmax_rows(sample_logits)
        u = rng.random(n)
        cum = np.cumsum(probs, axis=-1)
        choices = np.minimum((cum < u[:, None]).sum(axis=-1), N_ACTIONS - 1)
        was_alive = alive.copy()
        for i in range(n):
            if not was_alive[i]:
                continue
            token = int(choices[i])
            token_lists[i].append(token)
            lp_lists[i].append(float(base_lp[i, token]))
            value_lists[i].append(float(values[i]))
            entropy_lists[i].append(float(-np.sum(np.exp(base_lp[i]) * base_lp[i])))
            if token == EOS:
                alive[i] = False
        if not alive.any():
            break
        col = np.where(was_alive, choices, PAD).astype(np.int64)
        rows = np.concatenate([rows, col[:, None]], axis=1)

    source = "generated_rl" if model.lora else "generated_sft"
    out = []
    for i in range(n):
        tokens = np.array(token_lists[i], dtype=np.int64)
        residues = decode_tokens(tokens)
        pep = Peptide(id=f"gen{i}", residues=residues, source=source)
        out.append(
            SampledSequence(
                peptide=pep,
                tokens=tokens,
                log_probs=np.array(lp_lists[i]),
                values=np.array(value_lists[i]),
                entropies=np.array(entropy_lists[i]),
                terminated=len(residues) < limit,
            )
        )
    return out


def _softmax_rows(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def _log_softmax_rows(logits):
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def cached_sample(
    model,
    n,
    temperature=1.0,
    top_k=None,
    max_len=None,
    seed=0,
):
    limit = model.config.max_len if max_len is None else min(max_len, model.config.max_len)
    rng = substream(seed, "policy.sample")
    decoder = _Decoder(model, n, limit + 1)

    tokens = np.full((n, limit + 1), PAD, dtype=np.int64)
    lps, values, entropies = np.zeros((3, n, limit + 1))
    lengths = np.zeros(n, dtype=np.int64)
    alive = np.ones(n, dtype=bool)
    feed = np.full(n, BOS, dtype=np.int64)

    for step in range(limit + 1):
        logits, step_values = decoder.step(feed)
        if step == 0:
            logits[:, EOS] = NEG
        base_lp = _log_softmax(logits)
        sample_logits = logits / temperature
        if step == limit:
            sample_logits = np.where(np.arange(N_ACTIONS) == EOS, sample_logits, NEG)
        if top_k is not None:
            kth = np.partition(sample_logits, -top_k, axis=-1)[:, -top_k][:, None]
            sample_logits = np.where(sample_logits < kth, NEG, sample_logits)
        probs = _softmax(sample_logits)
        u = rng.random(n)
        cum = np.cumsum(probs, axis=-1)
        choices = np.minimum((cum < u[:, None]).sum(axis=-1), N_ACTIONS - 1)
        rows = np.flatnonzero(alive)
        tokens[rows, step] = choices[rows]
        lps[rows, step] = base_lp[rows, choices[rows]]
        values[rows, step] = step_values[rows]
        entropies[rows, step] = -(np.exp(base_lp) * base_lp).sum(axis=-1)[rows]
        lengths[rows] += 1
        feed = np.where(alive, choices, PAD)
        alive &= choices != EOS
        if not alive.any():
            break

    source = "generated_rl" if model.lora else "generated_sft"
    out = []
    for i in range(n):
        k = int(lengths[i])
        residues = decode_tokens(tokens[i, :k])
        pep = Peptide(id=f"gen{i}", residues=residues, source=source)
        out.append(
            SampledSequence(
                peptide=pep,
                tokens=tokens[i, :k].copy(),
                log_probs=lps[i, :k].copy(),
                values=values[i, :k].copy(),
                entropies=entropies[i, :k].copy(),
                terminated=len(residues) < limit,
            )
        )
    return out


class _Decoder:
    """One token per row per step, on plain arrays, over a per-layer key/value cache."""

    def __init__(self, model, n, steps):
        cfg = model.config
        self.config = cfg
        with nm.no_grad():
            self.w = {name: model._weight(name).data for name in model.params}
        dh = cfg.embed_dim // cfg.n_heads
        self.cache = [
            (np.zeros((n, cfg.n_heads, steps, dh)), np.zeros((n, cfg.n_heads, steps, dh)))
            for _ in range(cfg.n_layers)
        ]
        self.pos = 0

    def step(self, feed):
        """Next-action logits (n, 21) and state values (n,) after feeding one token per row."""
        cfg, w, t = self.config, self.w, self.pos
        n = feed.shape[0]
        heads = cfg.n_heads
        dh = cfg.embed_dim // heads
        x = w["tok_embed"][feed] + w["pos_embed"][t]
        for i, (k_cache, v_cache) in enumerate(self.cache):
            pre = f"layer{i}"
            h = _layer_norm(x, w[f"{pre}.ln1.g"], w[f"{pre}.ln1.b"])[0]
            q = (np.matmul(h, w[f"{pre}.attn.wq"]) + w[f"{pre}.attn.qb"]).reshape((n, heads, 1, dh))
            k_cache[:, :, t] = np.matmul(h, w[f"{pre}.attn.wk"]).reshape((n, heads, dh))
            v_cache[:, :, t] = (np.matmul(h, w[f"{pre}.attn.wv"]) + w[f"{pre}.attn.vb"]).reshape((n, heads, dh))
            ctx = _attention(q, k_cache[:, :, : t + 1], v_cache[:, :, : t + 1])[0].reshape((n, cfg.embed_dim))
            x = x + np.matmul(ctx, w[f"{pre}.attn.wo"]) + w[f"{pre}.attn.ob"]
            h2 = _layer_norm(x, w[f"{pre}.ln2.g"], w[f"{pre}.ln2.b"])[0]
            m = _gelu(np.matmul(h2, w[f"{pre}.mlp.w1"]) + w[f"{pre}.mlp.b1"])[0]
            x = x + np.matmul(m, w[f"{pre}.mlp.w2"]) + w[f"{pre}.mlp.b2"]
        x = _layer_norm(x, w["ln_f.g"], w["ln_f.b"])[0]
        logits = np.matmul(x, w["head.w"]) + w["head.b"]
        values = (np.matmul(x, w["value.w"]) + w["value.b"]).reshape((n,))
        self.pos += 1
        return logits, values
