"""The sampler that `amprl.policy.sample` replaced, kept as a test oracle.

At every step it runs the whole growing prefix through the padded autodiff
trunk of `trunk_oracle` and reads the last position's logits and state
value; a step's entropy is that of its untempered log-probs. `test_policy.py`
checks the KV-cached decoder against it token for token.
"""
import numpy as np

import amprl.numerics as nm
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
    id_prefix="gen",
    id_start=0,
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
        pep = Peptide(id=f"{id_prefix}{id_start + i}", residues=residues, source=source)
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
