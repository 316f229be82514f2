"""Autoregressive policy: tokenization, forward pass, sampling, SFT, LoRA."""
from dataclasses import asdict

import numpy as np
import pytest

import amprl.numerics as nm
from amprl.cli import main
from amprl.numerics.tensor import reduce_sum
from amprl.policy import (
    BOS,
    EOS,
    PAD,
    ModelConfig,
    PolicyModel,
    SftConfig,
    attach_lora,
    decode_tokens,
    encode_batch,
    perplexity,
    sample,
    sequence_log_probs,
    sft_loss,
    train_sft,
)
from amprl.sequences import Peptide

import encoding_oracle
import sampler_oracle
import trunk_oracle
from conftest import RESIDUES, random_peptides

TOY = ModelConfig(embed_dim=16, n_layers=2, n_heads=2, max_len=20, mlp_ratio=2, init_std=0.02)
# the reduced model of the benchmark workloads
BENCH = ModelConfig(embed_dim=64, n_layers=2, n_heads=4, max_len=40, mlp_ratio=4, init_std=0.02)


def _pep(residues, pid="t"):
    return Peptide(pid, residues, "natural")


def test_token_scheme():
    assert (EOS, BOS, PAD) == (20, 21, 22)
    batch = encode_batch([_pep("ACD"), _pep("KLWKLW")])
    ids = batch.ids
    assert ids.shape == (2, 8)  # BOS + 6 residues + EOS for the longest row
    assert (ids[:, 0] == BOS).all()
    assert list(ids[0]) == [BOS, 0, 1, 2, EOS, PAD, PAD, PAD]
    # exactly one EOS per row, PAD only after it
    for row in ids:
        eos_at = np.flatnonzero(row == EOS)
        assert eos_at.size == 1
        assert (row[eos_at[0] + 1:] == PAD).all()


@pytest.mark.parametrize("pad_to", [None, 3, 60])
def test_encode_batch_matches_per_residue_oracle(pad_to):
    rng = np.random.default_rng(4)
    peps = [_pep(r) for r in RESIDUES] + [_pep(RESIDUES)] + random_peptides(40, rng, min_len=1, max_len=50)
    for batch in (peps, peps[:1], peps[-7:]):
        ids = encode_batch(batch, pad_to=pad_to).ids
        expected = encoding_oracle.encode_batch(batch, pad_to=pad_to)
        assert ids.dtype == expected.dtype and np.array_equal(ids, expected)


def test_decode_inverts_encode():
    batch = encode_batch([_pep("MNPQRST")])
    # decode consumes action ids: everything after the BOS, stopping at EOS
    assert decode_tokens(batch.ids[0][1:]) == "MNPQRST"


def test_init_is_seed_deterministic():
    a = PolicyModel.init(TOY, seed=4)
    b = PolicyModel.init(TOY, seed=4)
    c = PolicyModel.init(TOY, seed=5)
    for name, t in a.named_tensors().items():
        assert np.array_equal(t.data, b.named_tensors()[name].data)
    assert any(
        not np.array_equal(t.data, c.named_tensors()[name].data)
        for name, t in a.named_tensors().items()
    )


def test_forward_shape_and_normalization():
    model = PolicyModel.init(TOY, seed=0)
    batch = encode_batch([_pep("ACDEFG"), _pep("KK")])
    out = model.action_log_probs(batch.ids)
    assert out.shape == (2, batch.ids.shape[1], 21)  # 20 residues + EOS actions
    real = batch.ids != PAD
    sums = np.exp(out.data).sum(axis=-1)
    assert np.allclose(sums[real], 1.0, atol=1e-9)
    # PAD positions carry no distribution; they hold the documented filler
    assert (~real).any() and np.all(out.data[~real] == 0.0)


def test_causality_by_perturbation():
    model = PolicyModel.init(TOY, seed=1)
    batch = encode_batch([_pep("ACDEFGHIKL")])
    ids = batch.ids.copy()
    base = model.action_log_probs(ids).data.copy()
    # editing a future token must not change earlier positions
    ids2 = ids.copy()
    ids2[0, 7] = 15
    new = model.action_log_probs(ids2).data
    assert np.allclose(base[0, :7], new[0, :7], atol=1e-12)
    assert not np.allclose(base[0, 7:], new[0, 7:], atol=1e-9)


def test_log_probs_match_sequence_scoring():
    model = PolicyModel.init(TOY, seed=2)
    pep = _pep("KWKWLL")
    lp = sequence_log_probs(model, encode_batch([pep]).ids)[0]
    assert lp.shape == (7,)  # 6 residues + EOS step
    assert (lp <= 0.0).all()
    # perplexity of a single sequence is exp of mean NLL over those steps
    assert perplexity(model, [pep]) == pytest.approx(float(np.exp(-lp.mean())), rel=1e-9)


def test_sampling_is_reproducible_and_respects_budget():
    model = PolicyModel.init(TOY, seed=3)
    a = sample(model, 12, max_len=9, seed=7)
    b = sample(model, 12, max_len=9, seed=7)
    c = sample(model, 12, max_len=9, seed=8)
    assert [s.peptide.residues for s in a] == [s.peptide.residues for s in b]
    assert [s.peptide.residues for s in a] != [s.peptide.residues for s in c]
    for s in a:
        assert 1 <= len(s.peptide.residues) <= 9  # EOS is illegal before step 1
        assert s.tokens[-1] == EOS
        assert s.log_probs.shape == (len(s.peptide.residues) + 1,)


def test_sample_ids_and_source():
    model = PolicyModel.init(TOY, seed=3)
    out = sample(model, 3, max_len=6, seed=0, id_prefix="gen", id_start=5, source="generated_rl")
    assert [s.peptide.id for s in out] == ["gen5", "gen6", "gen7"]
    assert all(s.peptide.source == "generated_rl" for s in out)


def test_top_k_restricts_support():
    model = PolicyModel.init(TOY, seed=10)
    lp = model.action_log_probs(encode_batch([_pep("A")]).ids).data[0, 0]
    top1 = int(np.argmax(lp))
    out = sample(model, 20, max_len=4, seed=3, top_k=1)
    first = {s.tokens[0] for s in out}
    assert first == {top1}


def test_sft_loss_matches_manual_nll():
    model = PolicyModel.init(TOY, seed=4)
    peps = [_pep("ACDEF", "a"), _pep("KLW", "b")]
    batch = encode_batch(peps)
    loss = sft_loss(model, batch)
    lp = model.action_log_probs(batch.ids).data
    total = 0.0
    count = 0
    for r, pep in enumerate(peps):
        targets = [RESIDUES.index(ch) for ch in pep.residues] + [EOS]
        for t, tok in enumerate(targets):
            total -= lp[r, t, tok]
            count += 1
    assert loss.token_count == count
    assert loss.mean.item() == pytest.approx(total / count, rel=1e-9)


def test_sft_ignores_padding():
    model = PolicyModel.init(TOY, seed=5)
    peps = [_pep("ACDEF", "a"), _pep("KLW", "b")]
    tight = sft_loss(model, encode_batch(peps))
    padded = sft_loss(model, encode_batch(peps, pad_to=16))
    assert tight.token_count == padded.token_count
    assert tight.mean.item() == pytest.approx(padded.mean.item(), rel=1e-9)


def _batch(lengths, pad_to=None, seed=0):
    rng = np.random.default_rng(seed)
    return encode_batch(
        [_pep("".join(rng.choice(list(RESIDUES), size=n)), f"p{i}") for i, n in enumerate(lengths)],
        pad_to=pad_to,
    )


def _trunk_case_model(lora):
    model = PolicyModel.init(TOY, seed=21)
    if lora is None:
        return model
    attach_lora(model, rank=2, scaling=4.0, targets=("wq", "wk", "wv", "wo"), freeze_base=lora == "frozen", seed=5)
    rng = np.random.default_rng(22)
    for name, t in model.named_tensors().items():
        if name.endswith("lora_b"):
            t.data += rng.normal(0.0, 0.05, size=t.data.shape)
    return model


# (LoRA: None, "frozen" or "unfrozen" base; peptide lengths; pad_to)
TRUNK_CASES = {
    "lengths_1_to_max_len": (None, list(range(1, TOY.max_len + 1)), None),
    "no_pad": (None, [9, 9, 9, 9], None),
    "extra_pad_columns": (None, [4, 1, 11, 6], TOY.context_len),
    "lora_frozen_base": ("frozen", [3, 17, 8, 12, 1], None),
    "lora_unfrozen_base": ("unfrozen", [5, 2, 14], TOY.context_len - 3),
}


def _grads(model, loss):
    for p in model.trainable():
        p.grad = None
    loss.backward()
    return [np.zeros_like(p.data) if p.grad is None else p.grad.copy() for p in model.trainable()]


def _assert_grads_close(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert np.max(np.abs(g - w)) <= 1e-12 * max(np.max(np.abs(w)), 1e-300)


@pytest.mark.parametrize("case", sorted(TRUNK_CASES))
def test_packed_trunk_matches_padded_oracle(case):
    lora, lengths, pad_to = TRUNK_CASES[case]
    model = _trunk_case_model(lora)
    batch = _batch(lengths, pad_to, seed=len(lengths))
    ids = batch.ids
    for inputs in (ids, ids[:, :-1]):
        real = inputs != PAD
        got_lp = model.action_log_probs(inputs).data
        assert np.max(np.abs(got_lp[real] - trunk_oracle.action_log_probs(model, inputs).data[real])) <= 1e-12
        values, lp = model.values_and_log_probs(inputs)
        want_values, want_lp = trunk_oracle.values_and_log_probs(model, inputs)
        assert np.max(np.abs(values.data[real] - want_values.data[real])) <= 1e-12
        assert np.max(np.abs(lp.data[real] - want_lp.data[real])) <= 1e-12
        assert np.all(values.data[~real] == 0.0) and np.all(lp.data[~real] == 0.0)

    got = sft_loss(model, batch)
    want_total, want_count = trunk_oracle.sft_loss_total(model, ids)
    assert got.token_count == want_count == sum(lengths) + len(lengths)
    assert abs(got.total.item() - want_total.item()) <= 1e-12 * abs(want_total.item())
    _assert_grads_close(_grads(model, got.total), _grads(model, want_total))

    # the PPO path: values and log-probs leave the trunk through the grid
    inputs = ids[:, :-1]
    mask = (ids[:, 1:] != PAD).astype(np.float64)
    picks = np.where(ids[:, 1:] == PAD, 0, ids[:, 1:])
    weights = np.random.default_rng(3).normal(size=mask.shape) * mask

    def ppo_like(values, lp):
        return reduce_sum(values * weights) - reduce_sum(nm.gather_last(lp, picks) * mask)

    _assert_grads_close(
        _grads(model, ppo_like(*model.values_and_log_probs(inputs))),
        _grads(model, ppo_like(*trunk_oracle.values_and_log_probs(model, inputs))),
    )


def test_trunk_rejects_pad_before_a_real_token():
    model = PolicyModel.init(TOY, seed=0)
    ids = np.array([[BOS, 3, 4, EOS, PAD], [BOS, 5, PAD, 6, EOS]])
    for call in (model.action_log_probs, model.values_and_log_probs):
        with pytest.raises(ValueError, match="PAD only after"):
            call(ids)


def test_sft_loss_grad_check_with_padding_and_lora():
    config = ModelConfig(embed_dim=8, n_layers=1, n_heads=2, max_len=10, mlp_ratio=2, init_std=0.05)
    model = attach_lora(
        PolicyModel.init(config, seed=6), rank=2, scaling=2.0, targets=("wq", "wk", "wv", "wo"), freeze_base=False, seed=7
    )
    rng = np.random.default_rng(8)
    for name, t in model.named_tensors().items():
        if name.endswith("lora_b"):
            t.data += rng.normal(0.0, 0.1, size=t.data.shape)
    batch = _batch([1, 3, 8], pad_to=config.context_len, seed=9)
    assert batch.ids.shape[1] > 8 + 2  # PAD columns beyond the longest row
    err = nm.grad_check(lambda: sft_loss(model, batch).mean, model.trainable(), atol=1e-5)
    assert err < 1e-4


def test_train_sft_improves_and_restores_best(tmp_path):
    rng = np.random.default_rng(6)
    # tiny skewed corpus: K/L-rich so there is signal to learn
    corpus = []
    for i in range(40):
        length = int(rng.integers(5, 10))
        corpus.append(Peptide(f"c{i}", "".join(rng.choice(list("KLW"), size=length)), "natural"))
    model = PolicyModel.init(TOY, seed=0)
    before = perplexity(model, corpus[32:])
    result = train_sft(model, corpus[:32], corpus[32:], SftConfig(epochs=5, batch_size=8, lr=3e-3, patience=5, seed=0))
    assert result.best_val_perplexity < before
    assert result.best_val_perplexity == pytest.approx(
        min(row["val_perplexity"] for row in result.history), rel=1e-12
    )
    assert perplexity(result.model, corpus[32:]) == pytest.approx(result.best_val_perplexity, rel=1e-9)


def test_save_load_round_trip(tmp_path):
    model = PolicyModel.init(TOY, seed=11)
    path = tmp_path / "policy.ckpt"
    model.save(path, meta={"stage": "sft"})
    loaded = PolicyModel.load(path)
    ids = encode_batch([_pep("ACDEFGH")]).ids
    assert np.array_equal(model.action_log_probs(ids).data, loaded.action_log_probs(ids).data)


def test_init_creates_no_key_bias():
    # a key bias shifts every score of a softmax row alike, so it would get no gradient
    names = PolicyModel.init(TOY, seed=0).named_tensors()
    assert not [name for name in names if name.endswith(".kb")]
    assert "layer0.attn.qb" in names and "layer0.attn.vb" in names


@pytest.mark.parametrize("edit", ["extra", "missing"])
def test_load_rejects_tensor_names_the_config_does_not_define(tmp_path, capsys, edit):
    model = PolicyModel.init(TOY, seed=11)
    tensors = {name: t.data for name, t in model.named_tensors().items()}
    if edit == "extra":  # a checkpoint written while keys still had a bias
        tensors["layer1.attn.kb"] = np.zeros(TOY.embed_dim)
        tensors["layer0.attn.kb"] = np.zeros(TOY.embed_dim)
        named = "layer0.attn.kb"
    else:
        named = "layer1.mlp.b2"
        del tensors[named]
    path = tmp_path / "policy.ckpt"
    nm.save_checkpoint(path, tensors, meta={"model_config": asdict(TOY)})
    with pytest.raises(ValueError, match=named):
        PolicyModel.load(path)
    out = tmp_path / "out"
    assert main(["sample", "--checkpoint", str(path), "--output-dir", str(out)]) == 1
    assert named in capsys.readouterr().err
    assert not (out / "samples.fasta").exists()


def test_lora_attach_preserves_function_and_freezes_base():
    base = PolicyModel.init(TOY, seed=12)
    ids = encode_batch([_pep("KWKWKW")]).ids
    reference = base.action_log_probs(ids).data.copy()
    tuned = attach_lora(base, rank=2, scaling=1.0, seed=1)
    # the low-rank delta starts at zero, so the function is unchanged
    assert np.allclose(tuned.action_log_probs(ids).data, reference, atol=1e-12)
    trainable_names = {
        name for name, t in tuned.named_tensors().items() if any(t is p for p in tuned.trainable())
    }
    assert trainable_names
    for name in trainable_names:
        assert "lora" in name or "value" in name


def test_lora_round_trip_through_checkpoint(tmp_path):
    ids = encode_batch([_pep("ACDKLM")]).ids
    model = PolicyModel.init(TOY, seed=13)
    base_out = model.action_log_probs(ids).data.copy()  # attach_lora mutates in place
    tuned = attach_lora(model, rank=2, scaling=0.5, seed=2)
    # perturb the zero factor so the adapter actually matters
    for name, t in tuned.named_tensors().items():
        if name.endswith("lora_b"):
            t.data += 0.05
    path = tmp_path / "rl.ckpt"
    tuned.save(path)
    loaded = PolicyModel.load(path)
    assert np.array_equal(tuned.action_log_probs(ids).data, loaded.action_log_probs(ids).data)
    assert not np.allclose(loaded.action_log_probs(ids).data, base_out, atol=1e-9)


def _lora_policy(config, seed):
    """A LoRA-attached policy whose adapters change the function."""
    model = attach_lora(PolicyModel.init(config, seed=seed), rank=4, scaling=8.0, targets=("wq", "wk", "wv", "wo"), seed=seed)
    rng = np.random.default_rng(seed)
    for name, t in model.named_tensors().items():
        if name.endswith("lora_b"):
            t.data += rng.normal(0.0, 0.05, size=t.data.shape)
    return model


# (config, LoRA attached, rows, sample keyword arguments)
DIFFERENTIAL_CASES = {
    "default": (ModelConfig(), False, 4, {"seed": 1}),
    "bench": (BENCH, False, 8, {"seed": 2}),
    "bench_lora_tempered": (BENCH, True, 8, {"seed": 3, "temperature": 0.7}),
    "toy_lora_top_k": (TOY, True, 12, {"seed": 4, "top_k": 3, "temperature": 1.5}),
    "bench_short_cap": (BENCH, True, 10, {"seed": 6, "max_len": 5}),
    "toy_ids": (TOY, False, 6, {"seed": 7, "id_prefix": "rl", "id_start": 3, "source": "generated_rl"}),
}


@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
def test_cached_sampler_matches_full_prefix_oracle(case):
    config, lora, n, kwargs = DIFFERENTIAL_CASES[case]
    model = _lora_policy(config, seed=11) if lora else PolicyModel.init(config, seed=11)
    got = sample(model, n, **kwargs)
    want = sampler_oracle.sample(model, n, **kwargs)
    assert len(got) == len(want) == n
    for g, w in zip(got, want):
        assert g.peptide == w.peptide
        assert np.array_equal(g.tokens, w.tokens)
        assert g.terminated == w.terminated
        assert g.log_probs.shape == w.log_probs.shape
        assert np.max(np.abs(g.log_probs - w.log_probs)) <= 1e-12
    if "max_len" in kwargs:
        assert not all(g.terminated for g in got)  # EOS forced at the residue cap
    else:
        # rows finish at different steps, so dead rows are fed PAD while others decode
        assert len({g.tokens.size for g in got}) > 1


def test_sampled_log_probs_match_rescoring():
    model = _lora_policy(BENCH, seed=12)
    draws = sample(model, 16, seed=9, temperature=0.8)
    width = max(d.tokens.size for d in draws) + 1
    ids = np.full((len(draws), width), PAD, dtype=np.int64)
    ids[:, 0] = BOS
    for i, d in enumerate(draws):
        ids[i, 1 : d.tokens.size + 1] = d.tokens
    rescored = sequence_log_probs(model, ids)
    for i, d in enumerate(draws):
        assert np.max(np.abs(rescored[i, : d.tokens.size] - d.log_probs)) <= 1e-9


def test_sample_fails_loudly_on_a_nan_weight():
    model = PolicyModel.init(TOY, seed=13)
    model.params["layer1.mlp.w1"].data[3, 5] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite"):
        sample(model, 4, seed=0)
