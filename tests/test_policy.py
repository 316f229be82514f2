"""Autoregressive policy: tokenization, forward pass, sampling, SFT, LoRA."""
import json
from dataclasses import asdict

import numpy as np
import pytest

import amprl.numerics as nm
from amprl.cli import main
from amprl.numerics.tensor import reduce_sum
from amprl.policy import (
    BOS,
    EOS,
    N_ACTIONS,
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
import graph_memory
import ppo_oracle
import sampler_oracle
import trunk_oracle
from conftest import RESIDUES, captured_tensors, random_peptides
from gradcheck import grad_check

TOY = ModelConfig(embed_dim=16, n_layers=2, n_heads=2, max_len=20, mlp_ratio=2, init_std=0.02)
# the reduced model of the benchmark workloads
BENCH = ModelConfig(embed_dim=64, n_layers=2, n_heads=4, max_len=40, mlp_ratio=4, init_std=0.02)


def _pep(residues, pid="t"):
    return Peptide(pid, residues, "natural")


def _widen(ids, width):
    """The ids grid with PAD columns appended up to `width`."""
    return np.pad(ids, ((0, 0), (0, max(width - ids.shape[1], 0))), constant_values=PAD)


def test_token_scheme():
    assert (EOS, BOS, PAD) == (20, 21, 22)
    ids = encode_batch([_pep("ACD"), _pep("KLWKLW")])
    assert ids.dtype == np.int64 and ids.shape == (2, 8)  # BOS + 6 residues + EOS for the longest row
    assert (ids[:, 0] == BOS).all()
    assert list(ids[0]) == [BOS, 0, 1, 2, EOS, PAD, PAD, PAD]
    # exactly one EOS per row, PAD only after it
    for row in ids:
        eos_at = np.flatnonzero(row == EOS)
        assert eos_at.size == 1
        assert (row[eos_at[0] + 1:] == PAD).all()


def test_encode_batch_matches_per_residue_oracle():
    rng = np.random.default_rng(4)
    peps = [_pep(r) for r in RESIDUES] + [_pep(RESIDUES)] + random_peptides(40, rng, min_len=1, max_len=50)
    for batch in (peps, peps[:1], peps[-7:]):
        ids = encode_batch(batch)
        expected = encoding_oracle.encode_batch(batch)
        assert ids.dtype == expected.dtype and np.array_equal(ids, expected)


def test_decode_inverts_encode():
    ids = encode_batch([_pep("MNPQRST")])
    # decode consumes action ids: everything after the BOS, stopping at EOS
    assert decode_tokens(ids[0][1:]) == "MNPQRST"


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
    ids = encode_batch([_pep("ACDEFG"), _pep("KK")])
    values, out, rows = model.values_and_log_probs(ids)
    real = ids != PAD
    # one row per non-PAD position in row-major order; PAD positions carry no distribution
    assert (~real).any() and np.array_equal(rows, np.flatnonzero(real))
    assert values.shape == (int(real.sum()),)
    assert out.shape == (int(real.sum()), 21)  # 20 residues + EOS actions
    sums = np.exp(out.data).sum(axis=-1)
    assert np.allclose(sums, 1.0, atol=1e-9)


def test_causality_by_perturbation():
    model = PolicyModel.init(TOY, seed=1)
    ids = encode_batch([_pep("ACDEFGHIKL")])
    base = model.values_and_log_probs(ids)[1].data.copy()  # one row without PAD: packed rows are its positions
    # editing a future token must not change earlier positions
    ids2 = ids.copy()
    ids2[0, 7] = 15
    new = model.values_and_log_probs(ids2)[1].data
    assert np.allclose(base[:7], new[:7], atol=1e-12)
    assert not np.allclose(base[7:], new[7:], atol=1e-9)


def test_log_probs_match_sequence_scoring():
    model = PolicyModel.init(TOY, seed=2)
    pep = _pep("KWKWLL")
    lp = sequence_log_probs(model, encode_batch([pep]))[0]
    assert lp.shape == (7,)  # 6 residues + EOS step
    assert (lp <= 0.0).all()
    # perplexity of a single sequence is exp of mean NLL over those steps
    assert perplexity(model, [pep]) == pytest.approx(float(np.exp(-lp.mean())), rel=1e-9)


@pytest.mark.parametrize("lora", [False, True])
def test_sft_backward_closures_capture_no_tensor(lora):
    model = _lora_policy(TOY, seed=4) if lora else PolicyModel.init(TOY, seed=4)
    peps = random_peptides(6, np.random.default_rng(4), min_len=1, max_len=TOY.max_len)
    found, records = captured_tensors(sft_loss(model, encode_batch(peps)).mean)
    assert len(records) > 30 and found == []


def test_one_sft_forward_keeps_only_what_its_backward_reads():
    # 40.2 MB when every node kept its operand tensors until backward, 24.3 MB
    # when each keeps only the arrays its backward reads
    live, _ = graph_memory.sft_step_memory()
    assert live < 32.0


@pytest.mark.parametrize("lora", [False, True])
def test_perplexity_and_rescoring_record_no_autodiff_graph(graph_nodes, lora):
    model = _lora_policy(TOY, seed=3) if lora else PolicyModel.init(TOY, seed=3)
    assert model.trainable() and all(p.requires_grad for p in model.trainable())
    peps = random_peptides(70, np.random.default_rng(3), min_len=1, max_len=TOY.max_len)  # two chunks of perplexity
    ppl = perplexity(model, peps)
    rescored = sequence_log_probs(model, encode_batch(peps[:5]))
    assert not graph_nodes
    # the same forwards outside the block record a graph and give the same numbers
    losses = [sft_loss(model, encode_batch(peps[start : start + 64])) for start in (0, 64)]
    assert graph_nodes
    total = sum(out.total.item() for out in losses)
    assert ppl == float(np.exp(total / sum(out.token_count for out in losses)))
    assert rescored.tobytes() == ppo_oracle.sequence_log_probs(model, encode_batch(peps[:5])).tobytes()


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
    out = sample(model, 3, max_len=6, seed=0)
    assert [s.peptide.id for s in out] == ["gen0", "gen1", "gen2"]
    assert all(s.peptide.source == "generated_sft" for s in out)
    # a LoRA-attached policy is the RL-tuned generator
    out = sample(attach_lora(model, rank=2, scaling=1.0), 3, max_len=6, seed=0)
    assert all(s.peptide.source == "generated_rl" for s in out)


def test_top_k_restricts_support():
    model = PolicyModel.init(TOY, seed=10)
    lp = model.values_and_log_probs(encode_batch([_pep("A")]))[1].data[0]
    top1 = int(np.argmax(lp))
    out = sample(model, 20, max_len=4, seed=3, top_k=1)
    first = {s.tokens[0] for s in out}
    assert first == {top1}


def test_top_k_must_lie_within_the_action_count():
    model = PolicyModel.init(TOY, seed=10)
    with pytest.raises(ValueError, match=r"valid range 1\.\.21\), got 22"):
        sample(model, 2, top_k=N_ACTIONS + 1)
    # the whole action set truncates nothing
    for got, want in zip(sample(model, 6, seed=3, top_k=N_ACTIONS), sample(model, 6, seed=3), strict=True):
        assert np.array_equal(got.tokens, want.tokens)


def test_a_nan_temperature_is_rejected():
    with pytest.raises(ValueError, match="temperature must be positive"):
        sample(PolicyModel.init(TOY, seed=10), 2, temperature=float("nan"))


def test_a_large_temperature_never_draws_eos_first():
    # NEG / 1e9 is -1: tempering the masked logits would leave EOS a likely first draw
    draws = sample(PolicyModel.init(TOY, seed=10), 200, temperature=1e9, seed=0)
    assert min(len(s.peptide.residues) for s in draws) >= 1


def test_sft_loss_matches_manual_nll():
    model = PolicyModel.init(TOY, seed=4)
    peps = [_pep("ACDEF", "a"), _pep("KLW", "b")]
    ids = encode_batch(peps)
    loss = sft_loss(model, ids)
    _, lp, rows = model.values_and_log_probs(ids)
    packed_at = {int(flat): k for k, flat in enumerate(rows)}
    total = 0.0
    count = 0
    for r, pep in enumerate(peps):
        targets = [RESIDUES.index(ch) for ch in pep.residues] + [EOS]
        for t, tok in enumerate(targets):
            total -= lp.data[packed_at[r * ids.shape[1] + t], tok]
            count += 1
    assert loss.token_count == count
    assert loss.mean.item() == pytest.approx(total / count, rel=1e-9)


def test_sft_ignores_padding():
    model = PolicyModel.init(TOY, seed=5)
    peps = [_pep("ACDEF", "a"), _pep("KLW", "b")]
    tight = sft_loss(model, encode_batch(peps))
    padded = sft_loss(model, _widen(encode_batch(peps), 16))
    assert tight.token_count == padded.token_count
    assert tight.mean.item() == pytest.approx(padded.mean.item(), rel=1e-9)


def _batch(lengths, pad_to=None, seed=0):
    rng = np.random.default_rng(seed)
    ids = encode_batch([_pep("".join(rng.choice(list(RESIDUES), size=n)), f"p{i}") for i, n in enumerate(lengths)])
    return _widen(ids, pad_to or 0)


def _trunk_case_model(lora):
    model = PolicyModel.init(TOY, seed=21)
    if lora is None:
        return model
    attach_lora(model, rank=2, scaling=4.0, targets=("wq", "wk", "wv", "wo"), seed=5)
    if lora == "unfrozen":  # the base trains too, so its gradients are compared as well
        for p in model.params.values():
            p.requires_grad = True
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
    ids = _batch(lengths, pad_to, seed=len(lengths))
    for inputs in (ids, ids[:, :-1]):
        real = inputs != PAD
        values, lp, rows = model.values_and_log_probs(inputs)
        want_values, want_lp = trunk_oracle.values_and_log_probs(model, inputs)
        assert np.array_equal(rows, np.flatnonzero(real)) and values.shape == (rows.size,)
        assert np.max(np.abs(values.data - want_values.data[real])) <= 1e-12
        assert np.max(np.abs(lp.data - want_lp.data[real])) <= 1e-12

    got = sft_loss(model, ids)
    want_total, want_count = trunk_oracle.sft_loss_total(model, ids)
    assert got.token_count == want_count == sum(lengths) + len(lengths)
    assert abs(got.total.item() - want_total.item()) <= 1e-12 * abs(want_total.item())
    _assert_grads_close(_grads(model, got.total), _grads(model, want_total))

    # the PPO path: values and log-probs leave the trunk packed, and the grid arrays are gathered at their rows
    inputs = ids[:, :-1]
    mask = (ids[:, 1:] != PAD).astype(np.float64)
    picks = np.where(ids[:, 1:] == PAD, 0, ids[:, 1:])
    weights = np.random.default_rng(3).normal(size=mask.shape) * mask

    def ppo_like(values, lp, rows=None):
        at = (lambda grid: grid) if rows is None else (lambda grid: grid.reshape(-1)[rows])
        return reduce_sum(values * at(weights)) - reduce_sum(nm.gather_last(lp, at(picks)) * at(mask))

    _assert_grads_close(
        _grads(model, ppo_like(*model.values_and_log_probs(inputs))),
        _grads(model, ppo_like(*trunk_oracle.values_and_log_probs(model, inputs))),
    )


def _jittered(model, seed):
    """`model` with every tensor, biases and LayerNorm gains included, moved off its initial value."""
    rng = np.random.default_rng(seed)
    for t in model.named_tensors().values():
        t.data += rng.normal(0.0, 0.02, size=t.data.shape)
    return model


@pytest.mark.parametrize("case", sorted(TRUNK_CASES))
def test_trunk_matches_the_packed_forward_it_replaced_bit_for_bit(case):
    lora, lengths, pad_to = TRUNK_CASES[case]
    model = _jittered(_trunk_case_model(lora), seed=len(lengths))
    ids = _batch(lengths, pad_to, seed=len(lengths))
    for inputs in (ids, ids[:, :-1]):
        got = model.values_and_log_probs(inputs)
        want = trunk_oracle.packed_values_and_log_probs(model, inputs)
        assert got[2].tobytes() == want[2].tobytes()
        assert got[0].data.tobytes() == want[0].data.tobytes()
        assert got[1].data.tobytes() == want[1].data.tobytes()
    got_total, want_total = sft_loss(model, ids).total, trunk_oracle.packed_sft_loss_total(model, ids)
    assert got_total.data.tobytes() == want_total.data.tobytes()
    for g, w in zip(_grads(model, got_total), _grads(model, want_total), strict=True):
        assert g.tobytes() == w.tobytes()


def test_the_training_trunk_looks_its_ops_up_in_numerics_at_each_call(monkeypatch):
    # so a wrapper installed on `amprl.numerics` after import, as benchmarks/tracing.py does, sees them
    calls = []
    for name in ("matmul", "layer_norm", "gelu"):
        monkeypatch.setattr(nm, name, lambda *args, _real=getattr(nm, name), _name=name: calls.append(_name) or _real(*args))
    PolicyModel.init(TOY, seed=0).values_and_log_probs(encode_batch([_pep("ACDKLM")]))
    per_layer = ["layer_norm", "matmul", "matmul", "matmul", "matmul", "layer_norm", "matmul", "gelu", "matmul"]
    assert calls == per_layer * TOY.n_layers + ["layer_norm", "matmul", "matmul"]


def test_trunk_rejects_pad_before_a_real_token():
    model = PolicyModel.init(TOY, seed=0)
    ids = np.array([[BOS, 3, 4, EOS, PAD], [BOS, 5, PAD, 6, EOS]])
    with pytest.raises(ValueError, match="PAD only after"):
        model.values_and_log_probs(ids)


def test_trunk_rejects_a_row_without_bos_or_past_the_context():
    model = PolicyModel.init(TOY, seed=0)
    with pytest.raises(ValueError, match="BOS-prefixed"):
        model.values_and_log_probs(np.array([[BOS, 3, EOS], [3, 4, EOS]]))
    too_long = _widen(encode_batch([_pep("A" * TOY.max_len)]), TOY.context_len + 1)
    with pytest.raises(ValueError, match="exceeds context"):
        model.values_and_log_probs(too_long)


def test_sft_loss_grad_check_with_padding_and_lora():
    config = ModelConfig(embed_dim=8, n_layers=1, n_heads=2, max_len=10, mlp_ratio=2, init_std=0.05)
    model = attach_lora(PolicyModel.init(config, seed=6), rank=2, scaling=2.0, targets=("wq", "wk", "wv", "wo"), seed=7)
    for p in model.params.values():  # check the base's gradients as well as the adapters'
        p.requires_grad = True
    rng = np.random.default_rng(8)
    for name, t in model.named_tensors().items():
        if name.endswith("lora_b"):
            t.data += rng.normal(0.0, 0.1, size=t.data.shape)
    ids = _batch([1, 3, 8], pad_to=config.context_len, seed=9)
    assert ids.shape[1] > 8 + 2  # PAD columns beyond the longest row
    err = grad_check(lambda: sft_loss(model, ids).mean, model.trainable(), atol=1e-5)
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
    ids = encode_batch([_pep("ACDEFGH")])
    for got, want in zip(model.values_and_log_probs(ids)[:2], loaded.values_and_log_probs(ids)[:2]):
        assert np.array_equal(got.data, want.data)


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
    ids = encode_batch([_pep("KWKWKW")])
    reference = base.values_and_log_probs(ids)[1].data.copy()
    tuned = attach_lora(base, rank=2, scaling=1.0, seed=1)
    # the low-rank delta starts at zero, so the function is unchanged
    assert np.allclose(tuned.values_and_log_probs(ids)[1].data, reference, atol=1e-12)
    trainable_names = {
        name for name, t in tuned.named_tensors().items() if any(t is p for p in tuned.trainable())
    }
    assert trainable_names
    for name in trainable_names:
        assert "lora" in name or "value" in name


def test_attach_lora_rejects_an_empty_target_list():
    model = PolicyModel.init(TOY, seed=12)
    with pytest.raises(ValueError, match="at least one target"):
        attach_lora(model, rank=2, scaling=1.0, targets=())
    assert not model.lora and all(p.requires_grad for p in model.params.values())


def test_attach_lora_rejects_a_zero_scaling():
    # at scaling 0 both factors get zero gradients, so every lora_b would stay exactly 0
    model = PolicyModel.init(TOY, seed=12)
    for scaling in (0.0, -0.0, float("nan")):
        with pytest.raises(ValueError, match="LoRA scaling must be non-zero"):
            attach_lora(model, rank=2, scaling=scaling)
    assert not model.lora and all(p.requires_grad for p in model.params.values())


def test_attach_lora_rejects_a_rank_above_embed_dim():
    # a rank of 10**12 would draw an embed_dim x 10**12 factor before anything else failed
    model = PolicyModel.init(TOY, seed=12)
    with pytest.raises(ValueError, match=f"LoRA rank {10**12} exceeds embed_dim {TOY.embed_dim}"):
        attach_lora(model, rank=10**12, scaling=1.0)
    assert not model.lora and all(p.requires_grad for p in model.params.values())
    assert attach_lora(model, rank=TOY.embed_dim, scaling=1.0).lora_config().rank == TOY.embed_dim


def test_lora_round_trip_through_checkpoint(tmp_path):
    ids = encode_batch([_pep("ACDKLM")])
    model = PolicyModel.init(TOY, seed=13)
    base_out = model.values_and_log_probs(ids)[1].data.copy()  # attach_lora mutates in place
    tuned = attach_lora(model, rank=2, scaling=0.5, seed=2)
    # perturb the zero factor so the adapter actually matters
    for name, t in tuned.named_tensors().items():
        if name.endswith("lora_b"):
            t.data += 0.05
    path = tmp_path / "rl.ckpt"
    tuned.save(path)
    loaded = PolicyModel.load(path)
    assert np.array_equal(tuned.values_and_log_probs(ids)[1].data, loaded.values_and_log_probs(ids)[1].data)
    assert not np.allclose(loaded.values_and_log_probs(ids)[1].data, base_out, atol=1e-9)


def _trainable_names(model):
    trainable = {id(p) for p in model.trainable()}
    assert trainable == {id(t) for t in model.named_tensors().values() if t.requires_grad}
    return {name for name, t in model.named_tensors().items() if id(t) in trainable}


@pytest.mark.parametrize("lora", [False, True])
def test_save_and_load_keep_the_trainable_set(tmp_path, lora):
    model = PolicyModel.init(TOY, seed=14)
    if lora:
        attach_lora(model, rank=2, scaling=0.5, targets=("wq", "wo"), seed=3)
        want = {"value.w", "value.b"} | {name for name in model.named_tensors() if ".lora_" in name}
    else:
        want = set(model.params)
    assert _trainable_names(model) == want
    path = tmp_path / "policy.ckpt"
    model.save(path)
    manifest = path.with_name("policy.ckpt.json")
    payload = json.loads(manifest.read_text())
    assert "base_trainable" not in payload["meta"]
    assert _trainable_names(PolicyModel.load(path)) == want
    # manifests written while `save` recorded base_trainable still load, with the key ignored
    for stale in (True, False):
        payload["meta"]["base_trainable"] = stale
        manifest.write_text(json.dumps(payload))
        assert _trainable_names(PolicyModel.load(path)) == want


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
    "toy_ids": (TOY, False, 6, {"seed": 7}),
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
        for field in ("log_probs", "values", "entropies"):
            got_steps, want_steps = getattr(g, field), getattr(w, field)
            assert got_steps.shape == want_steps.shape == g.tokens.shape
            assert np.max(np.abs(got_steps - want_steps)) <= 1e-12, field
    if "max_len" in kwargs:
        assert not all(g.terminated for g in got)  # EOS forced at the residue cap
    else:
        # rows finish at different steps, so dead rows are fed PAD while others decode
        assert len({g.tokens.size for g in got}) > 1


@pytest.mark.parametrize("case", sorted(DIFFERENTIAL_CASES))
def test_sampler_matches_the_cached_decoder_it_replaced_bit_for_bit(case):
    config, lora, n, kwargs = DIFFERENTIAL_CASES[case]
    model = _jittered(_lora_policy(config, seed=11) if lora else PolicyModel.init(config, seed=11), seed=n)
    got = sample(model, n, **kwargs)
    want = sampler_oracle.cached_sample(model, n, **kwargs)
    for g, w in zip(got, want, strict=True):
        assert g.peptide == w.peptide and g.terminated == w.terminated
        for field in ("tokens", "log_probs", "values", "entropies"):
            assert getattr(g, field).tobytes() == getattr(w, field).tobytes(), field


@pytest.mark.parametrize("lora", [False, True])
def test_sample_builds_no_tensor_after_the_lora_merge(tensors_made, lora):
    model = _lora_policy(TOY, seed=14) if lora else PolicyModel.init(TOY, seed=14)
    tensors_made.clear()
    with nm.no_grad():
        for name in model.params:
            model._weight(name)
    merge = list(tensors_made)
    tensors_made.clear()
    sample(model, 6, seed=1)
    assert tensors_made == merge
    assert bool(merge) == lora


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


@pytest.mark.parametrize("case", sorted(TRUNK_CASES))
def test_sequence_log_probs_match_grid_oracle(case):
    lora, lengths, pad_to = TRUNK_CASES[case]
    model = _trunk_case_model(lora)
    ids = _batch(lengths, pad_to, seed=len(lengths))
    got = sequence_log_probs(model, ids)
    want = ppo_oracle.sequence_log_probs(model, ids)
    assert got.shape == want.shape == (ids.shape[0], ids.shape[1] - 1)
    assert got.tobytes() == want.tobytes()


def test_sample_fails_loudly_on_a_nan_weight():
    model = PolicyModel.init(TOY, seed=13)
    model.params["layer1.mlp.w1"].data[3, 5] = np.nan
    with pytest.raises(FloatingPointError, match="non-finite"):
        sample(model, 4, seed=0)


def test_sft_loss_fails_loudly_on_a_nan_weight():
    model = PolicyModel.init(TOY, seed=13)
    model.params["layer0.attn.wk"].data[2, 7] = np.nan
    ids = encode_batch([_pep("ACDEFG"), _pep("KLM")])
    with pytest.raises(FloatingPointError, match=r"non-finite result in op '\w+'"):
        sft_loss(model, ids)
