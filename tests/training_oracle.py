"""The hand-written training loops that `numerics.adam_pass` and
`numerics.train_epochs` replaced, kept as test oracles.

`train_sft` and `train_mic` are the whole trainers as they stood: Adam, a
seeded shuffle, minibatch steps, a best-state copy, a patience counter and a
final restore. `train_rl` is `ppo.train_rl` with its own minibatch loop, its
four statistic lists and its skip counter. `test_training.py` runs them side
by side with `policy.train_sft`, `mic.train_mic` and `ppo.train_rl` and
compares histories or log rows, best epochs, weights and checkpoints bit for
bit.
"""
from pathlib import Path
from typing import IO

import numpy as np

import amprl.numerics as nm
from amprl.mic import Embedder, LabeledSet, MicConfig, MicModel, auroc, focal_loss
from amprl.physchem import DEFAULT_SCALE, DESCRIPTORS, ScaleTable
from amprl.policy import PolicyModel, SftConfig, SftResult, encode_batch, perplexity, sft_loss
from amprl.ppo import PpoConfig, _minibatch_losses, compute_advantages, rollout, write_training_log
from amprl.reward import RewardConfig, make_reward_fn
from amprl.rng import substream
from amprl.sequences import Peptide


def train_sft(
    model: PolicyModel,
    train: list[Peptide],
    val: list[Peptide],
    config: SftConfig,
) -> SftResult:
    """Adam on the next-token loss; keeps the best-validation-perplexity weights.

    Stops once the epochs since the best validation score reach the patience.
    """
    if not train or not val:
        raise ValueError("train and validation sets must both be non-empty")
    params = model.trainable()
    if not params:
        raise ValueError("model has no trainable parameters")
    opt = nm.Adam(params, lr=config.lr)
    shuffle_rng = substream(config.seed, "sft.shuffle")
    history: list[dict] = []
    best_ppl = float("inf")
    best_epoch = 0
    best_state = [p.data.copy() for p in params]

    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(train))
        epoch_loss = 0.0
        epoch_tokens = 0
        for start in range(0, len(order), config.batch_size):
            chunk = [train[i] for i in order[start : start + config.batch_size]]
            out = sft_loss(model, encode_batch(chunk))
            opt.zero_grad()
            out.mean.backward()
            opt.step()
            epoch_loss += out.total.item()
            epoch_tokens += out.token_count
        val_ppl = perplexity(model, val)
        history.append(
            {
                "epoch": epoch,
                "train_loss": epoch_loss / epoch_tokens,
                "val_perplexity": val_ppl,
            }
        )
        if val_ppl < best_ppl:
            best_ppl = val_ppl
            best_epoch = epoch
            best_state = [p.data.copy() for p in params]
        if epoch - best_epoch >= config.patience:
            break

    for p, saved in zip(params, best_state):
        p.data = saved
    return SftResult(model=model, history=history, best_epoch=best_epoch, best_val_perplexity=best_ppl)


def train_mic(
    train: LabeledSet,
    val: LabeledSet,
    config: MicConfig = MicConfig(),
    embedder: Embedder | None = None,
) -> tuple[MicModel, list[dict]]:
    """Minibatch Adam on the focal loss; returns the best-validation-AUROC model."""
    if not len(train) or not len(val):
        raise ValueError("train and validation splits must both be non-empty")
    labels = train.labels()
    n_pos = int(labels.sum())
    n_neg = len(labels) - n_pos
    if n_pos == 0 or n_neg == 0:
        raise ValueError("training set is single-class; cannot fit a classifier")
    y_val = val.labels()
    if y_val.min() == y_val.max():
        raise ValueError("validation set is single-class; its AUROC cannot select a model")

    emb = embedder or Embedder()
    x_train = emb.features(train.peptides())
    emb.fit(x_train).standardize(x_train)
    model = MicModel.init(emb, config, seed=config.seed)

    # inverse class frequency, normalized so the mean sample weight is 1
    alpha_pos = config.alpha_pos if config.alpha_pos is not None else len(labels) / (2.0 * n_pos)
    alpha_neg = config.alpha_neg if config.alpha_neg is not None else len(labels) / (2.0 * n_neg)

    y_train = labels.astype(np.float64)
    a_train = np.where(y_train == 1.0, alpha_pos, alpha_neg)
    x_val = emb.embed_many(val.peptides())

    opt = nm.Adam(model.trainable(), lr=config.lr)
    shuffle_rng = substream(config.seed, "mic.shuffle")
    history: list[dict] = []
    best_auroc = -1.0
    best_epoch = 0
    best_state = [p.data.copy() for p in model.trainable()]

    for epoch in range(1, config.epochs + 1):
        order = shuffle_rng.permutation(len(y_train))
        total = 0.0
        batches = 0
        for start in range(0, len(order), config.batch_size):
            idx = order[start : start + config.batch_size]
            probs = model.probabilities(x_train[idx])
            loss = focal_loss(probs, y_train[idx], a_train[idx], config.gamma_focal)
            opt.zero_grad()
            loss.backward()
            opt.step()
            total += loss.item()
            batches += 1
        val_scores = model.probabilities(x_val).data
        val_auroc = auroc(val_scores, y_val)
        history.append({"epoch": epoch, "train_loss": total / batches, "val_auroc": val_auroc})
        if val_auroc > best_auroc:
            best_auroc = val_auroc
            best_epoch = epoch
            best_state = [p.data.copy() for p in model.trainable()]
        if epoch - best_epoch >= config.patience:
            break

    for p, saved in zip(model.trainable(), best_state):
        p.data = saved
    return model, history


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
