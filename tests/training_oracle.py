"""The two hand-written training loops that `numerics.train_epochs` replaced,
kept as test oracles.

Each is the whole trainer as it stood: Adam, a seeded shuffle, minibatch
steps, a best-state copy, a patience counter and a final restore.
`test_training.py` runs them side by side with `policy.train_sft` and
`mic.train_mic` and compares histories, best epochs and weights bit for bit.
"""
import numpy as np

import amprl.numerics as nm
from amprl.mic import Embedder, LabeledSet, MicConfig, MicModel, auroc, focal_loss
from amprl.policy import PolicyModel, SftConfig, SftResult, encode_batch, perplexity, sft_loss
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
