"""`numerics.train_epochs`, the one early-stopping loop of `train_sft` and
`train_mic`: its schedule, and bit-for-bit agreement with the two loops it
replaced (`training_oracle.py`)."""
import tracemalloc

import numpy as np
import pytest

import amprl.numerics as nm
from amprl.mic import LabeledSet, MicConfig, train_mic
from amprl.policy import ModelConfig, PolicyModel, SftConfig, encode_batch, sft_loss, train_sft
from amprl.sequences import Peptide

import training_oracle
from test_mic import _separable_set

TOY = ModelConfig(embed_dim=16, n_layers=1, n_heads=2, max_len=20, mlp_ratio=2, init_std=0.02)


def _scripted_run(scores, patience, n=5, batch_size=2, seed=0):
    """One scalar parameter pushed up by every step; validation reads `scores` in turn."""
    p = nm.Tensor(np.zeros(1), requires_grad=True)
    seen, after_epoch = [], []

    def batch_loss(rows):
        seen.append(rows.copy())
        return -p.sum(), 10.0 * len(rows) + rows.sum(), len(rows)

    def validate():
        after_epoch.append(p.data.copy())
        score = scores[len(after_epoch) - 1]
        return score, {"score": score}

    schedule = SftConfig(epochs=len(scores), batch_size=batch_size, patience=patience, lr=0.1)
    history, best_epoch, best_score = nm.train_epochs([p], n, batch_loss, validate, schedule, np.random.default_rng(seed))
    return p, seen, after_epoch, history, best_epoch, best_score


def test_first_strict_best_is_kept_and_patience_counts_from_it():
    # epoch 3 ties epoch 2 and does not replace it; three epochs after epoch 2 end training
    p, _, after_epoch, history, best_epoch, best_score = _scripted_run([1.0, 3.0, 3.0, 2.0, 2.0, 5.0], patience=3)
    assert [row["epoch"] for row in history] == [1, 2, 3, 4, 5]
    assert [row["score"] for row in history] == [1.0, 3.0, 3.0, 2.0, 2.0]
    assert (best_epoch, best_score) == (2, 3.0)
    assert np.array_equal(p.data, after_epoch[1])
    assert not np.array_equal(p.data, after_epoch[-1])


def test_patience_one_stops_at_the_first_epoch_without_a_gain():
    _, _, _, history, best_epoch, _ = _scripted_run([1.0, 2.0, 2.0, 9.0], patience=1)
    assert len(history) == 3 and best_epoch == 2


def test_no_stop_keeps_the_last_best_epoch():
    p, _, after_epoch, history, best_epoch, _ = _scripted_run([1.0, 2.0, 3.0], patience=3)
    assert len(history) == 3 and best_epoch == 3
    assert np.array_equal(p.data, after_epoch[-1])


def test_each_epoch_shuffles_once_and_weights_the_train_loss():
    _, seen, _, history, _, _ = _scripted_run([1.0, 2.0], patience=2, n=5, batch_size=2, seed=4)
    rng = np.random.default_rng(4)
    for epoch in range(2):
        chunks = seen[3 * epoch : 3 * epoch + 3]
        assert [len(c) for c in chunks] == [2, 2, 1]
        order = rng.permutation(5)
        assert np.array_equal(np.concatenate(chunks), order)
        # summed value over summed weight, not the mean of the per-chunk ratios
        assert history[epoch]["train_loss"] == (10.0 * 5 + order.sum()) / 5


def _sft_corpus():
    rng = np.random.default_rng(3)
    corpus = []
    for i in range(24):
        length = int(rng.integers(4, 12))
        corpus.append(Peptide(f"c{i}", "".join(rng.choice(list("KLWAG"), size=length)), "natural"))
    return corpus[:16], corpus[16:]


def _assert_same_tensors(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.data.tobytes() == b.data.tobytes()


# run -> (epochs, patience): patience ends training after a best epoch before the last, or every epoch runs
SFT_RUNS = {"patience_stop": (12, 2), "full": (4, 4)}
MIC_RUNS = {"patience_stop": (15, 3), "full": (5, 5)}


@pytest.mark.parametrize("run", sorted(SFT_RUNS))
def test_train_sft_matches_the_hand_written_loop(run):
    epochs, patience = SFT_RUNS[run]
    train, val = _sft_corpus()
    config = SftConfig(epochs=epochs, batch_size=5, lr=3e-2, patience=patience, seed=0)
    got = train_sft(PolicyModel.init(TOY, seed=0), train, val, config)
    want = training_oracle.train_sft(PolicyModel.init(TOY, seed=0), train, val, config)
    assert got.history == want.history
    assert got.best_epoch == want.best_epoch
    assert got.best_val_perplexity == want.best_val_perplexity
    _assert_same_tensors(got.model.trainable(), want.model.trainable())
    if run == "full":
        assert len(got.history) == epochs
    else:
        assert len(got.history) < epochs and got.best_epoch < len(got.history)


def test_an_sft_epoch_keeps_one_graph_alive():
    # backward frees the graph it walks, so a step's graph is gone before the next forward
    # builds one: the peak stays near one graph plus its gradients, not two graphs
    config = ModelConfig(embed_dim=64, n_layers=2, n_heads=4, max_len=40, mlp_ratio=4, init_std=0.02)
    rng = np.random.default_rng(5)
    corpus = [Peptide(f"p{i}", "".join(rng.choice(list("ACDEFGHIKLMNPQRSTVWY"), size=25))) for i in range(100)]
    train, val = corpus[:96], corpus[96:]
    model = PolicyModel.init(config, seed=0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        loss = sft_loss(model, encode_batch(train[:32])).mean
        graph = tracemalloc.get_traced_memory()[0] - base
        del loss
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        train_sft(model, train, val, SftConfig(epochs=1, batch_size=32, patience=1, lr=3e-3))
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * graph


def _mic_sets():
    rng = np.random.default_rng(3)
    train = _separable_set(40, rng, "train")
    val = _separable_set(16, rng, "val")
    # every fifth validation label flipped, so the AUROC plateaus below 1 and ties across epochs
    flipped = LabeledSet([(p, 1 - y if i % 5 == 0 else y) for i, (p, y) in enumerate(val.items)], "val")
    return train, flipped


def _best_epoch(history):
    return max(history, key=lambda row: row["val_auroc"])["epoch"]


@pytest.mark.parametrize("run", sorted(MIC_RUNS))
def test_train_mic_matches_the_hand_written_loop(run):
    epochs, patience = MIC_RUNS[run]
    train, val = _mic_sets()
    config = MicConfig(hidden=(8,), lr=1e-2, epochs=epochs, batch_size=7, patience=patience, seed=0)
    got_model, got = train_mic(train, val, config)
    want_model, want = training_oracle.train_mic(train, val, config)
    assert got == want
    assert _best_epoch(got) == _best_epoch(want)
    _assert_same_tensors(got_model.trainable(), want_model.trainable())
    if run == "full":
        assert len(got) == epochs
    else:
        assert len(got) < epochs and _best_epoch(got) < len(got)


@pytest.mark.parametrize("config_type", [SftConfig, MicConfig])
@pytest.mark.parametrize(
    "key, value, message",
    [
        ("epochs", 0, "epochs must be an integer >= 1, got 0"),
        ("epochs", 2.5, "epochs must be an integer >= 1, got 2.5"),
        ("epochs", True, "epochs must be an integer >= 1, got True"),
        ("batch_size", 0, "batch_size must be an integer >= 1, got 0"),
        ("patience", 0, "patience must be an integer >= 1, got 0"),
        ("lr", 0.0, "lr must be positive, got 0.0"),
        ("lr", -1e-3, "lr must be positive, got -0.001"),
        ("lr", float("nan"), "lr must be positive, got nan"),
    ],
)
def test_configs_reject_a_schedule_train_epochs_cannot_run(config_type, key, value, message):
    with pytest.raises(ValueError, match=message):
        config_type(**{key: value})
