"""Activity classifier: feature embedding, focal-loss MLP, scoring, evaluation.

The score s in (0,1) estimates how likely a peptide's MIC falls at or below
the activity threshold; s feeds the MIC reward term directly.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from . import numerics as nm
from .numerics.tensor import reduce_mean
from .physchem import DEFAULT_SCALE, ScaleTable, descriptors
from .rng import substream
from .sequences import RESIDUE_LETTERS, RESIDUES, Peptide, _read_text, encode, write_tsv

BUILTIN_DIM = 5 + 20 + 400


@dataclass
class LabeledSet:
    """(peptide, label) pairs for one split; labels are 1=active, 0=inactive."""

    items: list[tuple[Peptide, int]]
    split: str = ""

    def __post_init__(self) -> None:
        seen: set[str] = set()
        for pep, label in self.items:
            if label not in (0, 1):
                raise ValueError(f"label for {pep.id!r} must be 0 or 1, got {label!r}")
            if pep.residues in seen:
                raise ValueError(f"duplicate sequence within split {self.split!r}: {pep.residues}")
            seen.add(pep.residues)

    def peptides(self) -> list[Peptide]:
        return [pep for pep, _ in self.items]

    def labels(self) -> np.ndarray:
        return np.array([label for _, label in self.items], dtype=np.int64)

    def __len__(self) -> int:
        return len(self.items)


def read_labeled_tsv(stream: str | Path | IO[str], split: str = "") -> LabeledSet:
    """TSV with header `sequence<TAB>label`; labels active/inactive or 1/0.

    A Path is read as a file and a plain string as the TSV text. Blank lines
    are skipped but counted, so errors and `row<N>` ids name file lines. A
    sequence is stripped and uppercased as `parse_fasta` does.
    """
    lines = [(n, ln) for n, ln in enumerate(_read_text(stream).splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1].split("\t")[:2] != ["sequence", "label"]:
        raise ValueError("labeled TSV must start with a 'sequence\\tlabel' header")
    items: list[tuple[Peptide, int]] = []
    mapping = {"active": 1, "inactive": 0, "1": 1, "0": 0}
    for lineno, line in lines[1:]:
        parts = line.split("\t")
        if len(parts) < 2:
            raise ValueError(f"line {lineno}: expected sequence and label")
        seq, label = parts[0].strip(), parts[1]
        if label not in mapping:
            raise ValueError(f"line {lineno}: unknown label {label!r}")
        if not seq:
            raise ValueError(f"line {lineno}: empty sequence")
        bad = [ch for ch in seq if ch not in RESIDUE_LETTERS]
        if bad:
            raise ValueError(f"line {lineno}: invalid residue {bad[0]!r}")
        items.append((Peptide(id=f"row{lineno}", residues=seq.upper()), mapping[label]))
    return LabeledSet(items=items, split=split)


def write_labeled_tsv(labeled: LabeledSet, sink: str | Path | IO[str]) -> None:
    """Paired writer for read_labeled_tsv (labels written as active/inactive)."""
    rows = [(pep.residues, "active" if label else "inactive") for pep, label in labeled.items]
    write_tsv(("sequence", "label"), rows, sink)


class Embedder:
    """Built-in features, standardized by training-set statistics frozen at fit time.

    A peptide's 425 features are its 5 descriptor values, 20 residue
    frequencies and 400 dipeptide frequencies. The frequencies of a whole
    list come from two `np.bincount` calls over its residue codes.
    """

    dim = BUILTIN_DIM

    def __init__(self, scale: ScaleTable = DEFAULT_SCALE):
        self.scale = scale
        self.mean: np.ndarray | None = None
        self.std: np.ndarray | None = None

    def features(self, peptides: Sequence[Peptide]) -> np.ndarray:
        """Unstandardized feature matrix, one row per peptide.

        Its first five columns are `descriptors(peptides, self.scale)`
        as computed, which `evalmetrics.compare_sets` summarizes.
        """
        n = len(peptides)
        raw = np.empty((n, BUILTIN_DIM))
        raw[:, :5] = descriptors(peptides, self.scale)
        codes, lengths = encode([p.residues for p in peptides])
        codes = codes[codes < len(RESIDUES)]  # row-major, so the peptides' codes end to end
        rows = np.repeat(np.arange(n), lengths)
        counts = np.bincount(rows * 20 + codes, minlength=20 * n).reshape(n, 20)
        np.divide(counts, lengths[:, None], out=raw[:, 5:25])
        # a dipeptide is two adjacent residues of one peptide
        pairs = (rows[1:] * 400 + codes[:-1] * 20 + codes[1:])[rows[1:] == rows[:-1]]
        counts = np.bincount(pairs, minlength=400 * n).reshape(n, 400)
        np.divide(counts, np.maximum(lengths - 1, 1)[:, None], out=raw[:, 25:])
        return raw

    def fit(self, raw: np.ndarray) -> "Embedder":
        """Freeze the column means and deviations of a `features` matrix."""
        if not len(raw):
            raise ValueError("cannot fit an embedder on no peptides")
        self.mean = raw.mean(axis=0)
        std = raw.std(axis=0)
        self.std = np.where(std < 1e-12, 1.0, std)
        return self

    def standardize(self, raw: np.ndarray) -> np.ndarray:
        """Standardize a `features` matrix in place and return it."""
        if self.mean is None or self.std is None:
            raise ValueError("builtin embedder must be fit before embedding")
        raw -= self.mean
        raw /= self.std
        return raw

    def embed(self, p: Peptide) -> np.ndarray:
        return self.embed_many([p])[0]

    def embed_many(self, peptides: Sequence[Peptide]) -> np.ndarray:
        return self.standardize(self.features(peptides))


def focal_loss(probabilities, labels, alpha, gamma: float) -> nm.Tensor:
    """-(1/N) sum alpha_i (1 - p_i)^gamma log(p_i), p_i = prob of the true class."""
    probs = probabilities if isinstance(probabilities, nm.Tensor) else nm.Tensor(probabilities)
    if probs.data.size == 0:
        raise ValueError("focal loss of an empty batch is undefined")
    if not np.all((probs.data > 0.0) & (probs.data < 1.0)):
        raise ValueError("probabilities must lie strictly inside (0,1)")
    y = np.asarray(labels, dtype=np.float64)
    if y.shape != probs.data.shape:
        raise ValueError(f"labels shape {y.shape} != probabilities shape {probs.data.shape}")
    a = np.broadcast_to(np.asarray(alpha, dtype=np.float64), y.shape)
    p_true = probs * y + (1.0 - probs) * (1.0 - y)
    weight = (1.0 - p_true) ** gamma if gamma else 1.0
    return -reduce_mean(a * weight * nm.log(p_true))


@dataclass(frozen=True)
class MicConfig:
    hidden: tuple[int, ...] = (256, 64)
    lr: float = 1e-3
    epochs: int = 30
    batch_size: int = 64
    patience: int = 5
    gamma_focal: float = 2.0
    alpha_pos: float | None = None
    alpha_neg: float | None = None
    threshold: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if not self.hidden or min(self.hidden) < 1:
            raise ValueError("hidden sizes must be positive")
        if not 0.0 < self.threshold < 1.0:
            raise ValueError("threshold must lie in (0,1)")
        if not self.gamma_focal >= 0.0:
            raise ValueError(f"gamma_focal must be >= 0, got {self.gamma_focal}")
        for key in ("alpha_pos", "alpha_neg"):
            if getattr(self, key) is not None and not getattr(self, key) > 0.0:
                raise ValueError(f"{key} must be positive when given, got {getattr(self, key)}")
        nm.check_schedule(self)


class MicModel:
    def __init__(self, embedder: Embedder, params: dict[str, nm.Tensor], config: MicConfig):
        self.embedder = embedder
        self.params = params
        self.config = config

    @classmethod
    def init(cls, embedder: Embedder, config: MicConfig, seed: int) -> "MicModel":
        rng = substream(seed, "mic.init")
        sizes = (embedder.dim, *config.hidden, 1)
        params: dict[str, nm.Tensor] = {}
        for i in range(len(sizes) - 1):
            fan_in, fan_out = sizes[i], sizes[i + 1]
            params[f"fc{i}.w"] = nm.Tensor(
                rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)), requires_grad=True
            )
            params[f"fc{i}.b"] = nm.Tensor(np.zeros(fan_out), requires_grad=True)
        return cls(embedder, params, config)

    def logits(self, features: np.ndarray) -> nm.Tensor:
        x: nm.Tensor | np.ndarray = nm.Tensor(features)
        n_layers = len(self.config.hidden) + 1
        for i in range(n_layers):
            x = nm.matmul(x, self.params[f"fc{i}.w"]) + self.params[f"fc{i}.b"]
            if i < n_layers - 1:
                x = nm.relu(x)
        return x.reshape((features.shape[0],))

    def probabilities(self, features: np.ndarray) -> nm.Tensor:
        return nm.sigmoid(self.logits(features))

    def score(self, p: Peptide) -> float:
        return float(self.score_many([p])[0])

    @nm.no_grad()
    def score_many(self, peptides: Sequence[Peptide], features: np.ndarray | None = None) -> np.ndarray:
        """Activity scores of a whole list, one classifier forward.

        `features`, when given, is the list's `features` matrix on this
        model's scale; a standardized copy of it is scored.
        """
        if not peptides:
            return np.zeros(0)
        raw = self.embedder.features(peptides) if features is None else features.copy()
        return self.probabilities(self.embedder.standardize(raw)).data

    def trainable(self) -> list[nm.Tensor]:
        return list(self.params.values())

    def save(self, path: str | Path, meta: dict | None = None) -> None:
        info = dict(meta or {})
        info["mic_config"] = {
            "hidden": list(self.config.hidden),
            "gamma_focal": self.config.gamma_focal,
            "threshold": self.config.threshold,
        }
        info["embedder_kind"] = "builtin_features"
        info["scale"] = asdict(self.embedder.scale)
        if self.embedder.mean is None or self.embedder.std is None:
            raise ValueError("builtin embedder must be fit before saving")
        tensors = dict(self.params)
        tensors["embed.mean"] = nm.Tensor(self.embedder.mean)
        tensors["embed.std"] = nm.Tensor(self.embedder.std)
        nm.save_checkpoint(path, tensors, meta=info)

    @classmethod
    def load(cls, path: str | Path) -> "MicModel":
        tensors, meta = nm.load_checkpoint(path)
        if "mic_config" not in meta:
            raise ValueError(f"{path}: checkpoint manifest lacks mic_config")
        kind = meta.get("embedder_kind", "builtin_features")
        if kind != "builtin_features":
            raise ValueError(f"{path}: unsupported embedder kind {kind!r}")
        if not isinstance(meta.get("scale"), dict) or set(meta["scale"]) != {"name", "version", "hydropathy", "pka"}:
            raise ValueError(f"{path}: checkpoint manifest lacks the descriptor scale (name, version, hydropathy, pka)")
        try:
            raw = meta["mic_config"]
            # manifests written before `cutoff` left MicConfig still record it; it is ignored
            config = MicConfig(hidden=tuple(raw["hidden"]), gamma_focal=raw["gamma_focal"], threshold=raw["threshold"])
            embedder = Embedder(ScaleTable(**meta["scale"]))
        except (KeyError, TypeError, ValueError) as err:
            raise ValueError(f"{path}: checkpoint manifest holds a bad mic_config or scale ({err!r})") from None
        sizes = (embedder.dim, *config.hidden, 1)
        layers = {}
        for i, (fan_in, fan_out) in enumerate(zip(sizes, sizes[1:])):
            layers[f"fc{i}.w"], layers[f"fc{i}.b"] = (fan_in, fan_out), (fan_out,)
        nm.check_tensors(path, tensors, {"embed.mean": (embedder.dim,), "embed.std": (embedder.dim,), **layers}, "mic_config")
        embedder.mean = tensors["embed.mean"].copy()
        embedder.std = tensors["embed.std"].copy()
        params = {name: nm.Tensor(tensors[name].copy()) for name in layers}
        return cls(embedder, params, config)


def features_and_scores(peptides: Sequence[Peptide], scorer, scale: ScaleTable = DEFAULT_SCALE) -> tuple[np.ndarray, np.ndarray]:
    """`Embedder(scale).features(peptides)` and the scorer's scores of the peptides.

    A scorer is anything with `.score_many(peptides)`. A `MicModel` whose
    embedder has this scale scores a copy of the matrix, so the set's
    descriptors are computed once; any other scorer scores the peptides
    itself.
    """
    features = Embedder(scale).features(peptides)
    if isinstance(scorer, MicModel) and scorer.embedder.scale == scale:
        return features, scorer.score_many(peptides, features)
    return features, scorer.score_many(peptides)


def train_mic(
    train: LabeledSet,
    val: LabeledSet,
    config: MicConfig = MicConfig(),
    embedder: Embedder | None = None,
) -> tuple[MicModel, list[dict]]:
    """`nm.train_epochs` on the focal loss; returns the best-validation-AUROC model."""
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

    def batch_loss(rows):
        loss = focal_loss(model.probabilities(x_train[rows]), y_train[rows], a_train[rows], config.gamma_focal)
        return loss, loss.item(), 1

    @nm.no_grad()
    def validate():
        val_auroc = auroc(model.probabilities(x_val).data, y_val)
        return val_auroc, {"val_auroc": val_auroc}

    history, _, _ = nm.train_epochs(
        model.trainable(), len(y_train), batch_loss, validate, config, substream(config.seed, "mic.shuffle")
    )
    return model, history


def auroc(scores, labels) -> float | None:
    """Rank-statistic AUROC with ties averaged; None when one class is absent."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels)
    n_pos = int((y == 1).sum())
    n_neg = int((y == 0).sum())
    if n_pos == 0 or n_neg == 0:
        return None
    order = np.argsort(s, kind="stable")
    ranks = np.empty(len(s), dtype=np.float64)
    sorted_scores = s[order]
    i = 0
    while i < len(s):
        j = i
        while j + 1 < len(s) and sorted_scores[j + 1] == sorted_scores[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    rank_sum = ranks[y == 1].sum()
    return float((rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def evaluate(model: MicModel, test: LabeledSet) -> dict:
    """AUROC plus thresholded accuracy/F1/confusion counts on one split."""
    if not len(test):
        raise ValueError("cannot evaluate on an empty split")
    scores = model.score_many(test.peptides())
    y = test.labels()
    predicted = (scores >= model.config.threshold).astype(np.int64)
    tp = int(np.sum((predicted == 1) & (y == 1)))
    fp = int(np.sum((predicted == 1) & (y == 0)))
    tn = int(np.sum((predicted == 0) & (y == 0)))
    fn = int(np.sum((predicted == 0) & (y == 1)))
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2.0 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "auroc": auroc(scores, y),
        "accuracy": (tp + tn) / len(y),
        "f1": f1,
        "tp": tp,
        "fp": fp,
        "tn": tn,
        "fn": fn,
    }
