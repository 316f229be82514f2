"""Activity classifier: embedder, focal loss, AUROC, training, persistence."""
import io
import json

import numpy as np
import pytest

import amprl.numerics as nm
from amprl.cli import main
from amprl.mic import (
    Embedder,
    LabeledSet,
    MicConfig,
    MicModel,
    auroc,
    evaluate,
    focal_loss,
    read_labeled_tsv,
    train_mic,
    write_labeled_tsv,
)
from amprl.physchem import EISENBERG_HYDROPATHY, PKA, ScaleTable
from amprl.sequences import RESIDUES, Peptide

from conftest import random_peptides, unique_random_peptides
from feature_oracle import raw_features


def _separable_set(n, rng, split):
    """Positives are K/R-heavy, negatives D/E-heavy; easily separable."""
    items = []
    seen = set()
    i = 0
    while len(items) < n:
        pos = len(items) % 2 == 0
        pool = "KRLW" if pos else "DEGS"
        length = int(rng.integers(10, 24))
        residues = "".join(rng.choice(list(pool), size=length))
        if residues in seen:
            continue
        seen.add(residues)
        items.append((Peptide(f"{split}{i}", residues, "natural"), 1 if pos else 0))
        i += 1
    return LabeledSet(items, split)


def _fitted(peptides):
    emb = Embedder()
    return emb.fit(emb.features(peptides))


def test_labeled_set_rejects_duplicates_and_bad_labels():
    p = Peptide("a", "KKKKKKKK", "natural")
    q = Peptide("b", "KKKKKKKK", "natural")
    with pytest.raises(ValueError, match="duplicate"):
        LabeledSet([(p, 1), (q, 0)], "train")
    with pytest.raises(ValueError, match="label"):
        LabeledSet([(p, 2)], "train")


def test_embedder_features_are_deterministic_and_finite():
    rng = np.random.default_rng(0)
    peps = unique_random_peptides(10, rng)
    emb = _fitted(peps)
    mat = emb.embed_many(peps)
    assert mat.shape == (10, emb.dim)
    assert np.isfinite(mat).all()
    assert np.array_equal(mat, _fitted(peps).embed_many(peps))


def test_embedder_standardization_is_frozen_at_fit_time():
    rng = np.random.default_rng(1)
    train = unique_random_peptides(40, rng, prefix="tr")
    emb = _fitted(train)
    mat = emb.embed_many(train)
    # z-scored on the fitted set
    assert np.allclose(mat.mean(axis=0), 0.0, atol=1e-9)
    # re-embedding one training peptide later reuses the frozen statistics
    one = emb.embed(train[3])
    assert np.array_equal(one, mat[3])
    # fitting on different data changes the statistics
    other = _fitted(unique_random_peptides(40, rng, prefix="ot"))
    assert not np.allclose(other.embed(train[3]), one)


def test_embedder_ignores_id_and_source():
    emb = _fitted([Peptide("x", "KKLLWWKK", "natural")])
    a = emb.embed(Peptide("x", "KKLLWWKK", "natural"))
    b = emb.embed(Peptide("zzz", "KKLLWWKK", "generated_rl"))
    assert np.array_equal(a, b)


@pytest.mark.parametrize("override", [False, True])
def test_features_match_per_peptide_oracle(override):
    scale = ScaleTable()
    if override:
        scale = ScaleTable(
            hydropathy={**EISENBERG_HYDROPATHY, "K": 2.5, "W": -1.25},
            pka={**PKA, "K": 9.1, "n_term": 8.2, "D": 4.4},
        )
    rng = np.random.default_rng(3)
    peps = [Peptide(f"one{r}", r) for r in RESIDUES]  # length 1: no dipeptides
    peps += [Peptide("two", "KW"), Peptide("twin", "WW"), Peptide("all", RESIDUES), Peptide("back", RESIDUES[::-1])]
    peps += [Peptide("basic", "KKRRKK"), Peptide("acidic", "DDEEDD")]
    peps += random_peptides(60, rng, min_len=1, max_len=40)
    emb = Embedder(scale=scale)
    expected = np.stack([raw_features(p, scale) for p in peps])
    raw = emb.features(peps)
    assert np.array_equal(raw, expected)
    assert all(np.array_equal(emb.features([p])[0], row) for p, row in zip(peps, expected))
    # standardizing in place gives the old out-of-place embedding
    emb.fit(raw)
    old = (expected - expected.mean(axis=0)) / np.where(expected.std(axis=0) < 1e-12, 1.0, expected.std(axis=0))
    assert np.array_equal(emb.standardize(raw), old)
    assert np.array_equal(emb.embed(peps[-1]), old[-1])


def test_embedder_fit_rejects_an_empty_set():
    with pytest.raises(ValueError, match="no peptides"):
        Embedder().fit(Embedder().features([]))


def _bce(p, y):
    return float(np.mean(-(y * np.log(p) + (1 - y) * np.log(1 - p))))


def test_focal_loss_reduces_to_cross_entropy():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 40))
        p = rng.uniform(0.02, 0.98, size=n)
        y = rng.integers(0, 2, size=n).astype(float)
        loss = focal_loss(nm.Tensor(p), y, alpha=np.ones(n), gamma=0.0)
        assert abs(loss.item() - _bce(p, y)) < 1e-12


def test_focal_loss_matches_direct_formula():
    rng = np.random.default_rng(3)
    p = rng.uniform(0.05, 0.95, size=16)
    y = rng.integers(0, 2, size=16).astype(float)
    alpha = rng.uniform(0.5, 2.0, size=16)
    gamma = 2.0
    p_true = np.where(y == 1, p, 1 - p)
    expected = float(np.mean(-alpha * (1 - p_true) ** gamma * np.log(p_true)))
    loss = focal_loss(nm.Tensor(p), y, alpha=alpha, gamma=gamma)
    assert loss.item() == pytest.approx(expected, rel=1e-12)


def test_focal_gamma_downweights_confident_samples():
    p = np.array([0.9])
    y = np.array([1.0])
    losses = [focal_loss(nm.Tensor(p), y, alpha=np.ones(1), gamma=g).item() for g in (0.0, 1.0, 2.0, 4.0)]
    assert losses == sorted(losses, reverse=True)


def _auroc_oracle(scores, labels):
    # O(n^2) pairwise comparison with half-credit ties
    pos = [s for s, l in zip(scores, labels) if l == 1]
    neg = [s for s, l in zip(scores, labels) if l == 0]
    if not pos or not neg:
        return None
    total = 0.0
    for sp in pos:
        for sn in neg:
            if sp > sn:
                total += 1.0
            elif sp == sn:
                total += 0.5
    return total / (len(pos) * len(neg))


def test_auroc_matches_pairwise_oracle_with_ties():
    rng = np.random.default_rng(4)
    for _ in range(30):
        n = int(rng.integers(4, 50))
        scores = np.round(rng.uniform(size=n), 1)  # coarse grid forces ties
        labels = rng.integers(0, 2, size=n)
        if labels.min() == labels.max():
            labels[0] = 1 - labels[0]
        assert auroc(scores, labels) == pytest.approx(_auroc_oracle(scores, labels), abs=1e-12)


def test_auroc_edge_cases():
    assert auroc(np.array([0.9, 0.8, 0.2, 0.1]), np.array([1, 1, 0, 0])) == 1.0
    assert auroc(np.array([0.1, 0.2, 0.8, 0.9]), np.array([1, 1, 0, 0])) == 0.0
    assert auroc(np.array([0.5, 0.5, 0.5]), np.array([1, 0, 1])) == 0.5
    assert auroc(np.array([0.3, 0.4]), np.array([1, 1])) is None


def test_train_mic_separates_synthetic_classes():
    rng = np.random.default_rng(5)
    train = _separable_set(80, rng, "train")
    val = _separable_set(24, rng, "val")
    cfg = MicConfig(hidden=(16,), lr=3e-3, epochs=12, batch_size=16, patience=12, seed=0)
    emb = _fitted(train.peptides())
    model, history = train_mic(train, val, cfg, embedder=emb)
    report = evaluate(model, _separable_set(30, rng, "test"))
    assert report["auroc"] > 0.95
    assert history[0]["epoch"] == 1
    assert all(set(row) == {"epoch", "train_loss", "val_auroc"} for row in history)
    assert report["tp"] + report["fp"] + report["tn"] + report["fn"] == 30


def test_training_is_seed_deterministic():
    rng = np.random.default_rng(6)
    train = _separable_set(40, rng, "train")
    val = _separable_set(12, rng, "val")
    cfg = MicConfig(hidden=(8,), lr=3e-3, epochs=3, batch_size=8, patience=3, seed=7)
    emb = _fitted(train.peptides())
    m1, h1 = train_mic(train, val, cfg, embedder=emb)
    m2, h2 = train_mic(train, val, cfg, embedder=emb)
    assert h1 == h2
    probe = val.peptides()[0]
    assert m1.score(probe) == m2.score(probe)


def test_scores_are_probabilities_and_ignore_metadata():
    rng = np.random.default_rng(7)
    train = _separable_set(40, rng, "train")
    cfg = MicConfig(hidden=(8,), lr=3e-3, epochs=2, batch_size=8, patience=2, seed=0)
    emb = _fitted(train.peptides())
    model, _ = train_mic(train, _separable_set(12, rng, "val"), cfg, embedder=emb)
    s = model.score(Peptide("a", "KRKRKRKRKR", "natural"))
    assert 0.0 < s < 1.0
    assert s == model.score(Peptide("other", "KRKRKRKRKR", "generated_rl"))
    many = model.score_many([Peptide("a", "KRKRKRKRKR", "natural"), Peptide("b", "DEDEDEDEDE", "natural")])
    assert many[0] == pytest.approx(s, abs=1e-12)


def test_scoring_and_validation_record_no_autodiff_graph(graph_nodes, monkeypatch):
    rng = np.random.default_rng(10)
    train, val = _separable_set(40, rng, "train"), _separable_set(12, rng, "val")
    validation_nodes = []
    real_train_epochs = nm.train_epochs

    def checked_train_epochs(params, n, batch_loss, validate, schedule, shuffle):
        def counted_validate():
            before = len(graph_nodes)
            out = validate()
            validation_nodes.append(len(graph_nodes) - before)
            return out

        return real_train_epochs(params, n, batch_loss, counted_validate, schedule, shuffle)

    monkeypatch.setattr(nm, "train_epochs", checked_train_epochs)
    cfg = MicConfig(hidden=(8,), lr=3e-3, epochs=2, batch_size=8, patience=2, seed=0)
    model, _ = train_mic(train, val, cfg, embedder=_fitted(train.peptides()))
    assert validation_nodes == [0, 0] and graph_nodes  # the training steps do record a graph
    assert all(p.requires_grad for p in model.trainable())
    graph_nodes.clear()
    scores = model.score_many(val.peptides())
    evaluate(model, val)
    assert not graph_nodes
    recorded = model.probabilities(model.embedder.embed_many(val.peptides()))
    assert recorded._record is not None and recorded.data.tobytes() == scores.tobytes()


def test_model_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    train = _separable_set(40, rng, "train")
    cfg = MicConfig(hidden=(8,), lr=3e-3, epochs=2, batch_size=8, patience=2, seed=0)
    emb = _fitted(train.peptides())
    model, _ = train_mic(train, _separable_set(12, rng, "val"), cfg, embedder=emb)
    path = tmp_path / "mic.ckpt"
    model.save(path)
    loaded = MicModel.load(path)
    probe = Peptide("q", "KKKWWWLLL", "natural")
    assert loaded.score(probe) == pytest.approx(model.score(probe), abs=1e-15)


def test_loaded_model_scores_without_an_autodiff_graph(tmp_path):
    rng = np.random.default_rng(9)
    train = _separable_set(40, rng, "train")
    cfg = MicConfig(hidden=(8, 4), lr=3e-3, epochs=2, batch_size=8, patience=2, seed=0)
    model, _ = train_mic(train, _separable_set(12, rng, "val"), cfg, embedder=_fitted(train.peptides()))
    path = tmp_path / "mic.ckpt"
    model.save(path)
    loaded = MicModel.load(path)
    assert not any(p.requires_grad for p in loaded.params.values())
    probes = random_peptides(30, rng, min_len=1, max_len=40) + train.peptides()
    features = loaded.embedder.embed_many(probes)
    out = loaded.probabilities(features)
    assert out._record is None and not out.requires_grad
    recorded = model.probabilities(features)  # the trained weights still require grad
    assert recorded._record is not None
    assert out.data.tobytes() == recorded.data.tobytes()
    assert loaded.score_many(probes).tobytes() == model.score_many(probes).tobytes()


def test_model_save_load_keeps_an_override_scale(tmp_path):
    rng = np.random.default_rng(10)
    scale = ScaleTable(
        version="1+overrides",
        hydropathy={**EISENBERG_HYDROPATHY, "K": 3.0, "L": -2.0},
        pka={**PKA, "K": 9.1, "n_term": 8.2},
    )
    train = _separable_set(40, rng, "train")
    cfg = MicConfig(hidden=(8,), lr=3e-3, epochs=2, batch_size=8, patience=2, seed=0)
    model, _ = train_mic(train, _separable_set(12, rng, "val"), cfg, embedder=Embedder(scale=scale))
    path = tmp_path / "mic.ckpt"
    model.save(path)
    loaded = MicModel.load(path)
    assert loaded.embedder.scale == scale
    probes = random_peptides(30, rng, min_len=1, max_len=40) + train.peptides()
    assert np.array_equal(loaded.embedder.embed_many(probes), model.embedder.embed_many(probes))
    assert np.array_equal(loaded.score_many(probes), model.score_many(probes))


def test_model_load_rejects_a_manifest_without_scale(tmp_path, capsys):
    emb = _fitted([Peptide("a", "GLWKKILGKIKAGL"), Peptide("b", "KKLLDDAAWWRRHH")])
    path = tmp_path / "mic.ckpt"
    MicModel.init(emb, MicConfig(hidden=(4,)), seed=0).save(path)
    manifest = path.with_name("mic.ckpt.json")
    payload = json.loads(manifest.read_text())
    del payload["meta"]["scale"]
    manifest.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="lacks the descriptor scale"):
        MicModel.load(path)
    (tmp_path / "in.fasta").write_text(">p1\nGLWKKILGKIKAGL\n")
    argv = ["score-mic", "--model", str(path), "--input", str(tmp_path / "in.fasta"), "--output-dir", str(tmp_path / "o")]
    assert main(argv) == 1
    assert "lacks the descriptor scale" in capsys.readouterr().err


def test_model_load_ignores_a_recorded_cutoff(tmp_path):
    emb = _fitted([Peptide("a", "GLWKKILGKIKAGL"), Peptide("b", "KKLLDDAAWWRRHH")])
    path = tmp_path / "mic.ckpt"
    model = MicModel.init(emb, MicConfig(hidden=(4,)), seed=0)
    model.save(path)
    manifest = path.with_name("mic.ckpt.json")
    payload = json.loads(manifest.read_text())
    assert "cutoff" not in payload["meta"]["mic_config"]
    payload["meta"]["mic_config"]["cutoff"] = 0.4  # as manifests written before the key was removed
    manifest.write_text(json.dumps(payload))
    loaded = MicModel.load(path)
    assert loaded.config == model.config
    probes = [Peptide("p", "GLWKKILGKIKAGL")]
    assert np.array_equal(loaded.score_many(probes), model.score_many(probes))


def test_model_save_rejects_unfit_embedder(tmp_path):
    model = MicModel.init(Embedder(), MicConfig(hidden=(4,)), seed=0)
    path = tmp_path / "mic.ckpt"
    with pytest.raises(ValueError, match="builtin embedder must be fit before saving"):
        model.save(path)
    assert not path.exists()


def test_model_load_rejects_other_embedder_kinds(tmp_path):
    emb = _fitted([Peptide("a", "GLWKKILGKIKAGL"), Peptide("b", "KKLLDDAAWWRRHH")])
    path = tmp_path / "mic.ckpt"
    MicModel.init(emb, MicConfig(hidden=(4,)), seed=0).save(path)
    manifest = path.with_name("mic.ckpt.json")
    assert '"embedder_kind": "builtin_features"' in manifest.read_text()
    manifest.write_text(manifest.read_text().replace('"builtin_features"', '"external_table"'))
    with pytest.raises(ValueError, match="unsupported embedder kind 'external_table'"):
        MicModel.load(path)


def test_train_mic_rejects_single_class_validation():
    rng = np.random.default_rng(9)
    train = _separable_set(20, rng, "train")
    val = LabeledSet([(p, 1) for p in unique_random_peptides(5, rng, prefix="v")], "val")
    with pytest.raises(ValueError, match="validation set is single-class"):
        train_mic(train, val, MicConfig(hidden=(4,), epochs=2))


def test_labeled_tsv_round_trip():
    items = [
        (Peptide("p0", "KKLLWW", "natural"), 1),
        (Peptide("p1", "DDEEGG", "natural"), 0),
    ]
    buf = io.StringIO()
    write_labeled_tsv(LabeledSet(items, "train"), buf)
    back = read_labeled_tsv(io.StringIO(buf.getvalue()), split="train")
    assert [(p.residues, y) for p, y in back.items] == [("KKLLWW", 1), ("DDEEGG", 0)]


def test_labeled_tsv_rejects_bad_rows():
    with pytest.raises(ValueError, match="header"):
        read_labeled_tsv(io.StringIO("seq\tlabel\nKKK\tactive\n"))
    with pytest.raises(ValueError, match="label"):
        read_labeled_tsv(io.StringIO("sequence\tlabel\nKKKKKKKK\tmaybe\n"))
    # blank lines count, so errors name the line of the file
    with pytest.raises(ValueError, match="^line 5: unknown label 'maybe'$"):
        read_labeled_tsv(io.StringIO("sequence\tlabel\nKKK\tactive\n\n\nGGG\tmaybe\n"))
    with pytest.raises(ValueError, match="^line 3: invalid residue 'X'$"):
        read_labeled_tsv(io.StringIO("sequence\tlabel\n\nKXK\tactive\n"))
    with pytest.raises(ValueError, match="^line 2: empty sequence$"):
        read_labeled_tsv(io.StringIO("sequence\tlabel\n  \tactive\n"))
    with pytest.raises(ValueError, match="^line 2: invalid residue ' '$"):
        read_labeled_tsv(io.StringIO("sequence\tlabel\nKK LL\tactive\n"))


def test_labeled_tsv_names_rows_by_file_line_and_reads_sequences_as_fasta_does():
    got = read_labeled_tsv(io.StringIO("\nsequence\tlabel\n\nacde\t1\n ACDF \tinactive\n"), split="val")
    assert [(p.id, p.residues, y) for p, y in got.items] == [("row4", "ACDE", 1), ("row5", "ACDF", 0)]
    with pytest.raises(ValueError, match="duplicate sequence"):
        read_labeled_tsv(io.StringIO("sequence\tlabel\nacde\t1\nACDE\t0\n"), split="val")
