"""The batch scoring and embedding path against the per-peptide oracle.

Embeddings of a list are bit-identical to one-peptide embeddings. Scores of a
list may differ from one-row scores by rounding, because the BLAS library can
pick a different kernel for a different row count; the bound is 1e-14.
"""
import io
import json
import re
import sys
from dataclasses import astuple

import numpy as np
import pytest

from amprl.cli import main
from amprl.evalmetrics import embedding_distance_profile, export_embeddings_tsv
from amprl.mic import Embedder, MicConfig, MicModel
from amprl.reward import RewardConfig, make_reward_fn
from amprl.screening import annotate, default_property_windows, diversity_select, prioritize
from amprl.sequences import write_fasta

import scoring_oracle
import screening_oracle
from conftest import random_peptides, unique_random_peptides

BATCH_SIZES = (1, 8, 16, 33)
SCORE_TOLERANCE = 1e-14


def _model(seed=0):
    """An untrained classifier of the default shape; its scores spread over (0,1)."""
    emb = Embedder()
    emb.fit(emb.features(unique_random_peptides(60, np.random.default_rng(seed), min_len=5, max_len=40)))
    return MicModel.init(emb, MicConfig(), seed=seed)


def _peptides(n, seed=None):
    return random_peptides(n, np.random.default_rng(n if seed is None else seed), min_len=1, max_len=50)


class CountingScorer:
    def __init__(self, model):
        self.model = model
        self.batches = []

    def score_many(self, peptides):
        self.batches.append(len(peptides))
        return self.model.score_many(peptides)


@pytest.mark.parametrize("n", BATCH_SIZES)
def test_batched_scores_match_per_peptide_oracle(n):
    model = _model()
    peps = _peptides(n)
    got = model.score_many(peps)
    want = np.array([scoring_oracle.score(model, p) for p in peps])
    assert got.shape == (n,)
    assert np.max(np.abs(got - want)) <= SCORE_TOLERANCE
    assert model.score(peps[-1]) == scoring_oracle.score(model, peps[-1])


@pytest.mark.parametrize("n", BATCH_SIZES)
def test_annotate_matches_per_peptide_oracle(n):
    model = _model()
    peps = _peptides(n)
    external = {peps[0].residues: {"plddt": 0.5}}
    scorer = CountingScorer(model)
    got = annotate(peps, scorer, external)
    want = scoring_oracle.annotate(peps, lambda p: scoring_oracle.score(model, p), external)
    assert scorer.batches == [n]
    assert got.peptides == [w.peptide for w in want]
    assert got.features[:, :5].tolist() == [list(astuple(w.properties)) for w in want]
    assert got.external == [w.external_scores for w in want]
    assert np.max(np.abs(got.scores - [w.mic_score for w in want])) <= SCORE_TOLERANCE
    # the classifier itself scores a copy of the table's features: the same bits as its own pass
    direct = annotate(peps, model, external)
    assert direct.scores.tobytes() == model.score_many(peps).tobytes()
    assert direct.features.tobytes() == got.features.tobytes() == Embedder().features(peps).tobytes()


@pytest.mark.parametrize("n", BATCH_SIZES)
def test_reward_fn_matches_per_peptide_oracle(n):
    model = _model()
    peps = _peptides(n)
    cfg = RewardConfig()
    scorer = CountingScorer(model)
    got = make_reward_fn(scorer, cfg)(peps)
    oracle = scoring_oracle.make_reward_fn(lambda p: scoring_oracle.score(model, p), cfg)
    assert scorer.batches == [n]
    want = [oracle(p) for p in peps]
    assert got.descriptors.tolist() == [list(astuple(w.props)) for w in want]
    assert got.r_property.tobytes() == np.array([w.r_property for w in want]).tobytes()
    for field in ("s", "r_mic", "r_total"):
        column = getattr(got, field)
        assert column.shape == (n,), field
        assert np.max(np.abs(column - [getattr(w, field) for w in want])) <= SCORE_TOLERANCE, field


def test_reward_fn_rejects_a_scorer_of_the_wrong_length():
    class Scorer:
        def __init__(self, shape):
            self.shape = shape

        def score_many(self, peptides):
            return np.full(self.shape, 0.5)

    for shape in ((2,), (4,), (1, 3)):
        with pytest.raises(ValueError, match=re.escape(f"expected 3 classifier scores, got an array of shape {shape}")):
            make_reward_fn(Scorer(shape))(_peptides(3))


def test_batched_embeddings_equal_per_peptide_oracle():
    emb = _model().embedder
    embed = scoring_oracle.embed_fn(emb)
    for n in BATCH_SIZES:
        peps = _peptides(n)
        assert np.array_equal(emb.embed_many(peps), np.stack([embed(p.residues) for p in peps]))
        assert all(np.array_equal(emb.embed(p), embed(p.residues)) for p in peps)


def test_diversity_select_on_a_matrix_matches_the_callable_oracle():
    model = _model()
    table = annotate(_peptides(33), model)
    ranked = prioritize(table, default_property_windows())
    records = screening_oracle.annotate([table.peptides[i] for i in ranked], model)
    emb = Embedder()
    raw = table.features[ranked]
    # the table's rows are the features of the ranked peptides on their own
    assert raw.tobytes() == emb.features([r.peptide for r in records]).tobytes()
    embed = scoring_oracle.embed_fn(emb.fit(raw))
    points = emb.standardize(raw)
    for k in (1, 5, 20, 100):
        got = [table.peptides[i].id for i in diversity_select(ranked, k, points)]
        assert got == [r.peptide.id for r in scoring_oracle.diversity_select(records, k, embed)]


def test_distances_and_export_on_matrices_match_the_callable_oracle():
    emb = _model().embedder
    embed = scoring_oracle.embed_fn(emb)
    gen, ref = _peptides(16, seed=1), _peptides(33, seed=2)
    gen_m, ref_m = emb.embed_many(gen), emb.embed_many(ref)
    dists = embedding_distance_profile(gen_m, ref_m)
    assert tuple(dists.tolist()) == scoring_oracle.nearest_distances(gen, ref, embed)
    for peps, matrix in ((gen, gen_m), (ref, ref_m)):
        got, want = io.StringIO(), io.StringIO()
        export_embeddings_tsv(peps, matrix, got)
        scoring_oracle.export_embeddings_tsv(peps, embed, want)
        assert got.getvalue() == want.getvalue()


def test_eval_cli_exports_the_oracle_embeddings(tmp_path, capsys):
    gen, ref = _peptides(16, seed=3), _peptides(33, seed=4)
    write_fasta(gen, tmp_path / "gen.fasta")
    write_fasta(ref, tmp_path / "ref.fasta")
    out = tmp_path / "out"
    argv = ["eval", "--generated", str(tmp_path / "gen.fasta"), "--reference", str(tmp_path / "ref.fasta")]
    assert main(argv + ["--export-embeddings", "--output-dir", str(out)]) == 0
    emb = Embedder()
    embed = scoring_oracle.embed_fn(emb.fit(emb.features(ref)))
    for peps, name in ((gen, "embeddings_generated.tsv"), (ref, "embeddings_reference.tsv")):
        want = io.StringIO()
        scoring_oracle.export_embeddings_tsv(peps, embed, want)
        assert (out / name).read_text() == want.getvalue()


def test_score_mic_cli_matches_per_peptide_oracle(tmp_path, capsys):
    model = _model()
    model.save(tmp_path / "mic.ckpt")
    peps = _peptides(33)
    write_fasta(peps, tmp_path / "in.fasta")
    out = tmp_path / "out"
    assert main(["score-mic", "--model", str(tmp_path / "mic.ckpt"), "--input", str(tmp_path / "in.fasta"),
                 "--output-dir", str(out)]) == 0
    rows = [line.split("\t") for line in (out / "scores.tsv").read_text().splitlines()[1:]]
    assert [(pid, seq) for pid, seq, _ in rows] == [(p.id, p.residues) for p in peps]
    for (_, _, s), p in zip(rows, peps):
        assert abs(float(s) - scoring_oracle.score(model, p)) <= SCORE_TOLERANCE


@pytest.fixture
def descriptor_calls(monkeypatch):
    """The row count of each `physchem.descriptors` call while the test runs, at every binding of it."""
    from amprl import physchem

    real, calls = physchem.descriptors, []

    def counted(peptides, *args, **kwargs):
        calls.append(len(peptides))
        return real(peptides, *args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "amprl" and getattr(module, "descriptors", None) is real:
            monkeypatch.setattr(module, "descriptors", counted)
    return calls


def test_screen_build_library_and_rl_compute_each_descriptor_once(tmp_path, capsys, descriptor_calls):
    from amprl.policy import ModelConfig, PolicyModel

    write_fasta(_peptides(12), tmp_path / "in.fasta")
    _model().save(tmp_path / "mic.ckpt")
    PolicyModel.init(ModelConfig(embed_dim=16, n_layers=1, n_heads=2, max_len=10, mlp_ratio=2), seed=3).save(tmp_path / "sft.ckpt")
    (tmp_path / "scale.txt").write_text("hydropathy K 3.0\n")
    sections = {
        "ppo": {"iterations": 2, "n_actors": 8, "horizon": 11, "max_len": 10, "minibatch_size": 4, "epochs": 1},
        "screen": {"min_length": 1, "max_length": 10, "batch_size": 16},
        "library": {"target_count": 6},
    }
    (tmp_path / "same.json").write_text(json.dumps(sections))
    (tmp_path / "other.json").write_text(json.dumps({**sections, "scales": {"overrides": str(tmp_path / "scale.txt")}}))
    mic = ["--mic-model", str(tmp_path / "mic.ckpt")]

    def calls(command, config="same"):
        descriptor_calls.clear()
        assert main(command + mic + ["--config", str(tmp_path / f"{config}.json"), "--output-dir", str(tmp_path / config)]) == 0
        return list(descriptor_calls)

    assert calls(["screen", "--input", str(tmp_path / "in.fasta")]) == [12]
    assert calls(["rl", "--sft-checkpoint", str(tmp_path / "sft.ckpt")]) == [8, 8]  # one pass per iteration
    assert calls(["build-library", "--checkpoint", str(tmp_path / "same" / "rl.ckpt")]) == [6]
    # a classifier on another scale featurizes the set on its own scale
    assert calls(["screen", "--input", str(tmp_path / "in.fasta")], "other") == [12, 12]
