"""Per-peptide scoring and embedding as `amprl` did it before every caller
switched to `score_many` and embedding matrices, kept as a test oracle.

`annotate` and `make_reward_fn` call the classifier once per peptide; the
embedding helpers take an `embed(sequence) -> vector` callable, as the CLI's
`screen` and `eval` fed them one peptide at a time. `test_scoring.py`
checks the batch path against these.
"""
import numpy as np

from amprl.physchem import DEFAULT_SCALE
from amprl.reward import RewardConfig
from amprl.sequences import Peptide, _write_text

from descriptor_oracle import descriptor_vector
from reward_oracle import score_reward
from screening_oracle import AnnotationRecord


def score(model, p):
    """`MicModel.score` before it delegated to `score_many`: a one-row forward."""
    return float(model.probabilities(model.embedder.embed_many([p])[0][None, :]).data[0])


def embed_fn(embedder):
    """The CLI's old `embed` closure: sequence -> standardized feature vector."""
    return lambda seq: embedder.standardize(embedder.features([Peptide("query", seq, "generated_sft")]))[0]


def annotate(peptides, score_one, external_scores=None, scale=DEFAULT_SCALE):
    return [
        AnnotationRecord(
            peptide=pep,
            properties=descriptor_vector(pep, scale),
            mic_score=float(score_one(pep)),
            external_scores=dict((external_scores or {}).get(pep.residues, {})),
        )
        for pep in peptides
    ]


def make_reward_fn(score_one, cfg=RewardConfig(), scale=DEFAULT_SCALE):
    def reward_fn(peptide):
        return score_reward(float(score_one(peptide)), descriptor_vector(peptide, scale), cfg)

    return reward_fn


def diversity_select(records, k, embed):
    if not records:
        return []
    points = np.stack([np.asarray(embed(r.peptide.residues), dtype=np.float64) for r in records])
    n = len(records)
    chosen = [0]
    min_dist = np.linalg.norm(points - points[0], axis=1)
    while len(chosen) < min(k, n):
        min_dist[chosen] = -1.0
        nxt = int(np.argmax(min_dist))
        if min_dist[nxt] < 0.0:
            break
        chosen.append(nxt)
        min_dist = np.minimum(min_dist, np.linalg.norm(points - points[nxt], axis=1))
    return [records[i] for i in chosen]


def nearest_distances(generated, reference, embed):
    """`embedding_distance_profile`'s distances, embedding one peptide per call."""
    gen = np.stack([np.asarray(embed(p.residues), dtype=np.float64) for p in generated])
    ref = np.stack([np.asarray(embed(p.residues), dtype=np.float64) for p in reference])
    dists = np.empty(len(gen))
    for k, row in enumerate(gen):
        diff = row - ref
        dists[k] = np.sqrt(np.sum(diff * diff, axis=1)).min()
    return tuple(float(d) for d in dists)


def export_embeddings_tsv(peptides, embed, sink):
    first = np.asarray(embed(peptides[0].residues), dtype=np.float64)
    lines = ["\t".join(["id"] + [f"e{i}" for i in range(first.size)])]
    for pep in peptides:
        vec = np.asarray(embed(pep.residues), dtype=np.float64)
        lines.append("\t".join([pep.id] + [repr(float(v)) for v in vec]))
    _write_text(sink, "\n".join(lines) + "\n")
