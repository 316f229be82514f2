"""Screening one record at a time, as `amprl.screening` did before it kept a
candidate set as one `PeptideTable`, kept as a test oracle.

Each peptide was one `AnnotationRecord` holding a `PropertyVector`, and each
verdict a `dataclasses.replace`. `annotate` computed the descriptors apart
from the classifier's own features, and the diversity step featurized the
ranked records again. `screen_artifacts` writes what `amprl screen` wrote
from these records; `test_screening.py` checks the table path against it.
"""
import dataclasses
from dataclasses import dataclass, field

import numpy as np

from amprl.alignment import write_hit_table
from amprl.mic import Embedder
from amprl.physchem import DEFAULT_SCALE, descriptors
from amprl.sequences import Peptide, write_fasta

import writer_oracle


@dataclass(frozen=True)
class PropertyVector:
    """The five reward descriptors for one peptide."""

    length: int
    hydrophobicity: float
    hydrophobic_moment: float
    net_charge: float
    isoelectric_point: float

    def __post_init__(self) -> None:
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.hydrophobic_moment < 0.0:
            raise ValueError("hydrophobic moment must be >= 0")
        if not (0.0 <= self.isoelectric_point <= 14.0):
            raise ValueError("isoelectric point must lie in [0,14]")
        if abs(self.net_charge) > self.length + 1:
            raise ValueError("net charge exceeds residue count")


@dataclass(frozen=True)
class AnnotationRecord:
    """A peptide with its descriptors, scores, and screening verdict."""

    peptide: Peptide
    properties: PropertyVector
    mic_score: float | None = None
    external_scores: dict[str, float] = field(default_factory=dict)
    verdict: str = "kept"
    reject_reasons: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.verdict not in ("kept", "rejected"):
            raise ValueError(f"verdict must be 'kept' or 'rejected', got {self.verdict!r}")
        if self.verdict == "rejected" and not self.reject_reasons:
            raise ValueError("rejected verdict requires at least one reason")
        if self.verdict == "kept" and self.reject_reasons:
            raise ValueError("kept verdict must have no reject reasons")
        if self.mic_score is not None and not (0.0 <= self.mic_score <= 1.0):
            raise ValueError(f"mic_score must lie in [0,1], got {self.mic_score}")


def descriptor_vectors(peptides, scale=DEFAULT_SCALE):
    """One PropertyVector per peptide, from one `descriptors` pass."""
    return [PropertyVector(int(row[0]), *row[1:]) for row in descriptors(peptides, scale).tolist()]


def annotate(peptides, scorer, external_scores=None, scale=DEFAULT_SCALE):
    scores = scorer.score_many(peptides)
    return [
        AnnotationRecord(
            peptide=pep,
            properties=props,
            mic_score=float(s),
            external_scores=dict((external_scores or {}).get(pep.residues, {})),
        )
        for pep, props, s in zip(peptides, descriptor_vectors(peptides, scale), scores, strict=True)
    ]


def _failed_filters(record, cfg):
    if record.mic_score is None:
        raise ValueError(f"record {record.peptide.id!r} is missing mic_score")
    reasons = []
    if record.mic_score < cfg.mic_cutoff:
        reasons.append("mic_score")
    if not cfg.min_length <= record.properties.length <= cfg.max_length:
        reasons.append("length")
    checks = (
        ("hydrophobicity", cfg.hydrophobicity_window, record.properties.hydrophobicity),
        ("hydrophobic_moment", cfg.moment_window, record.properties.hydrophobic_moment),
        ("net_charge", cfg.charge_window, record.properties.net_charge),
        ("isoelectric_point", cfg.isoelectric_window, record.properties.isoelectric_point),
    )
    for name, window, value in checks:
        if window is not None and not window[0] <= value <= window[1]:
            reasons.append(name)
    for motif in cfg.forbidden_motifs:
        if motif in record.peptide.residues:
            reasons.append(f"motif:{motif}")
    for name, minimum in cfg.external_minimums:
        if name not in record.external_scores:
            raise ValueError(f"record {record.peptide.id!r} is missing external score {name!r}")
        if record.external_scores[name] < minimum:
            reasons.append(f"external:{name}")
    return reasons


def screen(records, cfg):
    """Partition records into (kept, rejected); rejections list every failed filter."""
    kept, rejected = [], []
    for record in records:
        reasons = _failed_filters(record, cfg)
        if reasons:
            rejected.append(dataclasses.replace(record, verdict="rejected", reject_reasons=tuple(reasons)))
        else:
            kept.append(dataclasses.replace(record, verdict="kept", reject_reasons=()))
    return kept, rejected


def max_identity_by_query(hits):
    out = {}
    for hit in hits:
        frac = hit.identity_pct / 100.0
        if frac > out.get(hit.query, 0.0):
            out[hit.query] = frac
    return out


def _windows_satisfied(record, windows):
    values = {
        "hydrophobicity": record.properties.hydrophobicity,
        "hydrophobic_moment": record.properties.hydrophobic_moment,
        "net_charge": record.properties.net_charge,
        "isoelectric_point": record.properties.isoelectric_point,
    }
    return sum(1 for name, (lo, hi) in windows.items() if lo <= values[name] <= hi)


def prioritize(records, windows, max_identity=None):
    """Total order: mic_score desc, satisfied property windows desc, smallest
    max identity to the reference, then sequence."""
    ident = max_identity or {}

    def key(record):
        return (
            -record.mic_score,
            -_windows_satisfied(record, windows),
            ident.get(record.peptide.id, 0.0),
            record.peptide.residues,
        )

    return sorted(records, key=key)


def diversity_select(records, k, points):
    if not records:
        return []
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


def screen_artifacts(candidates, scorer, external, reference, cfg, windows, novelty_filter, out, scale=DEFAULT_SCALE):
    """`amprl screen`'s hits.tsv, screened.jsonl, selected.fasta and selected.jsonl, written into `out` from records.

    `novelty_filter` is a record-based novelty filter (one of `alignment_oracle`'s).
    """
    kept, rejected = screen(annotate(candidates, scorer, external, scale), cfg)
    hits = []
    if reference:
        kept, removed, hits = novelty_filter(kept, reference, cfg)
        rejected.extend(removed)
    write_hit_table(hits, out / "hits.tsv")
    by_id = {r.peptide.id: r for r in kept + rejected}
    writer_oracle.write_records([by_id[p.id] for p in candidates], "jsonl", out / "screened.jsonl")
    ranked = prioritize(kept, windows, max_identity_by_query(hits))
    selected = []
    if ranked:
        embedder = Embedder(scale=scale)
        raw = embedder.features([r.peptide for r in ranked])
        selected = diversity_select(ranked, cfg.diversity_k, embedder.fit(raw).standardize(raw))
    write_fasta([r.peptide for r in selected], out / "selected.fasta")
    writer_oracle.write_records(selected, "jsonl", out / "selected.jsonl")
