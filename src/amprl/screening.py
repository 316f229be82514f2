"""Virtual screening and library construction.

Screening applies a score cutoff plus optional physicochemical, motif, and
external-score filters, removes candidates too similar to a reference set,
ranks the survivors, and picks a diverse subset. Library construction
samples a policy until a target number of unique, length-valid sequences is
reached, annotates them, and persists FASTA/JSONL plus a pass-ratio stats
table.
"""
from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import rng as _rng
from .alignment import SimilarityHit, make_hit, search
from .physchem import DEFAULT_SCALE, ScaleTable, descriptor_vector
from .reward import RewardConfig
from .sequences import RESIDUE_SET, AnnotationRecord, Peptide, _write_text, encode, write_fasta, write_records

Window = tuple[float, float]


@dataclass(frozen=True)
class ScreenConfig:
    mic_cutoff: float = 0.4
    min_length: int = 1
    max_length: int = 50
    hydrophobicity_window: Window | None = None
    moment_window: Window | None = None
    charge_window: Window | None = None
    isoelectric_window: Window | None = None
    forbidden_motifs: tuple[str, ...] = ()
    external_minimums: tuple[tuple[str, float], ...] = ()
    novelty_identity: float = 0.9
    novelty_coverage: float = 0.70
    diversity_k: int = 100
    batch_size: int = 256
    stagnation_fraction: float = 0.99

    def __post_init__(self) -> None:
        if not 0.0 <= self.mic_cutoff <= 1.0:
            raise ValueError("mic_cutoff must lie in [0,1]")
        if self.min_length < 1 or self.max_length < self.min_length:
            raise ValueError("length bounds must satisfy 1 <= min <= max")
        for name in ("hydrophobicity_window", "moment_window", "charge_window", "isoelectric_window"):
            win = getattr(self, name)
            if win is not None and win[0] > win[1]:
                raise ValueError(f"{name} bounds are reversed")
        if not 0.0 < self.novelty_identity <= 1.0:
            raise ValueError("novelty_identity must lie in (0,1]")
        if not 0.0 < self.novelty_coverage <= 1.0:
            raise ValueError("novelty_coverage must lie in (0,1]")
        if self.diversity_k < 1:
            raise ValueError("diversity_k must be >= 1")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if not 0.0 < self.stagnation_fraction <= 1.0:
            raise ValueError("stagnation_fraction must lie in (0,1]")


def default_property_windows(cfg: RewardConfig = RewardConfig()) -> dict[str, Window]:
    """The reward clamp ranges, reused as property acceptance windows."""
    return {
        "hydrophobicity": cfg.clamp_hydrophobicity,
        "hydrophobic_moment": cfg.clamp_moment,
        "net_charge": cfg.clamp_charge,
        "isoelectric_point": cfg.clamp_isoelectric,
    }


def _failed_filters(record: AnnotationRecord, cfg: ScreenConfig) -> list[str]:
    if record.mic_score is None:
        raise ValueError(f"record {record.peptide.id!r} is missing mic_score")
    reasons: list[str] = []
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


def screen(records: Sequence[AnnotationRecord], cfg: ScreenConfig) -> tuple[list[AnnotationRecord], list[AnnotationRecord]]:
    """Partition records into (kept, rejected); rejections list every failed filter."""
    kept: list[AnnotationRecord] = []
    rejected: list[AnnotationRecord] = []
    for record in records:
        reasons = _failed_filters(record, cfg)
        if reasons:
            rejected.append(dataclasses.replace(record, verdict="rejected", reject_reasons=tuple(reasons)))
        else:
            kept.append(dataclasses.replace(record, verdict="kept", reject_reasons=()))
    return kept, rejected


def novelty_filter(
    records: Sequence[AnnotationRecord],
    reference: Sequence[Peptide],
    cfg: ScreenConfig,
) -> tuple[list[AnnotationRecord], list[AnnotationRecord], list[SimilarityHit]]:
    """Drop candidates with a reference match covering more than the coverage
    fraction of their length at or above the identity threshold.

    Returns (kept, removed, hits); hits hold the best-scoring alignment per
    candidate that aligned at all, including kept candidates.
    """
    if not reference:
        raise ValueError("reference set must be non-empty")
    db_residues = sum(len(t) for t in reference)
    targets = encode([t.residues for t in reference])
    queries, lengths = encode([r.peptide.residues for r in records])
    kept: list[AnnotationRecord] = []
    removed: list[AnnotationRecord] = []
    hits: list[SimilarityHit] = []
    for record, codes, n in zip(records, queries, lengths):
        query = record.peptide
        scores, matches, columns = search(codes[:n], targets, local=True)
        # columns is 0 only where nothing aligned, and then fails the coverage test
        identity = matches / np.maximum(columns, 1)
        similar = bool(np.any((columns > cfg.novelty_coverage * n) & (identity >= cfg.novelty_identity)))
        aligned = np.flatnonzero(scores > 0.0)
        if aligned.size:
            k = min(aligned, key=lambda k: (-scores[k], reference[k].id))
            hits.append(make_hit(query, reference[k], scores[k], matches[k], columns[k], db_residues))
        if similar:
            removed.append(dataclasses.replace(record, verdict="rejected", reject_reasons=("novelty",)))
        else:
            kept.append(record)
    return kept, removed, hits


def max_identity_by_query(hits: Sequence[SimilarityHit]) -> dict[str, float]:
    out: dict[str, float] = {}
    for hit in hits:
        frac = hit.identity_pct / 100.0
        if frac > out.get(hit.query, 0.0):
            out[hit.query] = frac
    return out


def _windows_satisfied(record: AnnotationRecord, windows: dict[str, Window]) -> int:
    values = {
        "hydrophobicity": record.properties.hydrophobicity,
        "hydrophobic_moment": record.properties.hydrophobic_moment,
        "net_charge": record.properties.net_charge,
        "isoelectric_point": record.properties.isoelectric_point,
    }
    return sum(1 for name, (lo, hi) in windows.items() if lo <= values[name] <= hi)


def prioritize(
    records: Sequence[AnnotationRecord],
    windows: dict[str, Window],
    max_identity: dict[str, float] | None = None,
) -> list[AnnotationRecord]:
    """Total order: mic_score desc, satisfied property windows desc, smallest
    max identity to the reference, then sequence."""
    ident = max_identity or {}

    def key(record: AnnotationRecord):
        if record.mic_score is None:
            raise ValueError(f"record {record.peptide.id!r} is missing mic_score")
        return (
            -record.mic_score,
            -_windows_satisfied(record, windows),
            ident.get(record.peptide.id, 0.0),
            record.peptide.residues,
        )

    return sorted(records, key=key)


def diversity_select(
    records: Sequence[AnnotationRecord],
    k: int,
    points: np.ndarray,
) -> list[AnnotationRecord]:
    """Greedy max-min (farthest point) subset of size min(k, n).

    Row i of `points` embeds records[i]. Records must arrive in priority
    order; selection starts from the first and distance ties keep the
    higher-priority candidate.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if not records:
        return []
    if len(points) != len(records):
        raise ValueError(f"{len(points)} embedding rows for {len(records)} records")
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


def read_external_scores(path: str | Path) -> dict[str, dict[str, float]]:
    """JSONL of {"sequence": ..., "scores": {name: value}} keyed by sequence.

    Structure predictions, hemolysis predictions, and similar third-party
    annotations all arrive through this one format. A sequence is stripped
    and uppercased as `parse_fasta` does. ValueError names the line of a
    sequence outside the 20 residues or given twice (and the first line),
    and of any score that is not a finite JSON number.
    """
    table: dict[str, dict[str, float]] = {}
    lines: dict[str, int] = {}
    text = Path(path).read_text()
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError as err:
            raise ValueError(f"{path} line {n}: invalid JSON ({err})") from None
        if not isinstance(row, dict) or "sequence" not in row or "scores" not in row:
            raise ValueError(f"{path} line {n}: expected keys 'sequence' and 'scores'")
        if not isinstance(row["sequence"], str):
            raise ValueError(f"{path} line {n}: 'sequence' must be a string")
        if not isinstance(row["scores"], dict):
            raise ValueError(f"{path} line {n}: 'scores' must be an object")
        seq = row["sequence"].strip().upper()
        if not seq:
            raise ValueError(f"{path} line {n}: empty sequence")
        bad = [ch for ch in seq if ch not in RESIDUE_SET]
        if bad:
            raise ValueError(f"{path} line {n}: invalid residue {bad[0]!r}")
        if seq in lines:
            raise ValueError(f"{path} line {n}: sequence {seq} repeats line {lines[seq]}")
        for name, value in row["scores"].items():
            # bool is an int subclass, and NaN would pass every minimum filter
            if isinstance(value, bool) or not isinstance(value, (int, float)) or not math.isfinite(value):
                raise ValueError(f"{path} line {n}: score {name!r} must be a finite number, got {json.dumps(value)}")
        lines[seq] = n
        table[seq] = {str(k): float(v) for k, v in row["scores"].items()}
    return table


def annotate(
    peptides: Sequence[Peptide],
    scorer,
    external_scores: dict[str, dict[str, float]] | None = None,
    scale: ScaleTable = DEFAULT_SCALE,
) -> list[AnnotationRecord]:
    """Attach descriptors, activity score (one `score_many` call), and any
    external scores."""
    scores = scorer.score_many(peptides)
    return [
        AnnotationRecord(
            peptide=pep,
            properties=descriptor_vector(pep, scale),
            mic_score=float(s),
            external_scores=dict((external_scores or {}).get(pep.residues, {})),
        )
        for pep, s in zip(peptides, scores, strict=True)
    ]


def _ratio_row(name: str, total: int, passed: int) -> dict:
    return {
        "filter": name,
        "total": total,
        "pass": passed,
        "fail": total - passed,
        "pass_ratio": passed / total if total else 0.0,
    }


def build_library(
    policy,
    scorer,
    target_count: int,
    cfg: ScreenConfig,
    seed: int,
    out_dir: str | Path,
    source: str = "generated_sft",
    external_scores: dict[str, dict[str, float]] | None = None,
    temperature: float = 1.0,
    top_k: int | None = None,
    scale: ScaleTable = DEFAULT_SCALE,
) -> tuple[list[AnnotationRecord], dict]:
    """Sample until target_count unique length-valid sequences, annotate, persist.

    Aborts when a whole sampling batch is nearly all duplicates (stagnation)
    or when the sampling budget is exhausted without reaching the target.
    """
    from .policy import sample

    if target_count < 1:
        raise ValueError("target_count must be >= 1")
    out = Path(out_dir)
    unique: list[Peptide] = []
    seen: set[str] = set()
    sampled_total = 0
    length_fail = 0
    duplicate_fail = 0
    batch_index = 0
    # hard ceiling so a never-stagnating low-yield sampler still terminates
    budget = 200 * target_count + 10 * cfg.batch_size
    while len(unique) < target_count:
        if sampled_total >= budget:
            raise RuntimeError(
                f"sampling budget exhausted: {len(unique)}/{target_count} unique after {sampled_total} samples"
            )
        batch_seed = int(_rng.substream(seed, f"library.batch.{batch_index}").integers(1 << 62))
        draws = sample(
            policy,
            cfg.batch_size,
            temperature=temperature,
            top_k=top_k,
            seed=batch_seed,
            source=source,
            id_prefix="lib",
            id_start=sampled_total,
        )
        batch_dups = 0
        for draw in draws:
            sampled_total += 1
            residues = draw.peptide.residues
            if not cfg.min_length <= len(residues) <= cfg.max_length:
                length_fail += 1
                continue
            if residues in seen:
                duplicate_fail += 1
                batch_dups += 1
                continue
            seen.add(residues)
            unique.append(Peptide(f"lib-{len(unique):06d}", residues, source))
        if batch_dups > cfg.stagnation_fraction * cfg.batch_size:
            raise RuntimeError(
                f"sampling stagnated: batch {batch_index} produced {batch_dups}/{cfg.batch_size} duplicates "
                f"({len(unique)}/{target_count} unique so far)"
            )
        batch_index += 1
    surplus = len(unique) - target_count
    unique = unique[:target_count]
    records = annotate(unique, scorer, external_scores, scale)

    length_pass = sampled_total - length_fail
    unique_pass = length_pass - duplicate_fail
    stats = {
        "target_count": target_count,
        "sampled_total": sampled_total,
        "library_size": len(records),
        "filters": [
            _ratio_row("length", sampled_total, length_pass),
            _ratio_row("duplicate", length_pass, unique_pass),
            _ratio_row("surplus", unique_pass, unique_pass - surplus),
        ],
        "annotation": [
            _ratio_row("mic_score", len(records), sum(1 for r in records if r.mic_score >= cfg.mic_cutoff)),
        ],
    }
    write_fasta(unique, out / "library.fasta")
    write_records(records, "jsonl", out / "library.jsonl")
    _write_text(out / "library_stats.json", json.dumps(stats, sort_keys=True, indent=2) + "\n")
    return records, stats
