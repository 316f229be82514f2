"""Virtual screening and library construction.

Screening applies a score cutoff plus optional physicochemical, motif, and
external-score filters, removes candidates too similar to a reference set,
ranks the survivors, and picks a diverse subset. Library construction
samples a policy until a target number of unique, length-valid sequences is
reached, annotates them, and persists FASTA/JSONL plus a pass-ratio stats
table.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass
from itertools import compress
from pathlib import Path
from typing import Sequence

import numpy as np

from . import rng as _rng
from .alignment import GAP_EXTEND, GAP_OPEN, _SCORES, SimilarityHit, local_scores, make_hit, match_bound, search
from .mic import features_and_scores
from .physchem import DEFAULT_SCALE, DESCRIPTORS, ScaleTable
from .policy import _check_sampling, sample
from .reward import RewardConfig
from .sequences import RESIDUE_LETTERS, RESIDUE_SET, Peptide, PeptideTable, encode, write_fasta, write_json, write_records

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
        for motif in self.forbidden_motifs:
            if not motif or not set(motif) <= RESIDUE_SET:
                raise ValueError(f"forbidden motif {motif!r} must be a non-empty string of the 20 residues")
        # a repeat would list its reject reason twice
        names = tuple(name for name, _ in self.external_minimums)
        for kind, items in (("forbidden motif", self.forbidden_motifs), ("external minimum", names)):
            for k, item in enumerate(items):
                if item in items[:k]:
                    raise ValueError(f"{kind} {item!r} is listed more than once")
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


def _in_windows(table: PeptideTable, rows, windows: dict[str, Window]) -> dict[str, np.ndarray]:
    """For each descriptor that `windows` names, whether each of `rows` lies inside its window (bounds included)."""
    column = dict(zip(DESCRIPTORS, table.features[rows, : len(DESCRIPTORS)].T))
    return {name: (lo <= column[name]) & (column[name] <= hi) for name, (lo, hi) in windows.items()}


def screen(table: PeptideTable, cfg: ScreenConfig) -> PeptideTable:
    """The table with each row's failed filters as its reasons; a row with none is kept.

    Each filter is a boolean column, and a row's reasons follow this order:
    mic_score, length, the four property windows, the motifs, the external
    minimums. A row without an external score that the config names raises
    ValueError, which names the first such row.
    """
    names = [name for name, _ in cfg.external_minimums]
    for peptide, scores in zip(table.peptides, table.external):
        missing = [name for name in names if name not in scores]
        if missing:
            raise ValueError(f"record {peptide.id!r} is missing external score {missing[0]!r}")
    windows = {
        "length": (cfg.min_length, cfg.max_length),
        "hydrophobicity": cfg.hydrophobicity_window,
        "hydrophobic_moment": cfg.moment_window,
        "net_charge": cfg.charge_window,
        "isoelectric_point": cfg.isoelectric_window,
    }
    inside = _in_windows(table, slice(None), {name: w for name, w in windows.items() if w is not None})
    failed = [("mic_score", table.scores < cfg.mic_cutoff), *((name, ~ok) for name, ok in inside.items())]
    failed += [(f"motif:{m}", np.array([m in p.residues for p in table.peptides], dtype=bool)) for m in cfg.forbidden_motifs]
    failed += [
        (f"external:{name}", np.array([scores[name] < minimum for scores in table.external], dtype=bool))
        for name, minimum in cfg.external_minimums
    ]
    reasons = [f for f, _ in failed]
    columns = np.column_stack([column for _, column in failed]).tolist()
    return PeptideTable(
        table.peptides, table.features, table.scores, table.external, [tuple(compress(reasons, row)) for row in columns]
    )


# the least a match column of a local alignment scores (the smallest diagonal
# BLOSUM62 entry), and the most any other column costs: the worst mismatch or
# the opening column of a gap
_MATCH_MIN = int(np.diag(_SCORES).min())
_OTHER_COST = max(-int(_SCORES[~np.eye(len(_SCORES), dtype=bool)].min()), GAP_OPEN + GAP_EXTEND)
# (candidate, reference) pairs per chunk of `novelty_filter`, which bounds its
# memory to a chunk's pairs, or one candidate's, plus the two sets
NOVELTY_PAIRS = 4096


def _novelty_bounds(n: np.ndarray, cfg: ScreenConfig) -> tuple[np.ndarray, np.ndarray | None]:
    """Two bounds that every similar pair of a candidate of n residues exceeds, elementwise over n: (matches, score).

    A similar alignment has m >= identity * c matches over c > coverage * n
    columns, so the pair's `match_bound`, at least m, exceeds
    identity * coverage * n. Its score, the pair's best local score, is at
    least (_MATCH_MIN + _OTHER_COST) * m - _OTHER_COST * c >= slope * c,
    which bounds it by slope * coverage * n when the slope is positive (else
    the score bound is None). Both are integers, so lowering each bound by 1
    covers the rounding of the float tests: it can only admit more pairs.
    """
    matches = cfg.novelty_identity * cfg.novelty_coverage * n - 1
    slope = (_MATCH_MIN + _OTHER_COST) * cfg.novelty_identity - _OTHER_COST
    return matches, (slope * cfg.novelty_coverage * n - 1 if slope > 0 else None)


def _best(query: np.ndarray, rank: np.ndarray, scores: np.ndarray) -> np.ndarray:
    """The index of each query's best pair that scores above 0: the highest
    score, then the smallest reference id rank, then the first pair."""
    order = np.lexsort((rank, -scores, query))
    order = order[scores[order] > 0.0]
    return order[np.unique(query[order], return_index=True)[1]]


def novelty_filter(
    table: PeptideTable,
    reference: Sequence[Peptide],
    cfg: ScreenConfig,
) -> tuple[np.ndarray, np.ndarray, list[SimilarityHit]]:
    """Split the table's kept rows by whether a reference match covers more
    than the coverage fraction of the candidate's length at or above the
    identity threshold.

    Returns (kept, removed, hits): the rows without and with such a match,
    in table order, and the best-scoring alignment per queried candidate
    that aligned at all, including kept candidates.

    A pair is admitted when it exceeds both `_novelty_bounds`; no other pair
    can be similar. The candidates go shortest first, in chunks of about
    NOVELTY_PAIRS pairs, each candidate against every reference. The first
    pass scores with `local_scores` the pairs whose scores the second pass
    needs and would not give: all of them when there is a score bound, else
    those the match bound drops. The second pass is one `search` over the
    admitted pairs plus each candidate's best first-pass pair, so a
    candidate's best tallied pair is its best hit; `_best` picks both.
    """
    if not reference:
        raise ValueError("reference set must be non-empty")
    db_residues = sum(len(t) for t in reference)
    candidates = table.kept()
    queries = [table.peptides[i] for i in candidates]
    query_codes, query_lengths = encode([p.residues for p in queries])
    target_codes, target_lengths = encode([t.residues for t in reference])
    # codes fit a byte, so the gathered pairs cost a byte per residue
    query_codes, target_codes = query_codes.astype(np.uint8), target_codes.astype(np.uint8)
    ids = {pid: k for k, pid in enumerate(sorted({t.id for t in reference}))}
    rank = np.array([ids[t.id] for t in reference])
    match_needed, score_needed = _novelty_bounds(query_lengths, cfg)

    def pairs(query, target):
        return (query_codes[query], query_lengths[query]), (target_codes[target], target_lengths[target])

    removed = np.zeros(len(queries), dtype=bool)
    hits: dict[int, SimilarityHit] = {}
    # shortest candidate first, so each block of the second pass runs about as many rows as its queries hold
    order = np.argsort(query_lengths, kind="stable")
    step = max(1, NOVELTY_PAIRS // len(reference))
    for k in range(0, len(order), step):
        chunk = order[k : k + step]
        query, target = np.repeat(chunk, len(reference)), np.tile(np.arange(len(reference)), len(chunk))
        admitted = match_bound(*pairs(query, target)) > match_needed[query]
        scored = np.arange(len(query)) if score_needed is not None else np.flatnonzero(~admitted)
        scores = local_scores(*pairs(query[scored], target[scored]))
        if score_needed is not None:
            admitted &= scores > score_needed[query]
        admitted[scored[_best(query[scored], rank[target[scored]], scores)]] = True
        query, target = query[admitted], target[admitted]
        scores, matches, columns = search(*pairs(query, target), local=True)
        # columns is 0 only where nothing aligned, and then fails the coverage test
        similar = (columns > cfg.novelty_coverage * query_lengths[query]) & (matches / np.maximum(columns, 1) >= cfg.novelty_identity)
        removed[query[similar]] = True
        for b in _best(query, rank[target], scores).tolist():
            q = int(query[b])
            hits[q] = make_hit(queries[q], reference[target[b]], scores[b], matches[b], columns[b], db_residues)
    return candidates[~removed], candidates[removed], [hits[q] for q in sorted(hits)]


def prioritize(table: PeptideTable, windows: dict[str, Window], hits: Sequence[SimilarityHit] = ()) -> np.ndarray:
    """The kept rows in rank order, by one stable lexsort: score descending,
    satisfied property windows descending, identity of the candidate's
    reference hit ascending (0.0 without one), then residues. `hits` are
    `novelty_filter`'s, at most one per candidate."""
    rows = table.kept()
    identity = {hit.query: hit.identity_pct / 100.0 for hit in hits}
    peptides = [table.peptides[i] for i in rows]
    satisfied = np.zeros(len(rows), dtype=np.int64)
    for inside in _in_windows(table, rows, windows).values():
        satisfied += inside
    keys = (
        np.array([p.residues for p in peptides], dtype=str),
        np.array([identity.get(p.id, 0.0) for p in peptides]),
        -satisfied,
        -table.scores[rows],
    )
    return rows[np.lexsort(keys)]


def diversity_select(rows: np.ndarray, k: int, points: np.ndarray) -> np.ndarray:
    """Greedy max-min (farthest point) subset of size min(k, n).

    Row i of `points` embeds rows[i]. Rows must arrive in priority order;
    selection starts from the first and distance ties keep the
    higher-priority candidate.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    rows = np.asarray(rows, dtype=np.int64)
    if not len(rows):
        return rows
    if len(points) != len(rows):
        raise ValueError(f"{len(points)} embedding rows for {len(rows)} table rows")
    n = len(rows)
    chosen = [0]
    min_dist = np.linalg.norm(points - points[0], axis=1)
    while len(chosen) < min(k, n):
        min_dist[chosen] = -1.0
        nxt = int(np.argmax(min_dist))
        if min_dist[nxt] < 0.0:
            break
        chosen.append(nxt)
        min_dist = np.minimum(min_dist, np.linalg.norm(points - points[nxt], axis=1))
    return rows[chosen]


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
    text = Path(path).read_text(encoding="utf-8")
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            row = json.loads(line, parse_int=float)  # a 400-digit int becomes inf, not an OverflowError
        except json.JSONDecodeError as err:
            raise ValueError(f"{path} line {n}: invalid JSON ({err})") from None
        if not isinstance(row, dict) or "sequence" not in row or "scores" not in row:
            raise ValueError(f"{path} line {n}: expected keys 'sequence' and 'scores'")
        if not isinstance(row["sequence"], str):
            raise ValueError(f"{path} line {n}: 'sequence' must be a string")
        if not isinstance(row["scores"], dict):
            raise ValueError(f"{path} line {n}: 'scores' must be an object")
        seq = row["sequence"].strip()
        if not seq:
            raise ValueError(f"{path} line {n}: empty sequence")
        bad = [ch for ch in seq if ch not in RESIDUE_LETTERS]
        if bad:
            raise ValueError(f"{path} line {n}: invalid residue {bad[0]!r}")
        seq = seq.upper()
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
) -> PeptideTable:
    """The candidates' table: one `features` matrix on `scale`, the
    activity scores (one `score_many` call, on a copy of that matrix when
    the classifier's scale is `scale`), and any external scores."""
    features, scores = features_and_scores(peptides, scorer, scale)
    scores = np.asarray(scores, dtype=np.float64)
    if scores.shape != (len(peptides),):
        raise ValueError(f"expected {len(peptides)} classifier scores, got an array of shape {scores.shape}")
    outside = ~((scores >= 0.0) & (scores <= 1.0))
    if outside.any():
        raise ValueError(f"mic_score must lie in [0,1], got {scores[outside][0]}")
    by_sequence = external_scores or {}
    return PeptideTable(list(peptides), features, scores, [dict(by_sequence.get(p.residues, {})) for p in peptides])


def _ratio_row(name: str, total: int, passed: int) -> dict:
    return {
        "filter": name,
        "total": total,
        "pass": passed,
        "fail": total - passed,
        "pass_ratio": passed / total if total else 0.0,
    }


def _check_target_count(target_count: int) -> None:
    if target_count < 1:
        raise ValueError("target_count must be >= 1")


@dataclass(frozen=True)
class LibraryConfig:
    target_count: int = 1000
    temperature: float = 1.0
    top_k: int | None = None

    def __post_init__(self) -> None:
        _check_target_count(self.target_count)
        _check_sampling(self.temperature, self.top_k)


def build_library(
    policy,
    scorer,
    target_count: int,
    cfg: ScreenConfig,
    seed: int,
    out_dir: str | Path,
    external_scores: dict[str, dict[str, float]] | None = None,
    temperature: float = 1.0,
    top_k: int | None = None,
    scale: ScaleTable = DEFAULT_SCALE,
) -> tuple[PeptideTable, dict]:
    """Sample until target_count unique length-valid sequences, annotate, persist.

    Aborts before sampling when the policy's `max_len` lies below the length
    window, when a whole sampling batch is nearly all duplicates (stagnation)
    or when the sampling budget is exhausted without reaching the target.
    """
    _check_target_count(target_count)
    if cfg.min_length > policy.config.max_len:
        window = f"[{cfg.min_length}, {cfg.max_length}]"
        raise ValueError(f"no length in the screen window {window} is at most the policy's max_len {policy.config.max_len}")
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
        draws = sample(policy, cfg.batch_size, temperature=temperature, top_k=top_k, seed=batch_seed)
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
            unique.append(Peptide(f"lib-{len(unique):06d}", residues, draw.peptide.source))
        if batch_dups > cfg.stagnation_fraction * cfg.batch_size:
            raise RuntimeError(
                f"sampling stagnated: batch {batch_index} produced {batch_dups}/{cfg.batch_size} duplicates "
                f"({len(unique)}/{target_count} unique so far)"
            )
        batch_index += 1
    surplus = len(unique) - target_count
    unique = unique[:target_count]
    table = annotate(unique, scorer, external_scores, scale)

    length_pass = sampled_total - length_fail
    unique_pass = length_pass - duplicate_fail
    stats = {
        "target_count": target_count,
        "sampled_total": sampled_total,
        "library_size": len(table),
        "filters": [
            _ratio_row("length", sampled_total, length_pass),
            _ratio_row("duplicate", length_pass, unique_pass),
            _ratio_row("surplus", unique_pass, unique_pass - surplus),
        ],
        "annotation": [
            _ratio_row("mic_score", len(table), int(np.sum(table.scores >= cfg.mic_cutoff))),
        ],
    }
    write_fasta(unique, out / "library.fasta")
    write_records(table, "jsonl", out / "library.jsonl")
    write_json(stats, out / "library_stats.json")
    return table, stats
