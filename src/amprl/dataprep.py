"""Dataset curation: length filtering, similarity clustering, cluster-aware
splits, and stratified class balancing.

Clustering uses exact global-alignment identity with a greedy longest-first
assignment, so splits never share near-duplicate sequences. External cluster
assignments can be ingested to reproduce runs made with other tools.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from . import rng as _rng
from .alignment import match_bound, search
from .mic import LabeledSet
from .sequences import Lines, Peptide, encode, write_json


@dataclass
class Cluster:
    representative: Peptide
    members: list[Peptide] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not any(m is self.representative for m in self.members):
            raise ValueError("representative must be one of the members")

    def __len__(self) -> int:
        return len(self.members)


def _check_length_bounds(min_len: int, max_len: int) -> None:
    if min_len > max_len:
        raise ValueError(f"min_len {min_len} exceeds max_len {max_len}")


def _check_identity_threshold(identity_threshold: float) -> None:
    if not 0.0 < identity_threshold <= 1.0:
        raise ValueError("identity threshold must lie in (0,1]")


def _check_fractions(fractions: tuple[float, ...]) -> None:
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ValueError("split fractions must sum to 1")
    if any(f < 0 for f in fractions):
        raise ValueError("split fractions must be non-negative")


@dataclass(frozen=True)
class DataprepConfig:
    min_len: int = 8
    max_len: int = 50
    identity_threshold: float = 0.4
    fractions: tuple[float, ...] = (0.8, 0.1, 0.1)

    def __post_init__(self) -> None:
        _check_length_bounds(self.min_len, self.max_len)
        _check_identity_threshold(self.identity_threshold)
        _check_fractions(self.fractions)


def length_filter(peptides: Sequence[Peptide], min_len: int = 8, max_len: int = 50) -> tuple[list[Peptide], list[Peptide]]:
    """Partition into (kept, rejected) by inclusive length bounds."""
    _check_length_bounds(min_len, max_len)
    kept: list[Peptide] = []
    rejected: list[Peptide] = []
    for pep in peptides:
        (kept if min_len <= len(pep) <= max_len else rejected).append(pep)
    return kept, rejected


def _greedy_order(peptides: Sequence[Peptide]) -> list[Peptide]:
    return sorted(peptides, key=lambda p: (-len(p), p.residues, p.id))


# peptides of the greedy order clustered per alignment search. The match bound
# leaves a batch of 16 about 13 alignments per search, so per-call cost
# dominates. Of 16, 32, 64 and 128, 64 was fastest at 1,200 and 2,400
# peptides (128 within 4%) and 10-15% slower than 128 at 140-300, whose
# batches hold twice the pair arrays.
CLUSTER_BATCH = 64


def greedy_cluster(peptides: Sequence[Peptide], identity_threshold: float = 0.40) -> list[Cluster]:
    """Longest-first greedy clustering on global-alignment identity.

    Each peptide joins the first existing cluster whose representative it
    matches at or above the threshold, else it founds a new cluster. The
    ordering (length descending, then sequence, then id) makes the result
    independent of input order.

    The peptides are encoded once and taken CLUSTER_BATCH at a time. One
    search aligns each peptide of a batch against every representative and
    every earlier peptide of the batch, after dropping each pair whose
    `match_bound` over the longer length is below the threshold. The bound
    is exact: an alignment has at most `match_bound` matches and at least
    the longer length in columns, and IEEE division is monotone, so no
    dropped pair could have joined. Each peptide then joins the first
    representative it passes, in founding order.
    """
    _check_identity_threshold(identity_threshold)
    ordered = _greedy_order(peptides)
    codes, lengths = encode([p.residues for p in ordered])
    codes = codes.astype(np.uint8)  # each batch gathers its pairs' rows
    clusters: list[Cluster] = []
    cluster_of = np.full(len(ordered), -1)  # the cluster a representative founded
    for start in range(0, len(ordered), CLUSTER_BATCH):
        representatives = np.flatnonzero(cluster_of >= 0)  # rows of codes, in founding order
        batch = range(start, min(start + CLUSTER_BATCH, len(ordered)))
        query = np.repeat(batch, len(representatives) + np.arange(len(batch)))
        target = np.concatenate([np.concatenate([representatives, np.arange(start, b)]) for b in batch])
        common = match_bound((codes[query], lengths[query]), (codes[target], lengths[target]))
        admitted = common / np.maximum(lengths[query], lengths[target]) >= identity_threshold
        query, target = query[admitted], target[admitted]
        _, matches, columns = search((codes[query], lengths[query]), (codes[target], lengths[target]), local=False)
        passed = matches / columns >= identity_threshold
        query, target = query[passed], target[passed]
        # the passed targets of peptide b, ascending, are target[edges[b - start] : edges[b - start + 1]]
        edges = np.searchsorted(query, np.arange(batch.start, batch.stop + 1))
        for b, lo, hi in zip(batch, edges[:-1], edges[1:]):
            homes = cluster_of[target[lo:hi]]
            homes = homes[homes >= 0]
            if homes.size:
                clusters[homes[0]].members.append(ordered[b])
            else:
                cluster_of[b] = len(clusters)
                clusters.append(Cluster(representative=ordered[b], members=[ordered[b]]))
    return clusters


def split_by_cluster(
    clusters: Sequence[Cluster],
    fractions: tuple[float, ...] = (0.8, 0.1, 0.1),
    seed: int = 0,
) -> tuple[list[Peptide], ...]:
    """Assign whole clusters to splits by seeded shuffle plus greedy fill.

    Each cluster goes to the split with the largest remaining member
    deficit, so realized counts track the fraction targets to within the
    largest cluster size. Clusters never straddle splits.
    """
    _check_fractions(fractions)
    nonempty = sum(1 for f in fractions if f > 0)
    if len(clusters) < nonempty:
        raise ValueError(f"{len(clusters)} clusters cannot fill {nonempty} non-empty splits")
    total = sum(len(c) for c in clusters)
    targets = [f * total for f in fractions]
    order = list(range(len(clusters)))
    _rng.substream(seed, "dataprep.split").shuffle(order)
    counts = [0] * len(fractions)
    assignment: list[list[Cluster]] = [[] for _ in fractions]
    for idx in order:
        cluster = clusters[idx]
        deficits = [(targets[k] - counts[k], -k) for k in range(len(fractions))]
        k = -max(deficits)[1]
        assignment[k].append(cluster)
        counts[k] += len(cluster)
    splits = tuple([pep for cluster in part for pep in cluster.members] for part in assignment)
    for k, f in enumerate(fractions):
        if f > 0 and not splits[k]:
            raise ValueError(f"split {k} received no members; too few clusters for fractions {fractions}")
    return splits


def balance(positives: Sequence[Peptide], negatives: Sequence[Peptide], seed: int = 0) -> LabeledSet:
    """Downsample the majority class within 5-residue length bins.

    Bins with one class absent are dropped entirely (with a warning) so the
    output has an exact 1:1 class ratio in every retained bin.
    """
    if not positives or not negatives:
        raise ValueError("both classes must be non-empty")
    bins: dict[int, tuple[list[Peptide], list[Peptide]]] = {}
    for pep in positives:
        bins.setdefault(len(pep) // 5, ([], []))[0].append(pep)
    for pep in negatives:
        bins.setdefault(len(pep) // 5, ([], []))[1].append(pep)
    gen = _rng.substream(seed, "dataprep.balance")
    items: list[tuple[Peptide, int]] = []
    for b in sorted(bins):
        pos, neg = bins[b]
        if not pos or not neg:
            lo, hi = 5 * b, 5 * b + 4
            warnings.warn(f"length bin {lo}-{hi} has a single class; dropped", stacklevel=2)
            continue
        n = min(len(pos), len(neg))
        for group, label in ((pos, 1), (neg, 0)):
            chosen = group
            if len(group) > n:
                picks = gen.choice(len(group), size=n, replace=False)
                chosen = [group[int(i)] for i in sorted(picks)]
            items.extend((pep, label) for pep in chosen)
    if not items:
        raise ValueError("no length bin contains both classes")
    return LabeledSet(items=items, split="balanced")


def read_cluster_assignments(stream: str | Path | IO[str], peptides: Sequence[Peptide]) -> list[Cluster]:
    """Ingest an external (sequence_id, cluster_id) TSV as Cluster objects.

    Every peptide must appear exactly once; representatives are the longest
    member of each cluster (ties broken lexicographically by sequence). The
    input is a `Lines` source; a line starting with "#" is a comment.
    """
    by_id = {pep.id: pep for pep in peptides}
    if len(by_id) != len(peptides):
        raise ValueError("peptide ids must be unique for cluster ingestion")
    groups: dict[str, list[Peptide]] = {}
    seen: set[str] = set()
    lines = Lines(stream)
    for n, line in lines:
        if line.startswith("#"):
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise lines.error(n, f"expected sequence_id<TAB>cluster_id, got {line!r}")
        seq_id, cluster_id = parts
        if seq_id not in by_id:
            raise lines.error(n, f"unknown sequence id {seq_id!r}")
        if seq_id in seen:
            raise lines.error(n, f"duplicate assignment for {seq_id!r}")
        seen.add(seq_id)
        groups.setdefault(cluster_id, []).append(by_id[seq_id])
    missing = sorted(set(by_id) - seen)
    if missing:
        raise lines.error(None, f"peptides missing a cluster assignment: {', '.join(missing[:5])}")
    clusters = []
    for cluster_id in sorted(groups):
        members = groups[cluster_id]
        rep = min(members, key=lambda p: (-len(p), p.residues, p.id))
        clusters.append(Cluster(representative=rep, members=members))
    return clusters


def write_split_manifest(
    sink: str | Path | IO[str],
    split_names: Sequence[str],
    splits: Sequence[Sequence[Peptide]],
    fractions: tuple[float, ...],
    seed: int,
) -> None:
    if len(split_names) != len(splits) or len(splits) != len(fractions):
        raise ValueError("split names, splits, and fractions must align")
    payload = {
        "seed": seed,
        "fractions": list(fractions),
        "splits": {
            name: {"count": len(part), "ids": [pep.id for pep in part]}
            for name, part in zip(split_names, splits)
        },
    }
    write_json(payload, sink)
