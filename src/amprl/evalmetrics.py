"""Distribution-fidelity metrics for comparing generated and reference sets:
residue frequency profiles, Jensen-Shannon divergence, Pearson correlation,
per-descriptor summaries, and nearest-neighbor embedding distances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from .mic import Embedder
from .physchem import DESCRIPTORS, ScaleTable
from .sequences import RESIDUES, Peptide, encode, write_tsv


def aa_frequency(peptides: Sequence[Peptide]) -> np.ndarray:
    """Residue frequencies pooled over the whole set, in alphabetical order."""
    if not peptides:
        raise ValueError("cannot compute frequencies of an empty set")
    codes, _ = encode([pep.residues for pep in peptides])
    counts = np.bincount(codes.ravel(), minlength=len(RESIDUES) + 1)[: len(RESIDUES)].astype(np.float64)
    return counts / counts.sum()


def _check_distribution(p: np.ndarray, name: str) -> np.ndarray:
    arr = np.asarray(p, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be a 1-D distribution")
    if np.any(arr < 0.0) or abs(arr.sum() - 1.0) > 1e-9:
        raise ValueError(f"{name} must be non-negative and sum to 1")
    return arr


def _check_log_base(base: float) -> None:
    if base <= 1.0:
        raise ValueError("log base must exceed 1")


@dataclass(frozen=True)
class EvalConfig:
    jsd_base: float = 2.0
    thresholds: tuple[float, ...] = (1.0, 3.0)

    def __post_init__(self) -> None:
        _check_log_base(self.jsd_base)
        # each threshold names one report row, and no distance lies below 0
        if not all(t >= 0.0 for t in self.thresholds) or len(set(self.thresholds)) < len(self.thresholds):
            raise ValueError(f"distance thresholds must be >= 0 and distinct, got {list(self.thresholds)}")


def js_divergence(p: np.ndarray, q: np.ndarray, base: float = 2.0) -> float:
    """Jensen-Shannon divergence with the 0*log(0) = 0 convention.

    Base 2 bounds the value to [0,1]; the base is configurable because some
    published numbers use natural logs.
    """
    p = _check_distribution(p, "p")
    q = _check_distribution(q, "q")
    if p.shape != q.shape:
        raise ValueError("distributions must have matching support")
    _check_log_base(base)
    m = 0.5 * (p + q)

    def kl(a: np.ndarray) -> float:
        mask = a > 0.0
        return float(np.sum(a[mask] * (np.log(a[mask]) - np.log(m[mask]))))

    return (0.5 * kl(p) + 0.5 * kl(q)) / math.log(base)


def pearson(x: Sequence[float], y: Sequence[float]) -> float | None:
    """Sample correlation, clipped to [-1, 1] as np.corrcoef does; None when either input is constant (undefined)."""
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    if xa.shape != ya.shape or xa.ndim != 1:
        raise ValueError("inputs must be equal-length 1-D arrays")
    if xa.size < 2:
        raise ValueError("need at least two points")
    xc = xa - xa.mean()
    yc = ya - ya.mean()
    sx = float(np.sqrt(np.sum(xc * xc)))
    sy = float(np.sqrt(np.sum(yc * yc)))
    if sx < 1e-12 or sy < 1e-12:
        return None
    return float(np.clip(np.sum(xc * yc) / (sx * sy), -1.0, 1.0))


DEFAULT_BIN_EDGES: dict[str, tuple[float, ...]] = {
    "length": tuple(float(v) for v in range(0, 65, 5)),
    "hydrophobicity": tuple(np.round(np.arange(-3.0, 3.01, 0.5), 10)),
    "hydrophobic_moment": tuple(np.round(np.arange(0.0, 3.01, 0.25), 10)),
    "net_charge": tuple(float(v) for v in range(-15, 16, 1)),
    "isoelectric_point": tuple(float(v) for v in range(0, 15, 1)),
}

_QUANTILES = (0.0, 0.25, 0.5, 0.75, 1.0)


def property_summary(matrix: np.ndarray) -> dict[str, dict]:
    """Mean/std/quantiles/histogram per column of a `descriptors` matrix,
    over `DEFAULT_BIN_EDGES`.

    Values outside the edges land in the first or last bin so the counts
    always sum to the set size.
    """
    if not len(matrix):
        raise ValueError("cannot summarize an empty set")
    out: dict[str, dict] = {}
    for name, values in zip(DESCRIPTORS, matrix.T):
        edges = np.asarray(DEFAULT_BIN_EDGES[name], dtype=np.float64)
        counts, _ = np.histogram(np.clip(values, edges[0], edges[-1]), bins=edges)
        out[name] = {
            "mean": float(values.mean()),
            "std": float(values.std()),
            "quantiles": [float(q) for q in np.quantile(values, _QUANTILES)],
            "bin_edges": [float(e) for e in edges],
            "counts": [int(c) for c in counts],
        }
    return out


# (generated, reference) pairs one screen block holds
_DISTANCE_CELLS = 8192


def embedding_distance_profile(gen: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Nearest-reference Euclidean distance of each generated embedding row:
    the smallest sqrt(E), E = np.sum(diff * diff), diff = g - r, bit for bit.

    A block's G = |g|^2 + |r|^2 - 2 g.r takes one matmul. With u = 2^-53,
    gamma_k = k u / (1 - k u) and D = sum((g - r)^2), for any summation order
    and FMA use (Higham 2002, section 3.1), |G - D| <= gamma_{n+2} (|g| + |r|)^2
    (gamma_n in |g|^2, |r|^2 and g.r, |g.r| <= |g| |r|, gamma_2 in two sums) and
    |E - D| <= gamma_{n+2} D <= gamma_{n+2} (|g| + |r|)^2 (n + 2 roundings per
    nonnegative term). The radius gamma_{2n+8} (|g| + |r|)^2 + (n + 1) tiny adds
    four units for its own and G -/+ radius's rounding, and a term for underflow.
    E is recomputed only where G - radius <= the row's least G + radius; sqrt is
    monotone and correctly rounded. Rows with a squared norm past 2^1020, inf or
    NaN (all rows if a reference has one) are rechecked against every reference.
    """
    if not len(gen) or not len(ref):
        raise ValueError("both sets must be non-empty")
    if gen.shape[1] != ref.shape[1]:
        raise ValueError("embedding dimensions differ between sets")
    gen, ref = (np.ascontiguousarray(a, dtype=np.float64) for a in (gen, ref))
    units = (2 * ref.shape[1] + 8) * 2.0**-53
    scale, slack = units / (1.0 - units), (ref.shape[1] + 1) * np.finfo(np.float64).tiny
    sq_ref = np.einsum("ij,ij->i", ref, ref)
    dists = np.empty(len(gen))
    step = max(1, _DISTANCE_CELLS // len(ref))  # memory grows with len(ref) alone
    for start in range(0, len(gen), step):
        block = gen[start : start + step]
        sq = np.einsum("ij,ij->i", block, block)
        with np.errstate(all="ignore"):  # rows past the bound are rechecked in full below
            screen = sq[:, None] + sq_ref - 2.0 * (block @ ref.T)
            radius = scale * (np.sqrt(sq)[:, None] + np.sqrt(sq_ref)) ** 2 + slack
            keep = screen - radius <= (screen + radius).min(axis=1)[:, None]
        keep[~((sq <= 2.0**1020) & np.all(sq_ref <= 2.0**1020))] = True
        rows, cols = np.nonzero(keep)
        best = np.empty(len(rows))
        for k in range(0, len(rows), len(ref)):  # as many pairs at once as the row-by-row loop held
            diff = ref[cols[k : k + len(ref)]]
            diff -= block[rows[k : k + len(ref)]]  # r - g, whose square is (g - r)'s bit for bit
            best[k : k + len(ref)] = np.sum(diff * diff, axis=1)
        dists[start : start + step] = np.sqrt(np.minimum.reduceat(best, np.searchsorted(rows, np.arange(len(block)))))
    return dists


def compare_sets(
    name: str,
    generated: Sequence[Peptide],
    reference: Sequence[Peptide],
    cfg: EvalConfig,
    scale: ScaleTable,
) -> tuple[dict, tuple[np.ndarray, np.ndarray]]:
    """Comparison report (frequency divergence, correlation, descriptor
    summaries for both sets, embedding-distance fractions) and the
    (generated, reference) embedding matrices, standardized by the reference.

    Each set is featurized once; its descriptor summary reads the
    descriptor columns of its feature matrix before standardization.
    """
    freq_gen = aa_frequency(generated)
    freq_ref = aa_frequency(reference)
    embedder = Embedder(scale)
    gen, ref = embedder.features(generated), embedder.features(reference)
    k = len(DESCRIPTORS)
    properties = {"generated": property_summary(gen[:, :k]), "reference": property_summary(ref[:, :k])}
    embedder.fit(ref)
    dists = embedding_distance_profile(embedder.standardize(gen), embedder.standardize(ref))
    report = {
        "set": name,
        "n_generated": len(generated),
        "n_reference": len(reference),
        "jsd": js_divergence(freq_gen, freq_ref, base=cfg.jsd_base),
        "jsd_base": cfg.jsd_base,
        "pearson": pearson(freq_gen, freq_ref),
        "aa_frequency": {
            "generated": {ch: float(f) for ch, f in zip(RESIDUES, freq_gen)},
            "reference": {ch: float(f) for ch, f in zip(RESIDUES, freq_ref)},
        },
        "properties": properties,
        "embedding_distance": {
            "mean": float(dists.mean()),
            "fractions": {repr(float(t)): float(np.mean(dists <= t)) for t in cfg.thresholds},
        },
    }
    return report, (gen, ref)


def write_comparison_tsv(report: dict, sink: str | Path | IO[str]) -> None:
    """Flat (set, metric, value) rows for the headline numbers."""
    rows = []
    name = report["set"]

    def add(metric: str, value) -> None:
        rows.append((name, metric, "" if value is None else repr(float(value))))

    add("jsd", report["jsd"])
    add("pearson", report["pearson"])
    add("n_generated", report["n_generated"])
    add("n_reference", report["n_reference"])
    for side in ("generated", "reference"):
        for desc in DESCRIPTORS:
            stats = report["properties"][side][desc]
            add(f"{side}.{desc}.mean", stats["mean"])
            add(f"{side}.{desc}.std", stats["std"])
            add(f"{side}.{desc}.median", stats["quantiles"][2])
    add("embedding.mean_min_distance", report["embedding_distance"]["mean"])
    for t, f in sorted(report["embedding_distance"]["fractions"].items(), key=lambda kv: float(kv[0])):
        add(f"embedding.fraction_within_{t}", f)
    write_tsv(("set", "metric", "value"), rows, sink)


def export_embeddings_tsv(
    peptides: Sequence[Peptide],
    matrix: np.ndarray,
    sink: str | Path | IO[str],
) -> None:
    """Raw embedding vectors, one row per peptide, for external projection."""
    if not peptides:
        raise ValueError("cannot export an empty set")
    if len(matrix) != len(peptides):
        raise ValueError(f"{len(matrix)} embedding rows for {len(peptides)} peptides")
    header = ["id"] + [f"e{i}" for i in range(matrix.shape[1])]
    write_tsv(header, ([pep.id] + [repr(float(v)) for v in vec] for pep, vec in zip(peptides, matrix)), sink)
