"""The eval comparison as it was before `compare_sets` featurized each set
once: `property_summary` computed descriptors itself, the report passed
through `DescriptorSummary` and `DistanceProfile`, `compare_sets` took the
embedding matrices from its caller, and `amprl eval`'s handler (`cmd_eval`
below) built them. The differential test in `test_evalmetrics` checks that
the current `amprl eval` writes the same bytes.
"""
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Sequence

import numpy as np

from amprl.evalmetrics import DEFAULT_BIN_EDGES, aa_frequency, export_embeddings_tsv, js_divergence, pearson
from amprl.mic import Embedder
from amprl.physchem import DEFAULT_SCALE, DESCRIPTORS, ScaleTable, descriptors
from amprl.sequences import RESIDUES, Peptide, _write_text, write_json


def cmd_eval(generated, reference, name, run, out):
    """`amprl eval --export-embeddings` as it was, on parsed sets and a built `Run`."""
    embedder = Embedder(scale=run.scales)
    ref_raw = embedder.features(reference)
    embeddings = (embedder.fit(ref_raw).embed_many(generated), embedder.standardize(ref_raw))
    report = compare_sets(
        name,
        generated,
        reference,
        embeddings=embeddings,
        thresholds=run.eval.thresholds,
        jsd_base=run.eval.jsd_base,
        scale=run.scales,
    )
    write_json(report, out / "comparison.json")
    write_comparison_tsv(report, out / "comparison.tsv")
    export_embeddings_tsv(generated, embeddings[0], out / "embeddings_generated.tsv")
    export_embeddings_tsv(reference, embeddings[1], out / "embeddings_reference.tsv")


_QUANTILES = (0.0, 0.25, 0.5, 0.75, 1.0)


@dataclass(frozen=True)
class DescriptorSummary:
    name: str
    mean: float
    std: float
    quantiles: tuple[float, ...]
    counts: tuple[int, ...]


def property_summary(
    peptides: Sequence[Peptide],
    scale: ScaleTable = DEFAULT_SCALE,
) -> dict[str, DescriptorSummary]:
    """Mean/std/quantiles/histogram per descriptor, over `DEFAULT_BIN_EDGES`.

    Values outside the edges land in the first or last bin so the counts
    always sum to the set size.
    """
    if not peptides:
        raise ValueError("cannot summarize an empty set")
    out: dict[str, DescriptorSummary] = {}
    for name, values in zip(DESCRIPTORS, descriptors(peptides, scale).T):
        edges = np.asarray(DEFAULT_BIN_EDGES[name], dtype=np.float64)
        clipped = np.clip(values, edges[0], edges[-1])
        counts, _ = np.histogram(clipped, bins=edges)
        out[name] = DescriptorSummary(
            name=name,
            mean=float(values.mean()),
            std=float(values.std()),
            quantiles=tuple(float(q) for q in np.quantile(values, _QUANTILES)),
            counts=tuple(int(c) for c in counts),
        )
    return out


@dataclass(frozen=True)
class DistanceProfile:
    distances: tuple[float, ...]
    thresholds: tuple[float, ...]
    fractions: tuple[float, ...]
    mean: float


def embedding_distance_profile(
    gen: np.ndarray,
    ref: np.ndarray,
    thresholds: tuple[float, ...] = (1.0, 3.0),
) -> DistanceProfile:
    """Nearest-reference Euclidean distance per generated embedding row, plus
    the fraction of the set within each threshold."""
    if not len(gen) or not len(ref):
        raise ValueError("both sets must be non-empty")
    if gen.shape[1] != ref.shape[1]:
        raise ValueError("embedding dimensions differ between sets")
    # one generated row at a time keeps memory at the size of the reference matrix
    dists = np.empty(len(gen))
    for k, row in enumerate(gen):
        diff = row - ref
        dists[k] = np.sqrt(np.sum(diff * diff, axis=1)).min()
    fractions = tuple(float(np.mean(dists <= t)) for t in thresholds)
    return DistanceProfile(
        distances=tuple(float(d) for d in dists),
        thresholds=tuple(float(t) for t in thresholds),
        fractions=fractions,
        mean=float(dists.mean()),
    )


def compare_sets(
    name: str,
    generated: Sequence[Peptide],
    reference: Sequence[Peptide],
    embeddings: tuple[np.ndarray, np.ndarray] | None = None,
    thresholds: tuple[float, ...] = (1.0, 3.0),
    jsd_base: float = 2.0,
    scale: ScaleTable = DEFAULT_SCALE,
) -> dict:
    """Comparison report: frequency divergence, correlation, descriptor
    summaries for both sets, and, given the (generated, reference) embedding
    matrices, embedding-distance fractions."""
    freq_gen = aa_frequency(generated)
    freq_ref = aa_frequency(reference)
    report: dict = {
        "set": name,
        "n_generated": len(generated),
        "n_reference": len(reference),
        "jsd": js_divergence(freq_gen, freq_ref, base=jsd_base),
        "jsd_base": jsd_base,
        "pearson": pearson(freq_gen, freq_ref),
        "aa_frequency": {
            "generated": {ch: float(f) for ch, f in zip(RESIDUES, freq_gen)},
            "reference": {ch: float(f) for ch, f in zip(RESIDUES, freq_ref)},
        },
        "properties": {
            "generated": {k: _summary_dict(v) for k, v in property_summary(generated, scale).items()},
            "reference": {k: _summary_dict(v) for k, v in property_summary(reference, scale).items()},
        },
    }
    if embeddings is not None:
        profile = embedding_distance_profile(*embeddings, thresholds)
        report["embedding_distance"] = {
            "mean": profile.mean,
            "fractions": {repr(t): f for t, f in zip(profile.thresholds, profile.fractions)},
        }
    return report


def _summary_dict(s: DescriptorSummary) -> dict:
    return {
        "mean": s.mean,
        "std": s.std,
        "quantiles": list(s.quantiles),
        "bin_edges": [float(e) for e in DEFAULT_BIN_EDGES[s.name]],
        "counts": list(s.counts),
    }


def write_comparison_tsv(report: dict, sink: str | Path | IO[str]) -> None:
    """Flat (set, metric, value) rows for the headline numbers."""
    rows = [("set", "metric", "value")]
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
    if "embedding_distance" in report:
        add("embedding.mean_min_distance", report["embedding_distance"]["mean"])
        for t, f in sorted(report["embedding_distance"]["fractions"].items(), key=lambda kv: float(kv[0])):
            add(f"embedding.fraction_within_{t}", f)
    _write_text(sink, "\n".join("\t".join(r) for r in rows) + "\n")
