"""The artifact writers as they were before `sequences.write_tsv` and
`sequences._write_bytes`: each TSV writer built its own framing, `_write_text`
wrote a path through its own tmp file and rename, and `save_checkpoint`
renamed its binary and its manifest itself. `test_writers` checks that the
current writers give the same bytes.
"""
import hashlib
import json
import os
import struct
from pathlib import Path

import numpy as np

from amprl.alignment import HIT_COLUMNS
from amprl.assay import SUMMARY_COLUMNS
from amprl.numerics.checkpoint import MAGIC, VERSION
from amprl.numerics.tensor import Tensor
from amprl.physchem import DESCRIPTORS
from amprl.ppo import _INTEGER_COLUMNS, LOG_COLUMNS
from amprl.sequences import TSV_COLUMNS


def _write_text(sink, text):
    if isinstance(sink, (str, Path)):
        path = Path(sink)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    else:
        sink.write(text)


def _fmt(value):
    return repr(float(value))


def write_labeled_tsv(labeled, sink):
    lines = ["sequence\tlabel"]
    for pep, label in labeled.items:
        lines.append(f"{pep.residues}\t{'active' if label else 'inactive'}")
    _write_text(sink, "\n".join(lines) + "\n")


def write_records(records, format, sink):
    if format == "tsv":
        lines = ["\t".join(TSV_COLUMNS)]
        for r in records:
            p = r.properties
            lines.append(
                "\t".join(
                    (
                        r.peptide.id,
                        r.peptide.residues,
                        str(p.length),
                        _fmt(p.hydrophobicity),
                        _fmt(p.hydrophobic_moment),
                        _fmt(p.net_charge),
                        _fmt(p.isoelectric_point),
                        "" if r.mic_score is None else _fmt(r.mic_score),
                        r.verdict,
                        ";".join(r.reject_reasons),
                    )
                )
            )
        _write_text(sink, "\n".join(lines) + "\n")
    elif format == "jsonl":
        lines = []
        for r in records:
            p = r.properties
            obj = {
                "peptide": {
                    "id": r.peptide.id,
                    "residues": r.peptide.residues,
                    "source": r.peptide.source,
                },
                "properties": {
                    "length": p.length,
                    "hydrophobicity": p.hydrophobicity,
                    "hydrophobic_moment": p.hydrophobic_moment,
                    "net_charge": p.net_charge,
                    "isoelectric_point": p.isoelectric_point,
                },
                "mic_score": r.mic_score,
                "external_scores": r.external_scores,
                "verdict": r.verdict,
                "reject_reasons": list(r.reject_reasons),
            }
            lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        _write_text(sink, "\n".join(lines) + ("\n" if lines else ""))
    else:
        raise ValueError(f"unknown record format {format!r}; expected 'tsv' or 'jsonl'")


def write_hit_table(hits, sink):
    lines = ["\t".join(HIT_COLUMNS)]
    for h in hits:
        lines.append(
            "\t".join(
                (
                    h.query,
                    h.target,
                    f"{h.identity_pct:g}",
                    str(h.length),
                    f"{h.evalue:.3g}".upper(),
                    f"{h.bits:.1f}",
                )
            )
        )
    _write_text(sink, "\n".join(lines) + "\n")


def write_summaries(summaries, sink):
    lines = ["\t".join(SUMMARY_COLUMNS)]
    for s in summaries:
        lines.append(
            "\t".join((s.peptide_id, repr(float(s.max_rel)), repr(float(s.auc)), s.category or ""))
        )
    _write_text(sink, "\n".join(lines) + "\n")


def write_training_log(rows, sink):
    lines = ["\t".join(LOG_COLUMNS)]
    for row in rows:
        lines.append(
            "\t".join(
                str(row[c]) if c in _INTEGER_COLUMNS else repr(float(row[c])) for c in LOG_COLUMNS
            )
        )
    _write_text(sink, "\n".join(lines) + "\n")


def write_comparison_tsv(report, sink):
    rows = [("set", "metric", "value")]
    name = report["set"]

    def add(metric, value):
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
    _write_text(sink, "\n".join("\t".join(r) for r in rows) + "\n")


def export_embeddings_tsv(peptides, matrix, sink):
    if not peptides:
        raise ValueError("cannot export an empty set")
    if len(matrix) != len(peptides):
        raise ValueError(f"{len(matrix)} embedding rows for {len(peptides)} peptides")
    lines = ["\t".join(["id"] + [f"e{i}" for i in range(matrix.shape[1])])]
    for pep, vec in zip(peptides, matrix):
        lines.append("\t".join([pep.id] + [repr(float(v)) for v in vec]))
    _write_text(sink, "\n".join(lines) + "\n")


def write_scores(peptides, scores, sink):
    """The `scores.tsv` of `amprl score-mic`."""
    lines = ["id\tsequence\tmic_score"]
    for p, s in zip(peptides, scores):
        lines.append(f"{p.id}\t{p.residues}\t{float(s)!r}")
    _write_text(sink, "\n".join(lines) + "\n")


def save_checkpoint(path, tensors, meta=None):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    chunks = [MAGIC, struct.pack("<II", VERSION, len(tensors))]
    manifest_tensors = []
    for name in sorted(tensors):
        value = tensors[name]
        arr = np.asarray(value.data if isinstance(value, Tensor) else value, dtype=np.float64)
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(struct.pack("<I", arr.ndim))
        chunks.append(struct.pack(f"<{arr.ndim}Q", *arr.shape))
        chunks.append(arr.astype("<f8").tobytes())
        manifest_tensors.append({"name": name, "shape": list(arr.shape)})

    digest = hashlib.sha256()
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "wb") as f:
        for chunk in chunks:
            f.write(chunk)
            digest.update(chunk)
    os.replace(tmp, path)

    manifest = {
        "format": "amprl-checkpoint",
        "version": VERSION,
        "sha256": digest.hexdigest(),
        "tensors": manifest_tensors,
        "meta": meta or {},
    }
    mpath = path.with_name(path.name + ".json")
    mtmp = mpath.with_name(mpath.name + ".tmp")
    mtmp.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    os.replace(mtmp, mpath)
