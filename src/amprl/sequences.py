"""Peptide records, alphabet validation, and text-file I/O (FASTA/TSV/JSONL)."""
from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Iterator

if TYPE_CHECKING:
    from .physchem import PropertyVector

RESIDUES = "ACDEFGHIKLMNPQRSTVWY"
RESIDUE_SET = frozenset(RESIDUES)

SOURCES = ("natural", "generated_sft", "generated_rl", "external")

TSV_COLUMNS = (
    "id",
    "sequence",
    "length",
    "hydrophobicity",
    "hydrophobic_moment",
    "net_charge",
    "isoelectric_point",
    "mic_score",
    "verdict",
    "reject_reasons",
)


@dataclass(frozen=True)
class Peptide:
    """A validated amino-acid sequence with identifier and provenance tag."""

    id: str
    residues: str
    source: str = "natural"

    def __post_init__(self) -> None:
        if not self.residues:
            raise ValueError(f"peptide {self.id!r}: empty sequence")
        for pos, ch in enumerate(self.residues, start=1):
            if ch not in RESIDUE_SET:
                raise ValueError(
                    f"peptide {self.id!r}: invalid residue {ch!r} at position {pos}"
                )
        if self.source not in SOURCES:
            raise ValueError(
                f"peptide {self.id!r}: unknown source {self.source!r}; "
                f"expected one of {', '.join(SOURCES)}"
            )

    def __len__(self) -> int:
        return len(self.residues)


def validate_sequence(raw: str, id: str = "", source: str = "natural") -> Peptide:
    """Uppercase and strip whitespace, then accept iff every residue is canonical.

    The reported position refers to the cleaned sequence (1-based).
    """
    cleaned = "".join(raw.split()).upper()
    if not cleaned:
        raise ValueError(f"sequence {id!r}: empty after stripping whitespace")
    for pos, ch in enumerate(cleaned, start=1):
        if ch not in RESIDUE_SET:
            raise ValueError(
                f"sequence {id!r}: invalid residue {ch!r} at position {pos}"
            )
    return Peptide(id=id, residues=cleaned, source=source)


def _iter_lines(stream: str | Path | IO[str] | Iterable[str]) -> Iterator[str]:
    if isinstance(stream, Path):
        yield from io.StringIO(stream.read_text())
    elif isinstance(stream, str):
        yield from io.StringIO(stream)
    else:
        yield from stream


def parse_fasta(stream: str | Path | IO[str] | Iterable[str], source: str = "natural") -> list[Peptide]:
    """Parse FASTA records. Bodies may wrap across lines; order is preserved.

    A plain string is treated as FASTA text; pass a Path to read a file.

    Errors (missing header, empty body, invalid residue, repeated record id)
    report the offending line number; record ids must be unique.
    """
    peptides: list[Peptide] = []
    header: str | None = None
    header_line = 0
    id_lines: dict[str, int] = {}
    body_parts: list[str] = []

    def flush() -> None:
        nonlocal header, body_parts
        if header is None:
            return
        seq = "".join(body_parts).upper()
        if not seq:
            raise ValueError(f"line {header_line}: record {header!r} has an empty sequence body")
        peptides.append(Peptide(id=header, residues=seq, source=source))
        header = None
        body_parts = []

    for lineno, raw in enumerate(_iter_lines(stream), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith(">"):
            flush()
            name = line[1:].split()[0] if line[1:].split() else ""
            if not name:
                raise ValueError(f"line {lineno}: header has no identifier")
            if name in id_lines:
                raise ValueError(f"line {lineno}: record id {name!r} repeats the header at line {id_lines[name]}")
            id_lines[name] = lineno
            header = name
            header_line = lineno
        else:
            if header is None:
                raise ValueError(f"line {lineno}: sequence data before any '>' header")
            chunk = "".join(line.split()).upper()
            for ch in chunk:
                if ch not in RESIDUE_SET:
                    raise ValueError(f"line {lineno}: invalid residue {ch!r} in record {header!r}")
            body_parts.append(chunk)
    flush()
    return peptides


def write_fasta(peptides: Iterable[Peptide], sink: str | Path | IO[str], width: int = 60) -> None:
    """Write FASTA with bodies wrapped at `width` columns."""
    lines: list[str] = []
    for p in peptides:
        lines.append(f">{p.id}")
        for start in range(0, len(p.residues), width):
            lines.append(p.residues[start : start + width])
    _write_text(sink, "\n".join(lines) + ("\n" if lines else ""))


def dedup_exact(peptides: Iterable[Peptide]) -> list[Peptide]:
    """Drop later peptides whose residue string was already seen; order preserved."""
    seen: set[str] = set()
    out: list[Peptide] = []
    for p in peptides:
        if p.residues in seen:
            continue
        seen.add(p.residues)
        out.append(p)
    return out


@dataclass(frozen=True)
class AnnotationRecord:
    """A peptide with its descriptors, scores, and screening verdict."""

    peptide: Peptide
    properties: "PropertyVector"
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


def _fmt(value: float) -> str:
    return repr(float(value))


def write_records(
    records: Iterable[AnnotationRecord],
    format: str,
    sink: str | Path | IO[str],
) -> None:
    """Serialize annotation records, one line per record.

    TSV is the plot-ready export with a fixed column order; it does not carry
    the provenance tag or external score map. JSONL is lossless.
    """
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


def read_records(stream: str | IO[str] | Iterable[str], format: str, source: str = "natural") -> list[AnnotationRecord]:
    """Paired reader for write_records. TSV rows get `source` as provenance."""
    from .physchem import PropertyVector

    records: list[AnnotationRecord] = []
    lines = list(_iter_lines(stream))
    if format == "tsv":
        if not lines:
            raise ValueError("empty TSV: header row missing")
        header = tuple(lines[0].rstrip("\n").split("\t"))
        if header != TSV_COLUMNS:
            raise ValueError(f"unexpected TSV columns: {header}")
        for lineno, raw in enumerate(lines[1:], start=2):
            if not raw.strip():
                continue
            parts = raw.rstrip("\n").split("\t")
            if len(parts) != len(TSV_COLUMNS):
                raise ValueError(f"line {lineno}: expected {len(TSV_COLUMNS)} fields, got {len(parts)}")
            (pid, seq, length, hyd, moment, charge, pi, mic, verdict, reasons) = parts
            props = PropertyVector(
                length=int(length),
                hydrophobicity=float(hyd),
                hydrophobic_moment=float(moment),
                net_charge=float(charge),
                isoelectric_point=float(pi),
            )
            records.append(
                AnnotationRecord(
                    peptide=Peptide(id=pid, residues=seq, source=source),
                    properties=props,
                    mic_score=None if mic == "" else float(mic),
                    verdict=verdict,
                    reject_reasons=tuple(reasons.split(";")) if reasons else (),
                )
            )
    elif format == "jsonl":
        for lineno, raw in enumerate(lines, start=1):
            if not raw.strip():
                continue
            try:
                obj = json.loads(raw)
            except json.JSONDecodeError as exc:
                raise ValueError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            props = PropertyVector(**obj["properties"])
            records.append(
                AnnotationRecord(
                    peptide=Peptide(**obj["peptide"]),
                    properties=props,
                    mic_score=obj["mic_score"],
                    external_scores=dict(obj["external_scores"]),
                    verdict=obj["verdict"],
                    reject_reasons=tuple(obj["reject_reasons"]),
                )
            )
    else:
        raise ValueError(f"unknown record format {format!r}; expected 'tsv' or 'jsonl'")
    return records


def _write_text(sink: str | Path | IO[str], text: str) -> None:
    """Write a whole text payload; paths are written atomically (tmp + rename)."""
    if isinstance(sink, (str, Path)):
        path = Path(sink)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_name(path.name + ".tmp")
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    else:
        sink.write(text)
