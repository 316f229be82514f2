"""Peptide records, the residue code, and text-file I/O (FASTA/TSV/JSONL)."""
from __future__ import annotations

import io
import json
import os
from dataclasses import asdict, astuple, dataclass, field
from pathlib import Path
from typing import IO, TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from .physchem import PropertyVector

RESIDUES = "ACDEFGHIKLMNPQRSTVWY"
RESIDUE_SET = frozenset(RESIDUES)
RESIDUE_LETTERS = RESIDUE_SET | frozenset(RESIDUES.lower())  # what input files may spell a residue with

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


# code point (clipped to 255) -> index in RESIDUES; -1 for every other character
_CODE_OF = np.full(256, -1, dtype=np.int64)
_CODE_OF[np.frombuffer(RESIDUES.encode("ascii"), dtype=np.uint8)] = np.arange(len(RESIDUES))


def encode(sequences: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The residue-to-integer map every stage shares: (codes, lengths).

    A residue's code is its index in RESIDUES. Row k holds sequence k's codes,
    padded with len(RESIDUES) to the longest length; lengths[k] is its length.
    Any other character raises ValueError.
    """
    lengths = np.array([len(s) for s in sequences], dtype=np.int64)
    width = int(lengths.max()) if len(lengths) else 0
    joined = "".join(sequences)
    flat = _CODE_OF[np.minimum(np.frombuffer(joined.encode("utf-32-le"), dtype=np.uint32), 255)]
    bad = np.flatnonzero(flat < 0)
    if bad.size:
        raise ValueError(f"no code or substitution score for residue {joined[bad[0]]!r}")
    codes = np.full((len(lengths), width), len(RESIDUES), dtype=np.int64)
    codes[np.arange(width) < lengths[:, None]] = flat
    return codes, lengths


def _read_text(source: str | Path | IO[str]) -> str:
    """A whole text input: a Path is a UTF-8 file, a str is the text itself, and a stream is read."""
    if isinstance(source, Path):
        return source.read_text(encoding="utf-8")
    return source if isinstance(source, str) else source.read()


def _iter_lines(stream: str | Path | IO[str] | Iterable[str]) -> Iterator[str]:
    if isinstance(stream, (str, Path)):
        yield from io.StringIO(_read_text(stream))
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
        seq = "".join(body_parts)
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
            chunk = "".join(line.split())
            for ch in chunk:
                if ch not in RESIDUE_LETTERS:
                    raise ValueError(f"line {lineno}: invalid residue {ch!r} in record {header!r}")
            body_parts.append(chunk.upper())
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
        rows = []
        for r in records:
            length, *values = astuple(r.properties)
            mic = "" if r.mic_score is None else _fmt(r.mic_score)
            rows.append(
                (r.peptide.id, r.peptide.residues, str(length), *map(_fmt, values), mic, r.verdict, ";".join(r.reject_reasons))
            )
        write_tsv(TSV_COLUMNS, rows, sink)
    elif format == "jsonl":
        lines = []
        for r in records:
            obj = {
                "peptide": {
                    "id": r.peptide.id,
                    "residues": r.peptide.residues,
                    "source": r.peptide.source,
                },
                "properties": asdict(r.properties),
                "mic_score": r.mic_score,
                "external_scores": r.external_scores,
                "verdict": r.verdict,
                "reject_reasons": list(r.reject_reasons),
            }
            lines.append(json.dumps(obj, sort_keys=True, separators=(",", ":")))
        _write_text(sink, "\n".join(lines) + ("\n" if lines else ""))
    else:
        raise ValueError(f"unknown record format {format!r}; expected 'tsv' or 'jsonl'")


def write_tsv(header: Sequence[str], rows: Iterable[Sequence[str]], sink: str | Path | IO[str]) -> None:
    """A TSV artifact: the header line, one tab-joined line per row of strings, a final newline.

    Raises ValueError, before anything is written, when a row would not read
    back as len(header) fields: a wrong cell count, or a cell holding a tab
    or a line break.
    """
    lines = ["\t".join(header)]
    lines.extend("\t".join(row) for row in rows)
    if any(line.count("\t") != len(header) - 1 or "".join(line.splitlines()) != line for line in lines):
        raise ValueError(f"a TSV row does not split into the {len(header)} columns {', '.join(header)}")
    _write_text(sink, "\n".join(lines) + "\n")


def write_json(payload, sink: str | Path | IO[str]) -> None:
    """A JSON artifact: sorted keys, two-space indent, a final newline."""
    _write_text(sink, json.dumps(payload, sort_keys=True, indent=2) + "\n")


def _write_text(sink: str | Path | IO[str], text: str) -> None:
    """Write a whole text payload; a path gets UTF-8 through `_write_bytes`, so a text it cannot encode writes nothing."""
    if isinstance(sink, (str, Path)):
        _write_bytes(Path(sink), [text.encode("utf-8")])
    else:
        sink.write(text)


def _write_bytes(path: Path, chunks: Iterable[bytes]) -> None:
    """Write a file all or nothing: the chunks go to `<name>.tmp`, which then replaces `path`.

    On any failure the tmp file is removed and the error re-raised, so `path`
    holds either its old content or every chunk. This is the only place in
    the package that writes a file.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "wb") as f:
            for chunk in chunks:
                f.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
