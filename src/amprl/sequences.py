"""Peptide records, the residue code, and text-file I/O (FASTA/TSV/JSONL)."""
from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

import numpy as np

RESIDUES = "ACDEFGHIKLMNPQRSTVWY"
RESIDUE_SET = frozenset(RESIDUES)
RESIDUE_LETTERS = RESIDUE_SET | frozenset(RESIDUES.lower())  # what input files may spell a residue with

SOURCES = ("natural", "generated_sft", "generated_rl", "external")

# the five `physchem.descriptors` columns, in order
DESCRIPTORS = ("length", "hydrophobicity", "hydrophobic_moment", "net_charge", "isoelectric_point")

TSV_COLUMNS = ("id", "sequence", *DESCRIPTORS, "mic_score", "verdict", "reject_reasons")


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


@dataclass(frozen=True)
class Lines:
    """A text input's non-blank lines, each with its file line number, and the errors that name them.

    A Path is read as a UTF-8 file in text mode, which also reads a lone
    "\r" as "\n"; a str is the text itself, and anything else a stream or
    iterable of lines. Only "\n" ends a line, and a "\r" before it is
    dropped, so a form feed or U+2028 inside a row stays in the row. Blank
    lines are skipped but counted, so a position reads `<file> line N` for
    a Path and `line N` otherwise; it is formatted only for an error.
    """

    source: str | Path | IO[str] | Iterable[str]

    def __iter__(self) -> Iterator[tuple[int, str]]:
        source = self.source
        if isinstance(source, Path):
            source = source.read_text(encoding="utf-8")
        for n, line in enumerate(io.StringIO(source) if isinstance(source, str) else source, start=1):
            if line.strip():
                yield n, line.rstrip("\n").removesuffix("\r")

    def error(self, n: int | None, message: str) -> ValueError:
        """`message` at line n (None: the whole input), headed by the file's name when the input is a Path."""
        where = "" if n is None else f"line {n}"
        if isinstance(self.source, Path):
            where = f"{self.source} {where}".rstrip()
        return ValueError(f"{where}: {message}" if where else message)

    def residues(self, n: int, cell: str, context: str = "") -> str:
        """The residue cell at line n, stripped and uppercased; ValueError when it is empty or holds
        a letter outside `RESIDUE_LETTERS` (`context` follows the letter in that message)."""
        seq = cell.strip()
        if not seq:
            raise self.error(n, "empty sequence")
        if not RESIDUE_LETTERS.issuperset(seq):
            bad = next(ch for ch in seq if ch not in RESIDUE_LETTERS)
            raise self.error(n, f"invalid residue {bad!r}{context}")
        return seq.upper()


def parse_fasta(stream: str | Path | IO[str] | Iterable[str], source: str = "natural") -> list[Peptide]:
    """Parse FASTA records from a `Lines` source. Bodies may wrap across lines; order is preserved.

    Errors (missing header, empty body, invalid residue, repeated record id)
    report the offending line number; record ids must be unique.
    """
    lines = Lines(stream)
    id_lines: dict[str, int] = {}
    bodies: dict[str, list[str]] = {}  # record id -> its body lines, in file order
    header: str | None = None

    def check_body() -> None:
        if header is not None and not bodies[header]:
            raise lines.error(id_lines[header], f"record {header!r} has an empty sequence body")

    for lineno, raw in lines:
        line = raw.strip()
        if line.startswith(">"):
            check_body()
            header = line[1:].split()[0] if line[1:].split() else ""
            if not header:
                raise lines.error(lineno, "header has no identifier")
            if header in id_lines:
                raise lines.error(lineno, f"record id {header!r} repeats the header at line {id_lines[header]}")
            id_lines[header] = lineno
            bodies[header] = []
        elif header is None:
            raise lines.error(lineno, "sequence data before any '>' header")
        else:
            bodies[header].append(lines.residues(lineno, "".join(line.split()), f" in record {header!r}"))
    check_body()
    return [Peptide(id=name, residues="".join(body), source=source) for name, body in bodies.items()]


def write_fasta(peptides: Iterable[Peptide], sink: str | Path | IO[str], width: int = 60) -> None:
    """Write FASTA with bodies wrapped at `width` columns."""
    lines: list[str] = []
    for p in peptides:
        lines.append(f">{p.id}")
        for start in range(0, len(p.residues), width):
            lines.append(p.residues[start : start + width])
    _write_text(sink, "\n".join(lines) + ("\n" if lines else ""))


@dataclass(frozen=True)
class PeptideTable:
    """Annotated peptides as columns, one row per peptide.

    The first five columns of `features` are the `DESCRIPTORS`; screening
    keeps the whole `mic.Embedder.features` matrix there. `scores` holds the
    classifier scores, or is None when nothing was scored. `external` holds
    each row's external scores, and `reasons` each row's failed filters,
    which are empty while the row is kept. Both default to empty rows.
    """

    peptides: list[Peptide]
    features: np.ndarray
    scores: np.ndarray | None = None
    external: list[dict[str, float]] | None = None
    reasons: list[tuple[str, ...]] | None = None

    def __post_init__(self) -> None:
        if self.external is None:
            object.__setattr__(self, "external", [{} for _ in self.peptides])
        if self.reasons is None:
            object.__setattr__(self, "reasons", [()] * len(self.peptides))

    def __len__(self) -> int:
        return len(self.peptides)

    def kept(self) -> np.ndarray:
        """The rows without a failed filter, in table order."""
        return np.flatnonzero([not r for r in self.reasons])

    def take(self, rows) -> "PeptideTable":
        """The table of `rows`, in that order."""
        rows = np.asarray(rows, dtype=np.int64)
        return PeptideTable(
            [self.peptides[i] for i in rows],
            self.features[rows],
            None if self.scores is None else self.scores[rows],
            [self.external[i] for i in rows],
            [self.reasons[i] for i in rows],
        )

    def reject(self, rows, reason: str) -> "PeptideTable":
        """The table with `reason` added to the failed filters of `rows`."""
        reasons = list(self.reasons)
        for i in rows:
            reasons[i] += (reason,)
        return PeptideTable(self.peptides, self.features, self.scores, self.external, reasons)


def _fmt(value: float) -> str:
    return repr(float(value))


def write_records(table: PeptideTable, format: str, sink: str | Path | IO[str]) -> None:
    """Serialize a table, one line per row; a row's verdict is "kept" when it has no failed filter.

    TSV is the plot-ready export with a fixed column order; it does not carry
    the provenance tag or external score map. JSONL is lossless.
    """
    rows = zip(
        table.peptides,
        table.features[:, : len(DESCRIPTORS)].tolist(),
        [None] * len(table) if table.scores is None else table.scores.tolist(),
        table.external,
        table.reasons,
        strict=True,
    )
    if format == "tsv":
        lines = [
            (p.id, p.residues, str(int(desc[0])), *map(_fmt, desc[1:]), "" if s is None else _fmt(s))
            + ("rejected" if r else "kept", ";".join(r))
            for p, desc, s, _, r in rows
        ]
        write_tsv(TSV_COLUMNS, lines, sink)
    elif format == "jsonl":
        lines = []
        for p, desc, s, ext, r in rows:
            obj = {
                "peptide": {"id": p.id, "residues": p.residues, "source": p.source},
                "properties": dict(zip(DESCRIPTORS, [int(desc[0]), *desc[1:]])),
                "mic_score": s,
                "external_scores": ext,
                "verdict": "rejected" if r else "kept",
                "reject_reasons": list(r),
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
    """A JSON artifact: sorted keys, two-space indent, a final newline; ValueError on a NaN or infinity."""
    _write_text(sink, json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n")


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
