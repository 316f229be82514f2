"""The six text readers as `amprl` had them before they shared `sequences.Lines`,
kept as a test oracle for `test_reader_oracle.py`.

Each split its own lines (five with `str.splitlines`), numbered them itself,
and carried its own copy of the residue check. `read_external_scores` and
`load_scale_overrides` read a str as a path. Only the imports differ from
the replaced code.
"""
from __future__ import annotations

import io
import json
import math
from pathlib import Path
from typing import IO, Iterable, Iterator, Sequence

from amprl.assay import ASSAY_COLUMNS, FluorescenceSeries
from amprl.dataprep import Cluster
from amprl.mic import LabeledSet
from amprl.physchem import DEFAULT_SCALE, ScaleTable
from amprl.sequences import RESIDUE_LETTERS, RESIDUES, Peptide


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


def read_labeled_tsv(stream: str | Path | IO[str], split: str = "") -> LabeledSet:
    """TSV with header `sequence<TAB>label`; labels active/inactive or 1/0.

    A Path is read as a file and a plain string as the TSV text. Blank lines
    are skipped but counted, so errors and `row<N>` ids name file lines. A
    sequence is stripped and uppercased as `parse_fasta` does.
    """
    lines = [(n, ln) for n, ln in enumerate(_read_text(stream).splitlines(), start=1) if ln.strip()]
    if not lines or lines[0][1].split("\t")[:2] != ["sequence", "label"]:
        raise ValueError("labeled TSV must start with a 'sequence\\tlabel' header")
    items: list[tuple[Peptide, int]] = []
    mapping = {"active": 1, "inactive": 0, "1": 1, "0": 0}
    for lineno, line in lines[1:]:
        parts = line.split("\t")
        if len(parts) < 2:
            raise ValueError(f"line {lineno}: expected sequence and label")
        seq, label = parts[0].strip(), parts[1]
        if label not in mapping:
            raise ValueError(f"line {lineno}: unknown label {label!r}")
        if not seq:
            raise ValueError(f"line {lineno}: empty sequence")
        bad = [ch for ch in seq if ch not in RESIDUE_LETTERS]
        if bad:
            raise ValueError(f"line {lineno}: invalid residue {bad[0]!r}")
        items.append((Peptide(id=f"row{lineno}", residues=seq.upper()), mapping[label]))
    return LabeledSet(items=items, split=split)


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


def read_cluster_assignments(stream: str | Path | IO[str], peptides: Sequence[Peptide]) -> list[Cluster]:
    """Ingest an external (sequence_id, cluster_id) TSV as Cluster objects.

    Every peptide must appear exactly once; representatives are the longest
    member of each cluster (ties broken lexicographically by sequence). A
    Path is read as a file and a plain string as the TSV text.
    """
    text = _read_text(stream)
    by_id = {pep.id: pep for pep in peptides}
    if len(by_id) != len(peptides):
        raise ValueError("peptide ids must be unique for cluster ingestion")
    groups: dict[str, list[Peptide]] = {}
    seen: set[str] = set()
    for n, line in enumerate(text.splitlines(), start=1):
        if not line.strip() or line.startswith("#"):
            continue
        parts = line.rstrip("\n").split("\t")
        if len(parts) != 2:
            raise ValueError(f"line {n}: expected sequence_id<TAB>cluster_id, got {line!r}")
        seq_id, cluster_id = parts
        if seq_id not in by_id:
            raise ValueError(f"line {n}: unknown sequence id {seq_id!r}")
        if seq_id in seen:
            raise ValueError(f"line {n}: duplicate assignment for {seq_id!r}")
        seen.add(seq_id)
        groups.setdefault(cluster_id, []).append(by_id[seq_id])
    missing = sorted(set(by_id) - seen)
    if missing:
        raise ValueError(f"peptides missing a cluster assignment: {', '.join(missing[:5])}")
    clusters = []
    for cluster_id in sorted(groups):
        members = groups[cluster_id]
        rep = min(members, key=lambda p: (-len(p), p.residues, p.id))
        clusters.append(Cluster(representative=rep, members=members))
    return clusters


def read_assay_tsv(stream: str | Path | IO[str]) -> list[FluorescenceSeries]:
    """Read (peptide_id, time_min, sample_fluor, control_fluor) rows.

    Rows group by peptide id in file order; each group's time points must be
    strictly increasing. A value that is not a finite number raises
    ValueError naming its line. A Path is read as a file and a plain string
    as the TSV text.
    """
    lines = _read_text(stream).splitlines()
    if not lines:
        raise ValueError("assay file is empty")
    header = tuple(lines[0].rstrip("\n").split("\t"))
    if header != ASSAY_COLUMNS:
        raise ValueError(f"expected header {ASSAY_COLUMNS}, got {header}")
    groups: dict[str, list[tuple[float, float, float]]] = {}
    order: list[str] = []
    for n, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        parts = line.split("\t")
        if len(parts) != 4:
            raise ValueError(f"line {n}: expected 4 fields, got {len(parts)}")
        pid = parts[0]
        try:
            t, s, c = (float(v) for v in parts[1:])
        except ValueError as err:
            raise ValueError(f"line {n}: non-numeric value ({err})") from None
        if not all(math.isfinite(v) for v in (t, s, c)):
            raise ValueError(f"line {n}: time and fluorescence must be finite, got {t}, {s}, {c}")
        if pid not in groups:
            groups[pid] = []
            order.append(pid)
        groups[pid].append((t, s, c))
    series = []
    for pid in order:
        rows = groups[pid]
        series.append(
            FluorescenceSeries(
                peptide_id=pid,
                times=tuple(r[0] for r in rows),
                sample=tuple(r[1] for r in rows),
                control=tuple(r[2] for r in rows),
            )
        )
    return series


def load_scale_overrides(path: str | Path, base: ScaleTable = DEFAULT_SCALE) -> ScaleTable:
    """Apply key-value overrides from a text file.

    Each non-blank, non-comment line reads `hydropathy <residue> <value>` or
    `pka <group> <value>` where group is a residue letter, n_term, or c_term.
    """
    hydropathy = dict(base.hydropathy)
    pka = dict(base.pka)
    for lineno, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 3:
            raise ValueError(f"{path}:{lineno}: expected 'table key value', got {line!r}")
        table, key, value = parts
        try:
            num = float(value)
        except ValueError:
            raise ValueError(f"{path}:{lineno}: value {value!r} is not a number") from None
        if table == "hydropathy":
            if key not in RESIDUES:
                raise ValueError(f"{path}:{lineno}: unknown residue {key!r}")
            hydropathy[key] = num
        elif table == "pka":
            if key not in pka:
                raise ValueError(f"{path}:{lineno}: unknown pKa group {key!r}")
            pka[key] = num
        else:
            raise ValueError(f"{path}:{lineno}: unknown table {table!r}")
    return ScaleTable(name=base.name, version=base.version + "+overrides", hydropathy=hydropathy, pka=pka)


# the ionizable groups: a base's term is +1 / (1 + 10^(pH - pKa)), an acid's -1 / (1 + 10^(pKa - pH))
